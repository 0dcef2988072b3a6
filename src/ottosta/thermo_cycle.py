"""Quantum Otto cycle bookkeeping for the harmonic working medium.

The four strokes: (1) unitary compression omega1 -> omega2 from the cold
thermal state A, (2) full thermalization with the hot bath at inverse
temperature beta2, (3) unitary expansion omega2 -> omega1 from the hot
thermal state C, (4) full thermalization with the cold bath at beta1.

Sign conventions: stroke works are energy INTO the medium (engine output is
-(W1+W3) > 0), heats are energy absorbed by the medium. All stroke works
and heats are closed forms in the two adiabaticity factors Q*1 (compression)
and Q*3 (expansion); the accounting conventions differ only in what they
plug in for those factors and in how driving costs enter.

Accounting conventions:

* ADIABATIC: Q*1 = Q*3 = 1 (quasistatic limit).
* NONADIABATIC: bare-drive factors from Gaussian propagation at t = tau.
* STA: counterdiabatic driving, endpoint-exact (Q* = 1), with the
  time-averaged driving cost added to the heat input for the efficiency and
  subtracted from the output for the power.
* TIME_AVERAGED: stroke work replaced by its driving-time average,
  W_i + <dW_i>_tau, with the bare heat input.

A cycle point's strokes are computed once, by ``stroke_records`` alone,
into a StrokeRecord of what the given accountings read (the factors of many
points come from one stacked propagation); ``book_cycle`` turns a record
into the result of any accounting by arithmetic alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .dynamics import DEFAULT_RTOL, adiabaticity_stack, thermal_energy
from .errors import SecondLawViolationError
from .protocols import FrequencyProtocol, ProtocolKind, check_cd_validity, require_cd_valid
from .quadrature import DEFAULT_NODES
from .sta_cost import StrokeContext, avg_work_cost

__all__ = [
    "Accounting",
    "CycleConfig",
    "CycleResult",
    "stroke_works",
    "heat_hot",
    "heat_cold",
    "efficiency_exact",
    "entropy_production",
    "StrokeRecord",
    "stroke_records",
    "book_cycle",
    "evaluate_cycle",
]

# Roundoff allowance of the entropy-production guard.
_SECOND_LAW_TOL = 1e-9


class Accounting(str, Enum):
    ADIABATIC = "adiabatic"
    NONADIABATIC = "nonadiabatic"
    STA = "sta"
    TIME_AVERAGED = "time_averaged"


@dataclass(frozen=True)
class CycleConfig:
    """Cycle parameters. beta1 is the cold bath (coupled at omega1), beta2
    the hot bath (coupled at omega2); an engine needs beta1 > beta2 and
    omega1 < omega2."""

    omega1: float
    omega2: float
    beta1: float
    beta2: float
    tau1: float
    tau3: float
    kind: ProtocolKind = ProtocolKind.POLY5

    def __post_init__(self):
        for name in ("omega1", "omega2", "beta1", "beta2", "tau1", "tau3"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "kind", ProtocolKind(self.kind))
        if not self.omega1 < self.omega2:
            raise ValueError("need omega1 < omega2 (compression raises the frequency)")
        if not self.beta1 > self.beta2:
            raise ValueError("need beta1 > beta2 (cold bath colder than hot bath)")

    @property
    def x(self) -> float:
        """Frequency ratio omega1/omega2, in (0, 1)."""
        return self.omega1 / self.omega2

    @property
    def tau_cycle(self) -> float:
        """Driving time per cycle; thermalization strokes are not clocked."""
        return self.tau1 + self.tau3

    @property
    def eta_carnot(self) -> float:
        return 1.0 - self.beta2 / self.beta1

    @property
    def cold_energy(self) -> float:
        """<H>_A: thermal energy at (beta1, omega1), start of compression."""
        return thermal_energy(self.beta1, self.omega1)

    @property
    def hot_energy(self) -> float:
        """<H>_C: thermal energy at (beta2, omega2), start of expansion."""
        return thermal_energy(self.beta2, self.omega2)

    def compression_protocol(self) -> FrequencyProtocol:
        return FrequencyProtocol(self.kind, self.omega1, self.omega2, self.tau1)

    def expansion_protocol(self) -> FrequencyProtocol:
        return FrequencyProtocol(self.kind, self.omega2, self.omega1, self.tau3)


def stroke_works(config: CycleConfig, q1: float, q3: float) -> tuple[float, float]:
    """(W1, W3) for given adiabaticity factors of the two unitary strokes."""
    w1 = config.cold_energy * (q1 / config.x - 1.0)
    w3 = (config.x * q3 - 1.0) * config.hot_energy
    return w1, w3


def heat_hot(config: CycleConfig, q1: float) -> float:
    """Q2: heat absorbed from the hot bath while thermalizing B -> C."""
    return config.hot_energy - q1 * config.cold_energy / config.x


def heat_cold(config: CycleConfig, q3: float) -> float:
    """Q4: heat absorbed from the cold bath while thermalizing D -> A,
    computed from the state energies <H>_A - x Q*3 <H>_C (so the first law
    around the cycle is a checkable identity, not a definition)."""
    return config.cold_energy - config.x * q3 * config.hot_energy


def efficiency_exact(config: CycleConfig, q1: float, q3: float) -> float:
    """Engine efficiency -(W1+W3)/Q2 in its factored closed form."""
    x = config.x
    num = x * (x * q3 * config.hot_energy - config.cold_energy)
    den = x * config.hot_energy - q1 * config.cold_energy
    return 1.0 - num / den


def entropy_production(config: CycleConfig, q2: float, q4: float) -> float:
    """Total entropy production per cycle, -beta2 Q2 - beta1 Q4.

    Raises SecondLawViolationError if negative beyond _SECOND_LAW_TOL."""
    ds = -config.beta2 * q2 - config.beta1 * q4
    if ds < -_SECOND_LAW_TOL:
        raise SecondLawViolationError(
            f"entropy production {ds:.6g} < 0; inconsistent heats (q2={q2:.6g}, "
            f"q4={q4:.6g})"
        )
    return ds


@dataclass(frozen=True)
class StrokeRecord:
    """What the accountings read of one cycle point: the bare-drive factors
    (Q*1, Q*3) at the stroke ends and the time-averaged counterdiabatic
    costs (c1, c3). None marks a value not computed, or a cost that does not
    exist because the stroke is no longer than tau_min."""

    q1: float | None
    q3: float | None
    c1: float | None
    c3: float | None


def stroke_records(
    configs,
    accountings=tuple(Accounting),
    nodes: int = DEFAULT_NODES,
    rtol: float = DEFAULT_RTOL,
) -> list[StrokeRecord]:
    """One StrokeRecord per cycle point, holding what ``accountings`` read:
    for NONADIABATIC the Q* of every stroke, from one stacked bare-drive
    propagation; for STA and TIME_AVERAGED the cost of each feasible stroke,
    from one avg_work_cost quadrature."""
    accountings = {Accounting(a) for a in accountings}
    factors = Accounting.NONADIABATIC in accountings
    costs = not accountings.isdisjoint((Accounting.STA, Accounting.TIME_AVERAGED))
    configs = list(configs)
    protocols = [
        p for c in configs for p in (c.compression_protocol(), c.expansion_protocol())
    ]
    betas = [b for c in configs for b in (c.beta1, c.beta2)]
    q = [None] * len(protocols)
    if factors and protocols:
        ends = [[p.tau] for p in protocols]
        q = [float(v) for v in adiabaticity_stack(protocols, betas, ends, rtol=rtol)[0][:, 0]]
    c = [None] * len(protocols)
    if costs:
        c = [
            avg_work_cost(StrokeContext(p, b), nodes=nodes)
            if check_cd_validity(p).valid else None
            for p, b in zip(protocols, betas)
        ]
    return [
        StrokeRecord(q[i], q[i + 1], c[i], c[i + 1]) for i in range(0, len(protocols), 2)
    ]


@dataclass(frozen=True)
class CycleResult:
    """One cycle evaluation under a given accounting convention."""

    accounting: Accounting
    q1_star: float
    q3_star: float
    w1: float
    w3: float
    q2: float
    q4: float
    cost1: float
    cost3: float
    work_output: float
    eta: float
    power: float
    ds_tot: float
    is_engine: bool


def book_cycle(
    config: CycleConfig, record: StrokeRecord, accounting: Accounting
) -> CycleResult:
    """The cycle under one accounting convention, by arithmetic on the
    cycle point's stroke record. STA and TIME_AVERAGED raise
    TrapInversionError unless both strokes are longer than tau_min; any
    accounting raises ValueError if the record lacks a value it reads."""
    accounting = Accounting(accounting)
    q1 = q3 = 1.0
    c1 = c3 = 0.0
    if accounting is Accounting.NONADIABATIC:
        q1, q3 = record.q1, record.q3
    elif accounting is not Accounting.ADIABATIC:
        require_cd_valid(config.compression_protocol())
        require_cd_valid(config.expansion_protocol())
        c1, c3 = record.c1, record.c3
    if None in (q1, q3, c1, c3):
        raise ValueError(
            f"{accounting.value} accounting reads values this stroke record lacks; "
            f"build it by stroke_records with {accounting.value} among its accountings"
        )
    w1, w3 = stroke_works(config, q1, q3)
    q2 = heat_hot(config, q1)
    q4 = heat_cold(config, q3)
    if accounting is Accounting.TIME_AVERAGED:
        w1, w3 = w1 + c1, w3 + c3
        c1 = c3 = 0.0
        q4 = -(w1 + w3) - q2  # accounting closure
    output = -(w1 + w3) - c1 - c3
    heat_in = q2 + c1 + c3
    eta = -(w1 + w3) / heat_in
    power = output / config.tau_cycle
    ds = entropy_production(config, q2, q4)
    is_engine = output > 0.0 and heat_in > 0.0
    return CycleResult(
        accounting=accounting,
        q1_star=q1,
        q3_star=q3,
        w1=w1,
        w3=w3,
        q2=q2,
        q4=q4,
        cost1=c1,
        cost3=c3,
        work_output=output,
        eta=eta,
        power=power,
        ds_tot=ds,
        is_engine=is_engine,
    )


def evaluate_cycle(
    config: CycleConfig,
    accounting: Accounting = Accounting.ADIABATIC,
    nodes: int = DEFAULT_NODES,
    rtol: float = DEFAULT_RTOL,
) -> CycleResult:
    """Evaluate the full cycle under one accounting convention, computing
    only what it reads: ADIABATIC propagates nothing and NONADIABATIC needs
    no quadrature."""
    record = stroke_records([config], [accounting], nodes=nodes, rtol=rtol)[0]
    return book_cycle(config, record, accounting)
