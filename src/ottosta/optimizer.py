"""Efficiency at maximum power of the adiabatic Otto engine.

Adiabatic stroke works against a cycle time that scales with the stroke
frequencies: each unitary stroke takes about one period of its slow end,
tau_cycle = 1/omega1 + 1/omega2 = (1 + x)/omega1 with x = omega1/omega2.
At fixed omega1 and bath temperatures the output power is

    P(x) = omega1 [ <H>_A (1 - 1/x) + <H>_C(x) (1 - x) ] / (1 + x),

where <H>_A is fixed and <H>_C(x) = (omega1 / 2x) coth(beta2 omega1 / 2x)
depends on x through the hot-side frequency. With gamma = <H>_A / <H>_C the
stationarity condition has the closed-form root

    x_opt = [gamma + sqrt(2 gamma (1 + gamma))] / (2 + gamma),

exact whenever <H>_C is (to working accuracy) independent of x, which the
high-temperature hot bath limit guarantees (<H>_C -> 1/beta2). The engine
efficiency at that ratio is 1 - x_opt. A second closed form,

    eta* = 1 - [gamma + sqrt(4 gamma (1 + gamma))] / (2 + gamma),

is kept alongside it for comparison; the two are not consistent with each
other (different radicals), and the numeric maximizer arbitrates: it agrees
with x_opt. Both are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import thermal_energy

__all__ = [
    "EmpConfig",
    "EmpResult",
    "hot_energy",
    "gamma_ratio",
    "power_curve",
    "optimal_x_analytic",
    "eta_max_power_analytic",
    "curzon_ahlborn",
    "golden_max",
    "maximize_power_numeric",
]

# Iteration cap of golden_max; 200 golden steps shrink any bracket 1e42-fold.
_GOLDEN_MAX_ITER = 200


@dataclass(frozen=True)
class EmpConfig:
    """Fixed cold-side frequency omega1 and the two bath temperatures.

    ``high_t_hot`` replaces <H>_C by its classical value 1/beta2, making the
    analytic x_opt exact."""

    omega1: float
    beta1: float
    beta2: float
    high_t_hot: bool = False

    def __post_init__(self):
        for name in ("omega1", "beta1", "beta2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, v)
        if not self.beta1 > self.beta2:
            raise ValueError("need beta1 > beta2 (cold bath colder than hot bath)")

    @property
    def cold_energy(self) -> float:
        return thermal_energy(self.beta1, self.omega1)


def hot_energy(config: EmpConfig, x: float) -> float:
    """<H>_C at frequency ratio x (hot-side frequency omega1/x)."""
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    if config.high_t_hot:
        return 1.0 / config.beta2
    return thermal_energy(config.beta2, config.omega1 / x)


def gamma_ratio(config: EmpConfig, x: float) -> float:
    """gamma = <H>_A / <H>_C at frequency ratio x."""
    return config.cold_energy / hot_energy(config, x)


def power_curve(config: EmpConfig, x: float) -> float:
    """Output power at frequency ratio x with the frequency-scaled cycle
    time: omega1 [ <H>_A (1 - 1/x) + <H>_C(x) (1 - x) ] / (1 + x)."""
    work_out = config.cold_energy * (1.0 - 1.0 / x) + hot_energy(config, x) * (1.0 - x)
    return config.omega1 * work_out / (1.0 + x)


def optimal_x_analytic(gamma: float) -> float:
    """Closed-form stationary frequency ratio of the power curve."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return (gamma + math.sqrt(2.0 * gamma * (1.0 + gamma))) / (2.0 + gamma)


def eta_max_power_analytic(gamma: float) -> float:
    """The companion closed form for the efficiency at maximum power.

    Not equal to 1 - optimal_x_analytic(gamma); the numeric maximizer sides
    with the latter. Both are exposed so the discrepancy is visible."""
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return 1.0 - (gamma + math.sqrt(4.0 * gamma * (1.0 + gamma))) / (2.0 + gamma)


def curzon_ahlborn(beta_ratio: float) -> float:
    """eta_CA = 1 - sqrt(T_cold/T_hot) = 1 - sqrt(beta2/beta1)."""
    if not 0.0 < beta_ratio < 1.0:
        raise ValueError(f"beta2/beta1 must lie in (0, 1), got {beta_ratio}")
    return 1.0 - math.sqrt(beta_ratio)


def golden_max(f, a: float, b: float, xtol: float = 1e-10):
    """Golden-section maximizer of a unimodal f on [a, b].

    Returns (x_max, f(x_max)) once the bracket width drops below xtol."""
    if not b > a:
        raise ValueError(f"bracket must satisfy a < b, got a={a}, b={b}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = f(c)
    fd = f(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a < xtol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


@dataclass(frozen=True)
class EmpResult:
    x_opt: float
    power_max: float
    eta: float
    gamma: float
    is_engine: bool


def maximize_power_numeric(config: EmpConfig, xtol: float = 1e-10) -> EmpResult:
    """Maximize the power curve over x in (0, 1) by golden section."""
    lo = 1e-6
    hi = 1.0 - 1e-9
    x_opt, p_max = golden_max(lambda x: power_curve(config, x), lo, hi, xtol=xtol)
    return EmpResult(
        x_opt=x_opt,
        power_max=p_max,
        eta=1.0 - x_opt,
        gamma=gamma_ratio(config, x_opt),
        is_engine=p_max > 0.0,
    )
