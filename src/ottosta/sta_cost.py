"""Energetic cost of counterdiabatic driving over a stroke.

The accounting compares the instantaneous counterdiabatic level structure,
mapped to bare-trap energies through the closed-form factor Q*_CD(t), with
the adiabatic transport of the initial thermal energy. Two cost measures:

* mean extra work <dW>_tau: time average of
  (omega_t/omega_i) (Q*_CD(t) - 1) <H(0)>;
* work-fluctuation excess <d(DeltaW)>_tau: time average of the square root
  of the excess work variance of the driven stroke over the adiabatic one.

Both vanish at the stroke ends for shortcut ramps and scale as 1/tau^2 for
long strokes. The inner friction of the bare (uncorrected) drive,
``friction_stack``, is included for comparison; like
``dynamics.adiabaticity_stack``, which it reads, it takes a stack of
strokes and propagates them in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DEFAULT_RTOL,
    adiabaticity_stack,
    coth_half,
    q_cd_grid,
    thermal_energy,
)
from .errors import PhysicsError
from .protocols import FrequencyProtocol
from .quadrature import DEFAULT_NODES, simpson_uniform, stroke_grid

__all__ = [
    "StrokeContext",
    "mean_sta_term",
    "avg_work_cost",
    "work_variance_excess",
    "avg_variance_cost",
    "friction_stack",
]


@dataclass(frozen=True)
class StrokeContext:
    """A protocol plus the thermal state it starts from.

    ``n_bar`` and ``h0_mean`` are derived at construction: the mean
    occupation and mean energy of the initial thermal state at omega_i.
    """

    protocol: FrequencyProtocol
    beta: float
    n_bar: float = field(init=False)
    h0_mean: float = field(init=False)

    def __post_init__(self):
        beta = float(self.beta)
        if not beta > 0.0:
            raise ValueError(f"beta must be positive, got {beta!r}")
        object.__setattr__(self, "beta", beta)
        c = coth_half(beta, self.protocol.omega_i)
        object.__setattr__(self, "n_bar", 0.5 * (c - 1.0))
        object.__setattr__(self, "h0_mean", thermal_energy(beta, self.protocol.omega_i))


def mean_sta_term(ctx: StrokeContext, t) -> float | np.ndarray:
    """Instantaneous mean extra energy of the CD accounting at time t:
    (omega_t/omega_i) (Q*_CD(t) - 1) <H(0)>. Vectorized over t."""
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    w_t = np.atleast_1d(np.asarray(ctx.protocol.omega(ts), dtype=np.float64))
    q = q_cd_grid(ctx.protocol, ts)
    out = (w_t / ctx.protocol.omega_i) * (q - 1.0) * ctx.h0_mean
    return float(out[0]) if scalar else out


def avg_work_cost(ctx: StrokeContext, nodes: int = DEFAULT_NODES) -> float:
    """<dW>_tau: Simpson time average of mean_sta_term over the stroke."""
    ts = stroke_grid(ctx.protocol.tau, nodes)
    y = mean_sta_term(ctx, ts)
    return simpson_uniform(y, ts[1] - ts[0]) / ctx.protocol.tau


def work_variance_excess(ctx: StrokeContext, t) -> float | np.ndarray:
    """Excess work variance of the CD-driven stroke over the adiabatic one
    at time t:

        [(omega_t Q*_CD - omega_i)^2 - (omega_t - omega_i)^2] n_bar (n_bar + 1)

    For compression-type strokes (omega_t >= omega_i) this is non-negative;
    on expansion strokes it can be negative at interior times, in which case
    the fluctuation cost below is undefined. Vectorized over t."""
    scalar = np.isscalar(t)
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    w_t = np.atleast_1d(np.asarray(ctx.protocol.omega(ts), dtype=np.float64))
    q = q_cd_grid(ctx.protocol, ts)
    wi = ctx.protocol.omega_i
    bracket = (w_t * q - wi) ** 2 - (w_t - wi) ** 2
    out = bracket * ctx.n_bar * (ctx.n_bar + 1.0)
    return float(out[0]) if scalar else out


def avg_variance_cost(ctx: StrokeContext, nodes: int = DEFAULT_NODES) -> float:
    """<d(DeltaW)>_tau: Simpson time average of sqrt(work_variance_excess).

    Raises PhysicsError if the excess is negative beyond roundoff anywhere
    on the grid (expansion-type strokes)."""
    ts = stroke_grid(ctx.protocol.tau, nodes)
    excess = np.atleast_1d(work_variance_excess(ctx, ts))
    scale = max(float(np.max(np.abs(excess))), 1e-300)
    floor = -1e-12 * scale
    if np.any(excess < floor):
        t_bad = float(ts[int(np.argmin(excess))])
        raise PhysicsError(
            "work-variance excess is negative on this stroke "
            f"(min {float(np.min(excess)):.6g} at t = {t_bad:.6g}); the "
            "fluctuation cost is defined for compression-type strokes"
        )
    y = np.sqrt(np.clip(excess, 0.0, None))
    return simpson_uniform(y, ts[1] - ts[0]) / ctx.protocol.tau


def friction_stack(ctxs, ts, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Inner friction of the bare drive, (B, K), of a stack of strokes from
    one propagation: row b for ctxs[b] at its ascending checkpoints ts[b],

        <H0(omega_t)>_bare - (omega_t/omega_i) <H(0)> = (Q* - 1)(omega_t/omega_i) <H(0)>.

    Zero for an adiabatic drive, grows with nonadiabatic excitation. Each
    row equals its one-row call bit for bit."""
    ctxs, ts = list(ctxs), list(ts)
    protocols = [ctx.protocol for ctx in ctxs]
    q, _ = adiabaticity_stack(protocols, [ctx.beta for ctx in ctxs], ts, rtol=rtol)
    w_t = np.stack([p.eval_many(t)[0] for p, t in zip(protocols, ts)])
    omega_i = np.array([p.omega_i for p in protocols])[:, None]
    h0_mean = np.array([ctx.h0_mean for ctx in ctxs])[:, None]
    return (q - 1.0) * (w_t / omega_i) * h0_mean
