"""Energetic cost of counterdiabatic driving over a stroke.

The accounting compares the instantaneous counterdiabatic level structure,
mapped to bare-trap energies through the closed-form factor Q*_CD(t), with
the adiabatic transport of the initial thermal energy. Two cost measures:

* mean extra work <dW>_tau: time average of ``work_excess``;
* work-fluctuation excess <d(DeltaW)>_tau: time average of the square root
  of ``work_variance_excess``, the excess work variance of the driven
  stroke over the adiabatic one.

Both vanish at the stroke ends for shortcut ramps and scale as 1/tau^2 for
long strokes. The inner friction of the bare (uncorrected) drive,
``friction_stack``, is included for comparison. Like
``dynamics.adiabaticity_stack``, each function takes a stack of strokes,
and each row equals its one-row call bit for bit. The closed forms raise
TrapInversionError unless every stroke has tau > tau_min; the costs
evaluate them on (rows, nodes) grids of at most _BLOCK_SAMPLES samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    DEFAULT_RTOL,
    _cd_grid,
    _ramp_grid,
    adiabaticity_stack,
    coth_half,
    thermal_energy,
)
from .errors import PhysicsError
from .protocols import FrequencyProtocol
from .quadrature import DEFAULT_NODES, simpson_uniform, stroke_grid

__all__ = [
    "StrokeContext",
    "work_excess",
    "work_variance_excess",
    "work_cost_stack",
    "variance_cost_stack",
    "friction_stack",
]

# Grid samples of one block of the stacked costs.
_BLOCK_SAMPLES = 8192


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


def _cd_terms(ctxs, ts):
    """omega(t) and Q*_CD(t), (B, K), and omega_i, n_bar and <H(0)>, (B, 1),
    of a stack of strokes at its ascending checkpoints ts."""
    ctxs = list(ctxs)
    w_t, q = _cd_grid([ctx.protocol for ctx in ctxs], ts)
    columns = np.array([[c.protocol.omega_i, c.n_bar, c.h0_mean] for c in ctxs]).T[..., None]
    return (w_t, q, *columns)


def work_excess(ctxs, ts) -> np.ndarray:
    """Mean extra energy of the CD accounting, (omega_t/omega_i)
    (Q*_CD(t) - 1) <H(0)>, (B, K): row b for ctxs[b] at its ascending
    checkpoints ts[b]."""
    w_t, q, wi, _, h0_mean = _cd_terms(ctxs, ts)
    return (w_t / wi) * (q - 1.0) * h0_mean


def work_variance_excess(ctxs, ts) -> np.ndarray:
    """Excess work variance of the CD-driven stroke over the adiabatic one,
    (B, K): row b for ctxs[b] at its ascending checkpoints ts[b],

        [(omega_t Q*_CD - omega_i)^2 - (omega_t - omega_i)^2] n_bar (n_bar + 1)

    For compression-type strokes (omega_t >= omega_i) this is non-negative;
    on expansion strokes it can be negative at interior times, in which case
    the fluctuation cost below is undefined."""
    w_t, q, wi, n_bar, _ = _cd_terms(ctxs, ts)
    bracket = (w_t * q - wi) ** 2 - (w_t - wi) ** 2
    return bracket * n_bar * (n_bar + 1.0)


def _root_excess(ctxs, ts) -> np.ndarray:
    """sqrt(work_variance_excess), refusing the first stroke whose excess is
    negative beyond roundoff anywhere on its grid."""
    excess = work_variance_excess(ctxs, ts)
    scale = np.maximum(np.max(np.abs(excess), axis=-1, keepdims=True), 1e-300)
    bad = np.flatnonzero((excess < -1e-12 * scale).any(axis=-1))
    if bad.size:
        b = bad[0]
        raise PhysicsError(
            "work-variance excess is negative on this stroke "
            f"(min {np.min(excess[b]):.6g} at t = {ts[b, np.argmin(excess[b])]:.6g}); "
            "the fluctuation cost is defined for compression-type strokes"
        )
    return np.sqrt(np.clip(excess, 0.0, None))


def _time_averages(ctxs, nodes: int, integrand) -> np.ndarray:
    """Simpson time average (B,) of ``integrand(block, ts)`` over each stroke
    on ``nodes`` uniform samples, in blocks of at most _BLOCK_SAMPLES samples
    (one row at least)."""
    ctxs = list(ctxs)
    out = np.empty(len(ctxs))
    rows = max(_BLOCK_SAMPLES // nodes, 1)
    for first in range(0, len(ctxs), rows):
        taus = np.array([ctx.protocol.tau for ctx in ctxs[first:first + rows]])
        ts = stroke_grid(taus, nodes)
        y = integrand(ctxs[first:first + rows], ts)
        out[first:first + rows] = simpson_uniform(y, ts[:, 1] - ts[:, 0]) / taus
    return out


def work_cost_stack(ctxs, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<dW>_tau, (B,): the Simpson time average of work_excess over each
    stroke."""
    return _time_averages(ctxs, nodes, work_excess)


def variance_cost_stack(ctxs, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<d(DeltaW)>_tau, (B,): the Simpson time average of
    sqrt(work_variance_excess) over each stroke. Raises PhysicsError for
    expansion-type strokes, where the excess goes negative."""
    return _time_averages(ctxs, nodes, _root_excess)


def friction_stack(ctxs, ts, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Inner friction of the bare drive, (B, K), of a stack of strokes from
    one propagation: row b for ctxs[b] at its ascending checkpoints ts[b],

        <H0(omega_t)>_bare - (omega_t/omega_i) <H(0)> = (Q* - 1)(omega_t/omega_i) <H(0)>.

    Zero for an adiabatic drive, grows with nonadiabatic excitation."""
    ctxs, ts = list(ctxs), list(ts)
    protocols = [ctx.protocol for ctx in ctxs]
    q, _ = adiabaticity_stack(protocols, [ctx.beta for ctx in ctxs], ts, rtol=rtol)
    w_t = _ramp_grid(protocols, ts)[0]
    omega_i = np.array([p.omega_i for p in protocols])[:, None]
    h0_mean = np.array([ctx.h0_mean for ctx in ctxs])[:, None]
    return (q - 1.0) * (w_t / omega_i) * h0_mean
