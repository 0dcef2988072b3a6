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
``dynamics.adiabaticity_stack``, each function takes a stack of strokes as
parallel lists ``protocols, betas``, row b the stroke protocols[b] from the
thermal state at (betas[b], omega_i), and each row equals its one-row call
bit for bit. The closed forms raise TrapInversionError unless every stroke
has tau > tau_min; the costs evaluate them on (rows, nodes) grids of at
most _BLOCK_SAMPLES samples.
"""

from __future__ import annotations

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
from .quadrature import DEFAULT_NODES, simpson_uniform, stroke_grid

__all__ = [
    "work_excess",
    "work_variance_excess",
    "work_cost_stack",
    "variance_cost_stack",
    "friction_stack",
]

# Grid samples of one block of the stacked costs.
_BLOCK_SAMPLES = 8192


def _cd_terms(protocols, betas, ts):
    """omega(t) and Q*_CD(t), (B, K), and omega_i, n_bar and <H(0)>, (B, 1),
    of a stack of strokes at its ascending checkpoints ts: n_bar and <H(0)>
    are the mean occupation and energy of the thermal start at
    (betas[b], omega_i)."""
    protocols = list(protocols)
    columns = np.array([
        [p.omega_i, 0.5 * (coth_half(beta, p.omega_i) - 1.0), thermal_energy(beta, p.omega_i)]
        for p, beta in zip(protocols, betas, strict=True)
    ]).T[..., None]
    return (*_cd_grid(protocols, ts), *columns)


def work_excess(protocols, betas, ts) -> np.ndarray:
    """Mean extra energy of the CD accounting, (omega_t/omega_i)
    (Q*_CD(t) - 1) <H(0)>, (B, K): row b for protocols[b] from betas[b] at
    its ascending checkpoints ts[b]."""
    w_t, q, wi, _, h0_mean = _cd_terms(protocols, betas, ts)
    return (w_t / wi) * (q - 1.0) * h0_mean


def work_variance_excess(protocols, betas, ts) -> np.ndarray:
    """Excess work variance of the CD-driven stroke over the adiabatic one,
    (B, K): row b for protocols[b] from betas[b] at its ascending
    checkpoints ts[b],

        [(omega_t Q*_CD - omega_i)^2 - (omega_t - omega_i)^2] n_bar (n_bar + 1)

    For compression-type strokes (omega_t >= omega_i) this is non-negative;
    on expansion strokes it can be negative at interior times, in which case
    the fluctuation cost below is undefined."""
    w_t, q, wi, n_bar, _ = _cd_terms(protocols, betas, ts)
    bracket = (w_t * q - wi) ** 2 - (w_t - wi) ** 2
    return bracket * n_bar * (n_bar + 1.0)


def _root_excess(protocols, betas, ts) -> np.ndarray:
    """sqrt(work_variance_excess), refusing the first stroke whose excess is
    negative beyond roundoff anywhere on its grid."""
    excess = work_variance_excess(protocols, betas, ts)
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


def _time_averages(protocols, betas, nodes: int, integrand) -> np.ndarray:
    """Simpson time average (B,) of ``integrand(protocols, betas, ts)`` over
    each stroke on ``nodes`` uniform samples, in blocks of at most
    _BLOCK_SAMPLES samples (one row at least)."""
    protocols, betas = list(protocols), list(betas)
    if len(betas) != len(protocols):
        raise ValueError(f"{len(protocols)} protocols but {len(betas)} betas")
    out = np.empty(len(protocols))
    rows = max(_BLOCK_SAMPLES // nodes, 1)
    for first in range(0, len(protocols), rows):
        block = slice(first, first + rows)
        taus = np.array([p.tau for p in protocols[block]])
        ts = stroke_grid(taus, nodes)
        y = integrand(protocols[block], betas[block], ts)
        out[block] = simpson_uniform(y, ts[:, 1] - ts[:, 0]) / taus
    return out


def work_cost_stack(protocols, betas, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<dW>_tau, (B,): the Simpson time average of work_excess over each
    stroke."""
    return _time_averages(protocols, betas, nodes, work_excess)


def variance_cost_stack(protocols, betas, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<d(DeltaW)>_tau, (B,): the Simpson time average of
    sqrt(work_variance_excess) over each stroke. Raises PhysicsError for
    expansion-type strokes, where the excess goes negative."""
    return _time_averages(protocols, betas, nodes, _root_excess)


def friction_stack(protocols, betas, ts, rtol: float = DEFAULT_RTOL) -> np.ndarray:
    """Inner friction of the bare drive, (B, K), of a stack of strokes from
    one propagation: row b for protocols[b] from betas[b] at its ascending
    checkpoints ts[b],

        <H0(omega_t)>_bare - (omega_t/omega_i) <H(0)> = (Q* - 1)(omega_t/omega_i) <H(0)>.

    Zero for an adiabatic drive, grows with nonadiabatic excitation."""
    protocols, betas, ts = list(protocols), list(betas), list(ts)
    q, _ = adiabaticity_stack(protocols, betas, ts, rtol=rtol)
    (w_t,) = _ramp_grid(protocols, ts, 0)
    omega_i = np.array([p.omega_i for p in protocols])[:, None]
    h0_mean = np.array([thermal_energy(beta, p.omega_i) for p, beta in zip(protocols, betas)])
    return (q - 1.0) * (w_t / omega_i) * h0_mean[:, None]
