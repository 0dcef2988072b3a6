"""Energetic cost of counterdiabatic driving over a stroke.

The accounting compares the instantaneous counterdiabatic level structure,
mapped to bare-trap energies through the closed-form factor Q*_CD(t), with
the adiabatic transport of the initial thermal energy. For a thermal start
each cost is a thermal prefactor times a function of the ramp alone
(Husimi, Prog. Theor. Phys. 9, 381 (1953)), and the functions here return
that function of the ramp:

* mean extra work <dW>_tau: time average of ``work_excess``, per <H(0)>;
* work-fluctuation excess <d(DeltaW)>_tau: time average of the square root
  of ``work_variance_excess``, the excess work variance of the driven
  stroke over the adiabatic one, per sqrt(n_bar (n_bar + 1)).

Temperature enters where an energy is booked: ``thermo_cycle.stroke_records``
and ``datasets.cost_dataset`` multiply by ``dynamics.thermal_energy`` and
``dynamics.occupation_spread``. Both costs vanish at the stroke ends for
shortcut ramps and scale as 1/tau^2 for long strokes. Each function takes a
stack of protocols; each row equals its one-row call bit for bit. The
closed forms raise TrapInversionError unless every tau > tau_min; the costs
evaluate them on (rows, nodes) grids of at most _BLOCK_SAMPLES samples. The
bare drive's inner friction, ``friction_stack``, keeps its ``betas``: like
``dynamics.adiabaticity_stack`` it reads the validated thermal moments, as
``fock_oracle.tpm_variance_excess``, the independent check, reads its own.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    DEFAULT_RTOL,
    _cd_grid,
    _ramp_grid,
    adiabaticity_stack,
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


def work_excess(protocols, ts) -> np.ndarray:
    """Mean extra energy of the CD accounting per unit <H(0)>, (omega_t/omega_i)
    (Q*_CD(t) - 1), (B, K): row b for protocols[b] at its checkpoints ts[b]."""
    w_t, q, omega_i = _cd_grid(protocols, ts)
    return (w_t / omega_i) * (q - 1.0)


def work_variance_excess(protocols, ts) -> np.ndarray:
    """Excess work variance of the CD-driven stroke over the adiabatic one
    per unit n_bar (n_bar + 1), (B, K): row b for protocols[b] at its
    checkpoints ts[b], (omega_t Q*_CD - omega_i)^2 - (omega_t - omega_i)^2.
    For compression-type strokes (omega_t >= omega_i) this is non-negative;
    on expansion strokes it can be negative at interior times, in which case
    the fluctuation cost below is undefined."""
    w_t, q, omega_i = _cd_grid(protocols, ts)
    return (w_t * q - omega_i) ** 2 - (w_t - omega_i) ** 2


def _root_excess(protocols, ts) -> np.ndarray:
    """sqrt(work_variance_excess), refusing the first stroke whose excess is
    negative beyond roundoff anywhere on its grid."""
    excess = work_variance_excess(protocols, ts)
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


def _time_averages(protocols, nodes: int, integrand) -> np.ndarray:
    """Simpson time average (B,) of ``integrand(protocols, ts)`` over each
    stroke on ``nodes`` uniform samples, in blocks of at most
    _BLOCK_SAMPLES samples (one row at least)."""
    protocols = list(protocols)
    out = np.empty(len(protocols))
    rows = max(_BLOCK_SAMPLES // nodes, 1)
    for first in range(0, len(protocols), rows):
        block = slice(first, first + rows)
        taus = np.array([p.tau for p in protocols[block]])
        ts = stroke_grid(taus, nodes)
        y = integrand(protocols[block], ts)
        out[block] = simpson_uniform(y, ts[:, 1] - ts[:, 0]) / taus
    return out


def work_cost_stack(protocols, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<dW>_tau per unit <H(0)>, (B,): the Simpson time average of
    work_excess over each stroke."""
    return _time_averages(protocols, nodes, work_excess)


def variance_cost_stack(protocols, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<d(DeltaW)>_tau per unit sqrt(n_bar (n_bar + 1)), (B,): the Simpson
    time average of sqrt(work_variance_excess) over each stroke. Raises
    PhysicsError for expansion-type strokes, at any temperature."""
    return _time_averages(protocols, nodes, _root_excess)


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
