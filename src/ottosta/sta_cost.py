"""Energetic cost of counterdiabatic driving over a stroke.

The accounting compares the instantaneous counterdiabatic level structure,
mapped to bare-trap energies through the closed-form factor
Q*_CD = 1 / sqrt(1 - x) with x = omegadot^2 / (4 omega^4) the deficit of
the validity margin, with the adiabatic transport of the initial thermal
energy. For a thermal start each cost is a thermal prefactor times a
function of the ramp alone (Husimi, Prog. Theor. Phys. 9, 381 (1953)), and
the functions here return that function of the ramp:

* mean extra work <dW>_tau: time average of (omega_t/omega_i)(Q*_CD - 1),
  per <H(0)>;
* work-fluctuation excess <d(DeltaW)>_tau: time average of the square root
  of ``work_variance_excess``, the excess work variance of the driven
  stroke over the adiabatic one, per sqrt(n_bar (n_bar + 1)).

Each integrand is one function of (omega_t/omega_i, x), with Q*_CD - 1
written so that it keeps its digits as x -> 0. At u = t/tau the deficit is
x = (r(u)/tau)^2, where r is the margin ratio of the unit-duration ramp
that ``protocols.tau_min`` maximizes, so a cost depends on tau only through
arithmetic on one table per ramp shape (kind, omega_i, omega_f):
omega(u)/omega_i and r(u)^2 on the unit grid ``stroke_grid(1.0, nodes)``,
evaluated once at tau = 1 and averaged over u by ``simpson_uniform``.

Temperature enters where an energy is booked: ``thermo_cycle.stroke_records``
and ``datasets.cost_dataset`` multiply by ``dynamics.thermal_energy`` and
``dynamics.occupation_spread``. Both costs vanish at the stroke ends for
shortcut ramps and scale as 1/tau^2 for long strokes. Each function takes a
stack of protocols; each row equals its one-row call bit for bit. The
closed forms raise TrapInversionError unless every tau > tau_min; the costs
hold one shape's table at a time and take its rows in (rows, nodes) blocks
of at most _BLOCK_SAMPLES samples. The bare drive's inner friction,
``friction_stack``, keeps its ``betas``: like
``dynamics.adiabaticity_stack`` it reads the validated thermal moments, as
``fock_oracle.tpm_variance_excess``, the independent check, reads its own.
"""

from __future__ import annotations

import numpy as np

from .dynamics import (
    DEFAULT_RTOL,
    _cd_grid,
    _margin_deficit,
    _ramp_grid,
    adiabaticity_stack,
    thermal_energy,
)
from .errors import PhysicsError
from .protocols import FrequencyProtocol, require_cd_valid
from .quadrature import DEFAULT_NODES, simpson_uniform, stroke_grid

__all__ = [
    "work_variance_excess",
    "work_cost_stack",
    "variance_cost_stack",
    "friction_stack",
]

# Grid samples of one block of the stacked costs.
_BLOCK_SAMPLES = 8192


def _q_minus_one(x: np.ndarray) -> np.ndarray:
    """Q*_CD - 1 at margin deficit x, as x / (sqrt(1 - x) (1 + sqrt(1 - x))),
    which does not cancel as x -> 0."""
    root = np.sqrt(1.0 - x)
    return x / (root * (1.0 + root))


def _work_excess(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean extra energy of the CD accounting per unit <H(0)>,
    v (Q*_CD - 1), at v = omega_t/omega_i and margin deficit x."""
    return v * _q_minus_one(x)


def _variance_excess(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Excess work variance per unit omega_i^2 n_bar (n_bar + 1) at
    v = omega_t/omega_i and margin deficit x: (v Q*_CD - 1)^2 - (v - 1)^2,
    factored as v (Q*_CD - 1)(v (Q*_CD + 1) - 2), free of the cancellation
    of the two squares."""
    q1 = _q_minus_one(x)
    return v * q1 * (v * (q1 + 2.0) - 2.0)


def work_variance_excess(protocols, ts) -> np.ndarray:
    """Excess work variance of the CD-driven stroke over the adiabatic one
    per unit n_bar (n_bar + 1), (B, K): row b for protocols[b] at its
    checkpoints ts[b], (omega_t Q*_CD - omega_i)^2 - (omega_t - omega_i)^2.
    For compression-type strokes (omega_t >= omega_i) this is non-negative;
    on expansion strokes it can be negative at interior times, in which case
    the fluctuation cost below is undefined."""
    protocols = list(protocols)
    w, x = _cd_grid(protocols, ts)
    omega_i = np.array([[p.omega_i] for p in protocols])
    return omega_i**2 * _variance_excess(w / omega_i, x)


def _shape_blocks(protocols: list[FrequencyProtocol], nodes: int):
    """The strokes of a stack on their unit-ramp tables: yields
    (rows, v, x) per block, with ``rows`` the stack indices of strokes of
    one ramp shape, v = omega(u)/omega_i (nodes,) of that shape on the unit
    grid u and x = r(u)^2 / tau^2 (len(rows), nodes) their margin deficits.

    Each distinct shape is evaluated once, at tau = 1, and its rows go in
    blocks of at most _BLOCK_SAMPLES samples (one row at least). Raises
    TrapInversionError unless every tau > tau_min."""
    for protocol in protocols:
        require_cd_valid(protocol)
    shapes: dict[tuple, list[int]] = {}
    for b, p in enumerate(protocols):
        shapes.setdefault((p.kind, p.omega_i, p.omega_f), []).append(b)
    u = stroke_grid(1.0, nodes)
    size = max(_BLOCK_SAMPLES // nodes, 1)
    for (kind, omega_i, omega_f), members in shapes.items():
        w, wd = FrequencyProtocol(kind, omega_i, omega_f, 1.0).eval(u)
        v, r2 = w / omega_i, _margin_deficit(w, wd)
        for first in range(0, len(members), size):
            rows = members[first : first + size]
            inverse = 1.0 / np.array([[protocols[b].tau] for b in rows])
            yield rows, v, r2 * inverse**2


def work_cost_stack(protocols, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<dW>_tau per unit <H(0)>, (B,): the Simpson time average of
    (omega_t/omega_i)(Q*_CD - 1) over each stroke."""
    protocols = list(protocols)
    out = np.empty(len(protocols))
    for rows, v, x in _shape_blocks(protocols, nodes):
        out[rows] = simpson_uniform(_work_excess(v, x), 1.0 / (nodes - 1))
    return out


def variance_cost_stack(protocols, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """<d(DeltaW)>_tau per unit sqrt(n_bar (n_bar + 1)), (B,): the Simpson
    time average of sqrt(work_variance_excess) over each stroke. Raises
    PhysicsError, naming the minimum and its time, for a stroke whose excess
    is negative beyond roundoff anywhere on its grid: an expansion-type
    stroke, at any temperature."""
    protocols = list(protocols)
    out = np.empty(len(protocols))
    for rows, v, x in _shape_blocks(protocols, nodes):
        excess = _variance_excess(v, x)
        scale = np.maximum(np.max(np.abs(excess), axis=-1, keepdims=True), 1e-300)
        bad = np.flatnonzero((excess < -1e-12 * scale).any(axis=-1))
        omega_i = protocols[rows[0]].omega_i
        if bad.size:
            row, j = rows[bad[0]], int(np.argmin(excess[bad[0]]))
            raise PhysicsError(
                "work-variance excess is negative on this stroke "
                f"(min {omega_i**2 * excess[bad[0], j]:.6g} at "
                f"t = {protocols[row].tau * j / (nodes - 1):.6g}); "
                "the fluctuation cost is defined for compression-type strokes"
            )
        root = np.sqrt(np.clip(excess, 0.0, None))
        out[rows] = omega_i * simpson_uniform(root, 1.0 / (nodes - 1))
    return out


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
