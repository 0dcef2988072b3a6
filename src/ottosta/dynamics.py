"""Gaussian-state dynamics of the driven harmonic trap.

The working medium stays Gaussian under any quadratic Hamiltonian. Two
drives are supported:

* ``Drive.BARE``: H0 = p^2/2 + omega(t)^2 x^2 / 2;
* ``Drive.CD``: H0 plus the counterdiabatic term -(omegadot/4 omega)(xp+px),
  which transports eigenstates of H0 along the instantaneous basis exactly.

Both give the linear equations x' = g x + p, p' = -omega^2 x - g p, with
g = 0 (bare) or g = -omegadot/(2 omega) (CD). Their 2x2 transfer matrix
M(t) carries everything: mean(t) = M mean(0), cov(t) = M cov(0) M^T, and
its columns are the two classical solutions behind Q*. M is computed by a
vectorized 4th-order Magnus propagator with step-doubling error control,
for a whole stack of strokes in one call; each stroke keeps the steps, and
the bits, of its own single-stroke call.

The adiabaticity factor Q* (the ratio of the actual mean energy to the
adiabatically transported one) has two readouts of the same M: the energy
of the propagated thermal moments, and the classical solution pair (which
is manifestly independent of temperature). For CD accounting there is a
closed form built from the validity margin. The independent checks of M
are the fixed-step references in ``tests/oracles.py`` and the Fock-basis
engine in :mod:`ottosta.fock_oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NumericsError
from .protocols import (
    FrequencyProtocol,
    ProtocolKind,
    _ramp_shape,
    require_cd_valid,
    validity_margin,
)

__all__ = [
    "Drive",
    "GaussianState",
    "thermal_state",
    "coth_half",
    "thermal_energy",
    "mean_energy",
    "propagate",
    "propagate_path",
    "classical_pair_path",
    "adiabaticity",
    "adiabaticity_path",
    "adiabaticity_pair",
    "adiabaticity_pair_path",
    "adiabaticity_stack",
    "sudden_quench_q",
    "q_cd",
    "q_cd_grid",
    "DEFAULT_RTOL",
]

DEFAULT_RTOL = 1e-10
_MAX_STEPS = 1_000_000

# Minimum symplectic eigenvalue squared is 1/4 (vacuum), with slack for
# accumulated propagator roundoff.
_DET_FLOOR = 0.25 - 1e-9

# Two-node Gauss-Legendre 4th-order Magnus step (Blanes, Casas, Oteo & Ros,
# Phys. Rep. 470, 151 (2009)): nodes in units of the step, commutator weight.
_GL_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_GL_COMMUTATOR = math.sqrt(3.0) / 12.0
# |det Omega| below which the step exponential uses its Taylor series.
_SERIES_MAX = 1e-2
_MIN_START_STEPS = 4


class Drive(str, Enum):
    BARE = "bare"
    CD = "cd"


@dataclass(frozen=True)
class GaussianState:
    """First moments (2,) and symmetrized covariance matrix (2, 2) in (x, p)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64).reshape(2)
        cov = _checked_covariances(np.array(self.cov, dtype=np.float64).reshape(2, 2))
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _checked_covariances(cov: np.ndarray) -> np.ndarray:
    """Validate one covariance matrix (2, 2) or a stack (..., 2, 2) and
    symmetrize it in place.

    Raises ValueError unless every matrix is symmetric within 1e-10 of its
    scale, has positive diagonals and a determinant at the uncertainty
    floor 1/4 or above."""
    cxx, cpp = cov[..., 0, 0], cov[..., 1, 1]
    asym = np.abs(cov[..., 0, 1] - cov[..., 1, 0])
    scale = np.maximum(np.maximum(np.abs(cxx), np.abs(cpp)), 1.0)
    if (asym > 1e-10 * scale).any():
        raise ValueError(f"covariance matrix not symmetric: asymmetry {np.max(asym)}")
    sxp = 0.5 * (cov[..., 0, 1] + cov[..., 1, 0])
    cov[..., 0, 1] = cov[..., 1, 0] = sxp
    if ((cxx <= 0.0) | (cpp <= 0.0)).any():
        raise ValueError("diagonal covariances must be positive")
    det = cxx * cpp - sxp * sxp
    if (det < _DET_FLOOR).any():
        raise ValueError(
            f"covariance determinant {np.min(det)} below the uncertainty floor 1/4"
        )
    return cov


def coth_half(beta: float, omega: float) -> float:
    """coth(beta * omega / 2), the thermal width factor; 1.0 at beta = inf."""
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    z = 0.5 * beta * omega
    if z >= 20.0 or math.isinf(z):
        return 1.0
    return 1.0 / math.tanh(z)


def thermal_energy(beta: float, omega: float) -> float:
    """<H0> of the thermal state at (beta, omega): (omega/2) coth(beta omega/2)."""
    return 0.5 * omega * coth_half(beta, omega)


def thermal_state(beta: float, omega: float) -> GaussianState:
    """Thermal (Gibbs) state of the trap at frequency omega; beta=inf gives
    the ground state."""
    c = coth_half(beta, omega)
    return GaussianState(
        mean=np.zeros(2),
        cov=np.array([[c / (2.0 * omega), 0.0], [0.0, 0.5 * omega * c]]),
    )


def _energies(
    means: np.ndarray, covs: np.ndarray, omega: float | np.ndarray
) -> np.ndarray:
    """<H0> at trap frequency omega of stacked moments (..., 2) and
    (..., 2, 2): quadrature variances plus mean motion."""
    w2 = omega * omega
    quad = 0.5 * (covs[..., 1, 1] + w2 * covs[..., 0, 0])
    drift = 0.5 * (means[..., 1] ** 2 + w2 * means[..., 0] ** 2)
    return quad + drift


def mean_energy(state: GaussianState, omega: float) -> float:
    """<H0> of one state at trap frequency omega."""
    return float(_energies(state.mean, state.cov, omega))


# -- transfer-matrix propagator -----------------------------------------------

# Step slots evaluated at once, and the longest run of steps reduced in one
# piece. A power of two, so that a chunk of a longer gap is a whole subtree
# of that gap's pairwise product.
_BLOCK_STEPS = 2048


class _Stack(NamedTuple):
    """Per-stroke ramp parameters of a stack, as arrays indexed by row."""

    kinds: list[ProtocolKind]  # the distinct kinds, indexed by ``kind``
    kind: np.ndarray
    omega_i: np.ndarray
    omega_f: np.ndarray
    tau: np.ndarray
    cd: np.ndarray  # counterdiabatic drive

    @classmethod
    def of(cls, protocols: list[FrequencyProtocol], drives: list[Drive]) -> "_Stack":
        kinds = list(dict.fromkeys(p.kind for p in protocols))
        return cls(
            kinds,
            np.array([kinds.index(p.kind) for p in protocols]),
            np.array([p.omega_i for p in protocols]),
            np.array([p.omega_f for p in protocols]),
            np.array([p.tau for p in protocols]),
            np.array([drive is Drive.CD for drive in drives]),
        )


def _step_exponentials(
    stack: _Stack, row: np.ndarray, left: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """exp(Omega) of each Magnus step [left, left + h] of stroke ``row`` of
    the stack, as components (m00, m01, m10, m11) of shape (4, N).

    The generator A = [[g, 1], [-omega^2, -g]] is traceless, and so is
    Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1]. Then
    Omega^2 = delta I with delta = -det Omega, and
    exp(Omega) = C I + S Omega with C = cosh(sqrt delta) and
    S = sinh(sqrt delta)/sqrt delta (cos/sin for delta < 0).
    """
    wi, wf, tau = stack.omega_i[row], stack.omega_f[row], stack.tau[row]
    s = (left + _GL_NODES[:, None] * h) / tau
    if len(stack.kinds) == 1:
        w, wd, _ = _ramp_shape(stack.kinds[0], wi, wf, tau, s)
    else:
        w = np.empty_like(s)
        wd = np.empty_like(s)
        kind = stack.kind[row]
        for k, ramp in enumerate(stack.kinds):
            on = kind == k
            w[:, on], wd[:, on], _ = _ramp_shape(ramp, wi[on], wf[on], tau[on], s[:, on])
    # A_k = [[a_k, 1], [c_k, -a_k]] at the two nodes; Omega = [[alpha, beta], [gamma, -alpha]].
    c1, c2 = -w * w
    a1, a2 = np.where(stack.cd[row], -wd / (2.0 * w), 0.0)
    kh2 = _GL_COMMUTATOR * h * h
    alpha = 0.5 * h * (a1 + a2) + kh2 * (c1 - c2)
    beta = h + 2.0 * kh2 * (a2 - a1)
    gamma = 0.5 * h * (c1 + c2) + 2.0 * kh2 * (c2 * a1 - c1 * a2)
    d = alpha * alpha + beta * gamma  # delta = -det Omega

    small = np.abs(d) < _SERIES_MAX
    q = np.sqrt(np.where(small, 1.0, np.abs(d)))
    grow = d > 0.0
    q_grow = np.where(grow, q, 0.0)
    cosh_part = np.where(grow, np.cosh(q_grow), np.cos(q))
    sinh_part = np.where(grow, np.sinh(q_grow), np.sin(q)) / q
    cosh_part = np.where(
        small, 1.0 + d * (1 / 2 + d * (1 / 24 + d * (1 / 720 + d / 40320))), cosh_part
    )
    sinh_part = np.where(
        small, 1.0 + d * (1 / 6 + d * (1 / 120 + d * (1 / 5040 + d / 362880))), sinh_part
    )

    return np.stack(
        (cosh_part + sinh_part * alpha, sinh_part * beta, sinh_part * gamma,
         cosh_part - sinh_part * alpha)
    )


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a @ b of 2x2 matrices stored as components
    (m00, m01, m10, m11) along the first axis."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, j in ((0, 0), (0, 1), (2, 0), (2, 1)):
        np.multiply(a[i], b[j], out=out[i + j])
        out[i + j] += a[i + 1] * b[j + 2]
    return out


# The identity as components (m00, m01, m10, m11).
_IDENTITY = np.array([[1.0], [0.0], [0.0], [1.0]])


def _segment_products(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Ordered products x[last] @ ... @ x[first] of the consecutive segments
    of a stack of matrices stored as components (4, N), one per entry of
    ``lengths`` (each at least 1); returns components (4, S).

    A pairwise tree: each pass pads every odd segment with the identity,
    which multiplies exactly, and multiplies the neighbours (2i, 2i+1). A
    segment's tree depends only on its own length."""
    while x.shape[1] > lengths.size:
        odd = lengths % 2 == 1
        if odd.any():
            x = np.insert(x, np.cumsum(lengths)[odd], _IDENTITY, axis=1)
            lengths = lengths + odd
        x = _mul(x[:, 1::2], x[:, 0::2])
        lengths = lengths // 2
    return x


def _gap_products(
    stack: _Stack,
    rows: np.ndarray,
    edges: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Product of the equal Magnus steps of every checkpoint gap, as
    components (4, R, K), for strokes ``rows`` with gap edges (R, K + 1) and
    step counts (R, K).

    Each gap is cut into chunks of at most _BLOCK_STEPS steps, and whole
    chunks are packed into blocks of at most _BLOCK_STEPS step slots, which
    bounds the memory whatever the stack. A chunk's product and then the
    gap's product over its chunks are pairwise trees, so every gap gets the
    same tree, and the same bits, whatever else is in the stack."""
    n_rows, n_gaps = counts.shape
    counts = counts.ravel()
    h_gap = np.diff(edges, axis=1).ravel() / np.maximum(counts, 1)
    left_gap = edges[:, :-1].ravel()
    chunks = -(-counts // _BLOCK_STEPS)
    gap = np.repeat(np.arange(counts.size), chunks)
    offset = (np.arange(gap.size) - np.repeat(np.cumsum(chunks) - chunks, chunks)) * _BLOCK_STEPS
    length = np.minimum(counts[gap] - offset, _BLOCK_STEPS)
    end = np.cumsum(length)
    roots = np.empty((4, gap.size))
    first = 0
    while first < gap.size:
        start = end[first] - length[first]
        last = int(np.searchsorted(end, start + _BLOCK_STEPS, side="right"))
        seg = np.repeat(np.arange(first, last), length[first:last])
        g = gap[seg]
        index = offset[seg] + np.arange(seg.size) - (end[seg] - length[seg] - start)
        steps = _step_exponentials(
            stack, rows[g // n_gaps], left_gap[g] + index * h_gap[g], h_gap[g]
        )
        roots[:, first:last] = _segment_products(steps, length[first:last])
        first = last
    out = np.repeat(_IDENTITY, counts.size, axis=1)
    out[:, chunks > 0] = _segment_products(roots, chunks[chunks > 0])
    return out.reshape(4, n_rows, n_gaps)


def _transfer_matrices(
    protocols: list[FrequencyProtocol], ts: np.ndarray, drives: list[Drive], rtol: float
) -> np.ndarray:
    """Transfer matrices M_b(t_bj), shape (B, K, 2, 2), of a stack of B
    strokes, each from t = 0 to its K ascending checkpoints ts[b].

    Rows may differ in ramp, duration and drive; each keeps the error
    control it has alone. Every gap between checkpoints gets a whole number
    of equal Magnus steps, starting near one step per radian of the row's
    fastest trap frequency. The row's step count then doubles until its
    Richardson estimate max_j |M_2N(t_j) - M_N(t_j)| / (15 |M_2N(t_j)|) is
    at most rtol, and the finer result is kept; doublings the estimate
    predicts to fall short are skipped. Rows that meet rtol freeze while
    the others go on, so a row's steps, and its bits, equal those of its
    lone call. The steps of each gap are multiplied by a pairwise tree and
    the gap products by a prefix scan over the checkpoints. Raises
    NumericsError when a row's grid would exceed _MAX_STEPS steps.
    """
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol!r}")
    n_rows, n_ts = ts.shape
    stack = _Stack.of(protocols, drives)
    edges = np.concatenate((np.zeros((n_rows, 1)), ts), axis=1)
    t_end = ts[:, -1]
    moving = t_end > 0.0
    omega_max = np.maximum(stack.omega_i, stack.omega_f)
    steps_per_time = np.maximum(_MIN_START_STEPS, np.ceil(t_end * omega_max)) / np.where(
        moving, t_end, 1.0
    )
    base = np.ceil(np.diff(edges, axis=1) * steps_per_time[:, None]).astype(np.int64)
    result = np.tile(np.eye(2), (n_rows, n_ts, 1, 1))
    previous = np.zeros_like(result)
    has_previous = np.zeros(n_rows, dtype=bool)
    error = np.full(n_rows, math.inf)
    level = np.zeros(n_rows, dtype=np.int64)
    active = moving.copy()
    while active.any():
        rows = np.flatnonzero(active)
        counts = base[rows] << level[rows, None]
        n = counts.sum(axis=1)
        if (n > _MAX_STEPS).any():
            r = int(np.argmax(n > _MAX_STEPS))
            raise NumericsError(
                f"Magnus propagator: {n[r]} steps exceed the budget of {_MAX_STEPS} "
                f"(error estimate {error[rows[r]]:.3g} > rtol {rtol:g})"
            )
        m = _prefix_products(_gap_products(stack, rows, edges[rows], counts))
        m = np.moveaxis(m, 0, -1).reshape(rows.size, n_ts, 2, 2)
        diff = np.max(np.abs(m - previous[rows]), axis=(2, 3))
        error[rows] = np.where(
            has_previous[rows],
            np.max(diff / np.max(np.abs(m), axis=(2, 3)), axis=1) / 15.0,
            error[rows],
        )
        for i, r in enumerate(rows):
            if not has_previous[r]:
                previous[r] = m[i]
                has_previous[r] = True
                level[r] += 1
                continue
            if error[r] <= rtol:
                result[r] = m[i]
                active[r] = False
                continue
            # A 4th-order error falls about 16-fold per doubling: skip straight
            # to the pair of levels predicted to meet rtol.
            e = float(error[r])
            doublings = math.ceil(math.log(e / rtol, 16)) if math.isfinite(e) else 1
            has_previous[r] = doublings <= 1
            previous[r] = m[i]
            level[r] += max(doublings - 1, 1)
    return result


def _prefix_products(gaps: np.ndarray) -> np.ndarray:
    """Running products gaps[..., k] @ ... @ gaps[..., 0] along the last
    (checkpoint) axis of components (4, R, K), by a log-depth doubling scan
    (each pass combines entries ``span`` apart)."""
    out = gaps.copy()
    span = 1
    while span < out.shape[-1]:
        out[..., span:] = _mul(out[..., span:], out[..., :-span])
        span *= 2
    return out


def _stack_matrices(
    protocols, ts, drives, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Validated checkpoints (B, K), one row per protocol, and their
    transfer matrices (B, K, 2, 2). CD rows need tau > tau_min."""
    protocols = list(protocols)
    drives = [Drive(d) for d in drives]
    rows = [p.checkpoints(t) for p, t in zip(protocols, ts, strict=True)]
    if len({row.size for row in rows}) > 1:
        raise ValueError("every stroke of a stack needs the same number of checkpoints")
    for protocol, drive in zip(protocols, drives, strict=True):
        if drive is Drive.CD:
            require_cd_valid(protocol)
    ts = np.stack(rows)
    return ts, _transfer_matrices(protocols, ts, drives, rtol)


def _omegas(protocols: list[FrequencyProtocol], ts: np.ndarray) -> np.ndarray:
    """omega(t) of each stroke at its checkpoints, (B, K)."""
    return np.stack([np.atleast_1d(p.omega(t)) for p, t in zip(protocols, ts)])


def _thermal_q(
    m: np.ndarray, protocols: list[FrequencyProtocol], betas, w_t: np.ndarray
) -> np.ndarray:
    """Q*(t) (B, K) of thermal starts, read off their transfer matrices: the
    energy of M C0 M^T at omega_t over the adiabatic (omega_t/omega_i) E0.
    Every covariance is validated."""
    pairs = list(zip(protocols, betas, strict=True))
    cov0 = np.stack([thermal_state(beta, p.omega_i).cov for p, beta in pairs])[:, None]
    e0 = np.array([thermal_energy(beta, p.omega_i) for p, beta in pairs])
    omega_i = np.array([p.omega_i for p in protocols])
    covs = _checked_covariances(m @ cov0 @ np.swapaxes(m, -1, -2))
    energies = _energies(np.zeros(covs.shape[:-1]), covs, w_t)
    return energies / (w_t / omega_i[:, None] * e0[:, None])


def propagate(
    state: GaussianState,
    protocol: FrequencyProtocol,
    t: float,
    drive: Drive = Drive.BARE,
    rtol: float = DEFAULT_RTOL,
) -> GaussianState:
    """Evolve a Gaussian state from time 0 to time t under the protocol.

    CD driving requires tau > tau_min (the margin positive on the whole stroke).
    """
    return propagate_path(state, protocol, [float(t)], drive=drive, rtol=rtol)[0]


def propagate_path(
    state: GaussianState,
    protocol: FrequencyProtocol,
    ts,
    drive: Drive = Drive.BARE,
    rtol: float = DEFAULT_RTOL,
) -> list[GaussianState]:
    """States at each ascending checkpoint in ``ts`` (single forward sweep)."""
    _, m = _stack_matrices([protocol], [ts], [drive], rtol)
    m = m[0]
    means, covs = m @ state.mean, m @ state.cov @ np.swapaxes(m, 1, 2)
    return [GaussianState(mean=mu, cov=c) for mu, c in zip(means, covs)]


# -- classical solution pair (temperature-independent route) ----------------


def _pair_rows(m: np.ndarray) -> np.ndarray:
    """(X, Xdot, Y, Ydot) of bare-drive transfer matrices (..., 2, 2): the
    second column is (X, Xdot), the first (Y, Ydot)."""
    return np.stack([m[..., 0, 1], m[..., 1, 1], m[..., 0, 0], m[..., 1, 0]], axis=-1)


def classical_pair_path(
    protocol: FrequencyProtocol,
    ts,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    """Rows (X, Xdot, Y, Ydot) at each checkpoint for the two classical
    solutions of xddot + omega(t)^2 x = 0 with X(0)=0, Xdot(0)=1 and
    Y(0)=1, Ydot(0)=0. Their Wronskian X Ydot - Y Xdot stays -1.

    They are the columns of the bare-drive transfer matrix."""
    _, m = _stack_matrices([protocol], [ts], [Drive.BARE], rtol)
    return _pair_rows(m[0])


def _pair_q(wi, rows: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """Q*(t) from pair rows (..., 4) at trap frequencies w_t (...), for
    initial frequency wi (a scalar, or an array broadcasting with w_t)."""
    x, xd, yv, yd = np.moveaxis(rows, -1, 0)
    return (
        wi * wi * (w_t**2 * x**2 + xd**2) + (w_t**2 * yv**2 + yd**2)
    ) / (2.0 * wi * w_t)


def adiabaticity_pair(
    protocol: FrequencyProtocol,
    t: float,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """Q*(t) from the classical pair; independent of the initial thermal state."""
    return float(adiabaticity_pair_path(protocol, [t], rtol=rtol)[0])


def adiabaticity_pair_path(
    protocol: FrequencyProtocol,
    ts,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    ts, m = _stack_matrices([protocol], [ts], [Drive.BARE], rtol)
    return _pair_q(protocol.omega_i, _pair_rows(m), _omegas([protocol], ts))[0]


# -- energy-ratio route ------------------------------------------------------


def adiabaticity(
    protocol: FrequencyProtocol,
    beta: float,
    t: float,
    drive: Drive = Drive.BARE,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """Q*(t) = <H0(omega_t)> / [(omega_t/omega_i) <H0(omega_i)>_thermal].

    For a thermal start this equals the classical-pair value under the bare
    drive for every beta; under the CD drive it is 1 at all times.
    """
    return float(
        adiabaticity_path(protocol, beta, [t], drive=drive, rtol=rtol)[0]
    )


def adiabaticity_path(
    protocol: FrequencyProtocol,
    beta: float,
    ts,
    drive: Drive = Drive.BARE,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    """Q*(t) at each ascending checkpoint, read from the stacked moments of
    the thermal start; every checkpoint's covariance is validated."""
    ts, m = _stack_matrices([protocol], [ts], [drive], rtol)
    return _thermal_q(m, [protocol], [beta], _omegas([protocol], ts))[0]


def adiabaticity_stack(
    protocols,
    betas,
    ts,
    rtol: float = DEFAULT_RTOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Bare-drive Q*(t) of a stack of strokes from one propagation.

    Row b starts in the thermal state at (betas[b], omega_i) and is read at
    its ascending checkpoints ts[b]; every row has the same number K of
    them. Returns two (B, K) arrays read off the same transfer matrices:
    the energy ratio (every covariance validated, as in adiabaticity_path)
    and the classical-pair value (as in adiabaticity_pair_path). Each row
    equals its own single-stroke call bit for bit."""
    protocols = list(protocols)
    ts, m = _stack_matrices(protocols, ts, [Drive.BARE] * len(protocols), rtol)
    w_t = _omegas(protocols, ts)
    omega_i = np.array([p.omega_i for p in protocols])[:, None]
    return _thermal_q(m, protocols, betas, w_t), _pair_q(omega_i, _pair_rows(m), w_t)


def sudden_quench_q(omega_i: float, omega_f: float) -> float:
    """Adiabaticity factor of an instantaneous frequency jump:
    (omega_i^2 + omega_f^2) / (2 omega_i omega_f). The tau -> 0 limit of any
    ramp's bare-drive Q*(tau)."""
    if omega_i <= 0.0 or omega_f <= 0.0:
        raise ValueError("frequencies must be positive")
    return (omega_i * omega_i + omega_f * omega_f) / (2.0 * omega_i * omega_f)


# -- closed-form CD accounting ------------------------------------------------


def q_cd_grid(protocol: FrequencyProtocol, ts) -> np.ndarray:
    """Closed-form Q*_CD(t) = 1 / sqrt(1 - omegadot^2/(4 omega^4)).

    This is the accounting factor behind the driving-cost measures: it maps
    the instantaneous counterdiabatic level structure onto bare-trap
    energies. It is not the energy ratio of the propagated state, which CD
    driving pins to 1. Raises TrapInversionError unless tau > tau_min.
    """
    require_cd_valid(protocol)
    return 1.0 / np.sqrt(validity_margin(protocol, np.atleast_1d(ts)))


def q_cd(protocol: FrequencyProtocol, t: float) -> float:
    """Scalar closed-form Q*_CD(t); see q_cd_grid."""
    return float(q_cd_grid(protocol, np.array([float(t)]))[0])
