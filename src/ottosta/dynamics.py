"""Gaussian-state dynamics of the driven harmonic trap.

The working medium stays Gaussian under any quadratic Hamiltonian. The
bare drive H0 = p^2/2 + omega(t)^2 x^2 / 2 gives the linear equations
x' = p, p' = -omega^2 x. Their 2x2 transfer matrix M(t) carries
everything: mean(t) = M mean(0), cov(t) = M cov(0) M^T, and its columns are
the two classical solutions behind Q*. M is computed by a vectorized
6th-order Magnus propagator with step-doubling error control, for a whole
stack of strokes in one call; each stroke keeps the steps, and the bits,
of its one-row call.

The counterdiabatic (CD) drive adds -(omegadot/4 omega)(xp+px) to H0 and
transports the eigenstates of H0 along the instantaneous basis exactly, so
a CD stroke is booked in closed form and never propagated.

The public surface is that stacked call and its readouts:

* ``transfer_matrices``: the checkpoints and M of every stroke;
* ``adiabaticity_stack``: the bare-drive adiabaticity factor Q* (the ratio
  of the actual mean energy to the adiabatically transported one), read
  off M twice: as the energy of the propagated thermal moments, and from
  the classical solution pair (manifestly independent of temperature);
* ``q_cd_grid``: the closed form of Q* for CD accounting, built from the
  validity margin.

The independent checks of M are the fixed-step references in
``tests/oracles.py`` and the Fock-basis engine in :mod:`ottosta.fock_oracle`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericsError
from .protocols import (
    FrequencyProtocol,
    ProtocolKind,
    _checkpoints,
    _ramp_shape,
    require_cd_valid,
)

__all__ = [
    "coth_half",
    "thermal_energy",
    "occupation_spread",
    "transfer_matrices",
    "adiabaticity_stack",
    "q_cd_grid",
    "DEFAULT_RTOL",
]

DEFAULT_RTOL = 1e-10
_MAX_STEPS = 1_000_000

# Minimum symplectic eigenvalue squared is 1/4 (vacuum), with slack for
# accumulated propagator roundoff.
_DET_FLOOR = 0.25 - 1e-9

# Three-node Gauss-Legendre 6th-order Magnus step (Blanes, Casas, Oteo & Ros,
# Phys. Rep. 470, 151 (2009)): nodes in units of the step.
_SQRT15 = math.sqrt(15.0)
_NODES = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0])
_MIN_START_STEPS = 4


def _checked_covariances(cov: np.ndarray) -> np.ndarray:
    """Validate one covariance matrix (2, 2) or a stack (..., 2, 2) and
    symmetrize it in place.

    Raises ValueError unless every matrix is symmetric within 1e-10 of its
    scale, has positive diagonals and a determinant at the uncertainty
    floor 1/4 or above."""
    cxx, cpp = cov[..., 0, 0], cov[..., 1, 1]
    asym = np.abs(cov[..., 0, 1] - cov[..., 1, 0])
    scale = np.maximum(np.maximum(np.abs(cxx), np.abs(cpp)), 1.0)
    if not (asym <= 1e-10 * scale).all():
        raise ValueError(f"covariance matrix not symmetric: asymmetry {np.max(asym)}")
    sxp = 0.5 * (cov[..., 0, 1] + cov[..., 1, 0])
    cov[..., 0, 1] = cov[..., 1, 0] = sxp
    if not ((cxx > 0.0) & (cpp > 0.0)).all():
        raise ValueError("diagonal covariances must be positive")
    det = cxx * cpp - sxp * sxp
    if not (det >= _DET_FLOOR).all():
        raise ValueError(
            f"covariance determinant {np.min(det)} below the uncertainty floor 1/4"
        )
    return cov


def coth_half(beta: float, omega: float) -> float:
    """coth(beta * omega / 2), the thermal width factor; 1.0 at beta = inf.
    Raises ValueError unless beta and omega are positive (NaN is not)."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    return 1.0 / math.tanh(0.5 * beta * omega)


def thermal_energy(beta: float, omega: float) -> float:
    """<H0> of the thermal state at (beta, omega): (omega/2) coth(beta omega/2)."""
    return 0.5 * omega * coth_half(beta, omega)


def occupation_spread(beta: float, omega: float) -> float:
    """sqrt(n_bar (n_bar + 1)), the thermal spread of the quanta; 0.0 at beta = inf."""
    n_bar = 0.5 * (coth_half(beta, omega) - 1.0)
    return math.sqrt(n_bar * (n_bar + 1.0))


def _energies(
    means: np.ndarray, covs: np.ndarray, omega: float | np.ndarray
) -> np.ndarray:
    """<H0> at trap frequency omega of stacked moments (..., 2) and
    (..., 2, 2): quadrature variances plus mean motion."""
    w2 = omega * omega
    quad = 0.5 * (covs[..., 1, 1] + w2 * covs[..., 0, 0])
    drift = 0.5 * (means[..., 1] ** 2 + w2 * means[..., 0] ** 2)
    return quad + drift


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

    @classmethod
    def of(cls, protocols: list[FrequencyProtocol]) -> "_Stack":
        kinds = list(dict.fromkeys(p.kind for p in protocols))
        return cls(
            kinds,
            np.array([kinds.index(p.kind) for p in protocols]),
            np.array([p.omega_i for p in protocols]),
            np.array([p.omega_f for p in protocols]),
            np.array([p.tau for p in protocols]),
        )

    def ramp(self, row: np.ndarray, t: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """(omega,) at order 0, (omega, omegadot) at order 1, of stroke
        ``row`` at time ``t``, for row indices that broadcast against t: one
        evaluation per ramp kind present."""
        wi, wf, tau = self.omega_i[row], self.omega_f[row], self.tau[row]
        s = t / tau
        if len(self.kinds) == 1:
            return _ramp_shape(self.kinds[0], wi, wf, tau, s, order)
        out = tuple(np.empty_like(s) for _ in range(order + 1))
        wi, wf, tau, kind = np.broadcast_arrays(wi, wf, tau, self.kind[row], s)[:4]
        for k, ramp in enumerate(self.kinds):
            on = kind == k
            parts = _ramp_shape(ramp, wi[on], wf[on], tau[on], s[on], order)
            for whole, part in zip(out, parts):
                whole[on] = part
        return out


def _step_exponentials(
    stack: _Stack, row: np.ndarray, left: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """exp(Omega) of each Magnus step [left, left + h] of stroke ``row`` of
    the stack, as components (m00, m01, m10, m11) of shape (4, N).

    With the generator A_k = [[0, 1], [-omega^2, 0]] at the three nodes:
    a1 = h A_2, a2 = (sqrt(15) h/3)(A_3 - A_1), a3 = (10 h/3)(A_3 - 2 A_2 + A_1),
    C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60 and
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240. Every term is
    traceless, so Omega^2 = delta I with delta = -det Omega, and
    exp(Omega) = C I + S Omega with C = cosh(sqrt delta) and
    S = sinh(sqrt delta)/sqrt delta (cos/sin for delta < 0), and S = 1 at
    delta = 0.
    """
    (w,) = stack.ramp(row, left + _NODES[:, None] * h, 0)
    # A_k = [[0, 1], [c_k, 0]]; a traceless matrix is (m00, m01, m10), and
    # [x, y] = (x01 y10 - y01 x10, 2 (x00 y01 - y00 x01), 2 (x10 y00 - y10 x00)).
    # Only the nonzero components are formed, in the order of operations of
    # the full algebra: a1 = (0, h, g), a2 = (0, 0, p), a3 = (0, 0, r) and
    # C1 = (e, 0, 0), so the bits are those of the full component tuples.
    c1, c2, c3 = -w * w
    g = h * c2
    p = _SQRT15 / 3.0 * h * (c3 - c1)
    r = 10.0 / 3.0 * h * (c3 - 2.0 * c2 + c1)
    e = h * p
    # [-20 a1 - a3 + C1, a2 + C2], with C2 = -[a1, 2 a3 + C1]/60
    lhs1, lhs2 = -20.0 * h, -20.0 * g - r
    rhs0 = -(h * (2.0 * r) / 60.0)
    rhs1 = 2.0 * (e * h) / 60.0
    rhs2 = p - 2.0 * (g * e) / 60.0
    alpha = (lhs1 * rhs2 - rhs1 * lhs2) / 240.0
    beta = h + 2.0 * (e * rhs1 - rhs0 * lhs1) / 240.0
    gamma = g + r / 12.0 + 2.0 * (lhs2 * rhs0 - rhs2 * e) / 240.0
    d = alpha * alpha + beta * gamma  # delta = -det Omega

    q = np.sqrt(np.abs(d))
    cosh_part, sinh_part = np.cos(q), np.sin(q)
    grow = d > 0.0
    if grow.any():
        cosh_part[grow], sinh_part[grow] = np.cosh(q[grow]), np.sinh(q[grow])
    sinh_part = np.divide(sinh_part, q, out=np.ones_like(q), where=q > 0.0)

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
    # An empty gap is one empty chunk, whose product is the identity.
    chunks = np.maximum(-(-counts // _BLOCK_STEPS), 1)
    gap = np.repeat(np.arange(counts.size), chunks)
    offset = (np.arange(gap.size) - np.repeat(np.cumsum(chunks) - chunks, chunks)) * _BLOCK_STEPS
    length = np.minimum(counts[gap] - offset, _BLOCK_STEPS)
    end = np.cumsum(length)
    roots = np.repeat(_IDENTITY, gap.size, axis=1)
    first = 0
    while first < gap.size:
        start = end[first] - length[first]
        last = int(np.searchsorted(end, start + _BLOCK_STEPS, side="right"))
        filled = first + np.flatnonzero(length[first:last])
        seg = np.repeat(filled, length[filled])
        g = gap[seg]
        index = offset[seg] + np.arange(seg.size) - (end[seg] - length[seg] - start)
        steps = _step_exponentials(
            stack, rows[g // n_gaps], left_gap[g] + index * h_gap[g], h_gap[g]
        )
        roots[:, filled] = _segment_products(steps, length[filled])
        first = last
    return _segment_products(roots, chunks).reshape(4, n_rows, n_gaps)


def _transfer_matrices(
    protocols: list[FrequencyProtocol], ts: np.ndarray, rtol: float
) -> np.ndarray:
    """Transfer matrices M_b(t_bj), shape (B, K, 2, 2), of a stack of B
    strokes, each from t = 0 to its K ascending checkpoints ts[b].

    Rows may differ in ramp, direction and duration; each keeps the error
    control it has alone. Every gap between checkpoints gets a whole number
    of equal Magnus steps, starting near one step per radian of the row's
    fastest trap frequency. The row's step count then doubles until its
    Richardson estimate max_j |M_2N(t_j) - M_N(t_j)| / (63 |M_2N(t_j)|) is
    at most rtol, and the finer result is kept. The 6th-order error falls
    about 64-fold per doubling, so doublings the estimate predicts to fall
    short are skipped. Rows that meet rtol freeze while
    the others go on, so a row's steps, and its bits, equal those of its
    lone call. The steps of each gap are multiplied by a pairwise tree and
    the gap products by an in-place prefix scan over the checkpoints. One
    component array (4, B, K) holds each row's last level, then its
    result. Raises NumericsError when a row's grid would exceed _MAX_STEPS
    steps.
    """
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol!r}")
    n_rows, n_ts = ts.shape
    stack = _Stack.of(protocols)
    edges = np.concatenate((np.zeros((n_rows, 1)), ts), axis=1)
    t_end = ts[:, -1]
    moving = t_end > 0.0
    omega_max = np.maximum(stack.omega_i, stack.omega_f)
    steps_per_time = np.maximum(_MIN_START_STEPS, np.ceil(t_end * omega_max)) / np.where(
        moving, t_end, 1.0
    )
    base = np.ceil(np.diff(edges, axis=1) * steps_per_time[:, None])
    # Components (4, B, K): a frozen row's result, an active row's last level.
    result = np.zeros((4, n_rows, n_ts))
    result[0] = result[3] = 1.0
    has_previous = np.zeros(n_rows, dtype=bool)
    error = np.full(n_rows, math.inf)
    level = np.zeros(n_rows, dtype=np.int64)
    active = moving.copy()
    while active.any():
        rows = np.flatnonzero(active)
        # Counted in floats, where a doubling is exact and a huge count
        # neither wraps nor overflows; NaN (an infinite rate) fails too.
        counts = base[rows] * np.exp2(level[rows, None])
        within = counts.sum(axis=1) <= _MAX_STEPS
        if not within.all():
            r = int(np.argmin(within))
            e = error[rows[r]]
            estimate = f"error estimate {e:.3g} > rtol {rtol:g}"
            if e == math.inf:  # before the first Richardson pair
                estimate = "no estimate yet"
            raise NumericsError(
                f"Magnus propagator: {counts[r].sum():.4g} steps exceed the budget of "
                f"{_MAX_STEPS} ({estimate})"
            )
        counts = counts.astype(np.int64)
        estimate = _next_level(stack, rows, edges[rows], counts, result)
        error[rows] = np.where(has_previous[rows], estimate, error[rows])
        for r in rows:
            if not has_previous[r]:
                has_previous[r] = True
                level[r] += 1
            elif error[r] <= rtol:
                active[r] = False
            else:
                # A 6th-order error falls about 64-fold per doubling: skip
                # straight to the pair of levels predicted to meet rtol.
                e = float(error[r])
                doublings = math.ceil(math.log(e / rtol, 64)) if math.isfinite(e) else 1
                has_previous[r] = doublings <= 1
                level[r] += max(doublings - 1, 1)
    return np.moveaxis(result, 0, -1).reshape(n_rows, n_ts, 2, 2)


def _next_level(
    stack: _Stack, rows: np.ndarray, edges: np.ndarray, counts: np.ndarray, result: np.ndarray
) -> np.ndarray:
    """Propagate strokes ``rows`` with gap edges (R, K + 1) and step counts
    (R, K), store their M at the checkpoints into ``result`` (4, B, K) and
    return each row's Richardson estimate against what ``result`` held
    there, max_j |M_j - M'_j| / (63 |M_j|), each norm the largest
    component. The estimate is formed one component at a time."""
    m = _gap_products(stack, rows, edges, counts)
    _prefix_products(m)
    diff = scale = None
    for c in range(4):
        gap = result[c, rows]
        np.abs(np.subtract(m[c], gap, out=gap), out=gap)
        size = np.abs(m[c])
        diff = gap if diff is None else np.maximum(diff, gap, out=diff)
        scale = size if scale is None else np.maximum(scale, size, out=scale)
    result[:, rows] = m
    return np.max(diff / scale, axis=1) / 63.0


def _prefix_products(x: np.ndarray) -> None:
    """Replace components (4, R, K) by their running products
    x[..., k] @ ... @ x[..., 0] along the last (checkpoint) axis, in place,
    by a log-depth doubling scan (each pass combines entries ``span``
    apart). A pass runs down from the last checkpoint in chunks of at most
    _BLOCK_STEPS, so a chunk reads only entries the pass has not written."""
    n = x.shape[-1]
    span = 1
    while span < n:
        for top in range(n, span, -_BLOCK_STEPS):
            low = max(top - _BLOCK_STEPS, span)
            x[..., low:top] = _mul(x[..., low:top], x[..., low - span : top - span])
        span *= 2


def transfer_matrices(
    protocols, ts, rtol: float = DEFAULT_RTOL
) -> tuple[np.ndarray, np.ndarray]:
    """Validated checkpoints (B, K) and bare-drive transfer matrices
    (B, K, 2, 2) of a stack of strokes: row b follows protocols[b] from
    t = 0 to its ascending checkpoints ts[b], and every row has the same
    number K of them. A state propagates as mean(t) = M mean(0) and
    cov(t) = M cov(0) M^T; the columns of M are the classical solutions
    (Y, Ydot) with Y(0) = 1, Ydot(0) = 0 and (X, Xdot) with X(0) = 0,
    Xdot(0) = 1. Each row equals its one-row call bit for bit."""
    protocols = list(protocols)
    ts = _checkpoints(protocols, ts)
    return ts, _transfer_matrices(protocols, ts, rtol)


def _ramp_grid(protocols: list[FrequencyProtocol], ts, order: int) -> tuple[np.ndarray, ...]:
    """(omega,) at order 0, (omega, omegadot) at order 1, each (B, K), of
    each stroke at its times ts[b]."""
    stack = _Stack.of(protocols)
    return stack.ramp(
        np.arange(len(protocols))[:, None], np.asarray(ts, dtype=np.float64), order
    )


def _thermal_q(
    m: np.ndarray, protocols: list[FrequencyProtocol], betas, w_t: np.ndarray
) -> np.ndarray:
    """Q*(t) (B, K) of thermal starts, read off their transfer matrices: the
    energy of M C0 M^T at omega_t over the adiabatic (omega_t/omega_i) E0,
    with C0 = diag(c / (2 omega_i), omega_i c / 2) and c = coth(beta
    omega_i / 2). Every covariance is validated."""
    pairs = list(zip(protocols, betas, strict=True))
    c = np.array([coth_half(beta, p.omega_i) for p, beta in pairs])
    e0 = np.array([thermal_energy(beta, p.omega_i) for p, beta in pairs])
    omega_i = np.array([p.omega_i for p in protocols])
    cov0 = np.zeros((len(pairs), 1, 2, 2))
    cov0[:, 0, 0, 0], cov0[:, 0, 1, 1] = c / (2.0 * omega_i), 0.5 * omega_i * c
    covs = _checked_covariances(m @ cov0 @ np.swapaxes(m, -1, -2))
    energies = _energies(np.zeros(covs.shape[:-1]), covs, w_t)
    return energies / (w_t / omega_i[:, None] * e0[:, None])


def _pair_q(wi, m: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """Q*(t) at trap frequencies w_t (...) from bare-drive transfer matrices
    (..., 2, 2), whose columns are the classical solutions (Y, Ydot) and
    (X, Xdot), for initial frequency wi (broadcasting with w_t)."""
    yv, yd, x, xd = m[..., 0, 0], m[..., 1, 0], m[..., 0, 1], m[..., 1, 1]
    return (
        wi * wi * (w_t**2 * x**2 + xd**2) + (w_t**2 * yv**2 + yd**2)
    ) / (2.0 * wi * w_t)


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
    the energy ratio <H0(omega_t)> / [(omega_t/omega_i) <H0(omega_i)>] of
    the propagated thermal moments (every covariance validated) and the
    classical-pair value, which is independent of temperature. Each row
    equals its one-row call bit for bit."""
    protocols = list(protocols)
    ts, m = transfer_matrices(protocols, ts, rtol)
    (w_t,) = _ramp_grid(protocols, ts, 0)
    omega_i = np.array([p.omega_i for p in protocols])[:, None]
    return _thermal_q(m, protocols, betas, w_t), _pair_q(omega_i, m, w_t)


# -- closed-form CD accounting ------------------------------------------------


def _margin_deficit(w: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """omegadot^2 / (4 omega^4), the deficit 1 - g of the validity margin g:
    Q*_CD = 1 / sqrt(1 - deficit)."""
    return wd**2 / (4.0 * w**4)


def _cd_grid(protocols, ts) -> tuple[np.ndarray, np.ndarray]:
    """omega(t) and the margin deficit, each (B, K), of each stroke at its
    checkpoints ts[b], from one ramp evaluation. Raises TrapInversionError
    unless every stroke has tau > tau_min."""
    protocols = list(protocols)
    ts = _checkpoints(protocols, ts)
    for protocol in protocols:
        require_cd_valid(protocol)
    w, wd = _ramp_grid(protocols, ts, 1)
    return w, _margin_deficit(w, wd)


def q_cd_grid(protocols, ts) -> np.ndarray:
    """Closed-form Q*_CD(t) = 1 / sqrt(1 - omegadot^2/(4 omega^4)), (B, K),
    of a stack of strokes: row b for protocols[b] at its ascending
    checkpoints ts[b], the same number K on every row.

    This is the accounting factor behind the driving-cost measures: it maps
    the instantaneous counterdiabatic level structure onto bare-trap
    energies. It is not the energy ratio of the propagated state, which CD
    driving pins to 1. Raises TrapInversionError unless every tau > tau_min.
    """
    return 1.0 / np.sqrt(1.0 - _cd_grid(protocols, ts)[1])
