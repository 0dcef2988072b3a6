"""Truncated Fock-basis engine in the instantaneous frame: an independent
cross-check on the Gaussian moment dynamics.

The density matrix is propagated in the number basis of the instantaneous
frequency omega(t). Those basis states move as d|n_t>/dt =
i (omegadot / 4 omega) K |n_t>, with K = xp + px = i (a^dagger^2 - a^2), so
in that frame the bare drive is

    H~(t) = omega (N + 1/2) + (omegadot / 4 omega) K,

while the counterdiabatic drive H0 - (omegadot / 4 omega) K becomes the
diagonal omega (N + 1/2): transitionless by construction (Berry, J. Phys. A
42, 365303 (2009)), so only the bare drive is propagated here. N + 1/2 and
K are the only operators, and they are the same matrices in the number
basis of every frequency. A thermal start is therefore its diagonal Gibbs
populations, a mean energy is omega sum (n + 1/2) rho_nn, and each state
carries the frequency whose number basis it is written in
(``FockState.omega``): a stroke starts at omega_i and returns each state in
the basis of its checkpoint's omega.

rho is propagated with an adaptive 6th-order Magnus integrator. Each trial
step builds the 4th- and 6th-order generators Omega4 and Omega6 = Omega4 + D
from H~ at three Gauss-Legendre nodes; ||[D, rho]||_F estimates the local
error of the 4th-order step and steers the step size. An accepted step
advances rho with Omega6 by local extrapolation: Omega6 is, like Omega4, a
combination of three fixed operators (below), tridiagonal in each parity
block, so exp(-i Omega6) is taken exactly, from one eigendecomposition of
the Hermitian generator per block.

N and K change the number n by 0 or +-2 and never mix even and odd n. Each
Magnus step therefore exponentiates two generators of about dim/2, one per
number parity, instead of one of size dim. Every stroke starts thermal,
with no coherence between even and odd n, and a block-diagonal U creates
none, so rho exists only as its even-even and odd-odd blocks
(``FockState``), each contiguous, updated as
rho[a, a] <- U_a rho[a, a] U_a^dagger.

Within one parity, N + 1/2 is diagonal and K couples only neighbouring
levels. With L = a^dagger^2 + a^2 they close the Lie algebra su(1,1):
-i[N + 1/2, K] = 2L, -i[N + 1/2, L] = -2K and -i[K, L] = -8 (N + 1/2).
So every term of the Magnus pair is x_A (N + 1/2) + x_K K + x_L L, three
numbers computed once per step (_su11_bracket). Its band in a parity block
is a pair, a real diagonal and a complex upper off-diagonal, from one map
(_band): (x_A (n + 1/2), (x_L - i x_K) sqrt((n + 1)(n + 2))), as K's
(n, n + 2) entry is -i sqrt((n + 1)(n + 2)) and L's band is i times K's.
On any truncation that band is the compression of the exact generator: no
bracket of truncated matrices is ever formed. Only the coefficients come
from the algebra; the exponential is still taken of the Fock bands. A
diagonal phase gauge makes each block real symmetric without changing its
spectrum, so each block exponential is one real eigensolve, exact up to
roundoff.

Every function takes its truncation as a level count: the bands of N + 1/2
and K on the lowest n levels are a closed form in n (_bands), and the
compression of those of any larger truncation onto them. A state's
truncation ``state.dim`` (for a stroke, ``stroke_dim``) is a cap, not the
working size: rho is propagated on an active window of the lowest levels,
the ones the state occupies, under the bands of that window. The window
opens where the start state's diagonal tail falls below a threshold, plus
a guard band, and grows by one band whenever its top band holds more than
the threshold, up to state.dim. Only at that cap does the leak check of
the top two levels (the top level of each parity block) refuse the state.
Returned states are zero-padded to state.dim. The counterdiabatic
Hamiltonian of one instant, omega (N + 1/2) - (omegadot / 4 omega) K in
the number basis of that instant's omega, is split the same way: two real
tridiagonal eigensolves, one per parity.

This route shares nothing with the Gaussian transfer-matrix propagator
except the frequency ramp and its checkpoint rule (``FrequencyProtocol``),
so agreement between the two engines is a genuine check.
It also provides spectral facts the Gaussian picture cannot state directly:
the eigenvalues of the counterdiabatic Hamiltonian (omega/Q*_CD (n + 1/2)),
the bare-energy expectations in its eigenstates (omega Q*_CD (n + 1/2)),
and the two-point-measurement work variance of the counterdiabatic drive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .dynamics import coth_half, thermal_energy
from .errors import CutoffError, NumericsError
from .protocols import FrequencyProtocol, require_cd_valid

__all__ = [
    "FockState",
    "stroke_dim",
    "thermal_fock_in",
    "mean_energy_fock",
    "propagate_fock_path",
    "cd_level_energies",
    "tpm_variance_excess",
]

_SQRT15 = math.sqrt(15.0)
# Even and odd number states, the two blocks of every stroke Hamiltonian.
_PARITIES = (slice(0, None, 2), slice(1, None, 2))
_Band = tuple[np.ndarray, np.ndarray]  # (real diagonal, complex upper off-diagonal)
_LEAK_LIMIT = 1e-6
_TRACE_LIMIT = 1e-8
# Thermal tail weight left outside a stroke's truncation, and the guard
# band added on top of it.
_DIM_TAIL = 1e-10
_STROKE_GUARD = 30
# Active window of propagate_fock_path: it opens at the smallest size whose
# diagonal tail weight is at most _WINDOW_TAIL, plus one band of
# _WINDOW_BAND levels, and grows by one band whenever its top band holds
# more than _WINDOW_TAIL. Mid-stroke, one step of the hot default stroke
# spreads its populations by more than a band, and the weight it pushes
# against the window's top moves the end energy: by 1.1e-10 relative at
# 1e-12, by 1.6e-11 at 5e-13.
_WINDOW_TAIL = 5e-13
_WINDOW_BAND = 16
# Step control of the adaptive Magnus propagator.
_MAGNUS_RTOL = 1e-6
_MAGNUS_ATOL = 1e-12
_MAGNUS_MAX_STEPS = 200_000
# Thermal tail weight left out of the two-point-measurement level sums.
_TPM_TAIL = 1e-12
# Largest truncation the oracle accepts; a parity block of a state there is
# a 2048^2 complex matrix, 64 MiB.
_MAX_LEVELS = 4096


def _check_levels(dim: int) -> None:
    """Refuse a truncation of ``dim`` levels before anything is allocated:
    CutoffError above _MAX_LEVELS, since the truncations a stroke needs
    grow as 1/beta, and ValueError below 4."""
    if dim > _MAX_LEVELS:
        raise CutoffError(f"the Fock oracle needs {dim} levels, over the {_MAX_LEVELS} allowed")
    if dim < 4:
        raise ValueError(f"dim must be at least 4, got {dim}")


@dataclass(frozen=True)
class _ParityBlock:
    """N + 1/2 and K restricted to one number parity, as 1-D arrays: the
    diagonal n + 1/2 of N + 1/2, and the magnitudes sqrt((n + 1)(n + 2)) of
    K's upper off-diagonal, whose entries are -i times them."""

    number: np.ndarray
    k: np.ndarray


def _bands(n: int) -> tuple[_ParityBlock, _ParityBlock]:
    """N + 1/2 and K = xp + px = i (a^dagger^2 - a^2) on the lowest n
    number states, on the even-n and the odd-n levels, the same in the
    number basis of every frequency: neither couples the parities, and
    within one K couples only n and n +- 2. In closed form from the ladder
    algebra: N + 1/2 is the diagonal n + 1/2, and K has a zero diagonal and
    (n, n + 2) entry -i sqrt((n + 1)(n + 2)), exact under the truncation.
    Refused by _check_levels before anything is allocated."""
    _check_levels(n)
    blocks = []
    for s in _PARITIES:
        levels = np.arange(n, dtype=np.float64)[s]
        block = _ParityBlock(levels + 0.5, np.sqrt((levels[:-1] + 1.0) * (levels[:-1] + 2.0)))
        for array in (block.number, block.k):
            array.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def _band(block: _ParityBlock, x) -> _Band:
    """The band of x_A (N + 1/2) + x_K K + x_L L on one parity block, for
    x = (x_A, x_K, x_L): at (omega, omegadot / 4 omega, 0) the bare drive
    in the instantaneous frame, at (omega, -omegadot / 4 omega, 0) the
    counterdiabatic Hamiltonian in the number basis of omega."""
    return x[0] * block.number, complex(x[2], -x[1]) * block.k


def stroke_dim(beta: float, protocol: FrequencyProtocol) -> int:
    """Truncation big enough for a thermal state driven through a stroke.
    propagate_fock_path's active window works on only the lowest levels the
    state occupies, up to this truncation, and reaches that cap only if the
    state does.

    The driven state's occupation scale is bounded by the largest mean
    energy along the stroke over the geometric mean of the endpoint
    frequencies; the sudden-quench factor bounds any finite-time
    adiabaticity factor for these monotone ramps. The tail of a (squeezed)
    thermal state is close to geometric in that occupation scale."""
    wi, wf = protocol.omega_i, protocol.omega_f
    e0 = thermal_energy(beta, wi)
    q_bound = (wi * wi + wf * wf) / (2.0 * wi * wf)
    e_max = e0 * q_bound * max(1.0, wf / wi)
    n_eff = e_max / math.sqrt(wi * wf)
    n = int(math.ceil(n_eff * math.log(1.0 / _DIM_TAIL)))
    return max(n, 8) + _STROKE_GUARD


@dataclass(frozen=True)
class FockState:
    """Density matrix on the lowest dim levels of the number basis of
    ``omega``, with no coherence between even and odd n, as its parity
    blocks: even-even and odd-odd, of sizes (dim + 1) // 2 and dim // 2.
    Validated on creation."""

    even: np.ndarray
    odd: np.ndarray
    omega: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        even, odd = blocks = [np.array(m, dtype=np.complex128) for m in (self.even, self.odd)]
        ke, ko = (len(m) if m.ndim == 2 else -1 for m in blocks)
        shapes = [m.shape for m in blocks]
        if shapes != [(ke, ke), (ko, ko)] or ke - ko not in (0, 1):
            raise ValueError(f"block shapes {shapes} are not the parity blocks of one truncation")
        for m in (even, odd):
            herm = np.linalg.norm(m - m.conj().T)
            if not herm <= 1e-10 * max(1.0, np.linalg.norm(m)):
                raise ValueError(f"rho not Hermitian: deviation {herm} in a parity block")
        tr = float(np.trace(even).real + np.trace(odd).real)
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"rho trace {tr} not 1")
        for field, value in zip(fields(self), (*blocks, float(self.omega))):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, field.name, value)

    @property
    def dim(self) -> int:
        return self.even.shape[0] + self.odd.shape[0]


def _gibbs_populations(beta: float, omega: float, dim: int) -> np.ndarray:
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if math.isinf(beta):
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    n = np.arange(dim, dtype=np.float64)
    logp = -beta * omega * n
    pops = np.exp(logp - logp.max())
    return pops / pops.sum()


def thermal_fock_in(dim: int, beta: float, omega: float) -> FockState:
    """Truncated Gibbs state of the trap at ``omega`` in its own number
    basis, on its lowest ``dim`` levels: the diagonal Gibbs populations, at
    unit trace. Refused by _check_levels before anything is allocated."""
    _check_levels(dim)
    pops = _gibbs_populations(beta, omega, dim)
    return FockState(np.diag(pops[0::2]), np.diag(pops[1::2]), omega)


def mean_energy_fock(state: FockState) -> float:
    """<H0> of the trap at ``state.omega``, in whose number basis the state
    is written: omega sum (n + 1/2) rho_nn."""
    n = np.arange(state.dim, dtype=np.float64)
    return state.omega * float(np.sum((n + 0.5) * _diagonal(state)))


def _band_times(band: _Band, m: np.ndarray) -> np.ndarray:
    """D @ M for the Hermitian tridiagonal D given as (diagonal, upper
    off-diagonal) and a dense M with n rows, in three row updates."""
    diag, off = band
    out = diag[:, None] * m
    out[:-1] += off[:, None] * m[1:]
    out[1:] += off[:, None].conj() * m[:-1]
    return out


def _su11_bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Hermitian bracket -i[X, Y] of X = x_A A + x_K K + x_L L and Y
    alike, as its coefficients (A, K, L), from the structure constants of
    A = N + 1/2, K = xp + px and L = a^dagger^2 + a^2:
    -i[A, K] = 2L, -i[A, L] = -2K and -i[K, L] = -8A."""
    (xa, xk, xl), (ya, yk, yl) = x, y
    return np.array(
        [-8.0 * (xk * yl - xl * yk), -2.0 * (xa * yl - xl * ya), 2.0 * (xa * yk - xk * ya)]
    )


def _magnus_pair(
    blocks: tuple[_ParityBlock, _ParityBlock],
    protocol: FrequencyProtocol,
    t: float,
    h: float,
) -> list[tuple[_Band, _Band]]:
    """Per parity block, the tridiagonal bands of (Omega4, D) for one
    Magnus step of length h from t, one ramp evaluation per three-node
    Gauss-Legendre node: the 4th-order generator Omega4 and its gap
    D = Omega6 - Omega4 to the 6th-order one (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)). With H_k the instantaneous-frame drive H~ at node k, the
    coefficients (omega_k, omegadot_k / 4 omega_k, 0) on (A, K, L), and the
    Hermitian bracket {X, Y} = -i[X, Y] (_su11_bracket): a1 = h H_2,
    a2 = (sqrt(15) h/3)(H_3 - H_1), a3 = (10 h/3)(H_3 - 2 H_2 + H_1),
    C1 = {a1, a2}, C2 = -{a1, 2 a3 + C1}/60, Omega4 = a1 + a3/12 - C1/12 and
    D = ({C1 - 20 a1 - a3, C2} + {C1 - a3, a2})/240, each three numbers.
    Each is mapped to its band on a block by _band, the compression of the
    exact generator onto the block's levels."""
    nodes = [
        protocol.eval(t + c * h) for c in (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)
    ]
    h1, h2, h3 = (np.array([w, wd / (4.0 * w), 0.0]) for w, wd in nodes)
    a1 = h * h2
    a2 = (_SQRT15 * h / 3.0) * (h3 - h1)
    a3 = (10.0 * h / 3.0) * (h3 - 2.0 * h2 + h1)
    c1 = _su11_bracket(a1, a2)
    c2 = _su11_bracket(a1, 2.0 * a3 + c1) / -60.0
    d = (_su11_bracket(c1 - 20.0 * a1 - a3, c2) + _su11_bracket(c1 - a3, a2)) / 240.0
    omega4 = a1 + a3 / 12.0 - c1 / 12.0
    return [(_band(block, omega4), _band(block, d)) for block in blocks]


def _commutator(ds: list[_Band], rho: _Rho) -> _Rho:
    """The parity blocks of [D, rho] for the Hermitian tridiagonal bands
    D = (D_even, D_odd), in O(n^2): X - X^dagger with X = D_a rho[a, a]."""
    xs = (_band_times(d, m) for d, m in zip(ds, rho))
    return _Rho(*(x - x.conj().T for x in xs))


def _eigh_tridiagonal(
    diag: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian tridiagonal M with real diagonal ``diag``
    and upper off-diagonal ``off``, from one real eigensolve: (lam, V, d)
    with M = D V diag(lam) V^T D^dagger, lam ascending, V real orthogonal
    and D = diag(d) unit phases.

    The unit phases d_0 = 1, d_{k+1} = d_k conj(u_k), with u_k the phase of
    off[k], make T = D^dagger M D real symmetric with off-diagonal |off|.
    The phases are a running product, renormalized to unit modulus, rather
    than exp(i theta) of a running sum of angles, whose size (up to about
    pi dim) would cost each ratio d_{k+1}/d_k several digits."""
    mag = np.abs(off)
    unit = np.ones_like(off)
    np.divide(off, mag, out=unit, where=mag > 0.0)
    d = np.cumprod(np.concatenate(([1.0 + 0.0j], unit.conj())))
    d /= np.abs(d)
    t = np.diag(diag)
    k = np.arange(off.size)
    t[k, k + 1] = t[k + 1, k] = mag
    try:
        lam, v = np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Fock oracle: tridiagonal eigensolve failed ({exc})") from None
    return lam, v, d


def _expm_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """exp(-i M) of the Hermitian tridiagonal M with real diagonal ``diag``
    and upper off-diagonal ``off``: with M = D V diag(lam) V^T D^dagger
    from _eigh_tridiagonal,
    exp(-i M) = D (V cos(lam) V^T - i V sin(lam) V^T) D^dagger exactly.
    Both parts come from one real product V G, with G (k, 2k) holding
    cos(lam) V^T and -sin(lam) V^T in interleaved columns, so that V G read
    as complex is V exp(-i lam) V^T; the phases scale it in place.
    Every Magnus generator is tridiagonal in each parity block, a
    combination of N + 1/2, K and L (_magnus_pair), and exists only as
    this (diagonal, off-diagonal) pair (_band)."""
    lam, v, d = _eigh_tridiagonal(diag, off)
    g = np.empty((lam.size, 2 * lam.size))
    g[:, 0::2] = np.cos(lam)[:, None] * v.T
    g[:, 1::2] = -np.sin(lam)[:, None] * v.T
    u = (v @ g).view(np.complex128)
    u *= d[:, None]
    u *= d.conj()
    return u


class _Rho(NamedTuple):
    """The parity blocks of a FockState, unvalidated, for the Magnus loop:
    rho on the lowest n levels, each block contiguous."""

    even: np.ndarray
    odd: np.ndarray


def _resized(rho: _Rho | FockState, n: int) -> _Rho:
    """rho on the lowest n levels, each block cut or zero-padded to its size
    there, in a new contiguous array: numpy's matmul skips BLAS on operands
    with no unit stride, which is about 10x slower at dim/2 = 172."""
    def fit(m, k):
        out = np.zeros((k, k), dtype=np.complex128)
        out[: m.shape[0], : m.shape[1]] = m[:k, :k]
        return out

    return _Rho(fit(rho.even, (n + 1) // 2), fit(rho.odd, n // 2))


def _diagonal(rho: _Rho | FockState) -> np.ndarray:
    """The populations of rho in Fock order."""
    d = np.empty(rho.even.shape[0] + rho.odd.shape[0])
    d[0::2] = rho.even.diagonal().real
    d[1::2] = rho.odd.diagonal().real
    return d


def _frobenius(rho: _Rho) -> float:
    """The Frobenius norm of rho from its two blocks."""
    return math.sqrt(sum(float(np.linalg.norm(m)) ** 2 for m in rho))


def _apply(us: tuple[np.ndarray, np.ndarray], rho: _Rho) -> _Rho:
    """U rho U^dagger with U = U_even + U_odd, block by parity block:
    rho[a, a] <- U_a rho[a, a] U_a^dagger."""
    return _Rho(*(u @ m @ u.conj().T for u, m in zip(us, rho)))


def _advance(pair: list[tuple[_Band, _Band]], rho: _Rho) -> _Rho:
    """One 6th-order Magnus step from the (Omega4, D) bands of each parity
    block: rho under exp(-i Omega6), with Omega6 = Omega4 + D tridiagonal
    like its two terms and exponentiated exactly, one real eigensolve per
    block."""
    us = tuple(_expm_tridiagonal(d4 + dd, o4 + od) for (d4, o4), (dd, od) in pair)
    return _apply(us, rho)


def _check_and_clean(rho: _Rho) -> _Rho:
    """rho at unit trace with exactly Hermitian blocks, block by block.
    Raises NumericsError on a trace drift above _TRACE_LIMIT and
    CutoffError on more than _LEAK_LIMIT in the top two levels of the
    window, the top level of each parity block."""
    tr = float(np.trace(rho.even).real + np.trace(rho.odd).real)
    if not abs(tr - 1.0) <= _TRACE_LIMIT:
        raise NumericsError(
            f"trace drift {abs(tr - 1.0):.3g} exceeds {_TRACE_LIMIT:g} in the "
            "Magnus propagation"
        )
    scaled = (m / tr for m in rho)
    rho = _Rho(*(0.5 * (m + m.conj().T) for m in scaled))
    leak = float(rho.even[-1, -1].real + rho.odd[-1, -1].real)
    if leak > _LEAK_LIMIT:
        raise CutoffError(
            f"population {leak:.3g} in the top two Fock levels exceeds "
            f"{_LEAK_LIMIT:g}; enlarge the truncation"
        )
    return rho


def propagate_fock_path(
    state: FockState,
    protocol: FrequencyProtocol,
    ts,
) -> list[FockState]:
    """Propagate under the bare drive through ascending checkpoints in the
    instantaneous frame, with adaptive 6th-order Magnus steps: local
    extrapolation of a 4th-order step whose error estimate steers h.
    ``state`` must be in the number basis of protocol.omega_i, and each
    returned state is in the number basis of omega at its checkpoint.

    Each trial step of width h builds Omega4 and D = Omega6 - Omega4 on
    bands from three ramp evaluations (_magnus_pair). The local error of
    the 4th-order step is estimated as ||[D, rho]||_F, the leading term of
    the gap between the 4th- and 6th-order updates, and tested against
    _MAGNUS_ATOL + _MAGNUS_RTOL ||rho||_F; the step size follows it with
    the exponent 1/5 of that local error. An accepted step advances rho
    with Omega6 = Omega4 + D (_advance): one exact exponential per parity
    block, so the step is unitary. A rejected trial costs no exponential.

    rho is propagated on an active window of the lowest n levels, under
    their bands (_bands), on which each Magnus pair is built. The window
    opens at the smallest n whose diagonal tail weight in ``state`` is at
    most _WINDOW_TAIL, plus a band of _WINDOW_BAND levels. After each
    accepted step whose top band holds more than _WINDOW_TAIL, rho is
    zero-padded by one band, up to the cap state.dim; there the leak check
    of the top two levels refuses a state that outgrows the truncation.
    Each returned state is zero-padded to state.dim. A step clipped to a
    checkpoint lands on it exactly. The error and tolerance norms are those
    of the whole rho."""
    if not abs(state.omega - protocol.omega_i) <= 1e-12 * protocol.omega_i:
        raise ValueError(
            f"state basis (omega {state.omega}) does not match the stroke's "
            f"start frequency {protocol.omega_i}"
        )
    dim = state.dim
    ts = protocol.checkpoints(ts)

    tail = np.cumsum(_diagonal(state)[::-1])[::-1]
    n = min(int(np.count_nonzero(tail > _WINDOW_TAIL)) + _WINDOW_BAND, dim)
    rho = _resized(state, n)
    blocks = _bands(n)
    t = 0.0
    h = protocol.tau / 200.0
    out: list[FockState] = []
    steps = 0
    for target in ts:
        while t < target:
            last = h >= target - t
            if last:
                h = target - t
            pair = _magnus_pair(blocks, protocol, t, h)
            comm = _commutator([d for _, d in pair], rho)
            err = _frobenius(comm)
            tol = _MAGNUS_ATOL + _MAGNUS_RTOL * _frobenius(rho)
            if err <= tol:
                rho = _advance(pair, rho)
                if n < dim and _diagonal(rho)[-_WINDOW_BAND:].sum() > _WINDOW_TAIL:
                    n = min(n + _WINDOW_BAND, dim)
                    rho = _resized(rho, n)
                    blocks = _bands(n)
                rho = _check_and_clean(rho)
                t = target if last else t + h
                grow = 4.0 if err == 0.0 else min(4.0, 0.9 * (tol / err) ** 0.2)
                h *= max(grow, 0.2)
            else:
                h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            steps += 1
            if steps > _MAGNUS_MAX_STEPS:
                raise NumericsError("Magnus step budget exhausted")
            if h < 1e-15 * protocol.tau:
                raise NumericsError("Magnus step size underflow")
        out.append(FockState(*_resized(rho, dim), protocol.eval(target)[0]))
    return out


def cd_level_energies(
    dim: int, omega: float, omega_dot: float, n_levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral data of the counterdiabatic Hamiltonian at one instant,
    omega (N + 1/2) - (omegadot / 4 omega) K in the number basis of omega,
    on its lowest ``dim`` levels.

    Returns (eigenvalues, <H0> in each eigenstate) for the lowest
    ``n_levels`` levels, from one eigensolve per number parity merged by
    eigenvalue; H0 = omega (N + 1/2) there, so <H0> is omega sum (n + 1/2)
    |W_nk|^2 with W = D V (_eigh_tridiagonal), and |W_nk| = |V_nk|. In the
    untruncated space these are omega/Q*_CD (n + 1/2) and
    omega Q*_CD (n + 1/2)."""
    if n_levels > dim // 2:
        raise ValueError(
            f"n_levels {n_levels} too close to the truncation {dim}; "
            "top-half eigenvectors are not converged"
        )
    lams, h0_exp = [], []
    for block in _bands(dim):
        lam, v, _ = _eigh_tridiagonal(*_band(block, (omega, -omega_dot / (4.0 * omega), 0.0)))
        lams.append(lam)
        h0_exp.append(omega * (block.number @ (v * v)))
    lam = np.concatenate(lams)
    keep = np.argsort(lam, kind="stable")[:n_levels]
    return lam[keep], np.concatenate(h0_exp)[keep]


@functools.lru_cache(maxsize=16)
def _tpm_energies(n_sum: int, omega: float, omega_dot: float) -> np.ndarray:
    """<H0> in the lowest n_sum counterdiabatic eigenstates at one instant
    (cd_level_energies) on 2 n_sum + 60 levels, read-only."""
    _, e = cd_level_energies(2 * n_sum + 60, omega, omega_dot, n_sum)
    e.setflags(write=False)
    return e


def tpm_variance_excess(protocol: FrequencyProtocol, beta: float, t: float) -> float:
    """Two-point-measurement work-variance excess of the counterdiabatically
    driven stroke over the adiabatic one at time t; the matrix-route
    counterpart of the closed form in :mod:`ottosta.sta_cost`. Raises
    TrapInversionError unless tau > tau_min, as every shortcut quantity does.

    The driving is transitionless, so level n stays level n; the measured
    energies are the bare-trap expectations in the instantaneous
    counterdiabatic eigenstates, obtained here by matrix diagonalization
    (independent of any closed form)."""
    require_cd_valid(protocol)
    wi = protocol.omega_i
    c = coth_half(beta, wi)
    if math.isinf(beta):
        n_sum = 2
    else:
        n_sum = max(2, int(math.ceil(-math.log(_TPM_TAIL) / (beta * wi))))
    w0, wd0 = protocol.eval(0.0)
    wt, wdt = protocol.eval(float(t))
    work = _tpm_energies(n_sum, wt, wdt) - _tpm_energies(n_sum, w0, wd0)
    pops = _gibbs_populations(beta, wi, n_sum)
    mean = float(np.sum(pops * work))
    var_cd = float(np.sum(pops * work**2) - mean**2)
    var_n = 0.25 * (c * c - 1.0)  # thermal Var(n + 1/2) = n_bar (n_bar + 1)
    var_ad = (wt - wi) ** 2 * var_n
    return var_cd - var_ad
