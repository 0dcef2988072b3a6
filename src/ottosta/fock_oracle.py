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

rho is propagated with an adaptive 8th-order Magnus integrator. Each trial
step builds the 6th-order generator Omega6 from H~ at three Gauss-Legendre
nodes and the 8th-order Omega8 = Omega6 + D by four-stage Gauss
collocation; ||[D, rho]||_F estimates the local error of the 6th-order
step and steers the step size. An accepted step advances rho with Omega8
by local extrapolation: Omega8 is, like Omega6, a combination of three
fixed operators (below), tridiagonal in each parity block, so
exp(-i Omega8) is taken exactly, from one eigendecomposition of the
Hermitian generator per block.

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
numbers computed once per step (_su11_bracket, _dexpinv). Its band in a
parity block is a pair, a real diagonal and a complex upper off-diagonal,
from one map (_band): (x_A (n + 1/2), (x_L - i x_K) sqrt((n + 1)(n + 2))),
as K's (n, n + 2) entry is -i sqrt((n + 1)(n + 2)) and L's band is i times
K's. On any truncation that band is the compression of the exact generator:
no bracket of truncated matrices is ever formed. Generators stay triples
until a kernel needs a band: the banded product (_band_times) of the error
estimate and the eigensolve (_eigh_tridiagonal) of the exponential take a
parity block and a triple. Only the coefficients come from the algebra; the
exponential is still taken of the Fock bands. A diagonal phase gauge, the
powers of the one unit phase of x_L - i x_K, makes each block real
symmetric without changing its spectrum, so each block exponential is one
real eigensolve, exact up to roundoff.

Every function takes its truncation as a level count: the bands of N + 1/2
and K on the lowest n levels are a closed form in n (_bands), and the
compression of those of any larger truncation onto them. A state's
truncation ``state.dim`` (for a stroke, ``stroke_dim``) is a cap, not the
working size: rho is propagated on an active window of the lowest levels,
the ones the state occupies, under the bands of that window. The window is
sized before each trial step, and only then, ahead of the populations'
front by its speed and a guard band (propagate_fock_path), up to
state.dim; the leak check after each step reads the window's real top two
levels (the top level of each parity block). Returned states are
zero-padded to state.dim. The counterdiabatic
Hamiltonian of one instant, omega (N + 1/2) - (omegadot / 4 omega) K in the
number basis of that instant's omega, is split the same way: two real
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
_LEAK_LIMIT = 1e-6
_TRACE_LIMIT = 1e-8
# Thermal tail weight left outside a stroke's truncation, and the guard
# band added on top of it. propagate_fock_path holds its active window to
# the same tail weight: a step that leaves more in the window's top two
# levels is redone on a larger window.
_DIM_TAIL = 1e-10
_STROKE_GUARD = 30
# Active window of propagate_fock_path: its tail threshold and guard band.
# One 8th-order step of the hot default stroke carries its populations past
# a band, so the window is sized before each trial from the front's speed;
# grown only after each step, it moved the end energy by 2.6e-8 relative at
# tau = 2.25, against 7.8e-11 sized before each trial.
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


def _band(block: _ParityBlock, x) -> tuple[np.ndarray, np.ndarray]:
    """The band of x_A (N + 1/2) + x_K K + x_L L on one parity block, for
    x = (x_A, x_K, x_L), as (real diagonal, complex upper off-diagonal): at
    (omega, omegadot / 4 omega, 0) the bare drive in the instantaneous
    frame, at (omega, -omegadot / 4 omega, 0) the counterdiabatic
    Hamiltonian in the number basis of omega."""
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


def _band_times(block: _ParityBlock, x, m: np.ndarray) -> np.ndarray:
    """D @ M for the band D of the triple x on one parity block (_band) and
    a dense M with the block's rows, in three row updates."""
    diag, off = _band(block, x)
    out = diag[:, None] * m
    out[:-1] += off[:, None] * m[1:]
    out[1:] += off[:, None].conj() * m[:-1]
    return out


def _su11_bracket(x, y) -> tuple[float, float, float]:
    """The Hermitian bracket -i[X, Y] of X = x_A A + x_K K + x_L L and Y
    alike, as its coefficients (A, K, L), from the structure constants of
    A = N + 1/2, K = xp + px and L = a^dagger^2 + a^2:
    -i[A, K] = 2L, -i[A, L] = -2K and -i[K, L] = -8A."""
    (xa, xk, xl), (ya, yk, yl) = x, y
    return -8.0 * (xk * yl - xl * yk), -2.0 * (xa * yl - xl * ya), 2.0 * (xa * yk - xk * ya)


def _combine(weights, xs) -> tuple[float, float, float]:
    """sum_j weights[j] xs[j] for coefficient triples xs, in Python floats:
    numpy's per-call overhead dwarfs three-number arithmetic."""
    a = k = l = 0.0
    for w, (xa, xk, xl) in zip(weights, xs):
        a += w * xa
        k += w * xk
        l += w * xl
    return a, k, l


def _dexpinv(x, y) -> tuple[float, float, float]:
    """dexp^{-1}_X(Y) = Y - {X, Y}/2 + {X, {X, Y}}/12 - ad^4/720 + ad^6/30240,
    the Bernoulli series of the bracket ad = {X, .} = -i[X, .] cut after
    its sixth power. In su(1,1), ad^3 = s ad with
    s = 16 (x_K^2 + x_L^2) - 4 x_A^2 (the characteristic polynomial of
    ad's 3x3 matrix), so the cut series is two brackets:
    Y - {X, Y}/2 + (1/12 - s/720 + s^2/30240) {X, {X, Y}}."""
    xy = _su11_bracket(x, y)
    xxy = _su11_bracket(x, xy)
    s = 16.0 * (x[1] * x[1] + x[2] * x[2]) - 4.0 * x[0] * x[0]
    g = 1.0 / 12.0 - s * (1.0 / 720.0 - s / 30240.0)
    return _combine((1.0, -0.5, g), (y, xy, xxy))


def _gauss8():
    """Four-stage Gauss-Legendre collocation on [0, 1], of order 8, as Python
    floats: the nodes c, roots of the Legendre polynomial P4(2c - 1), and
    the weights b in closed form, and the stage matrix a from its
    conditions sum_j a_ij c_j^k = c_i^(k + 1)/(k + 1) for k < 4."""
    r30 = math.sqrt(30.0)
    outer, inner = (0.5 * math.sqrt((15.0 + s * 2.0 * r30) / 35.0) for s in (1.0, -1.0))
    c = np.array([0.5 - outer, 0.5 - inner, 0.5 + inner, 0.5 + outer])
    b = np.array([18.0 - r30, 18.0 + r30, 18.0 + r30, 18.0 - r30]) / 72.0
    k = np.arange(1.0, 5.0)
    a = np.linalg.solve(np.vander(c, 4, increasing=True).T, (c[:, None] ** k / k).T).T
    return c.tolist(), b.tolist(), a.tolist()


_NODES8, _WEIGHTS8, _MATRIX8 = _gauss8()
# The ramp nodes of one Magnus trial step, as fractions of its length: the
# three Gauss-Legendre nodes of Omega6, then the four of Omega8.
_NODES = np.array([0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0, *_NODES8])


def _omega6(hs) -> tuple[float, float, float]:
    """The 6th-order Magnus generator of Blanes, Casas, Oteo & Ros (Phys.
    Rep. 470, 151 (2009)) from hs = h H at the three Gauss-Legendre nodes:
    a1 = h H_2, a2 = (sqrt(15) h/3)(H_3 - H_1),
    a3 = (10 h/3)(H_3 - 2 H_2 + H_1), C1 = {a1, a2},
    C2 = -{a1, 2 a3 + C1}/60 and
    Omega6 = a1 + a3/12 + {-20 a1 - a3 + C1, a2 + C2}/240."""
    a1 = hs[1]
    a2 = _combine((-_SQRT15 / 3.0, 0.0, _SQRT15 / 3.0), hs)
    a3 = _combine((10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0), hs)
    c1 = _su11_bracket(a1, a2)
    c2 = _combine((-1.0 / 60.0,), (_su11_bracket(a1, _combine((2.0, 1.0), (a3, c1))),))
    tail = _su11_bracket(
        _combine((-20.0, -1.0, 1.0), (a1, a3, c1)), _combine((1.0, 1.0), (a2, c2))
    )
    return _combine((1.0, 1.0 / 12.0, 1.0 / 240.0), (a1, a3, tail))


def _omega8(hs) -> tuple[float, float, float]:
    """Omega(h) of the Magnus equation Omega' = dexp^{-1}_Omega(H) from
    Omega(0) = 0, by Gauss collocation with four stages (order 8), from
    hs = h H at the four nodes (Iserles, Munthe-Kaas, Norsett & Zanna, Acta
    Numerica 9, 215 (2000)). The stages solve
    Omega_i = sum_j a_ij dexp^{-1}_{Omega_j}(h H_j) by seven fixed-point
    sweeps from Omega_i = 0, each of which gains one order in h; the
    first is Omega_i = sum_j a_ij h H_j."""
    stages = [_combine(row, hs) for row in _MATRIX8]
    for _ in range(6):
        fs = [_dexpinv(x, y) for x, y in zip(stages, hs)]
        stages = [_combine(row, fs) for row in _MATRIX8]
    return _combine(_WEIGHTS8, [_dexpinv(x, y) for x, y in zip(stages, hs)])


def _magnus_pair(
    protocol: FrequencyProtocol, t: float, h: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """The coefficient triples of (Omega8, D) for one Magnus step of length
    h from t: the 8th-order generator Omega8 (_omega8) and its gap
    D = Omega8 - Omega6 to the 6th-order one (_omega6), from one ramp
    evaluation at the seven nodes of both. With H_k the instantaneous-frame
    drive H~ at node k, the coefficients (omega_k, omegadot_k / 4 omega_k,
    0) on (A, K, L), every bracket is three numbers (_su11_bracket), and so
    is each generator. Neither depends on a truncation: a kernel maps a
    triple to its band on a parity block (_band) only where it needs one."""
    w, wd = protocol.eval(t + h * _NODES)
    hs = [(h * x, h * xd / (4.0 * x), 0.0) for x, xd in zip(w.tolist(), wd.tolist())]
    omega8 = _omega8(hs[3:])
    return omega8, _combine((1.0, -1.0), (omega8, _omega6(hs[:3])))


def _commutator(blocks: tuple[_ParityBlock, _ParityBlock], x, rho: _Rho) -> _Rho:
    """The parity blocks of [D, rho] for D the generator of the triple x,
    in O(n^2): X - X^dagger with X = D_a rho[a, a] on the band D_a of each
    parity block."""
    products = (_band_times(block, x, m) for block, m in zip(blocks, rho))
    return _Rho(*(p - p.conj().T for p in products))


def _eigh_tridiagonal(block: _ParityBlock, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of the band M of the triple x on one parity block
    (_band), from one real eigensolve: (lam, V, d) with
    M = D V diag(lam) V^T D^dagger, lam ascending, V real orthogonal and
    D = diag(d) unit phases.

    Every off-diagonal entry of M is c sqrt((n + 1)(n + 2)) with the one
    c = x_L - i x_K, so the unit phases d_k = conj(u)^k, with u = c/|c|
    the phase of the first entry, make T = D^dagger M D real symmetric with
    off-diagonal |c| sqrt((n + 1)(n + 2)); at c = 0 (the constant control)
    M is diagonal and D = 1.
    The powers are a running product, renormalized to unit modulus, rather
    than exp(i k theta), whose angle (up to about pi dim) would cost each
    ratio d_{k+1}/d_k several digits."""
    diag, off = _band(block, x)
    unit = off[0].conjugate() / abs(off[0]) if off[0] else 1.0
    d = np.cumprod(np.concatenate(([1.0 + 0.0j], np.full(off.size, unit))))
    d /= np.abs(d)
    t = np.diag(diag)
    k = np.arange(off.size)
    t[k, k + 1] = t[k + 1, k] = np.abs(off)
    try:
        lam, v = np.linalg.eigh(t)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"Fock oracle: tridiagonal eigensolve failed ({exc})") from None
    return lam, v, d


def _expm_tridiagonal(block: _ParityBlock, x) -> np.ndarray:
    """exp(-i M) of the band M of the triple x on one parity block: with
    M = D V diag(lam) V^T D^dagger from _eigh_tridiagonal,
    exp(-i M) = D (V cos(lam) V^T - i V sin(lam) V^T) D^dagger exactly.
    Both parts come from one real product V G, with G (k, 2k) holding
    cos(lam) V^T and -sin(lam) V^T in interleaved columns, so that V G read
    as complex is V exp(-i lam) V^T; the phases scale it in place."""
    lam, v, d = _eigh_tridiagonal(block, x)
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


def _advance(blocks: tuple[_ParityBlock, _ParityBlock], x, rho: _Rho) -> _Rho:
    """One 8th-order Magnus step: rho under exp(-i Omega8) for Omega8 the
    generator of the triple x, exponentiated exactly on each parity block,
    one real eigensolve per block."""
    return _apply(tuple(_expm_tridiagonal(block, x) for block in blocks), rho)


def _front(rho: _Rho | FockState) -> int:
    """The number of lowest levels up to the last one whose diagonal tail
    weight exceeds _WINDOW_TAIL."""
    tail = np.cumsum(_diagonal(rho)[::-1])
    return int(np.count_nonzero(tail > _WINDOW_TAIL))


def _top_weight(rho: _Rho) -> float:
    """The population of the top two levels of rho, the top level of each
    parity block."""
    return float(rho.even[-1, -1].real + rho.odd[-1, -1].real)


def _check_and_clean(rho: _Rho) -> _Rho:
    """rho at unit trace with exactly Hermitian blocks, block by block.
    Raises NumericsError on a trace drift above _TRACE_LIMIT and
    CutoffError on more than _LEAK_LIMIT in the top two levels."""
    tr = float(np.trace(rho.even).real + np.trace(rho.odd).real)
    if not abs(tr - 1.0) <= _TRACE_LIMIT:
        raise NumericsError(
            f"trace drift {abs(tr - 1.0):.3g} exceeds {_TRACE_LIMIT:g} in the "
            "Magnus propagation"
        )
    scaled = (m / tr for m in rho)
    rho = _Rho(*(0.5 * (m + m.conj().T) for m in scaled))
    leak = _top_weight(rho)
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
    instantaneous frame, with adaptive 8th-order Magnus steps: local
    extrapolation of a 6th-order step whose error estimate steers h.
    ``state`` must be in the number basis of protocol.omega_i, and each
    returned state is in the number basis of omega at its checkpoint.

    Each trial from t takes step = min(h, target - t), with h the step
    controller's proposal, and builds the coefficient triples of Omega8 and
    D = Omega8 - Omega6 from one ramp evaluation at seven nodes
    (_magnus_pair). The local error of the 6th-order step is estimated as
    err = ||[D, rho]||_F, the leading term of the gap between the 6th- and
    8th-order updates, and tested against
    tol = _MAGNUS_ATOL + _MAGNUS_RTOL ||rho||_F. An accepted step advances
    rho with Omega8 (_advance): one exact exponential per parity block, so
    the step is unitary. A rejected trial costs no exponential, so the
    first trial is a large tau/20. Either way the next proposal is
    step * factor, with the one factor clamp(0.9 (tol/err)^(1/7), 0.2, 4)
    (4 at err = 0), the exponent that of the 6th-order local error; only
    an accepted step clipped to its checkpoint keeps the larger
    max(h, step * factor), so a close checkpoint does not restart the
    controller from the clipped width. A clipped step lands on its
    checkpoint exactly.

    rho is propagated on an active window of the lowest n levels, and each
    kernel maps the step's triples to bands on them (_bands, _band). The
    front is the number of levels up to the last one whose diagonal tail
    weight exceeds _WINDOW_TAIL (_front), and its speed the change of the
    front over the last accepted step, divided by that step's length (0
    before the first). Before each trial, and only then, rho is
    zero-padded to front + ceil(speed step) + _WINDOW_BAND levels if it
    holds fewer, up to the cap state.dim. A step that leaves more than the
    truncation's own tail weight _DIM_TAIL in the top two levels of a
    window below the cap lagged its populations: it is redone on a window
    sized the same way from the front it reached, at least one band
    larger, until its top holds less or the window is at the cap. There
    the leak check refuses a state that outgrows the truncation. Each
    returned state is zero-padded to state.dim. The error and tolerance
    norms are those of the whole rho."""
    if not abs(state.omega - protocol.omega_i) <= 1e-12 * protocol.omega_i:
        raise ValueError(
            f"state basis (omega {state.omega}) does not match the stroke's "
            f"start frequency {protocol.omega_i}"
        )
    dim = state.dim
    ts = protocol.checkpoints(ts)

    # the window opens at the first trial
    rho, n, blocks = state, 0, None
    front, speed = _front(state), 0.0
    t, h = 0.0, protocol.tau / 20.0
    out: list[FockState] = []
    steps = 0
    for target in ts:
        while t < target:
            t_next, step = min(t + h, target), min(h, target - t)
            reach = min(front + math.ceil(speed * step) + _WINDOW_BAND, dim)
            if reach > n:
                n = reach
                rho, blocks = _resized(rho, n), _bands(n)
            omega8, d = _magnus_pair(protocol, t, step)
            err = _frobenius(_commutator(blocks, d, rho))
            tol = _MAGNUS_ATOL + _MAGNUS_RTOL * _frobenius(rho)
            factor = 4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (tol / err) ** (1.0 / 7.0)))
            if err <= tol:
                advanced = _advance(blocks, omega8, rho)
                if n < dim and _top_weight(advanced) > _DIM_TAIL:
                    # the populations reached the window's top: redo the
                    # step on a window sized from the front they reached
                    speed = (_front(advanced) - front) / step
                    continue
                rho = _check_and_clean(advanced)
                del advanced  # not held through the next step: a window-sized copy
                front_next = _front(rho)
                t, front, speed = t_next, front_next, (front_next - front) / step
            # a step clipped to its checkpoint keeps the larger proposal
            h = max(h, step * factor) if err <= tol and step < h else step * factor
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
        lam, v, _ = _eigh_tridiagonal(block, (omega, -omega_dot / (4.0 * omega), 0.0))
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
