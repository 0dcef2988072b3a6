"""Truncated Fock-basis engine: an independent cross-check on the Gaussian
moment dynamics.

Operators are built once in the number basis of a fixed reference frequency
(the stroke's initial trap frequency), the density matrix is propagated with
an adaptive 4th-order Magnus integrator (two-node Gauss-Legendre commutator
form, unitary by construction through an eigendecomposition of the Hermitian
generator), and energies/populations are read out by diagonalizing the
relevant Hamiltonians inside the truncated space.

Every stroke Hamiltonian is quadratic in x and p, so it changes the number
n by 0 or +-2 and never mixes even and odd n. Each Magnus step therefore
exponentiates two generators of about dim/2, one per number parity, instead
of one of size dim; the density matrix stays in the natural Fock order and
its parity blocks, off-parity coherences included, are updated as
rho[a, b] <- U_a rho[a, b] U_b^dagger (the odd-even block is the conjugate
transpose of the even-odd one, since rho is Hermitian).

Within one parity, x^2, p^2 and xp + px couple only neighbouring levels, so
each operator is kept as a Hermitian tridiagonal band, and the Magnus
generator is built and checked on bands in O(dim). Its commutator term
stays in the su(1,1) span of the three operators: the second band of
[H2, H1], the only part of the generator that can leave the tridiagonal
form, cancels. A diagonal phase gauge makes each block real symmetric
without changing its spectrum, so each block exponential is one real
eigensolve, exact up to roundoff. An operator or a generator that is not
tridiagonal is refused, never truncated.

This route shares nothing with the Gaussian transfer-matrix propagator
except the frequency ramp and its checkpoint rule (``FrequencyProtocol``),
so agreement between the two engines is a genuine check.
It also provides spectral facts the Gaussian picture cannot state directly:
the eigenvalues of the counterdiabatic Hamiltonian (omega/Q*_CD (n + 1/2)),
the bare-energy expectations in its eigenstates (omega Q*_CD (n + 1/2)),
two-point-measurement work moments, and relative-entropy distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .dynamics import Drive, coth_half, thermal_energy
from .errors import CutoffError, NumericsError
from .protocols import FrequencyProtocol

__all__ = [
    "FockOperators",
    "FockState",
    "build_operators",
    "h0_matrix",
    "hcd_matrix",
    "thermal_dim",
    "stroke_reference",
    "stroke_dim",
    "thermal_fock",
    "thermal_fock_in",
    "mean_energy_fock",
    "propagate_fock",
    "propagate_fock_path",
    "populations_instantaneous",
    "adiabatic_reference",
    "relative_entropy",
    "irreversible_work",
    "cd_level_energies",
    "tpm_work_moments",
    "tpm_variance_excess",
]

_SQRT3 = math.sqrt(3.0)
_LEAK_LIMIT = 1e-6
_TRACE_LIMIT = 1e-8
# Thermal tail weight left outside a truncation, and the guard bands added
# on top of it for a static state and for a driven stroke.
_DIM_TAIL = 1e-10
_THERMAL_GUARD = 12
_STROKE_GUARD = 30
# Step control of the adaptive Magnus propagator.
_MAGNUS_RTOL = 1e-8
_MAGNUS_ATOL = 1e-12
_MAGNUS_MAX_STEPS = 200_000
# Largest entry that the parity bands may leave out of an operator or a
# Magnus generator (beyond the first off-diagonal, across the parities, or
# off Hermitian), relative to its largest entry.
_BAND_TOL = 1e-12
# relative_entropy: eigenvalues of sigma below _SUPPORT_TOL span its null
# space; more than _NULL_WEIGHT_TOL of rho's weight there makes S infinite.
_SUPPORT_TOL = 1e-14
_NULL_WEIGHT_TOL = 1e-10
# Thermal tail weight left out of the two-point-measurement level sums.
_TPM_TAIL = 1e-12


@dataclass(frozen=True)
class FockOperators:
    """Quadrature operators in the number basis of ``ref_omega``."""

    dim: int
    ref_omega: float
    x: np.ndarray
    p: np.ndarray
    x2: np.ndarray
    p2: np.ndarray
    xp_px: np.ndarray


def build_operators(ref_omega: float, dim: int) -> FockOperators:
    if dim < 4:
        raise ValueError(f"dim must be at least 4, got {dim}")
    if ref_omega <= 0.0:
        raise ValueError(f"ref_omega must be positive, got {ref_omega}")
    n = np.arange(1, dim, dtype=np.float64)
    a = np.zeros((dim, dim), dtype=np.complex128)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(n)
    ad = a.conj().T
    x = (a + ad) / math.sqrt(2.0 * ref_omega)
    p = 1j * math.sqrt(ref_omega / 2.0) * (ad - a)
    x2 = x @ x
    p2 = p @ p
    xp_px = x @ p + p @ x
    for m in (x, p, x2, p2, xp_px):
        m.setflags(write=False)
    return FockOperators(dim=dim, ref_omega=float(ref_omega), x=x, p=p, x2=x2, p2=p2, xp_px=xp_px)


def h0_matrix(ops: FockOperators, omega: float) -> np.ndarray:
    """Bare trap Hamiltonian p^2/2 + omega^2 x^2/2 in the reference basis."""
    return 0.5 * ops.p2 + 0.5 * omega * omega * ops.x2


def hcd_matrix(ops: FockOperators, omega: float, omega_dot: float) -> np.ndarray:
    """Counterdiabatic Hamiltonian: H0 - (omegadot / 4 omega)(xp + px)."""
    return h0_matrix(ops, omega) - (omega_dot / (4.0 * omega)) * ops.xp_px


def thermal_dim(beta: float, omega: float) -> int:
    """Smallest truncation whose thermal tail weight is below _DIM_TAIL,
    plus a guard band. Sized for a STATIC state in its own basis; use
    stroke_dim for a driven stroke."""
    if math.isinf(beta):
        return 4 + _THERMAL_GUARD
    z = beta * omega
    if z <= 0.0:
        raise ValueError("beta and omega must be positive")
    # Sum_{n >= N} (1-q) q^n = q^N with q = exp(-beta omega).
    n = int(math.ceil(-math.log(_DIM_TAIL) / z))
    return max(n, 4) + _THERMAL_GUARD


def stroke_reference(protocol: FrequencyProtocol) -> float:
    """Reference basis frequency for propagating one stroke: the geometric
    mean of the endpoint frequencies, which splits the basis mismatch
    (and hence the needed truncation) evenly between the two ends."""
    return math.sqrt(protocol.omega_i * protocol.omega_f)


def stroke_dim(beta: float, protocol: FrequencyProtocol) -> int:
    """Truncation big enough for a thermal state driven through a stroke.

    The driven state's occupation scale in the reference basis is bounded by
    the largest mean energy along the stroke over the reference frequency;
    the sudden-quench factor bounds any finite-time adiabaticity factor for
    these monotone ramps. The tail of a (squeezed) thermal state is close to
    geometric in that occupation scale."""
    wi, wf = protocol.omega_i, protocol.omega_f
    e0 = thermal_energy(beta, wi)
    q_bound = (wi * wi + wf * wf) / (2.0 * wi * wf)
    e_max = e0 * q_bound * max(1.0, wf / wi)
    n_eff = e_max / stroke_reference(protocol)
    n = int(math.ceil(n_eff * math.log(1.0 / _DIM_TAIL)))
    return max(n, 8) + _STROKE_GUARD


@dataclass(frozen=True)
class FockState:
    """Density matrix in the number basis of ``ref_omega``."""

    rho: np.ndarray
    ref_omega: float

    def __post_init__(self):
        rho = np.array(self.rho, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"rho must be square, got shape {rho.shape}")
        herm = np.linalg.norm(rho - rho.conj().T)
        if herm > 1e-10 * max(1.0, np.linalg.norm(rho)):
            raise ValueError(f"rho not Hermitian: deviation {herm}")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"rho trace {tr} not 1")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "ref_omega", float(self.ref_omega))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def _gibbs_populations(beta: float, omega: float, dim: int) -> np.ndarray:
    if math.isinf(beta):
        pops = np.zeros(dim)
        pops[0] = 1.0
        return pops
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    n = np.arange(dim, dtype=np.float64)
    logp = -beta * omega * n
    pops = np.exp(logp - logp.max())
    return pops / pops.sum()


def thermal_fock(beta: float, omega: float, dim: int) -> FockState:
    """Truncated Gibbs state of the trap at ``omega`` in its own basis,
    renormalized to unit trace on the truncated space."""
    pops = _gibbs_populations(beta, omega, dim)
    return FockState(rho=np.diag(pops.astype(np.complex128)), ref_omega=omega)


def thermal_fock_in(ops: FockOperators, beta: float, omega: float) -> FockState:
    """Truncated Gibbs state of the trap at ``omega`` expressed in the
    (possibly different) reference basis of ``ops``: Gibbs populations on
    the eigenvectors of H0(omega) within the truncated space."""
    return _on_h0_levels(ops, _gibbs_populations(beta, omega, ops.dim), omega)


def _on_h0_levels(ops: FockOperators, pops: np.ndarray, omega: float) -> FockState:
    """The state with populations ``pops`` on the ascending eigenvectors of
    H0(omega) in the basis of ``ops``, renormalized to unit trace."""
    _, evecs = np.linalg.eigh(h0_matrix(ops, omega))
    rho = (evecs * pops) @ evecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / float(np.trace(rho).real)
    return FockState(rho=rho, ref_omega=ops.ref_omega)


def mean_energy_fock(ops: FockOperators, state: FockState, omega: float) -> float:
    """<H0(omega)> = Tr[rho H0]."""
    h = h0_matrix(ops, omega)
    return float(np.sum(state.rho * h.T).real)


# Even and odd number states, the two blocks of every stroke Hamiltonian.
_PARITIES = (slice(0, None, 2), slice(1, None, 2))


@dataclass(frozen=True)
class _ParityBlock:
    """The quadratic operators restricted to one number parity, each as a
    Hermitian tridiagonal band of shape (2, n): row 0 the diagonal, row 1
    the upper off-diagonal with a trailing zero. Reads like FockOperators
    for h0_matrix and hcd_matrix, which then return bands too."""

    x2: np.ndarray
    p2: np.ndarray
    xp_px: np.ndarray


def _parity_blocks(ops: FockOperators) -> tuple[_ParityBlock, _ParityBlock]:
    """The even-n and odd-n bands of the quadratic operators. Raises
    NumericsError if an operator is not Hermitian, couples the two parities,
    or has an entry beyond the first off-diagonal within one parity, each
    above _BAND_TOL of its largest entry: the bands would otherwise drop it."""
    bands = ([], [])
    for name in ("x2", "p2", "xp_px"):
        m = getattr(ops, name)
        mag = np.abs(m)
        limit = _BAND_TOL * float(np.max(mag))
        skew = float(np.max(np.abs(m - m.conj().T)))
        if skew > limit:
            raise NumericsError(f"{name} is not Hermitian (deviation {skew:.3g})")
        cross = max(float(np.max(mag[0::2, 1::2])), float(np.max(mag[1::2, 0::2])))
        if cross > limit:
            raise NumericsError(
                f"{name} couples even and odd number states (entry {cross:.3g}); "
                "a quadratic Hamiltonian never does"
            )
        for s, out in zip(_PARITIES, bands):
            block = m[s, s]
            beyond = float(np.max(np.triu(mag[s, s], 2)))
            if beyond > limit:
                raise NumericsError(
                    f"{name} is not tridiagonal within one number parity (entry "
                    f"{beyond:.3g} beyond the first off-diagonal); x^2, p^2 and "
                    "xp + px couple only n and n +- 2"
                )
            band = np.zeros((2, block.shape[0]), dtype=np.complex128)
            band[0] = np.diagonal(block)
            band[1, :-1] = np.diagonal(block, 1)
            out.append(band)
    return tuple(_ParityBlock(*b) for b in bands)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The bands of [A, B] = AB - BA for two Hermitian tridiagonal bands of
    shape (2, n), in O(n): a (3, n) array whose row j is the j-th upper
    diagonal, zero-padded at the end. [A, B] is anti-Hermitian, so these
    three rows fix it; row 2 vanishes when the off-diagonals of A and B are
    proportional, as for any two elements of the su(1,1) span of x^2, p^2
    and xp + px."""
    alpha, beta = a[1], b[1]
    c = np.zeros((3, a.shape[1]), dtype=np.complex128)
    s = alpha * beta.conj() - beta * alpha.conj()
    c[0] = s
    c[0, 1:] -= s[:-1]
    c[1, :-1] = beta[:-1] * (a[0, :-1] - a[0, 1:]) - alpha[:-1] * (b[0, :-1] - b[0, 1:])
    c[2, :-1] = alpha[:-1] * beta[1:] - beta[:-1] * alpha[1:]
    return c


def _magnus_step_u(
    blocks: tuple[_ParityBlock, _ParityBlock],
    protocol: FrequencyProtocol,
    drive: Drive,
    t: float,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Unitaries (U_even, U_odd) for one 4th-order Magnus step of length h
    starting at t; the ramp is evaluated once per Gauss-Legendre node.

    Each block's generator M is built and checked on bands. Its two
    Hamiltonians are tridiagonal, and [H2, H1] is pentadiagonal at most; its
    second band, the only part of M that can leave the tridiagonal form,
    cancels because two su(1,1) elements have proportional off-diagonals. A
    second band above _BAND_TOL max|M| raises NumericsError rather than
    being dropped. exp(-i M) is then one real tridiagonal eigensolve after a
    diagonal phase gauge (_expm_tridiagonal)."""
    nodes = [
        protocol.eval(t + (0.5 - _SQRT3 / 6.0) * h),
        protocol.eval(t + (0.5 + _SQRT3 / 6.0) * h),
    ]
    us = []
    for block in blocks:
        if drive is Drive.CD:
            h1, h2 = (hcd_matrix(block, w, wd) for w, wd, _ in nodes)
        else:
            h1, h2 = (h0_matrix(block, w) for w, _, _ in nodes)
        # Hermitian generator M such that U = exp(-i M): the commutator term
        # of the two-node Gauss-Legendre Magnus expansion is anti-Hermitian,
        # so it enters M with an i.
        weight = (_SQRT3 / 12.0) * h * h
        comm = _commutator(h2, h1)
        m = 0.5 * h * (h1 + h2) - 1j * weight * comm[:2]
        scale = float(np.max(np.abs(m)))
        beyond = weight * float(np.max(np.abs(comm[2])))
        if beyond > _BAND_TOL * scale:
            raise NumericsError(
                f"Magnus generator is not tridiagonal: entry {beyond:.3g} beyond "
                f"the first off-diagonal against max {scale:.3g}"
            )
        us.append(_expm_tridiagonal(m[0].real, m[1, :-1]))
    return tuple(us)


def _expm_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """exp(-i M) of the Hermitian tridiagonal M with real diagonal ``diag``
    and upper off-diagonal ``off``, from one real eigensolve.

    The unit phases d_0 = 1, d_{k+1} = d_k conj(u_k), with u_k the phase of
    off[k], make T = D^dagger M D real symmetric with off-diagonal |off|.
    With T = V diag(lam) V^T,
    exp(-i M) = D (V cos(lam) V^T - i V sin(lam) V^T) D^dagger exactly.
    The phases are a running product, renormalized to unit modulus, rather
    than exp(i theta) of a running sum of angles, whose size (up to about
    pi dim) would cost each ratio d_{k+1}/d_k several digits. The bands
    are all of M: _magnus_step_u builds it on bands and refuses one whose
    second band, the only part that can leave the tridiagonal form, does
    not cancel."""
    mag = np.abs(off)
    unit = np.ones_like(off)
    np.divide(off, mag, out=unit, where=mag > 0.0)
    d = np.cumprod(np.concatenate(([1.0 + 0.0j], unit.conj())))
    d /= np.abs(d)
    t = np.diag(diag)
    k = np.arange(off.size)
    t[k, k + 1] = t[k + 1, k] = mag
    lam, v = np.linalg.eigh(t)
    cos_part = (v * np.cos(lam)) @ v.T
    sin_part = (v * np.sin(lam)) @ v.T
    return d[:, None] * (cos_part - 1j * sin_part) * d.conj()


def _apply(us: tuple[np.ndarray, np.ndarray], rho: np.ndarray) -> np.ndarray:
    """U rho U^dagger with U = U_even + U_odd, block by parity block:
    rho[a, b] <- U_a rho[a, b] U_b^dagger for the even-even, odd-odd and
    even-odd blocks; rho is Hermitian, so the odd-even block is the
    conjugate transpose of the even-odd one, off-parity coherences exact."""
    out = np.empty_like(rho)
    # Copy each strided block first: numpy's matmul skips BLAS on operands
    # with no unit stride, which is about 10x slower at dim/2 = 172.
    for (a, ua), (b, ub) in combinations_with_replacement(zip(_PARITIES, us), 2):
        out[a, b] = ua @ np.ascontiguousarray(rho[a, b]) @ ub.conj().T
    even, odd = _PARITIES
    out[odd, even] = out[even, odd].conj().T
    return out


def _check_and_clean(rho: np.ndarray, dim: int) -> np.ndarray:
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _TRACE_LIMIT:
        raise NumericsError(
            f"trace drift {abs(tr - 1.0):.3g} exceeds {_TRACE_LIMIT:g} in the "
            "Magnus propagation"
        )
    rho = rho / tr
    rho = 0.5 * (rho + rho.conj().T)
    leak = float(rho[dim - 1, dim - 1].real + rho[dim - 2, dim - 2].real)
    if leak > _LEAK_LIMIT:
        raise CutoffError(
            f"population {leak:.3g} in the top two Fock levels exceeds "
            f"{_LEAK_LIMIT:g}; enlarge the truncation"
        )
    return rho


def propagate_fock_path(
    ops: FockOperators,
    state: FockState,
    protocol: FrequencyProtocol,
    ts,
    drive: Drive = Drive.BARE,
) -> list[FockState]:
    """Propagate through ascending checkpoints with adaptive step doubling.

    Each trial step is taken once with width h and once as two half steps;
    the Frobenius gap, divided by 15 (Richardson factor of a 4th-order
    method), estimates the local error. Unitarity is exact, so only the
    time-discretization error is controlled."""
    drive = Drive(drive)
    if abs(ops.ref_omega - state.ref_omega) > 1e-12 * max(1.0, ops.ref_omega):
        raise ValueError(
            f"state basis (ref {state.ref_omega}) does not match the "
            f"operators (ref {ops.ref_omega})"
        )
    if state.dim != ops.dim:
        raise ValueError(f"state dim {state.dim} does not match operators dim {ops.dim}")
    ts = protocol.checkpoints(ts)

    rho = np.array(state.rho, dtype=np.complex128)
    dim = ops.dim
    blocks = _parity_blocks(ops)
    t = 0.0
    h = protocol.tau / 200.0
    out: list[FockState] = []
    steps = 0
    for target in ts:
        while t < target:
            if h > target - t:
                h = target - t
            u_full = _magnus_step_u(blocks, protocol, drive, t, h)
            r_full = _apply(u_full, rho)
            u_h1 = _magnus_step_u(blocks, protocol, drive, t, 0.5 * h)
            u_h2 = _magnus_step_u(blocks, protocol, drive, t + 0.5 * h, 0.5 * h)
            r_half = _apply(u_h2, _apply(u_h1, rho))
            err = float(np.linalg.norm(r_half - r_full)) / 15.0
            tol = _MAGNUS_ATOL + _MAGNUS_RTOL * float(np.linalg.norm(r_half))
            if err <= tol:
                rho = _check_and_clean(r_half, dim)
                t += h
                grow = 4.0 if err == 0.0 else min(4.0, 0.9 * (tol / err) ** 0.2)
                h *= max(grow, 0.2)
            else:
                h *= max(0.2, 0.9 * (tol / err) ** 0.2)
            steps += 1
            if steps > _MAGNUS_MAX_STEPS:
                raise NumericsError("Magnus step budget exhausted")
            if h < 1e-15 * protocol.tau:
                raise NumericsError("Magnus step size underflow")
        out.append(FockState(rho=rho.copy(), ref_omega=ops.ref_omega))
    return out


def propagate_fock(
    ops: FockOperators,
    state: FockState,
    protocol: FrequencyProtocol,
    t: float,
    drive: Drive = Drive.BARE,
) -> FockState:
    return propagate_fock_path(ops, state, protocol, np.array([float(t)]), drive=drive)[-1]


def populations_instantaneous(
    ops: FockOperators, state: FockState, omega: float
) -> np.ndarray:
    """Populations of rho in the eigenbasis of H0(omega), ascending levels."""
    _, evecs = np.linalg.eigh(h0_matrix(ops, omega))
    return np.einsum("ij,jk,ki->i", evecs.conj().T, state.rho, evecs).real


def adiabatic_reference(
    ops: FockOperators, state0: FockState, protocol: FrequencyProtocol, t: float
) -> FockState:
    """The adiabatically transported state at time t: the populations of the
    initial state in the H0(omega_i) eigenbasis, attached to the H0(omega_t)
    eigenvectors."""
    pops = populations_instantaneous(ops, state0, protocol.omega_i)
    return _on_h0_levels(ops, pops, protocol.omega(float(t)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) = Tr[rho ln rho] - Tr[rho ln sigma], in nats.

    Returns inf when rho puts more than _NULL_WEIGHT_TOL of weight on the
    null space of sigma (eigenvalues below _SUPPORT_TOL)."""
    lam, u = np.linalg.eigh(np.asarray(rho, dtype=np.complex128))
    mu, w = np.linalg.eigh(np.asarray(sigma, dtype=np.complex128))
    lam = np.clip(lam.real, 0.0, None)
    mu = mu.real
    overlap = np.abs(u.conj().T @ w) ** 2  # overlap[i, j] = |<u_i | w_j>|^2
    weights_on_j = lam @ overlap
    null = mu < _SUPPORT_TOL
    if float(np.sum(weights_on_j[null])) > _NULL_WEIGHT_TOL:
        return math.inf
    pos = lam > 0.0
    s_rho = float(np.sum(lam[pos] * np.log(lam[pos])))
    keep = ~null
    s_cross = float(np.sum(weights_on_j[keep] * np.log(mu[keep])))
    s = s_rho - s_cross
    return max(s, 0.0) if s > -1e-9 else s


def irreversible_work(rho_state: FockState, rho_ad: FockState, beta: float) -> float:
    """W_irr = S(rho || rho_adiabatic) / beta, with beta the inverse
    temperature of the bath that prepared the stroke's initial state."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    return relative_entropy(rho_state.rho, rho_ad.rho) / beta


def cd_level_energies(
    ops: FockOperators, omega: float, omega_dot: float, n_levels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral data of the counterdiabatic Hamiltonian at one instant.

    Returns (eigenvalues, <H0> in each eigenstate) for the lowest
    ``n_levels`` levels. In the untruncated space these are
    omega/Q*_CD (n + 1/2) and omega Q*_CD (n + 1/2)."""
    if n_levels > ops.dim // 2:
        raise ValueError(
            f"n_levels {n_levels} too close to the truncation {ops.dim}; "
            "top-half eigenvectors are not converged"
        )
    hcd = hcd_matrix(ops, omega, omega_dot)
    evals, evecs = np.linalg.eigh(hcd)
    h0 = h0_matrix(ops, omega)
    v = evecs[:, :n_levels]
    h0_exp = np.einsum("ij,jk,ki->i", v.conj().T, h0, v).real
    return evals[:n_levels].copy(), h0_exp


def tpm_work_moments(
    protocol: FrequencyProtocol, beta: float, t: float
) -> tuple[float, float]:
    """Mean and variance of the two-point-measurement work for the
    counterdiabatically driven stroke up to time t.

    The driving is transitionless, so level n stays level n; the measured
    energies are the bare-trap expectations in the instantaneous
    counterdiabatic eigenstates, obtained here by matrix diagonalization
    (independent of any closed form)."""
    wi = protocol.omega_i
    if math.isinf(beta):
        n_sum = 2
    else:
        n_sum = max(2, int(math.ceil(-math.log(_TPM_TAIL) / (beta * wi))))
    ops = build_operators(wi, 2 * n_sum + 60)
    w0, wd0, _ = protocol.eval(0.0)
    wt, wdt, _ = protocol.eval(float(t))
    _, e_start = cd_level_energies(ops, w0, wd0, n_sum)
    _, e_end = cd_level_energies(ops, wt, wdt, n_sum)
    work = e_end - e_start
    pops = _gibbs_populations(beta, wi, n_sum)
    mean = float(np.sum(pops * work))
    var = float(np.sum(pops * work**2) - mean**2)
    return mean, var


def tpm_variance_excess(protocol: FrequencyProtocol, beta: float, t: float) -> float:
    """Two-point-measurement work-variance excess of the driven stroke over
    the adiabatic one at time t; the matrix-route counterpart of the closed
    form in :mod:`ottosta.sta_cost`."""
    _, var_cd = tpm_work_moments(protocol, beta, t)
    wi = protocol.omega_i
    wt = protocol.omega(float(t))
    c = coth_half(beta, wi)
    var_n = 0.25 * (c * c - 1.0)  # thermal Var(n + 1/2) = n_bar (n_bar + 1)
    var_ad = (wt - wi) ** 2 * var_n
    return var_cd - var_ad
