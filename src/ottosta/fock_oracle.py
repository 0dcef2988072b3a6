"""Truncated Fock-basis engine: an independent cross-check on the Gaussian
moment dynamics.

Operators are built once in the number basis of a fixed reference frequency
(the stroke's initial trap frequency), the density matrix is propagated with
an adaptive 4th-order Magnus integrator (two-node Gauss-Legendre commutator
form, unitary by construction through an eigendecomposition of the Hermitian
generator), and energies/populations are read out by diagonalizing the
relevant Hamiltonians inside the truncated space.

This route shares nothing with the Gaussian transfer-matrix propagator
except the frequency ramp formulas, so agreement between the two engines is a genuine check.
It also provides spectral facts the Gaussian picture cannot state directly:
the eigenvalues of the counterdiabatic Hamiltonian (omega/Q*_CD (n + 1/2)),
the bare-energy expectations in its eigenstates (omega Q*_CD (n + 1/2)),
two-point-measurement work moments, and relative-entropy distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Drive, coth_half
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
    e0 = 0.5 * wi * coth_half(beta, wi)
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
    pops = _gibbs_populations(beta, omega, ops.dim)
    _, evecs = np.linalg.eigh(h0_matrix(ops, omega))
    rho = (evecs * pops) @ evecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / float(np.trace(rho).real)
    return FockState(rho=rho, ref_omega=ops.ref_omega)


def mean_energy_fock(ops: FockOperators, state: FockState, omega: float) -> float:
    """<H0(omega)> = Tr[rho H0]."""
    h = h0_matrix(ops, omega)
    return float(np.sum(state.rho * h.T).real)


def _hamiltonian(ops: FockOperators, protocol: FrequencyProtocol, drive: Drive, t: float) -> np.ndarray:
    w, wd, _ = protocol.eval(t)
    if drive is Drive.CD:
        return hcd_matrix(ops, w, wd)
    return h0_matrix(ops, w)


def _magnus_step_u(
    ops: FockOperators, protocol: FrequencyProtocol, drive: Drive, t: float, h: float
) -> np.ndarray:
    """Unitary for one 4th-order Magnus step of length h starting at t."""
    t1 = t + (0.5 - _SQRT3 / 6.0) * h
    t2 = t + (0.5 + _SQRT3 / 6.0) * h
    h1 = _hamiltonian(ops, protocol, drive, t1)
    h2 = _hamiltonian(ops, protocol, drive, t2)
    # Hermitian generator M such that U = exp(-i M): the commutator term of
    # the two-node Gauss-Legendre Magnus expansion is anti-Hermitian, so it
    # enters M with an i.
    m = 0.5 * h * (h1 + h2) - 1j * (_SQRT3 / 12.0) * h * h * (h2 @ h1 - h1 @ h2)
    m = 0.5 * (m + m.conj().T)
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def _apply(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


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
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a non-empty 1-d array of times")
    if np.any(np.diff(ts) < 0.0) or ts[0] < 0.0:
        raise ValueError("ts must be ascending and non-negative")
    if ts[-1] > protocol.tau * (1.0 + 1e-12):
        raise ValueError(f"ts exceeds tau = {protocol.tau}")

    rho = np.array(state.rho, dtype=np.complex128)
    dim = ops.dim
    t = 0.0
    h = protocol.tau / 200.0
    out: list[FockState] = []
    steps = 0
    for target in ts:
        while t < target:
            if h > target - t:
                h = target - t
            u_full = _magnus_step_u(ops, protocol, drive, t, h)
            r_full = _apply(u_full, rho)
            u_h1 = _magnus_step_u(ops, protocol, drive, t, 0.5 * h)
            u_h2 = _magnus_step_u(ops, protocol, drive, t + 0.5 * h, 0.5 * h)
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
    w_t = protocol.omega(float(t))
    pops = populations_instantaneous(ops, state0, protocol.omega_i)
    _, evecs = np.linalg.eigh(h0_matrix(ops, w_t))
    rho = (evecs * pops) @ evecs.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / float(np.trace(rho).real)
    return FockState(rho=rho, ref_omega=ops.ref_omega)


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
