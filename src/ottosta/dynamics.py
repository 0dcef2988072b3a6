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
vectorized 4th-order Magnus propagator with step-doubling error control.

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

import numpy as np

from .errors import NumericsError, TrapInversionError
from .protocols import FrequencyProtocol, check_cd_validity, tau_min, validity_margin

__all__ = [
    "Drive",
    "GaussianState",
    "thermal_state",
    "coth_half",
    "mean_energy",
    "propagate",
    "propagate_path",
    "classical_pair_path",
    "adiabaticity",
    "adiabaticity_path",
    "adiabaticity_pair",
    "adiabaticity_pair_path",
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


def _require_cd_valid(protocol: FrequencyProtocol):
    """The one guard of every CD quantity: the shortcut exists for the whole
    stroke or not at all."""
    report = check_cd_validity(protocol)
    if not report.valid:
        raise TrapInversionError(
            f"counterdiabatic drive undefined: the {protocol.kind.value} ramp "
            f"{protocol.omega_i:g} -> {protocol.omega_f:g} needs tau > tau_min = "
            f"{tau_min(protocol.kind, protocol.omega_i, protocol.omega_f):g}, got "
            f"tau = {protocol.tau:g} (minimum validity margin {report.min_margin:.3g}); "
            "the effective trap inverts, lengthen the stroke"
        )


# -- transfer-matrix propagator -----------------------------------------------


def _step_exponentials(
    protocol: FrequencyProtocol, drive: Drive, left: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """exp(Omega) of each Magnus step [left, left + h], stacked (N, 2, 2).

    The generator A = [[g, 1], [-omega^2, -g]] is traceless, and so is
    Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1]. Then
    Omega^2 = delta I with delta = -det Omega, and
    exp(Omega) = C I + S Omega with C = cosh(sqrt delta) and
    S = sinh(sqrt delta)/sqrt delta (cos/sin for delta < 0).
    """
    w, wd, _ = protocol._shape((left + _GL_NODES[:, None] * h) / protocol.tau)
    # A_k = [[a_k, 1], [c_k, -a_k]] at the two nodes; Omega = [[alpha, beta], [gamma, -alpha]].
    c1, c2 = -w * w
    a1, a2 = -wd / (2.0 * w) if drive is Drive.CD else (0.0, 0.0)
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

    out = np.empty((h.size, 2, 2))
    out[:, 0, 0] = cosh_part + sinh_part * alpha
    out[:, 0, 1] = sinh_part * beta
    out[:, 1, 0] = sinh_part * gamma
    out[:, 1, 1] = cosh_part - sinh_part * alpha
    return out


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """Running products steps[k] @ ... @ steps[0], by a log-depth doubling
    scan (each pass combines entries ``span`` apart)."""
    out = steps.copy()
    span = 1
    while span < out.shape[0]:
        out[span:] = np.matmul(out[span:], out[:-span])
        span *= 2
    return out


def _transfer_matrices(
    protocol: FrequencyProtocol, ts: np.ndarray, drive: Drive, rtol: float
) -> np.ndarray:
    """Transfer matrices M(t_j), shape (len(ts), 2, 2), from t = 0 to each
    ascending checkpoint t_j.

    Each gap between checkpoints gets a whole number of equal Magnus steps,
    starting near one step per radian of the fastest trap frequency. The
    step count then doubles until the Richardson estimate
    max_j |M_2N(t_j) - M_N(t_j)| / (15 |M_2N(t_j)|) is at most rtol, and
    the finer result is returned; doublings the estimate predicts to fall
    short are skipped. Raises NumericsError when the grid would exceed
    _MAX_STEPS steps.
    """
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol!r}")
    edges = np.concatenate(([0.0], ts))
    gaps = np.diff(edges)
    t_end = float(ts[-1])
    if t_end == 0.0:
        return np.tile(np.eye(2), (ts.size, 1, 1))
    omega_max = max(protocol.omega_i, protocol.omega_f)
    steps_per_time = max(_MIN_START_STEPS, math.ceil(t_end * omega_max)) / t_end
    base = np.ceil(gaps * steps_per_time).astype(np.int64)
    previous = None
    error = math.inf
    level = 0
    while True:
        counts = base << level
        ends = np.cumsum(counts)
        n = int(ends[-1])
        if n > _MAX_STEPS:
            raise NumericsError(
                f"Magnus propagator: {n} steps exceed the budget of {_MAX_STEPS} "
                f"(error estimate {error:.3g} > rtol {rtol:g})"
            )
        h = np.repeat(gaps / np.maximum(counts, 1), counts)
        index = np.arange(n) - np.repeat(ends - counts, counts)
        left = np.repeat(edges[:-1], counts) + index * h
        products = _prefix_products(_step_exponentials(protocol, drive, left, h))
        m = np.concatenate((np.eye(2)[None], products))[ends]
        if previous is None:
            previous = m
            level += 1
            continue
        diff = np.max(np.abs(m - previous), axis=(1, 2))
        error = float(np.max(diff / np.max(np.abs(m), axis=(1, 2)))) / 15.0
        if error <= rtol:
            return m
        # A 4th-order error falls about 16-fold per doubling: skip straight
        # to the pair of levels predicted to meet rtol.
        doublings = math.ceil(math.log(error / rtol, 16)) if math.isfinite(error) else 1
        previous = m if doublings <= 1 else None
        level += max(doublings - 1, 1)


def _checkpoints(protocol: FrequencyProtocol, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts must be a non-empty 1-d array of times")
    if np.any(np.diff(ts) < 0.0) or ts[0] < 0.0:
        raise ValueError("ts must be ascending and non-negative")
    if ts[-1] > protocol.tau * (1.0 + 1e-12):
        raise ValueError(f"ts exceeds tau = {protocol.tau}")
    return ts


def _moments(
    state: GaussianState, protocol: FrequencyProtocol, ts, drive: Drive, rtol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked means M m0 (N, 2) and covariances M C0 M^T (N, 2, 2) at each
    ascending checkpoint, not yet validated."""
    drive = Drive(drive)
    ts = _checkpoints(protocol, ts)
    if drive is Drive.CD:
        _require_cd_valid(protocol)
    m = _transfer_matrices(protocol, ts, drive, rtol)
    return m @ state.mean, m @ state.cov @ np.swapaxes(m, 1, 2)


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
    t = float(t)
    if t < 0.0 or t > protocol.tau * (1.0 + 1e-12):
        raise ValueError(f"t = {t} outside [0, tau = {protocol.tau}]")
    return propagate_path(state, protocol, [t], drive=drive, rtol=rtol)[0]


def propagate_path(
    state: GaussianState,
    protocol: FrequencyProtocol,
    ts,
    drive: Drive = Drive.BARE,
    rtol: float = DEFAULT_RTOL,
) -> list[GaussianState]:
    """States at each ascending checkpoint in ``ts`` (single forward sweep)."""
    means, covs = _moments(state, protocol, ts, drive, rtol)
    return [GaussianState(mean=mu, cov=c) for mu, c in zip(means, covs)]


# -- classical solution pair (temperature-independent route) ----------------


def classical_pair_path(
    protocol: FrequencyProtocol,
    ts,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    """Rows (X, Xdot, Y, Ydot) at each checkpoint for the two classical
    solutions of xddot + omega(t)^2 x = 0 with X(0)=0, Xdot(0)=1 and
    Y(0)=1, Ydot(0)=0. Their Wronskian X Ydot - Y Xdot stays -1.

    They are the columns of the bare-drive transfer matrix: (X, Xdot) the
    second, (Y, Ydot) the first."""
    m = _transfer_matrices(protocol, _checkpoints(protocol, ts), Drive.BARE, rtol)
    return np.stack([m[:, 0, 1], m[:, 1, 1], m[:, 0, 0], m[:, 1, 0]], axis=1)


def _pair_q(protocol: FrequencyProtocol, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
    w_t = protocol.omega(ts)
    w_t = np.atleast_1d(np.asarray(w_t, dtype=np.float64))
    wi = protocol.omega_i
    x, xd, yv, yd = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    return (
        wi * wi * (w_t**2 * x**2 + xd**2) + (w_t**2 * yv**2 + yd**2)
    ) / (2.0 * wi * w_t)


def adiabaticity_pair(
    protocol: FrequencyProtocol,
    t: float,
    rtol: float = DEFAULT_RTOL,
) -> float:
    """Q*(t) from the classical pair; independent of the initial thermal state."""
    ts = np.array([float(t)])
    rows = classical_pair_path(protocol, ts, rtol=rtol)
    return float(_pair_q(protocol, rows, ts)[0])


def adiabaticity_pair_path(
    protocol: FrequencyProtocol,
    ts,
    rtol: float = DEFAULT_RTOL,
) -> np.ndarray:
    ts = np.asarray(ts, dtype=np.float64)
    rows = classical_pair_path(protocol, ts, rtol=rtol)
    return _pair_q(protocol, rows, ts)


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
    ts = np.asarray(ts, dtype=np.float64)
    state0 = thermal_state(beta, protocol.omega_i)
    e0 = mean_energy(state0, protocol.omega_i)
    means, covs = _moments(state0, protocol, ts, drive, rtol)
    w_t = np.atleast_1d(np.asarray(protocol.omega(ts), dtype=np.float64))
    energies = _energies(means, _checked_covariances(covs), w_t)
    return energies / (w_t / protocol.omega_i * e0)


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
    _require_cd_valid(protocol)
    return 1.0 / np.sqrt(validity_margin(protocol, np.atleast_1d(ts)))


def q_cd(protocol: FrequencyProtocol, t: float) -> float:
    """Scalar closed-form Q*_CD(t); see q_cd_grid."""
    return float(q_cd_grid(protocol, np.array([float(t)]))[0])
