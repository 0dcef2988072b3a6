"""Frequency protocols for the driven harmonic trap.

A protocol is the control history omega(t) on t in [0, tau] taking the trap
from omega_i to omega_f. Three ramp families satisfy the shortcut boundary
conditions needed for counterdiabatic driving to switch off at the ends
(value and slope match; the fifth-order polynomial also matches curvature),
plus a linear ramp and a constant control for baselines.

Units: hbar = m = 1 throughout the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import TrapInversionError

__all__ = [
    "ProtocolKind",
    "FrequencyProtocol",
    "BoundaryReport",
    "ValidityReport",
    "check_sta_boundary",
    "check_cd_validity",
    "require_cd_valid",
    "tau_min",
]

# Relative tolerance of each shortcut boundary condition.
_BOUNDARY_TOL = 1e-12


class ProtocolKind(str, Enum):
    """Ramp families. The string values are the CLI / config spellings."""

    POLY5 = "poly5"
    POLY3 = "poly3"
    COSINE = "cosine"
    LINEAR = "linear"
    CONSTANT = "constant"

    @classmethod
    def shortcut_kinds(cls) -> tuple["ProtocolKind", ...]:
        """Kinds whose boundary conditions make CD driving vanish at t=0, tau."""
        return (cls.POLY5, cls.POLY3, cls.COSINE)


def _ramp_shape(kind: ProtocolKind, wi, wf, tau, s: np.ndarray):
    """(omega, omegadot, omegaddot) of a ``kind`` ramp at s = t/tau. The
    parameters wi, wf and tau are scalars or arrays that broadcast against s,
    so one call can evaluate many ramps of the same kind.

    The polynomial ramps interpolate omega itself; the cosine ramp
    interpolates omega squared, which is why its curvature does not vanish
    at the endpoints."""
    d = wf - wi
    if kind is ProtocolKind.CONSTANT:
        z = np.zeros_like(s)
        return wi + z, z, z.copy()
    if kind is ProtocolKind.POLY5:
        f = s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
        fp = 30.0 * s**2 * (1.0 - s) ** 2
        fpp = 60.0 * s - 180.0 * s**2 + 120.0 * s**3
        return wi + d * f, d * fp / tau, d * fpp / tau**2
    if kind is ProtocolKind.POLY3:
        f = s**2 * (3.0 - 2.0 * s)
        fp = 6.0 * s * (1.0 - s)
        fpp = 6.0 - 12.0 * s
        return wi + d * f, d * fp / tau, d * fpp / tau**2
    if kind is ProtocolKind.COSINE:
        a2 = (wf / wi) ** 2
        u = 0.5 * ((a2 + 1.0) - (a2 - 1.0) * np.cos(np.pi * s))
        up = 0.5 * (a2 - 1.0) * np.pi * np.sin(np.pi * s)
        upp = 0.5 * (a2 - 1.0) * np.pi**2 * np.cos(np.pi * s)
        r = np.sqrt(u)
        w = wi * r
        wd = wi * up / (2.0 * r) / tau
        wdd = wi * (upp / (2.0 * r) - up**2 / (4.0 * u * r)) / tau**2
        return w, wd, wdd
    # linear
    z = np.zeros_like(s)
    return wi + d * s, d / tau + z, z.copy()


# Slack allowed when checking t against [0, tau], relative to tau.
_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class FrequencyProtocol:
    """One ramp omega(t), t in [0, tau], from omega_i to omega_f."""

    kind: ProtocolKind
    omega_i: float
    omega_f: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "kind", ProtocolKind(self.kind))
        for name in ("omega_i", "omega_f", "tau"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, v)
        if self.kind is ProtocolKind.CONSTANT and self.omega_f != self.omega_i:
            raise ValueError("constant protocol requires omega_f == omega_i")

    @classmethod
    def constant(cls, omega: float, tau: float) -> "FrequencyProtocol":
        return cls(ProtocolKind.CONSTANT, omega, omega, tau)

    # -- evaluation ---------------------------------------------------------

    def _check_domain(self, t):
        tol = _DOMAIN_TOL * self.tau
        tmin = float(np.min(t))
        tmax = float(np.max(t))
        if tmin < -tol or tmax > self.tau + tol:
            raise ValueError(
                f"time outside protocol domain [0, {self.tau}]: [{tmin}, {tmax}]"
            )

    def eval(self, t: float) -> tuple[float, float, float]:
        """(omega, omegadot, omegaddot) at scalar time t."""
        self._check_domain(t)
        w, wd, wdd = self._shape(np.float64(t) / self.tau)
        return float(w), float(wd), float(wdd)

    def _shape(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (omega, omegadot, omegaddot) as functions of s = t/tau."""
        return _ramp_shape(self.kind, self.omega_i, self.omega_f, self.tau, s)

    def eval_many(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized eval over an array of times."""
        ts = np.asarray(ts, dtype=np.float64)
        self._check_domain(ts)
        return self._shape(ts / self.tau)

    def omega(self, t):
        if np.isscalar(t):
            return self.eval(t)[0]
        return self.eval_many(t)[0]

    def checkpoints(self, ts) -> np.ndarray:
        """``ts`` as the checkpoints of a propagation along this ramp: a
        non-empty 1-d float array, ascending, from 0 up to tau. Raises
        ValueError otherwise."""
        ts = np.asarray(ts, dtype=np.float64)
        if ts.ndim != 1 or ts.size == 0:
            raise ValueError("ts must be a non-empty 1-d array of times")
        if np.any(np.diff(ts) < 0.0) or ts[0] < 0.0:
            raise ValueError("ts must be ascending and non-negative")
        if ts[-1] > self.tau * (1.0 + _DOMAIN_TOL):
            raise ValueError(f"ts exceeds tau = {self.tau}")
        return ts


class BoundaryReport(NamedTuple):
    """Per-condition shortcut boundary flags at t = 0 and t = tau."""

    value_start: bool
    value_end: bool
    slope_start: bool
    slope_end: bool
    curvature_start: bool
    curvature_end: bool

    @property
    def shortcut_ok(self) -> bool:
        """Value and slope conditions, the ones CD switch-off needs."""
        return (
            self.value_start and self.value_end
            and self.slope_start and self.slope_end
        )

    @property
    def all_ok(self) -> bool:
        return self.shortcut_ok and self.curvature_start and self.curvature_end


def check_sta_boundary(protocol: FrequencyProtocol) -> BoundaryReport:
    """Check omega(0)=omega_i, omega(tau)=omega_f and vanishing endpoint
    derivatives, each to _BOUNDARY_TOL of its scale."""
    w0, wd0, wdd0 = protocol.eval(0.0)
    w1, wd1, wdd1 = protocol.eval(protocol.tau)
    scale_w = max(abs(protocol.omega_i), abs(protocol.omega_f))
    delta = abs(protocol.omega_f - protocol.omega_i)
    scale_d = max(delta, scale_w) / protocol.tau
    scale_dd = max(delta, scale_w) / protocol.tau**2
    return BoundaryReport(
        value_start=abs(w0 - protocol.omega_i) <= _BOUNDARY_TOL * scale_w,
        value_end=abs(w1 - protocol.omega_f) <= _BOUNDARY_TOL * scale_w,
        slope_start=abs(wd0) <= _BOUNDARY_TOL * scale_d,
        slope_end=abs(wd1) <= _BOUNDARY_TOL * scale_d,
        curvature_start=abs(wdd0) <= _BOUNDARY_TOL * scale_dd,
        curvature_end=abs(wdd1) <= _BOUNDARY_TOL * scale_dd,
    )


class ValidityReport(NamedTuple):
    """Counterdiabatic validity over the whole ramp."""

    valid: bool
    min_margin: float


def validity_margin(protocol: FrequencyProtocol, ts) -> np.ndarray:
    """Margin g(t) = 1 - omegadot^2 / (4 omega^4) at the given times.

    The effective frequency of the counterdiabatic Hamiltonian is
    omega(t) sqrt(g(t)); g must stay positive or the trap inverts.
    """
    w, wd, _ = protocol.eval_many(ts)
    return 1.0 - wd**2 / (4.0 * w**4)


# Rounds and points of the zooming scan for tau_min: each round resamples the
# two grid cells around the current argmax, so the final spacing is ~2e-9.
_TAU_MIN_ROUNDS = 4
_TAU_MIN_POINTS = 257


@functools.lru_cache(maxsize=1024)
def tau_min(kind, omega_i: float, omega_f: float) -> float:
    """Shortest duration for which the counterdiabatic drive exists.

    At fixed s = t/tau, omegadot scales as 1/tau, so the margin is
    1 - (r(s)/tau)^2 with r = |omegadot| / (2 omega^2) of the unit-duration
    ramp. The shortcut exists iff tau > max_s r(s) = tau_min, and the
    smallest margin on the stroke is exactly 1 - (tau_min/tau)^2. The
    maximum is located by a scan that zooms onto the bracket around the
    argmax; it is 0 for the constant control."""
    shape = FrequencyProtocol(kind, omega_i, omega_f, 1.0)._shape
    lo, hi = 0.0, 1.0
    for _ in range(_TAU_MIN_ROUNDS):
        s = np.linspace(lo, hi, _TAU_MIN_POINTS)
        w, wd, _ = shape(s)
        r = np.abs(wd) / (2.0 * w * w)
        i = int(np.argmax(r))
        lo, hi = s[max(i - 1, 0)], s[min(i + 1, s.size - 1)]
    return float(r[i])


def check_cd_validity(protocol: FrequencyProtocol) -> ValidityReport:
    """Exact counterdiabatic validity of the whole stroke: valid iff
    tau > tau_min, with minimum margin 1 - (tau_min/tau)^2."""
    t_min = tau_min(protocol.kind, protocol.omega_i, protocol.omega_f)
    return ValidityReport(
        valid=protocol.tau > t_min, min_margin=1.0 - (t_min / protocol.tau) ** 2
    )


def require_cd_valid(protocol: FrequencyProtocol):
    """The one refusal of every counterdiabatic quantity: the shortcut exists
    for the whole stroke or not at all. Raises TrapInversionError unless
    tau > tau_min."""
    report = check_cd_validity(protocol)
    if not report.valid:
        raise TrapInversionError(
            f"counterdiabatic drive undefined: the {protocol.kind.value} ramp "
            f"{protocol.omega_i:g} -> {protocol.omega_f:g} needs tau > tau_min = "
            f"{tau_min(protocol.kind, protocol.omega_i, protocol.omega_f):g}, got "
            f"tau = {protocol.tau:g} (minimum validity margin {report.min_margin:.3g}); "
            "the effective trap inverts, lengthen the stroke"
        )
