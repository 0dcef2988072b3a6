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
    "ValidityReport",
    "check_cd_validity",
    "require_cd_valid",
    "tau_min",
]


class ProtocolKind(str, Enum):
    """Ramp families. The string values are the CLI / config spellings."""

    POLY5 = "poly5"
    POLY3 = "poly3"
    COSINE = "cosine"
    LINEAR = "linear"
    CONSTANT = "constant"


def _ramp_shape(kind: ProtocolKind, wi, wf, tau, s: np.ndarray, order: int):
    """(omega,) at order 0 and (omega, omegadot) at order 1 of a ``kind``
    ramp at s = t/tau. omega comes from the same expression at both orders,
    so its bits do not depend on it. The parameters wi, wf and tau are
    scalars or arrays that broadcast against s, so one call can evaluate
    many ramps of the same kind.

    The polynomial ramps interpolate omega itself; the cosine ramp
    interpolates omega squared."""
    d = wf - wi
    if kind is ProtocolKind.CONSTANT:
        z = np.zeros_like(s)
        return (wi + z, z)[: order + 1]
    if kind is ProtocolKind.POLY5:
        out = [wi + d * (s**3 * (10.0 - 15.0 * s + 6.0 * s**2))]
        if order >= 1:
            out.append(d * (30.0 * s**2 * (1.0 - s) ** 2) / tau)
        return tuple(out)
    if kind is ProtocolKind.POLY3:
        out = [wi + d * (s**2 * (3.0 - 2.0 * s))]
        if order >= 1:
            out.append(d * (6.0 * s * (1.0 - s)) / tau)
        return tuple(out)
    if kind is ProtocolKind.COSINE:
        a2 = (wf / wi) ** 2
        u = 0.5 * ((a2 + 1.0) - (a2 - 1.0) * np.cos(np.pi * s))
        r = np.sqrt(u)
        out = [wi * r]
        if order >= 1:
            up = 0.5 * (a2 - 1.0) * np.pi * np.sin(np.pi * s)
            out.append(wi * up / (2.0 * r) / tau)
        return tuple(out)
    # linear
    out = [wi + d * s]
    if order >= 1:
        out.append(d / tau + np.zeros_like(s))
    return tuple(out)


def _set_positive(obj, names) -> None:
    """Set each field named in ``names`` of the frozen dataclass ``obj`` to
    its float value, refusing with ValueError one that is not finite and
    positive: the parameter rule of FrequencyProtocol, CycleConfig and
    EmpConfig."""
    for name in names:
        v = float(getattr(obj, name))
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"{name} must be finite and positive, got {v!r}")
        object.__setattr__(obj, name, v)


def _require_cold_bath_colder(beta1: float, beta2: float) -> None:
    """Refuse bath inverse temperatures unless the cold bath (beta1) is
    colder than the hot one (beta2), as an engine needs."""
    if not beta1 > beta2:
        raise ValueError("need beta1 > beta2 (cold bath colder than hot bath)")


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
        _set_positive(self, ("omega_i", "omega_f", "tau"))
        if self.kind is ProtocolKind.CONSTANT and self.omega_f != self.omega_i:
            raise ValueError("constant protocol requires omega_f == omega_i")

    def eval(self, t):
        """(omega, omegadot) at time t: floats for a scalar t, arrays of t's
        shape for an array of times. Raises ValueError for a time outside
        [0, tau] or not a number."""
        t = np.asarray(t, dtype=np.float64)
        tol = _DOMAIN_TOL * self.tau
        tmin, tmax = float(np.min(t)), float(np.max(t))
        if not (tmin >= -tol and tmax <= self.tau + tol):
            raise ValueError(
                f"time outside protocol domain [0, {self.tau}]: [{tmin}, {tmax}]"
            )
        w, wd = _ramp_shape(self.kind, self.omega_i, self.omega_f, self.tau, t / self.tau, 1)
        if t.ndim == 0:
            return float(w), float(wd)
        return w, wd

    def checkpoints(self, ts) -> np.ndarray:
        """``ts`` as the checkpoints of a propagation along this ramp: a
        non-empty 1-d float array, ascending, from 0 up to tau. Raises
        ValueError otherwise. The one-row case of the stack rule
        (_checkpoints)."""
        return _checkpoints([self], [ts])[0]


def _checkpoints(protocols, ts) -> np.ndarray:
    """The checkpoints of a stack of strokes as one float (B, K) array: row
    ts[b] non-empty, 1-d, finite, ascending, from 0 up to protocols[b].tau
    (with _DOMAIN_TOL slack), and the same number K on every row. Checked
    in one pass over the stack; raises ValueError naming the rule broken."""
    try:
        stack = np.asarray(ts, dtype=np.float64)
    except ValueError:  # ragged
        stack = None
    if stack is None or stack.ndim != 2 or stack.shape[1] == 0:
        for row in ts:
            row = np.asarray(row, dtype=np.float64)
            if row.ndim != 1 or row.size == 0:
                raise ValueError("ts must be a non-empty 1-d array of times")
        raise ValueError("every stroke of a stack needs the same number of checkpoints")
    taus = np.array([p.tau for p in protocols])
    if stack.shape[0] != taus.size:
        raise ValueError(f"{taus.size} strokes but {stack.shape[0]} rows of checkpoints")
    if not np.isfinite(stack).all():
        raise ValueError("ts must be finite")
    if (stack[:, 1:] < stack[:, :-1]).any() or (stack[:, 0] < 0.0).any():
        raise ValueError("ts must be ascending and non-negative")
    beyond = stack[:, -1] > taus * (1.0 + _DOMAIN_TOL)
    if beyond.any():
        raise ValueError(f"ts exceeds tau = {float(taus[np.argmax(beyond)])}")
    return stack


class ValidityReport(NamedTuple):
    """Counterdiabatic validity over the whole ramp. The margin
    g(t) = 1 - omegadot^2 / (4 omega^4) is the squared ratio of the
    effective frequency of the counterdiabatic Hamiltonian to omega(t); g
    must stay positive or the trap inverts."""

    valid: bool
    min_margin: float


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
    ramp = FrequencyProtocol(kind, omega_i, omega_f, 1.0)  # refuses an invalid ramp
    lo, hi = 0.0, 1.0
    for _ in range(_TAU_MIN_ROUNDS):
        s = np.linspace(lo, hi, _TAU_MIN_POINTS)
        w, wd = _ramp_shape(ramp.kind, ramp.omega_i, ramp.omega_f, 1.0, s, 1)
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
