"""Exception hierarchy.

Three top-level families map onto CLI exit codes: configuration problems
(exit 2), physics preconditions (exit 3), numerical failures (exit 4).
"""


class OttoStaError(Exception):
    """Base class for all package errors."""


class ConfigError(OttoStaError):
    """Invalid configuration file, flag value, or parameter combination."""


class PhysicsError(OttoStaError):
    """A physical precondition does not hold for the requested quantity."""


class TrapInversionError(PhysicsError):
    """The counterdiabatic validity margin 1 - omegadot^2/(4 omega^4) is
    non-positive somewhere on the whole stroke (tau <= tau_min), so the
    effective frequency is not real and CD accounting is undefined."""


class SecondLawViolationError(PhysicsError):
    """Computed total entropy production is negative beyond tolerance."""


class NumericsError(OttoStaError):
    """An integrator or linear-algebra routine failed to meet its target."""


class CutoffError(NumericsError):
    """Fock-space truncation leaked population into the top levels."""
