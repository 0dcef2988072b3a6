"""Finite-time quantum Otto engine with counterdiabatic shortcut driving.

A harmonic working medium is compressed and expanded by frequency ramps,
exchanging heat with two baths in between. The package propagates the
Gaussian moments of the medium exactly, evaluates the energetic cost of
counterdiabatic driving, books the cycle under four accounting conventions,
locates the efficiency at maximum power, and cross-checks everything against
an independent truncated Fock-basis engine. ``ottosta`` is the batch CLI.

Units: hbar = m = k_B = 1.
"""

from .dynamics import (
    adiabaticity_stack,
    q_cd_grid,
    transfer_matrices,
)
from .errors import (
    ConfigError,
    CutoffError,
    NumericsError,
    OttoStaError,
    PhysicsError,
    SecondLawViolationError,
    TrapInversionError,
)
from .optimizer import EmpConfig, EmpResult, curzon_ahlborn, maximize_power_numeric
from .protocols import FrequencyProtocol, ProtocolKind, check_cd_validity
from .sta_cost import friction_stack, variance_cost_stack, work_cost_stack
from .thermo_cycle import Accounting, CycleConfig, CycleResult, book_cycle, stroke_records

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Accounting",
    "ConfigError",
    "CutoffError",
    "CycleConfig",
    "CycleResult",
    "EmpConfig",
    "EmpResult",
    "FrequencyProtocol",
    "NumericsError",
    "OttoStaError",
    "PhysicsError",
    "ProtocolKind",
    "SecondLawViolationError",
    "TrapInversionError",
    "adiabaticity_stack",
    "check_cd_validity",
    "book_cycle",
    "curzon_ahlborn",
    "friction_stack",
    "maximize_power_numeric",
    "q_cd_grid",
    "stroke_records",
    "transfer_matrices",
    "variance_cost_stack",
    "work_cost_stack",
]
