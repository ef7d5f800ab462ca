"""W-state quantum secure communication: simulator and exact analyzer.

Simulates two entanglement-based secure communication schemes (a
three-qubit scheme and the four-qubit Bell-measurement scheme it
improves on) together with the standard eavesdropping attacks against
them, and reproduces the detection error rates and information-leak
behavior both by exact probability enumeration and by Monte Carlo
sampling.
"""

from .attacks import AttackKind, EveNote
from .errors import WqscError
from .harness import (
    ExactResult,
    RunConfig,
    RunStats,
    binomial_ci,
    exact_analyze,
    run_monte_carlo,
)
from .qstate import (
    Gate1Q,
    MeasurementBasis,
    bell_basis,
    x_basis,
    z_basis,
)
from .states import IdentityReport, StateLabel, build, verify_identities

__version__ = "0.1.0"

__all__ = [
    "AttackKind",
    "EveNote",
    "ExactResult",
    "Gate1Q",
    "IdentityReport",
    "MeasurementBasis",
    "RunConfig",
    "RunStats",
    "StateLabel",
    "WqscError",
    "bell_basis",
    "binomial_ci",
    "build",
    "exact_analyze",
    "run_monte_carlo",
    "verify_identities",
    "x_basis",
    "z_basis",
]
