"""W-state quantum secure communication: simulator and exact analyzer.

Simulates two entanglement-based secure communication schemes (a
three-qubit scheme and the four-qubit Bell-measurement scheme it
improves on) together with the standard eavesdropping attacks against
them, and reproduces the detection error rates and information-leak
behavior both by exact probability enumeration and by Monte Carlo
sampling.
"""

from .attacks import (
    AttackKind,
    AttackModel,
    EveNote,
    NO_ATTACK,
)
from .errors import WqscError
from .harness import (
    ExactResult,
    RunConfig,
    RunStats,
    binomial_ci,
    exact_analyze,
    run_monte_carlo,
)
from .protocol import cao_check_error, check_consistent, recover_bit
from .qstate import (
    BasisKind,
    BellLabel,
    Gate1Q,
    MeasurementBasis,
    Outcome,
    StateVector,
    apply_1q,
    apply_cnot,
    bell_basis,
    make_state,
    states_equal,
    tensor,
    x_basis,
    z_basis,
)
from .states import IdentityReport, StateLabel, build, verify_identities

__version__ = "0.1.0"

__all__ = [
    "AttackKind",
    "AttackModel",
    "BasisKind",
    "BellLabel",
    "EveNote",
    "ExactResult",
    "Gate1Q",
    "IdentityReport",
    "MeasurementBasis",
    "NO_ATTACK",
    "Outcome",
    "RunConfig",
    "RunStats",
    "StateLabel",
    "StateVector",
    "WqscError",
    "apply_1q",
    "apply_cnot",
    "bell_basis",
    "binomial_ci",
    "build",
    "cao_check_error",
    "check_consistent",
    "exact_analyze",
    "make_state",
    "recover_bit",
    "run_monte_carlo",
    "states_equal",
    "tensor",
    "verify_identities",
    "x_basis",
    "z_basis",
]
