"""W-state quantum secure communication: simulator and exact analyzer.

Simulates two entanglement-based secure communication schemes (a
three-qubit scheme and the four-qubit Bell-measurement scheme it
improves on) together with the standard eavesdropping attacks against
them, and reproduces the detection error rates and information-leak
behavior both by exact probability enumeration and by Monte Carlo
sampling.

The public API is what the ``wqsc`` command line uses: a run is a
:class:`RunConfig` given to :func:`run_monte_carlo` (a :class:`RunStats`),
:func:`exact_analyze` gives the exact rates of a config (an
:class:`ExactResult`), and :func:`verify_identities` checks the state
algebra (a list of :class:`IdentityReport`). A scheme, an attack and a
policy are named by their command-line strings, and every error the
package raises is a :class:`WqscError`. The modules that hold the states,
gates, measurements and attacks are internal.
"""

from .errors import WqscError
from .harness import ExactResult, RunConfig, RunStats, exact_analyze, run_monte_carlo
from .states import IdentityReport, verify_identities

__version__ = "0.1.0"

__all__ = [
    "ExactResult",
    "IdentityReport",
    "RunConfig",
    "RunStats",
    "WqscError",
    "exact_analyze",
    "run_monte_carlo",
    "verify_identities",
]
