"""Exception hierarchy shared by all wqsc modules."""


class WqscError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(WqscError):
    """An amplitude array or gate matrix has the wrong shape."""


class IndexOutOfRange(WqscError):
    """Qubit index outside the 1..num_qubits range, or a gate's two qubits equal."""


class NonUnitaryGate(WqscError):
    """Gate matrix fails the unitarity check."""


class InvalidBasis(WqscError):
    """Measurement basis malformed for the given state."""


class UnknownLabel(WqscError):
    """No state constructor registered for the requested label."""


class InvalidConfig(WqscError):
    """Round or run configuration violates its invariants."""


class UnsupportedPair(WqscError):
    """No analyzer for the requested (scheme, attack) combination."""


class InvalidCounts(WqscError):
    """Success/trial counts outside the valid range for interval estimation."""
