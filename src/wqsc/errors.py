"""Exception hierarchy shared by all wqsc modules."""


class WqscError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(WqscError):
    """Round or run configuration violates its invariants."""


class UnsupportedPair(WqscError):
    """No analyzer for the requested (scheme, attack) combination."""
