"""Shared exception types and the table of resource bounds."""


class LocatorError(ValueError):
    """A mid-branch space locator does not point at a gap of the triple."""


class EncodingError(ValueError):
    """A malformed vertex word."""


class ResourceLimitError(RuntimeError):
    """A value passed one of the bounds in ``LIMITS``."""


#: Every bound past which a call refuses work, keyed by what it bounds:
#: family sizes, word-length truncations and the audit's random walks.
LIMITS = {
    "freehedron n": 8,
    "cube dim": 8,
    "simplex dim": 9,
    "associahedron leaves": 7,
    "hilbert max-len": 6,
    "residual max-len": 5,
    "audited chains": 500_000,
}


def check_limit(name: str, value: int) -> None:
    """Raise ResourceLimitError if value passes LIMITS[name]."""
    if value > LIMITS[name]:
        raise ResourceLimitError(f"{name} = {value} exceeds the limit {LIMITS[name]}")
