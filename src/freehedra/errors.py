"""Shared exception types and the table of resource bounds."""


class LocatorError(ValueError):
    """A mid-branch space locator does not point at a gap of the triple."""


class EncodingError(ValueError):
    """Malformed serialized input (vertex word or JSON record)."""


class ResourceLimitError(RuntimeError):
    """A value passed one of the bounds in ``LIMITS``."""


#: Every bound past which a call refuses work, keyed by what it bounds:
#: family sizes, word-length truncations and the two work caps.
LIMITS = {
    "freehedron n": 8,
    "cube dim": 8,
    "simplex dim": 9,
    "associahedron leaves": 7,
    "hilbert max-len": 6,
    "residual max-len": 5,
    "violating chains per face": 100_000,
    "audited chains": 500_000,
}


def check_limit(name: str, value: int, limit: int | None = None) -> None:
    """Raise ResourceLimitError if value passes limit (default LIMITS[name])."""
    if limit is None:
        limit = LIMITS[name]
    if value > limit:
        raise ResourceLimitError(f"{name} = {value} exceeds the limit {limit}")
