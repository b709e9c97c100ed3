"""Size caps. Operations fail loudly past a cap instead of degrading."""

from dataclasses import dataclass

GROUP_ORDER_CAP = 200
"""Maximum order for multiplication-table construction."""

BLOCK_DEGREE_CAP = 24
"""Maximum degree for exhaustive block-system search."""

WREATH_VERTEX_CAP = 1024
"""Maximum vertex count of a digraph wreath product."""


@dataclass(frozen=True)
class Limits:
    """The user-settable caps, passed as one value to every search.

    search: maximum digraph order accepted by the isomorphism/automorphism
    search.  aut: maximum group order for automorphism and subgroup
    enumeration.
    """

    search: int = 40
    aut: int = 24

    def __post_init__(self) -> None:
        for name in ("search", "aut"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"Limits.{name} must be a positive int, got {value!r}")


DEFAULT_LIMITS = Limits()


class CapExceeded(RuntimeError):
    """An operation would exceed its configured size cap."""
