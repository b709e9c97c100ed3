"""Size caps. A cap bounds a listing or a search and is checked before that
work starts, so an operation past it fails loudly instead of degrading."""

from dataclasses import dataclass

GROUP_ORDER_CAP = 200
"""Maximum order for multiplication-table construction."""

SWEEP_SET_CAP = 2**18
"""Maximum number of connection sets a CI sweep lists: every group of order
at most 20 in both modes, but not the Z21 digraph sweep (616,666 sets)."""


@dataclass(frozen=True)
class Limits:
    """The user-settable caps, passed as one value to every search.

    search: maximum digraph order accepted by the isomorphism/automorphism
    search; it also bounds the set transporter, whose callers check the
    group's order against it first (the quotient certificate checks |G/H|
    before its quotient steps and |G| before Aut(dq1) and the lifted sets'
    transporter; it searches no Cayley digraph of G).  aut: maximum group order
    whose automorphisms (the CI sweep) or subgroups are listed.
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
