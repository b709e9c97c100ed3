"""Digraphs (loops permitted), Cayley digraphs, wreath products, twin decompositions.

Adjacency is stored as one out-neighbour bitmask per vertex.  Undirected
graphs are exactly the arc-symmetric digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Iterable, Sequence

from cig import _kernels

if TYPE_CHECKING:
    from cig.groups import FiniteGroup


class Digraph:
    """A directed graph on vertices 0..order-1; loops allowed."""

    __slots__ = ("order", "out_masks", "_in_masks", "_twin_classes")

    def __init__(self, order: int, out_masks: Iterable[int]):
        masks = tuple(out_masks)
        if len(masks) != order:
            raise ValueError("mask count does not match order")
        if masks and (min(masks) < 0 or max(masks) >= 1 << order):
            raise ValueError("adjacency mask out of range")
        self.order = order
        self.out_masks = masks
        self._in_masks: tuple[int, ...] | None = None
        self._twin_classes: tuple[tuple[int, ...], ...] | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> Digraph:
        """Loopless complete digraph (all arcs in both directions)."""
        full = (1 << n) - 1
        return cls(n, (full ^ (1 << u) for u in range(n)))

    @classmethod
    def empty(cls, n: int) -> Digraph:
        return cls(n, (0 for _ in range(n)))

    # -- basics ------------------------------------------------------------

    @property
    def in_masks(self) -> tuple[int, ...]:
        if self._in_masks is None:
            masks = [0] * self.order
            for u, row in enumerate(self.out_masks):
                while row:
                    v = (row & -row).bit_length() - 1
                    masks[v] |= 1 << u
                    row &= row - 1
            self._in_masks = tuple(masks)
        return self._in_masks

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_masks[u] >> v & 1)

    def arcs(self) -> list[tuple[int, int]]:
        out = []
        for u, row in enumerate(self.out_masks):
            while row:
                v = (row & -row).bit_length() - 1
                out.append((u, v))
                row &= row - 1
        return out

    @property
    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.out_masks)

    def has_loop(self, u: int) -> bool:
        return bool(self.out_masks[u] >> u & 1)

    @property
    def loop_count(self) -> int:
        return sum(1 for u in range(self.order) if self.has_loop(u))

    @property
    def is_undirected(self) -> bool:
        """True iff the arc relation is symmetric: each vertex has the same
        out- and in-neighbours."""
        return self.out_masks == self.in_masks

    # -- transformations -----------------------------------------------------

    def complement(self) -> Digraph:
        """Flip every arc between distinct vertices; loop flags are kept."""
        n = self.order
        full = (1 << n) - 1
        return Digraph(
            n, (row ^ (full ^ (1 << u)) for u, row in enumerate(self.out_masks))
        )

    def relabel(self, images: Iterable[int]) -> Digraph:
        """Rename vertex x to images[x], preserving arcs."""
        images = tuple(images)
        if sorted(images) != list(range(self.order)):
            raise ValueError("relabeling is not a bijection")
        masks = [0] * self.order
        for u, row in enumerate(self.out_masks):
            new_row = 0
            while row:
                v = (row & -row).bit_length() - 1
                new_row |= 1 << images[v]
                row &= row - 1
            masks[images[u]] = new_row
        return Digraph(self.order, masks)

    def is_automorphism(self, images: Sequence[int]) -> bool:
        """Whether renaming vertex x to images[x], a permutation, keeps the
        digraph: `relabel(images) == self` without building the relabelled
        digraph.  Only the moved points' bits are renamed, row by row, and
        the first row that breaks ends the check."""
        masks = self.out_masks
        moved = 0
        for x, y in enumerate(images):
            if x != y:
                moved |= 1 << x
        for u, row in enumerate(masks):
            new_row = row & ~moved
            row &= moved
            while row:
                low = row & -row
                new_row |= 1 << images[low.bit_length() - 1]
                row ^= low
            if masks[images[u]] != new_row:
                return False
        return True

    def induced(self, vertices: Iterable[int]) -> Digraph:
        keep = sorted(vertices)
        pos = {v: i for i, v in enumerate(keep)}
        masks = [0] * len(keep)
        for v in keep:
            for w in keep:
                if self.has_arc(v, w):
                    masks[pos[v]] |= 1 << pos[w]
        return Digraph(len(keep), masks)

    def disjoint_union(self, other: Digraph) -> Digraph:
        n = self.order
        masks = list(self.out_masks) + [row << n for row in other.out_masks]
        return Digraph(n + other.order, masks)

    def weak_components(self) -> list[list[int]]:
        """Connected components ignoring arc direction, each sorted."""
        n = self.order
        seen = [False] * n
        comps = []
        for start in range(n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = [start]
            while queue:
                x = queue.pop()
                reach = self.out_masks[x] | self.in_masks[x]
                while reach:
                    y = (reach & -reach).bit_length() - 1
                    reach &= reach - 1
                    if not seen[y]:
                        seen[y] = True
                        comp.append(y)
                        queue.append(y)
            comps.append(sorted(comp))
        return comps

    def twin_classes(self) -> tuple[tuple[int, ...], ...]:
        """The twin classes, ordered by least member, each ascending: u and v
        share a class when the transposition (u v) is an automorphism.
        Computed once per digraph, like `in_masks`."""
        if self._twin_classes is None:
            classes: list[list[int]] = []
            for v, label in enumerate(_kernels.twin_labels(self.out_masks, self.in_masks)):
                if label == len(classes):
                    classes.append([])
                classes[label].append(v)
            self._twin_classes = tuple(map(tuple, classes))
        return self._twin_classes

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "arcs": [list(a) for a in self.arcs()]}

    def to_dot(self) -> str:
        lines = ["digraph g {"]
        for u in range(self.order):
            lines.append(f"  {u};")
        for u, v in self.arcs():
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.order == other.order
            and self.out_masks == other.out_masks
        )

    def __hash__(self) -> int:
        return hash((self.order, self.out_masks))

    def __repr__(self) -> str:
        return f"Digraph(order={self.order}, arcs={self.arc_count})"


def cayley(group: FiniteGroup, connection: Iterable[int]) -> Digraph:
    """Cayley digraph: an arc x -> x*s for every x and s in the connection set.

    The identity is allowed in the connection set and contributes loops.
    The in-masks are filled in the same pass: the in-neighbours of y are
    y*t^-1 for t in the connection set.
    """
    s = frozenset(connection)
    for x in s:
        if not 0 <= x < group.order:
            raise ValueError(f"connection element {x} out of range")
    pairs = [(t, group.inv(t)) for t in s]
    out_masks, in_masks = [], []
    for row in group.table:
        out = into = 0
        for t, t_inv in pairs:
            out |= 1 << row[t]
            into |= 1 << row[t_inv]
        out_masks.append(out)
        in_masks.append(into)
    d = Digraph(group.order, out_masks)
    d._in_masks = tuple(in_masks)
    return d


def wreath_product(outer: Digraph, inner: Digraph) -> Digraph:
    """Wreath (lexicographic) product: inner copies joined along outer arcs.

    Vertex (u, v) is indexed u*|inner| + v.  An outer loop contributes all
    arcs inside its fiber, loops included.
    """
    return Digraph(outer.order * inner.order, _wreath_masks(outer, inner))


def _wreath_masks(outer: Digraph, inner: Digraph) -> list[int]:
    """The out-masks of `wreath_product(outer, inner)`, with no digraph built."""
    n2 = inner.order
    fiber_full = (1 << n2) - 1
    masks = []
    for u, row in enumerate(outer.out_masks):
        between = 0  # the fibers that u's out-neighbours fill
        while row:
            low = row & -row
            between |= fiber_full << ((low.bit_length() - 1) * n2)
            row ^= low
        masks.extend(between | m << (u * n2) for m in inner.out_masks)
    return masks


@dataclass(frozen=True)
class WreathDecomposition:
    """Witness that a digraph is quotient-wreath-inner: the quotient on the
    least vertices of its fibers, and the fiber size."""

    quotient: Digraph
    inner_size: int


def _class_takes_kind(d: Digraph, members: Sequence[int], kind: str) -> bool:
    """Whether a twin class of two or more can be a fiber of d over the inner
    digraph `kind`: adjacent for "complete"; for "empty", adjacent exactly
    when looped (the non-adjacent loopless classes, and the adjacent looped
    ones, whose quotient loop fills the fiber)."""
    adjacent = d.has_arc(members[0], members[1])
    return adjacent if kind == "complete" else adjacent == d.has_loop(members[0])


def _has_wreath_factor(d: Digraph, kind: str) -> bool:
    """Whether d is some quotient wreath `kind`_r with r >= 2: every twin
    class has two or more members and takes the kind, and the gcd r of their
    sizes is at least 2 (which rules out a class of one)."""
    classes = d.twin_classes()
    return gcd(*map(len, classes)) >= 2 and all(
        _class_takes_kind(d, members, kind) for members in classes
    )


def _decompose(d: Digraph, kind: str) -> WreathDecomposition | None:
    """Factor d over the twin classes that `kind` takes, or None when
    `_has_wreath_factor` says there is no factor.  It is read from the twin
    classes, with no rebuild: the fibers are each class cut into runs of r
    consecutive members, twins have the same arcs to every other vertex, and
    a class that takes the kind holds the arcs that its quotient loop and
    the inner digraph put there.  The quotient is d induced on the least
    member of each run, loops included."""
    if not _has_wreath_factor(d, kind):
        return None
    classes = d.twin_classes()
    r = gcd(*map(len, classes))
    run_minima = (c[i] for c in classes for i in range(0, len(c), r))
    return WreathDecomposition(d.induced(run_minima), r)


def decompose_over_complete(d: Digraph) -> WreathDecomposition | None:
    """Maximal factorization of d as quotient-wreath-K_r (r >= 2), if any.

    It takes the adjacent twin classes (`Digraph.twin_classes`), looped or
    not, and needs every vertex in one of two or more; r is the gcd of
    their sizes.
    """
    return _decompose(d, "complete")


def decompose_over_empty(d: Digraph) -> WreathDecomposition | None:
    """Maximal factorization of d as quotient-wreath-empty_r (r >= 2), if any.

    It takes the twin classes whose adjacency equals their loop flag: the
    non-adjacent loopless ones, and the adjacent looped ones (a quotient loop
    fills its fiber).  Every vertex must lie in one of two or more; r is the
    gcd of their sizes.
    """
    return _decompose(d, "empty")
