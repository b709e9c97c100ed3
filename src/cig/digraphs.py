"""Digraphs (loops permitted), Cayley digraphs, wreath products, twin decompositions.

Adjacency is stored as one out-neighbour bitmask per vertex.  Undirected
graphs are exactly the arc-symmetric digraphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Iterable

from cig import _kernels
from cig.limits import WREATH_VERTEX_CAP, CapExceeded
from cig.perms import PointPartition

if TYPE_CHECKING:
    from cig.groups import FiniteGroup


class Digraph:
    """A directed graph on vertices 0..order-1; loops allowed."""

    __slots__ = ("order", "out_masks", "_in_masks")

    def __init__(self, order: int, out_masks: Iterable[int]):
        masks = tuple(out_masks)
        if len(masks) != order:
            raise ValueError("mask count does not match order")
        limit = 1 << order
        if any(m < 0 or m >= limit for m in masks):
            raise ValueError("adjacency mask out of range")
        self.order = order
        self.out_masks = masks
        self._in_masks: tuple[int, ...] | None = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_arcs(cls, order: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
        masks = [0] * order
        for u, v in arcs:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"arc ({u},{v}) out of range")
            masks[u] |= 1 << v
        return cls(order, masks)

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
        """True iff the arc relation is symmetric."""
        return all(
            not (self.out_masks[u] >> v & 1) ^ (self.out_masks[v] >> u & 1)
            for u in range(self.order)
            for v in range(u + 1, self.order)
        )

    # -- transformations -----------------------------------------------------

    def complement(self) -> Digraph:
        """Flip every arc between distinct vertices; loop flags are kept."""
        n = self.order
        full = (1 << n) - 1
        return Digraph(
            n, (row ^ (full ^ (1 << u)) for u, row in enumerate(self.out_masks))
        )

    def transpose(self) -> Digraph:
        return Digraph(self.order, self.in_masks)

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

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "arcs": [list(a) for a in self.arcs()]}

    @classmethod
    def from_json(cls, obj: dict) -> Digraph:
        if "order" not in obj or "arcs" not in obj:
            raise ValueError('digraph object needs fields "order" and "arcs"')
        return cls.from_arcs(obj["order"], (tuple(a) for a in obj["arcs"]))

    def to_dot(self, name: str = "g") -> str:
        lines = [f"digraph {name} {{"]
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
    """
    s = frozenset(connection)
    for x in s:
        if not 0 <= x < group.order:
            raise ValueError(f"connection element {x} out of range")
    masks = [0] * group.order
    for x in range(group.order):
        row = group.table[x]
        for t in s:
            masks[x] |= 1 << row[t]
    return Digraph(group.order, masks)


def wreath_product(outer: Digraph, inner: Digraph) -> Digraph:
    """Wreath (lexicographic) product: inner copies joined along outer arcs.

    Vertex (u, v) is indexed u*|inner| + v.  An outer loop contributes all
    arcs inside its fiber, loops included.
    """
    n1, n2 = outer.order, inner.order
    n = n1 * n2
    if n > WREATH_VERTEX_CAP:
        raise CapExceeded(f"wreath product on {n} vertices exceeds cap {WREATH_VERTEX_CAP}")
    masks = [0] * n
    fiber_full = (1 << n2) - 1
    for u in range(n1):
        base = u * n2
        for v in range(n2):
            masks[base + v] |= inner.out_masks[v] << base
        row = outer.out_masks[u]
        while row:
            w = (row & -row).bit_length() - 1
            row &= row - 1
            block = fiber_full << (w * n2)
            for v in range(n2):
                masks[base + v] |= block
    return Digraph(n, masks)


@dataclass(frozen=True)
class WreathDecomposition:
    """Witness that a digraph is quotient-wreath-inner under a block partition."""

    quotient: Digraph
    inner_size: int
    block_partition: PointPartition
    inner_kind: str  # "complete" | "empty"


def _decompose(d: Digraph, kind: str) -> WreathDecomposition | None:
    labels = _kernels.twin_labels(d.order, list(d.out_masks), kind == "complete")
    r = gcd(*Counter(labels).values())
    if r < 2:
        return None
    twins: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        twins.setdefault(lab, []).append(x)
    # Split each twin class into consecutive runs of r (ascending indices).
    parts = [cls[i : i + r] for cls in twins.values() for i in range(0, len(cls), r)]
    partition = PointPartition(d.order, parts)
    q = len(partition)
    reps = [c[0] for c in partition.classes]
    q_masks = [0] * q
    for i, u in enumerate(reps):
        if d.has_loop(u):
            q_masks[i] |= 1 << i
        for j, v in enumerate(reps):
            if i != j and d.has_arc(u, v):
                q_masks[i] |= 1 << j
    quotient = Digraph(q, q_masks)
    inner = Digraph.complete(r) if kind == "complete" else Digraph.empty(r)
    rebuilt = wreath_product(quotient, inner)
    if d.relabel(partition.fiber_images()) != rebuilt:
        raise RuntimeError("twin decomposition failed to reassemble")  # unreachable
    return WreathDecomposition(quotient, r, partition, kind)


def decompose_over_complete(d: Digraph) -> WreathDecomposition | None:
    """Maximal factorization of d as quotient-wreath-K_r (r >= 2), if any.

    Clique twins: mutually adjacent vertices with equal loop flags and
    identical neighbourhoods elsewhere.  r is the gcd of twin-class sizes.
    """
    return _decompose(d, "complete")


def decompose_over_empty(d: Digraph) -> WreathDecomposition | None:
    """Maximal factorization of d as quotient-wreath-empty_r (r >= 2), if any."""
    return _decompose(d, "empty")
