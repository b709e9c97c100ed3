"""Permutations, permutation groups, block systems, and wreath products.

Points are integers ``0..degree-1``.  A group is its generators and its
order, which whoever builds it supplies.  Orbits, blockness and block
systems are computed from the generators alone; no element is ever listed.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Sequence

from cig.limits import BLOCK_DEGREE_CAP, CapExceeded


class Perm:
    """A permutation of {0..degree-1}; ``(p * q)(x) == p(q(x))``."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> Perm:
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> Perm:
        images = list(range(degree))
        for cycle in cycles:
            cycle = tuple(cycle)
            for i, x in enumerate(cycle):
                images[x] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: Perm) -> Perm:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Perm(self.images[x] for x in other.images)

    def inverse(self) -> Perm:
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(inv)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def image_of_set(self, points: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[x] for x in points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Perm) -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()})"

    def cycle_string(self) -> str:
        seen = set()
        parts = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            x = self.images[start]
            while x != start:
                seen.add(x)
                cycle.append(x)
                x = self.images[x]
            parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) if parts else "()"


class PointPartition:
    """A partition of {0..degree-1}; classes canonically sorted by minimum."""

    __slots__ = ("degree", "classes", "_class_index")

    def __init__(self, degree: int, classes: Iterable[Iterable[int]]):
        normalized = sorted(tuple(sorted(c)) for c in classes)
        covered: list[int] = []
        for c in normalized:
            if not c:
                raise ValueError("empty class")
            covered.extend(c)
        if sorted(covered) != list(range(degree)):
            raise ValueError("classes do not partition the point set")
        self.degree = degree
        self.classes = tuple(normalized)
        index = [0] * degree
        for i, c in enumerate(self.classes):
            for x in c:
                index[x] = i
        self._class_index = tuple(index)

    @classmethod
    def singletons(cls, degree: int) -> PointPartition:
        return cls(degree, ([x] for x in range(degree)))

    @classmethod
    def single_class(cls, degree: int) -> PointPartition:
        return cls(degree, [range(degree)])

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> PointPartition:
        groups: dict[int, list[int]] = {}
        for x, lab in enumerate(labels):
            groups.setdefault(lab, []).append(x)
        return cls(len(labels), groups.values())

    def class_of(self, x: int) -> tuple[int, ...]:
        return self.classes[self._class_index[x]]

    def class_index(self, x: int) -> int:
        return self._class_index[x]

    def fiber_images(self) -> tuple[int, ...]:
        """The relabelling that sends x to (class index) * size + (rank of x
        in its class), mapping classes of one size onto the fibers of
        `fiber_partition`."""
        size = len(self.classes[0])
        if any(len(c) != size for c in self.classes):
            raise ValueError("classes differ in size")
        images = [0] * self.degree
        for i, c in enumerate(self.classes):
            for rank, x in enumerate(c):
                images[x] = i * size + rank
        return tuple(images)

    def induced(self, perm: Perm) -> Perm | None:
        """The permutation of class indices that `perm` induces, or None
        unless every class maps onto a class (of the same size)."""
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        images = []
        for c in self.classes:
            image = tuple(sorted(perm.images[x] for x in c))
            if image != self.class_of(image[0]):
                return None
            images.append(self._class_index[image[0]])
        return Perm(images)

    def refines(self, other: PointPartition) -> bool:
        """True iff every class of self lies inside a class of other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return all(set(c) <= set(other.class_of(c[0])) for c in self.classes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointPartition)
            and self.degree == other.degree
            and self.classes == other.classes
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.classes))

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __repr__(self) -> str:
        inner = " | ".join(" ".join(map(str, c)) for c in self.classes)
        return f"PointPartition[{inner}]"


class PermGroup:
    """Permutation group given by generators and its order.

    Nothing here lists the elements.  The order is the caller's: the
    automorphism search gives the product of its basic-orbit lengths, and
    the constructors below give their closed formulas.
    """

    def __init__(
        self, generators: Iterable[Perm], *, order: int, degree: int | None = None
    ):
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.degree = degree
        self.order = order
        self.generators = gens

    def orbits(self) -> PointPartition:
        """Orbit partition of the point set (generators suffice)."""
        seen: set[int] = set()
        classes = []
        for start in range(self.degree):
            if start not in seen:
                classes.append(orbit(start, self.generators))
                seen |= classes[-1]
        return PointPartition(self.degree, classes)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def _minimal_partition(self, points: Iterable[int]) -> list[int]:
        """Class label per point of the finest invariant partition that puts
        the given points in one class (Atkinson's union-find, 1975).

        Every merged pair's images under every generator are merged too, so
        the partition is invariant under the whole group.
        """
        gens = [g.images for g in self.generators]
        parent = list(range(self.degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: int, y: int) -> bool:
            x, y = find(x), find(y)
            if x == y:
                return False
            parent[max(x, y)] = min(x, y)
            return True

        points = list(points)
        merged = [(points[0], y) for y in points[1:] if union(points[0], y)]
        while merged:
            x, y = merged.pop()
            for g in gens:
                if union(g[x], g[y]):
                    merged.append((g[x], g[y]))
        return [find(x) for x in range(self.degree)]

    def _block_of(self, points: frozenset[int] | tuple[int, ...]) -> frozenset[int]:
        """The smallest block containing the given points."""
        labels = self._minimal_partition(points)
        label = labels[min(points)]
        return frozenset(x for x, lab in enumerate(labels) if lab == label)

    def is_block(self, points: Iterable[int]) -> bool:
        """True iff every element maps the set onto itself or clear of it.

        Exactly when the set is its own smallest enclosing block.
        """
        block = frozenset(points)
        if not block:
            raise ValueError("a block must be nonempty")
        if not all(0 <= x < self.degree for x in block):
            raise ValueError("points out of range")
        return self._block_of(block) == block

    def block_systems(self, size: int) -> list[PointPartition]:
        """All invariant partitions with classes of the given size, sorted by
        the class through 0.

        For a transitive group an invariant partition is the set of images of
        its class through 0, and every block through 0 other than {0} is the
        join of the minimal blocks of the pairs {0, x} it contains.  So the
        blocks through 0 are {0} plus the join closure of those minimal
        blocks, all computed from the generators.
        """
        n = self.degree
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups")
        if size <= 0 or n % size:
            raise ValueError(f"class size {size} does not divide degree {n}")
        if n > BLOCK_DEGREE_CAP:
            raise CapExceeded(f"degree {n} exceeds block-search cap {BLOCK_DEGREE_CAP}")
        blocks = {frozenset({0})} | {self._block_of((0, x)) for x in range(1, n)}
        todo = list(blocks)
        while todo:
            a = todo.pop()
            for b in list(blocks):
                join = self._block_of(a | b)
                if join not in blocks:
                    blocks.add(join)
                    todo.append(join)
        return [
            PointPartition.from_labels(self._minimal_partition(block))
            for block in sorted(tuple(sorted(b)) for b in blocks if len(b) == size)
        ]

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def orbit(point: int, generators: Iterable[Perm]) -> set[int]:
    """The orbit of a point under the group the generators generate."""
    gens = [g.images for g in generators]
    seen, frontier = {point}, [point]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                frontier.append(g[x])
    return seen


def trivial_group(degree: int) -> PermGroup:
    return PermGroup((), order=1, degree=degree)


def cyclic_group(n: int) -> PermGroup:
    """The n-cycle group on n points."""
    if n == 1:
        return trivial_group(1)
    return PermGroup([Perm.from_cycles(n, range(n))], order=n)


def symmetric_group(n: int) -> PermGroup:
    if n <= 1:
        return trivial_group(max(n, 1))
    gens = [Perm.from_cycles(n, (0, 1))]
    if n > 2:
        gens.append(Perm.from_cycles(n, range(n)))
    return PermGroup(gens, order=factorial(n))


def wreath_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """Wreath product acting on pairs, with (x, y) indexed as x*|Y| + y.

    Generated by g moving the first coordinate and an independent copy of
    h's generators on each fiber, of order |g| * |h|^deg(g).
    """
    nx, ny = g.degree, h.degree
    degree = nx * ny
    gens = []
    for gamma in g.generators:
        gens.append(Perm(gamma(x) * ny + y for x in range(nx) for y in range(ny)))
    for x in range(nx):
        for eta in h.generators:
            images = list(range(degree))
            for y in range(ny):
                images[x * ny + y] = x * ny + eta(y)
            gens.append(Perm(images))
    return PermGroup(gens, order=g.order * h.order**nx, degree=degree)


def fiber_partition(nx: int, ny: int) -> PointPartition:
    """The partition of pair space into fibers {x} x Y."""
    return PointPartition(nx * ny, ([x * ny + y for y in range(ny)] for x in range(nx)))
