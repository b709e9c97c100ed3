"""Permutations, permutation groups, block systems, and wreath products.

Points are integers ``0..degree-1``.  A group is its generators and its
order, which whoever builds it supplies.  Orbits are computed from the
generators; block systems are read off the twin quotient when the group
carries one (automorphism groups of digraphs with twins) and computed from
the generators otherwise.  No element is ever listed.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, Sequence


class Perm:
    """A permutation of {0..degree-1}, stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images!r}")
        self.images = images

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

    def image_of_set(self, points: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[x] for x in points)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

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
        in its class), mapping classes of one size onto the fibers
        i*size .. i*size+size-1."""
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
    automorphism search multiplies its basic-orbit lengths and the
    factorials of the twin-class sizes, and the constructors below give
    their closed formulas.

    `twin_quotient`, when given, is the record of how the automorphism
    search built the group: the twin classes of its digraph (ordered by
    least member, each ascending) and the group the classes' permutations
    form, acting on class indices.  The group is then the product of the
    classes' symmetric groups, extended by that quotient group, and
    `block_systems` reads its answers off the record.
    """

    def __init__(
        self,
        generators: Iterable[Perm],
        *,
        order: int,
        degree: int | None = None,
        twin_quotient: tuple[Sequence[Sequence[int]], PermGroup] | None = None,
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
        self.twin_quotient = twin_quotient

    def is_transitive(self) -> bool:
        return len(orbit(0, self.generators)) == self.degree

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

    def block_systems(self, size: int) -> list[PointPartition]:
        """All invariant partitions with classes of the given size, sorted by
        the class through 0.

        With a `twin_quotient` record the answer is read off the twin
        classes, the simplest modules (Gallai, "Transitiv orientierbare
        Graphen", 1967).  In a transitive group they all have one size c.
        Each class C gives Sym(C) in the group, which is primitive on C, so a
        block B through 0 is {0}, the class C0 through 0, or a union of
        whole classes: if B holds y in a class Cj other than C0, then Sym(Cj)
        fixes 0 and Sym(C0) fixes y, so B contains both classes.  So size 1
        gives the discrete partition, size c the twin classes, a size that c
        does not divide none, and any other size the quotient group's block
        systems of size/c lifted class by class.  The lift keeps their order:
        classes ascend with their least members, so the least point where two
        lifted blocks differ lies in the least class where they differ.

        Without a record the answer comes from the generators.  For a
        transitive group an invariant partition is the set of images of its
        class through 0, and every block through 0 other than {0} is the
        join of the minimal blocks of the pairs {0, x} in it, which lie inside
        it, as do their joins.  So the blocks through 0 of at most `size`
        points are {0} plus the join closure of the minimal blocks, dropping
        any set larger than `size`.
        """
        n = self.degree
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups")
        if size <= 0 or n % size:
            raise ValueError(f"class size {size} does not divide degree {n}")
        if self.twin_quotient is not None:
            classes, quotient = self.twin_quotient
            c = len(classes[0])
            if size == 1:
                return [PointPartition(n, ([x] for x in range(n)))]
            if size == c:
                return [PointPartition(n, classes)]
            if size % c:
                return []
            return [
                PointPartition(n, ([x for i in q for x in classes[i]] for q in p))
                for p in quotient.block_systems(size // c)
            ]
        # An element k fixing 0 maps the minimal block of {0, x} onto that
        # of {0, k(x)}, and maps every block through 0 onto itself: x's
        # whole orbit under the 0-fixing generators shares one minimal block.
        stab = [g for g in self.generators if g.images[0] == 0]
        minimal = set()
        covered = {0}
        for x in range(1, n):
            if x not in covered:
                covered |= orbit(x, stab)
                minimal.add(self._block_of((0, x)))
        blocks = {frozenset({0})} | {b for b in minimal if len(b) <= size}
        todo = list(blocks)
        while todo:
            a = todo.pop()
            # A join is larger than both parts unless one holds the other.
            for b in [b for b in blocks if max(len(a), len(b)) < len(a | b) <= size]:
                join = self._block_of(a | b)
                if len(join) <= size and join not in blocks:
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
