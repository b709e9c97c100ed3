"""Permutations, point partitions and permutation groups.

Points are integers ``0..degree-1``.  A group is its generators and its
order, which whoever builds it supplies.  Orbits are computed from the
generators, and no element is ever listed.
"""

from __future__ import annotations

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
        unless every class maps onto a class (of the same size).

        A class goes to the class of its first member's image.  It maps
        onto that class exactly when the sizes agree and every member lands
        in it, since `perm` is injective."""
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        index, images, classes = self._class_index, perm.images, self.classes
        bar = []
        for c in classes:
            target = index[images[c[0]]]
            if len(classes[target]) != len(c) or any(index[images[x]] != target for x in c):
                return None
            bar.append(target)
        return Perm(bar)

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
    factorials of the twin-class sizes, and a conjugated group keeps the
    order of the group it came from.
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

    def is_transitive(self) -> bool:
        return len(orbit(0, self.generators)) == self.degree

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
