"""Finite groups as multiplication tables with identity at index 0.

Covers the constructor catalog (cyclic, direct products, dihedral,
quaternion, symmetric, alternating, table files), subgroup and coset
machinery, quotients, and automorphism enumeration.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Iterable, Sequence

from cig.limits import DEFAULT_LIMITS, GROUP_ORDER_CAP, CapExceeded, Limits
from cig.perms import Perm, PointPartition


class GroupSpecError(ValueError):
    """A group-spec string failed to parse; carries the failing position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FiniteGroup:
    """A finite group on element indices 0..n-1, identity at index 0."""

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        name: str | None = None,
        validate: bool = True,
    ):
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if self.order == 0:
            raise ValueError("a group has at least the identity")
        if self.order > GROUP_ORDER_CAP:
            raise CapExceeded(f"group order {self.order} exceeds cap {GROUP_ORDER_CAP}")
        if validate:
            self._validate_table()
        if labels is None:
            labels = [str(i) for i in range(self.order)]
        if len(labels) != self.order:
            raise ValueError("label count does not match order")
        self.labels = tuple(str(x) for x in labels)
        self.name = name or f"group{self.order}"
        self._inverse = tuple(self.table[a].index(0) for a in range(self.order))
        self._automorphisms: tuple[GroupAutomorphism, ...] | None = None

    def _validate_table(self) -> None:
        """Group axioms of the table, identity at index 0.

        Associativity uses Light's test on the greedy generating set: the
        elements g with (x*g)*y == x*(g*y) for all x, y are closed under
        products, so passing on generators covers the whole table in
        O(n^2 * |gens|).  A failure is reported at the first (i, j, k).
        """
        table, n = self.table, self.order
        for row in table:
            if len(row) != n:
                raise ValueError(f"table must be square, got shape ({n}, {len(row)})")
        if any(type(x) is not int or not 0 <= x < n for row in table for x in row):
            raise ValueError("table entries must be element indices")
        identity = list(range(n))
        if list(table[0]) != identity or [row[0] for row in table] != identity:
            raise ValueError("element 0 must be the identity")
        for i in range(n):
            if sorted(table[i]) != identity:
                raise ValueError(f"row {i} is not a permutation (not a Latin square)")
            if sorted(row[i] for row in table) != identity:
                raise ValueError(f"column {i} is not a permutation (not a Latin square)")
        if all(
            table[table[x][g]][y] == table[x][table[g][y]]
            for g in self.generating_set()
            for x in range(n)
            for y in range(n)
        ):
            return
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left, right = table[table[i][j]][k], table[i][table[j][k]]
                    if left != right:
                        raise ValueError(
                            f"table is not associative: ({i}*{j})*{k} = {left} "
                            f"but {i}*({j}*{k}) = {right}"
                        )

    # -- basic arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conjugate(self, g: int, x: int) -> int:
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def is_inverse_closed(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return all(self.inv(x) in s for x in s)

    # -- subgroups ---------------------------------------------------------

    def subgroup_generated(self, gens: Iterable[int]) -> frozenset[int]:
        """Closure of the given elements under products (identity included)."""
        gens = [g for g in gens]
        for g in gens:
            if not 0 <= g < self.order:
                raise ValueError(f"element {g} out of range")
        elems = {0}
        frontier = [0]
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in elems:
                        elems.add(y)
                        fresh.append(y)
            frontier = fresh
        return frozenset(elems)

    def is_subgroup(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        if 0 not in s or not all(0 <= x < self.order for x in s):
            return False
        return all(self.table[a][b] in s for a in s for b in s)

    def is_normal(self, subgroup: Iterable[int]) -> bool:
        h = frozenset(subgroup)
        if not self.is_subgroup(h):
            raise ValueError("not a subgroup")
        return all(self.conjugate(g, x) in h for g in range(self.order) for x in h)

    def subgroups(self, limits: Limits = DEFAULT_LIMITS) -> list[frozenset[int]]:
        """Every subgroup, grown by adjoining single elements."""
        if self.order > limits.aut:
            raise CapExceeded(f"order {self.order} exceeds subgroup-search cap {limits.aut}")
        trivial = frozenset({0})
        found = {trivial}
        frontier = [trivial]
        while frontier:
            fresh = []
            for h in frontier:
                for x in range(self.order):
                    if x in h:
                        continue
                    h2 = self.subgroup_generated(set(h) | {x})
                    if h2 not in found:
                        found.add(h2)
                        fresh.append(h2)
            frontier = fresh
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def normal_subgroups(self, limits: Limits = DEFAULT_LIMITS) -> list[frozenset[int]]:
        return [h for h in self.subgroups(limits) if self.is_normal(h)]

    # -- cosets and quotients ----------------------------------------------

    def cosets(self, subgroup: Iterable[int]) -> CosetDecomposition:
        """Left cosets xH, ordered by minimum element."""
        h = frozenset(subgroup)
        if not self.is_subgroup(h):
            raise ValueError("not a subgroup")
        index = [-1] * self.order
        cosets: list[frozenset[int]] = []
        transversal: list[int] = []
        for x in range(self.order):
            if index[x] >= 0:
                continue
            coset = frozenset(self.table[x][b] for b in h)
            for y in coset:
                index[y] = len(cosets)
            cosets.append(coset)
            transversal.append(x)
        return CosetDecomposition(
            group=self,
            subgroup=h,
            cosets=tuple(cosets),
            transversal=tuple(transversal),
            index=tuple(index),
        )

    def quotient(self, kernel: Iterable[int]) -> QuotientMap:
        """Quotient by a normal subgroup, with a verified induced table."""
        h = frozenset(kernel)
        if not self.is_normal(h):
            raise ValueError("subgroup is not normal: products of cosets are ill-defined")
        dec = self.cosets(h)
        q = len(dec.cosets)
        table = [
            [dec.index[self.mul(dec.transversal[i], dec.transversal[j])] for j in range(q)]
            for i in range(q)
        ]
        # Well-definedness across all coset members, not just representatives.
        for a in range(self.order):
            for b in range(self.order):
                if dec.index[self.mul(a, b)] != table[dec.index[a]][dec.index[b]]:
                    raise RuntimeError("coset product is not well-defined")
        labels = [f"[{self.labels[rep]}]" for rep in dec.transversal]
        target = FiniteGroup(table, labels=labels, name=f"{self.name}/H")
        return QuotientMap(
            source=self, kernel=h, target=target, projection=dec.index, decomposition=dec
        )

    # -- automorphisms -----------------------------------------------------

    def generating_set(self) -> tuple[int, ...]:
        """Greedy small generating set (ascending element scan)."""
        gens: list[int] = []
        closure = frozenset({0})
        for x in range(self.order):
            if x not in closure:
                gens.append(x)
                closure = self.subgroup_generated(gens)
                if len(closure) == self.order:
                    break
        return tuple(gens)

    def automorphisms(self, limits: Limits = DEFAULT_LIMITS) -> tuple[GroupAutomorphism, ...]:
        """All automorphisms, by backtracking over generator images.

        Raises CapExceeded when the group order exceeds ``limits.aut``, on
        every call; the result is cached on the instance once computed.
        """
        if self.order > limits.aut:
            raise CapExceeded(f"order {self.order} exceeds automorphism cap {limits.aut}")
        if self._automorphisms is not None:
            return self._automorphisms
        # _morphism_search returns only bijections it has checked against
        # every (element, generator) product, which makes them
        # automorphisms, so they are not validated again.
        found = _morphism_search(self, self, find_all=True)
        self._automorphisms = tuple(
            GroupAutomorphism(self, images, validate=False) for images in found
        )
        return self._automorphisms

    # -- construction catalog ------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        if n < 1:
            raise ValueError("order must be positive")
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(table, labels=[str(i) for i in range(n)], name=f"Z{n}")

    @classmethod
    def direct_product(cls, a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
        n = a.order * b.order
        if n > GROUP_ORDER_CAP:
            raise CapExceeded(f"product order {n} exceeds cap {GROUP_ORDER_CAP}")

        def encode(i: int, j: int) -> int:
            return i * b.order + j

        table = [[0] * n for _ in range(n)]
        for i1 in range(a.order):
            for j1 in range(b.order):
                for i2 in range(a.order):
                    for j2 in range(b.order):
                        table[encode(i1, j1)][encode(i2, j2)] = encode(
                            a.mul(i1, i2), b.mul(j1, j2)
                        )
        labels = [
            f"({a.labels[i]},{b.labels[j]})"
            for i in range(a.order)
            for j in range(b.order)
        ]
        return cls(table, labels=labels, name=f"{a.name}x{b.name}")

    @classmethod
    def dihedral(cls, n: int) -> FiniteGroup:
        """Dihedral group of order 2n: pairs (k, f) meaning r^k s^f."""
        if n < 1:
            raise ValueError("order parameter must be positive")

        def encode(k: int, f: int) -> int:
            return f * n + k

        table = [[0] * (2 * n) for _ in range(2 * n)]
        for k1 in range(n):
            for f1 in range(2):
                for k2 in range(n):
                    for f2 in range(2):
                        k = (k1 + (k2 if f1 == 0 else -k2)) % n
                        table[encode(k1, f1)][encode(k2, f2)] = encode(k, f1 ^ f2)
        labels = []
        for f in range(2):
            for k in range(n):
                if f == 0:
                    labels.append("e" if k == 0 else f"r{k}")
                else:
                    labels.append("s" if k == 0 else f"sr{k}")
        return cls(table, labels=labels, name=f"D{n}")

    @classmethod
    def quaternion(cls) -> FiniteGroup:
        """The quaternion group {1,-1,i,-i,j,-j,k,-k}."""
        labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        # (sign, unit) encoding with unit products of quaternions.
        unit_mul = {
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }

        def decode(x: int) -> tuple[int, int]:
            return (1 if x % 2 == 0 else -1, x // 2)

        def encode(sign: int, unit: int) -> int:
            return unit * 2 + (0 if sign == 1 else 1)

        table = [[0] * 8 for _ in range(8)]
        for x in range(8):
            sx, ux = decode(x)
            for y in range(8):
                sy, uy = decode(y)
                s, u = unit_mul[(ux, uy)]
                table[x][y] = encode(s * sx * sy, u)
        return cls(table, labels=labels, name="Q8")

    @classmethod
    def symmetric(cls, n: int) -> FiniteGroup:
        """Symmetric group on n points, elements in lexicographic order."""
        return cls._from_perm_list(list(permutations(range(max(n, 1)))), name=f"S{n}")

    @classmethod
    def alternating(cls, n: int) -> FiniteGroup:
        perms = [p for p in permutations(range(max(n, 1))) if _parity(p) == 0]
        return cls._from_perm_list(perms, name=f"A{n}")

    @classmethod
    def _from_perm_list(cls, perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
        order = len(perms)
        if order > GROUP_ORDER_CAP:
            raise CapExceeded(f"group order {order} exceeds cap {GROUP_ORDER_CAP}")
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms
        ]
        labels = [Perm(p).cycle_string() for p in perms]
        return cls(table, labels=labels, name=name)

    # -- spec strings and files ---------------------------------------------

    @classmethod
    def from_json(cls, obj: dict, name: str | None = None) -> FiniteGroup:
        if not isinstance(obj, dict) or "order" not in obj or "table" not in obj:
            raise ValueError('group file needs fields "order" and "table"')
        order, table, labels = obj["order"], obj["table"], obj.get("labels")
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError('"table" must be a list of lists of element indices')
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ValueError('"labels" must be a list of strings')
        if type(order) is not int or len(table) != order:
            raise ValueError(f"table has {len(table)} rows, order says {order!r}")
        return cls(table, labels=labels, name=name or "file-group")

    @classmethod
    def from_file(cls, path: str | Path) -> FiniteGroup:
        path = Path(path)
        with open(path) as fh:
            obj = json.load(fh)
        return cls.from_json(obj, name=path.stem)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "table": [list(row) for row in self.table],
            "labels": list(self.labels),
        }

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _parity(p: Sequence[int]) -> int:
    seen = [False] * len(p)
    parity = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity


class GroupAutomorphism:
    """An automorphism of a finite group, stored as element images."""

    __slots__ = ("group", "images")

    def __init__(self, group: FiniteGroup, images: Iterable[int], validate: bool = True):
        self.group = group
        self.images = tuple(images)
        if validate:
            n = group.order
            if sorted(self.images) != list(range(n)):
                raise ValueError("images are not a bijection")
            if self.images[0] != 0:
                raise ValueError("an automorphism fixes the identity")
            for a in range(n):
                for b in range(n):
                    if self.images[group.mul(a, b)] != group.mul(
                        self.images[a], self.images[b]
                    ):
                        raise ValueError(f"not multiplicative at ({a},{b})")

    def __call__(self, x: int) -> int:
        return self.images[x]

    def image_of_set(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[x] for x in subset)

    def __mul__(self, other: GroupAutomorphism) -> GroupAutomorphism:
        """Composition: (self * other)(x) == self(other(x))."""
        return GroupAutomorphism(
            self.group, (self.images[y] for y in other.images), validate=False
        )

    def inverse(self) -> GroupAutomorphism:
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return GroupAutomorphism(self.group, inv, validate=False)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupAutomorphism)
            and self.group is other.group
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"GroupAutomorphism({self.images})"


@dataclass(frozen=True)
class CosetDecomposition:
    """Left cosets of a subgroup, ordered by minimum element."""

    group: FiniteGroup
    subgroup: frozenset[int]
    cosets: tuple[frozenset[int], ...]
    transversal: tuple[int, ...]
    index: tuple[int, ...]

    def partition(self) -> PointPartition:
        return PointPartition(self.group.order, self.cosets)


@dataclass(frozen=True)
class QuotientMap:
    """Projection of a group onto its quotient by a normal subgroup."""

    source: FiniteGroup
    kernel: frozenset[int]
    target: FiniteGroup
    projection: tuple[int, ...]
    decomposition: CosetDecomposition

    def project_set(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.projection[x] for x in subset)

    def lift_set(self, coset_indices: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for i in coset_indices:
            out |= self.decomposition.cosets[i]
        return frozenset(out)

    def induce(self, alpha: GroupAutomorphism) -> GroupAutomorphism:
        """The induced quotient automorphism: coset of g maps to coset of alpha(g).

        Defined exactly when alpha preserves the kernel.
        """
        if alpha.group is not self.source and alpha.group.table != self.source.table:
            raise ValueError("automorphism belongs to a different group")
        if alpha.image_of_set(self.kernel) != self.kernel:
            raise ValueError(
                "automorphism does not preserve the kernel; no induced map exists"
            )
        images = [
            self.projection[alpha(rep)] for rep in self.decomposition.transversal
        ]
        for x in range(self.source.order):
            if self.projection[alpha(x)] != images[self.projection[x]]:
                raise RuntimeError("induced map is not well-defined")
        return GroupAutomorphism(self.target, images)


def _morphism_search(
    source: FiniteGroup, target: FiniteGroup, find_all: bool
) -> list[tuple[int, ...]]:
    """Isomorphisms source -> target by backtracking over generator images.

    Candidate images must match element order; partial assignments are
    extended over the generated subgroup and pruned on any conflict.
    Deterministic: generators ascend, candidates ascend.
    """
    if source.order != target.order:
        return []
    n = source.order
    src_orders = [source.element_order(x) for x in range(n)]
    tgt_orders = [target.element_order(x) for x in range(n)]
    if sorted(src_orders) != sorted(tgt_orders):
        return []
    gens = source.generating_set()
    candidates = [
        [t for t in range(n) if tgt_orders[t] == src_orders[g]] for g in gens
    ]
    results: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def consistent_map() -> list[int] | None:
        """Partial homomorphism on the subgroup generated by assigned gens."""
        images = [-1] * n
        images[0] = 0
        used = {0}
        frontier = [0]
        pairs = list(zip(gens[: len(chosen)], chosen))
        while frontier:
            fresh = []
            for x in frontier:
                for g, t in pairs:
                    y = source.mul(x, g)
                    fy = target.mul(images[x], t)
                    if images[y] == -1:
                        if fy in used:
                            return None  # not injective
                        images[y] = fy
                        used.add(fy)
                        fresh.append(y)
                    elif images[y] != fy:
                        return None  # relation violated
            frontier = fresh
        return images

    def descend() -> bool:
        depth = len(chosen)
        if depth == len(gens):
            images = consistent_map()
            if images is None or -1 in images:
                return False
            # A total, injective map with f(x*g) = f(x)*f(g) for every x and
            # every generator g is a homomorphism, by induction on word
            # length: no whole-table check is needed.
            results.append(tuple(images))
            return not find_all
        for t in candidates[depth]:
            chosen.append(t)
            if consistent_map() is not None:
                if descend():
                    return True
            chosen.pop()
        return False

    descend()
    return results


def automorphic_image_search(
    group: FiniteGroup,
    subset: Iterable[int],
    target_subset: Iterable[int],
    limits: Limits = DEFAULT_LIMITS,
) -> GroupAutomorphism | None:
    """First automorphism carrying one subset onto the other, if any."""
    s = frozenset(subset)
    t = frozenset(target_subset)
    if len(s) != len(t):
        return None
    for alpha in group.automorphisms(limits):
        if alpha.image_of_set(s) == t:
            return alpha
    return None


# -- group-spec grammar -----------------------------------------------------

_ATOM_RE = re.compile(r"^(?:(Z|D|S|A)(\d+)|(Q8)|file:(.+))$")

_CATALOG_ROSTER: tuple[tuple[str, int], ...] = (
    ("Z1", 1), ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 4), ("Z5", 5),
    ("Z6", 6), ("S3", 6), ("Z7", 7), ("Z8", 8), ("Z2xZ4", 8), ("Z2xZ2xZ2", 8),
    ("D4", 8), ("Q8", 8), ("Z9", 9), ("Z3xZ3", 9), ("Z10", 10), ("D5", 10),
    ("Z11", 11), ("Z12", 12), ("Z2xZ6", 12), ("D6", 12), ("A4", 12),
)


def _build_atom(atom: str, position: int) -> FiniteGroup:
    m = _ATOM_RE.match(atom)
    if not m:
        raise GroupSpecError(f"unrecognized group atom {atom!r}", position)
    family, number, q8, file_path = m.groups()
    if q8:
        return FiniteGroup.quaternion()
    if file_path:
        return FiniteGroup.from_file(file_path)
    n = int(number)
    if family == "Z":
        return FiniteGroup.cyclic(n)
    if family == "D":
        return FiniteGroup.dihedral(n)
    if family == "S":
        return FiniteGroup.symmetric(n)
    return FiniteGroup.alternating(n)


def parse_group_spec(text: str) -> FiniteGroup:
    """Parse 'Z6', 'Z2xZ4', 'D4', 'Q8', 'S3', 'A4', 'file:path', products thereof.

    A spec that starts with 'file:' treats the whole remainder as the path;
    inside a product, file paths must not contain the letter 'x'.
    """
    text = text.strip()
    if not text:
        raise GroupSpecError("empty group spec", 0)
    if text.startswith("file:"):
        return FiniteGroup.from_file(text[5:])
    parts = text.split("x")
    groups = []
    position = 0
    for part in parts:
        if not part:
            raise GroupSpecError("empty atom in product", position)
        groups.append(_build_atom(part, position))
        position += len(part) + 1
    result = groups[0]
    for factor in groups[1:]:
        result = FiniteGroup.direct_product(result, factor)
    result.name = text
    return result


def catalog_specs(max_order: int) -> list[tuple[str, int]]:
    """Curated catalog roster (one spec per isomorphism class), order <= 12."""
    return [(spec, order) for spec, order in _CATALOG_ROSTER if order <= max_order]
