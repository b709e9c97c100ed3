"""Finite groups as multiplication tables with identity at index 0.

Covers the constructor catalog (cyclic, direct products, dihedral,
quaternion, symmetric, alternating, table files), subgroups, cosets,
quotients, and automorphisms, listed or found by a set transporter on the
generating set and edge schedule of one walk per group.  The cosets of a
subgroup are a `PointPartition` of the elements, and a `QuotientMap`
numbers the target's elements by those classes.  An automorphism is a
`Perm` of the element indices; `group_automorphism` checks that a map is
one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
    ):
        self.table: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if self.order == 0:
            raise ValueError("a group has at least the identity")
        _check_order(self.order)
        self._validate_table()
        self._finish(labels, name)

    @classmethod
    def _image(
        cls, table: Sequence[Sequence[int]], labels: Sequence[str], name: str
    ) -> FiniteGroup:
        """The group on `table`, the image of a validated group under an onto
        map p that respects products: p(a*b) = table[p(a)][p(b)] for all a,
        b, with p(e) = 0.  `quotient` is the one caller, and p is the map to
        cosets of a normal subgroup, which respects products because the
        subgroup is normal (aH·bH = abH).  So the table holds the group
        axioms without `_validate_table`.  Identity: table[0][p(b)] =
        p(e*b) = p(b), and so for columns.  Associativity:
        (p(a) p(b)) p(c) = p((a*b)*c) = p(a*(b*c)) = p(a) (p(b) p(c)).
        Inverses: p(a) p(a^-1) = p(e) = p(a^-1) p(a).  A group's table is
        a Latin square, since x*y = z has the one solution y = x^-1 z, so
        `_generating_walk` runs on it as in `_validate_table`."""
        image = cls.__new__(cls)
        image.table = tuple(tuple(row) for row in table)
        image.order = len(image.table)
        image._generating_set, image._schedule = _generating_walk(image.table)
        image._finish(labels, name)
        return image

    def _finish(self, labels: Sequence[str] | None, name: str | None) -> None:
        """Labels, name and inverses of a table that holds the axioms."""
        if labels is None:
            labels = [str(i) for i in range(self.order)]
        if len(labels) != self.order:
            raise ValueError("label count does not match order")
        self.labels = tuple(str(x) for x in labels)
        self.name = name or f"group{self.order}"
        self._inverse = tuple(self.table[a].index(0) for a in range(self.order))

    def _validate_table(self) -> None:
        """Group axioms of the table, identity at index 0.

        Associativity uses Light's test on the greedy generating set: the
        elements g with (x*g)*y == x*(g*y) for all x, y are closed under
        products, so passing on generators covers the whole table in
        O(n^2 * |gens|), one row at a time: the row of x*g against x's row
        read through g's row.  A failure is reported at the first failing
        (x, g, y) of that scan.  The generating set and the edge schedule
        of `_generating_walk`, whose scan needs only a Latin square, are
        kept for `generating_set` and `_automorphism_images`.
        """
        table, n = self.table, self.order
        for row in table:
            if len(row) != n:
                raise ValueError(f"table must be square, got shape ({n}, {len(row)})")
        if any(set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n for row in table):
            raise ValueError("table entries must be element indices")
        identity = list(range(n))
        if list(table[0]) != identity or [row[0] for row in table] != identity:
            raise ValueError("element 0 must be the identity")
        for i, (row, column) in enumerate(zip(table, zip(*table))):
            if len(set(row)) != n:
                raise ValueError(f"row {i} is not a permutation (not a Latin square)")
            if len(set(column)) != n:
                raise ValueError(f"column {i} is not a permutation (not a Latin square)")
        self._generating_set, self._schedule = _generating_walk(table)
        for g in self._generating_set:
            for x, row in enumerate(table):
                left, right = table[row[g]], tuple(map(row.__getitem__, table[g]))
                if left != right:
                    y = next(y for y in range(n) if left[y] != right[y])
                    raise ValueError(
                        f"table is not associative: ({x}*{g})*{y} = {left[y]} "
                        f"but {x}*({g}*{y}) = {right[y]}"
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
        # The g with g H g^-1 = H form a subgroup, so generators decide.
        return all(self.conjugate(g, x) in h for g in self.generating_set() for x in h)

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

    def cosets(self, subgroup: Iterable[int]) -> PointPartition:
        """Left cosets xH as a partition of the elements, ordered by minimum."""
        h = frozenset(subgroup)
        if not self.is_subgroup(h):
            raise ValueError("not a subgroup")
        return self._cosets(h)

    def _cosets(self, h: frozenset[int]) -> PointPartition:
        """`cosets` of a subgroup the caller has already checked: xH is read
        off x's table row for each x that no earlier coset covers."""
        cosets, covered = [], set()
        for x, row in enumerate(self.table):
            if x not in covered:
                coset = [row[b] for b in h]
                covered.update(coset)
                cosets.append(coset)
        return PointPartition(self.order, cosets)

    def quotient(self, kernel: Iterable[int]) -> QuotientMap:
        """Quotient by a normal subgroup.

        Coset i, the i-th class of `cosets`, is element i of the target,
        represented by its minimum; the identity's coset is element 0.
        `is_normal` is the premise: H is normal, so aH·bH = abH, and the
        product of two cosets is the coset of any product of their members,
        in particular of their minima.  So x -> the index of x's coset
        respects every product of the group, and the target table is the
        image of a group and holds the axioms (see `_image`).
        """
        h = frozenset(kernel)
        if not self.is_normal(h):
            raise ValueError("subgroup is not normal: products of cosets are ill-defined")
        cosets = self._cosets(h)  # is_normal has checked that h is a subgroup
        index = cosets.class_index
        reps = [c[0] for c in cosets.classes]
        table = [[index(self.mul(a, b)) for b in reps] for a in reps]
        target = FiniteGroup._image(table, self.coset_labels(cosets), f"{self.name}/H")
        return QuotientMap(source=self, kernel=h, target=target, cosets=cosets)

    def coset_labels(self, cosets: PointPartition) -> list[str]:
        """The quotient's element labels: `[x]` for each coset, x its minimum."""
        return [f"[{self.labels[c[0]]}]" for c in cosets.classes]

    # -- automorphisms -----------------------------------------------------

    def generating_set(self) -> tuple[int, ...]:
        """Greedy small generating set: each element, in ascending order,
        that the ones taken before it do not generate, until they generate
        the group.  Found once, by `_generating_walk`."""
        return self._generating_set

    def automorphisms(self, limits: Limits = DEFAULT_LIMITS) -> tuple[Perm, ...]:
        """All automorphisms, by backtracking over generator images.

        Raises CapExceeded, before listing, when the group order exceeds
        ``limits.aut``.
        """
        if self.order > limits.aut:
            raise CapExceeded(f"order {self.order} exceeds automorphism cap {limits.aut}")
        return tuple(map(Perm, _automorphism_images(self)))

    # -- construction catalog ------------------------------------------------

    @classmethod
    def _from_elements(
        cls, elements: Sequence, mul: Callable, labels: Sequence[str], name: str
    ) -> FiniteGroup:
        """Element i is `elements[i]`, and entry (i, j) of the table is the
        index of mul(elements[i], elements[j]): each catalog constructor lists
        its elements, identity first, in the order that every element index in
        cig refers to.  The table is validated like any other."""
        index = {x: i for i, x in enumerate(elements)}
        table = [[index[mul(x, y)] for y in elements] for x in elements]
        return cls(table, labels=labels, name=name)

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        if n < 1:
            raise ValueError("order must be positive")
        _check_order(n)
        return cls._from_elements(
            range(n), lambda i, j: (i + j) % n, [str(i) for i in range(n)], f"Z{n}"
        )

    @classmethod
    def direct_product(cls, a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
        """Pairs (i, j) of an element of each factor, at index i * |b| + j."""
        _check_order(a.order * b.order)
        pairs = [(i, j) for i in range(a.order) for j in range(b.order)]
        return cls._from_elements(
            pairs,
            lambda x, y: (a.table[x[0]][y[0]], b.table[x[1]][y[1]]),
            [f"({a.labels[i]},{b.labels[j]})" for i, j in pairs],
            f"{a.name}x{b.name}",
        )

    @classmethod
    def dihedral(cls, n: int) -> FiniteGroup:
        """Dihedral group of order 2n: pairs (k, f) meaning r^k s^f, at f * n + k."""
        if n < 1:
            raise ValueError("order parameter must be positive")
        _check_order(2 * n)
        elements = [(k, f) for f in range(2) for k in range(n)]
        return cls._from_elements(
            elements,
            lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % n, x[1] ^ y[1]),
            [("e", "s")[f] if k == 0 else f"r{k}{('', 's')[f]}" for k, f in elements],
            f"D{n}",
        )

    @classmethod
    def quaternion(cls) -> FiniteGroup:
        """The quaternion group {1,-1,i,-i,j,-j,k,-k}: pairs (sign, unit), the
        units 1, i, j, k numbered 0..3, at index 2 * unit + (sign < 0)."""
        units = (  # the product of two units, as (sign, unit)
            ((1, 0), (1, 1), (1, 2), (1, 3)),
            ((1, 1), (-1, 0), (1, 3), (-1, 2)),
            ((1, 2), (-1, 3), (-1, 0), (1, 1)),
            ((1, 3), (1, 2), (-1, 1), (-1, 0)),
        )
        return cls._from_elements(
            [(sign, unit) for unit in range(4) for sign in (1, -1)],
            lambda x, y: (x[0] * y[0] * units[x[1]][y[1]][0], units[x[1]][y[1]][1]),
            ["1", "-1", "i", "-i", "j", "-j", "k", "-k"],
            "Q8",
        )

    @classmethod
    def symmetric(cls, n: int) -> FiniteGroup:
        """Symmetric group on n points in lexicographic order; p*q is p after q."""
        _check_factorial_order(n, 1, f"S{n}")
        perms = list(permutations(range(max(n, 1))))
        labels = [Perm(p).cycle_string() for p in perms]
        return cls._from_elements(perms, lambda p, q: tuple(p[x] for x in q), labels, f"S{n}")

    @classmethod
    def alternating(cls, n: int) -> FiniteGroup:
        """The even permutations of `symmetric(n)`, in the same order."""
        _check_factorial_order(n, 2 if n >= 2 else 1, f"A{n}")
        perms = [p for p in permutations(range(max(n, 1))) if _parity(p) == 0]
        labels = [Perm(p).cycle_string() for p in perms]
        return cls._from_elements(perms, lambda p, q: tuple(p[x] for x in q), labels, f"A{n}")

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

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _check_order(order: int) -> None:
    """Refuse an order past the cap; catalog constructors call this before
    they build a table."""
    if order > GROUP_ORDER_CAP:
        raise CapExceeded(f"group order {order} exceeds cap {GROUP_ORDER_CAP}")


def _check_factorial_order(n: int, divisor: int, name: str) -> None:
    """ValueError for a negative degree n, then `_check_order(n! // divisor)`
    without computing n! for a large n: the partial products only grow, so
    the first one past the cap decides."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order // divisor > GROUP_ORDER_CAP:
            raise CapExceeded(f"group order of {name} exceeds cap {GROUP_ORDER_CAP}")


def _parity(p: Sequence[int]) -> int:
    """0 for an even permutation, 1 for an odd one: its inversions, mod 2."""
    return sum(x > y for x, y in combinations(p, 2)) % 2


def _check_subset(group: FiniteGroup, subset: Iterable[int], what: str) -> None:
    """ValueError naming the first element, in ascending order, outside
    0..|G|-1."""
    for x in sorted(subset):
        if not 0 <= x < group.order:
            raise ValueError(f"{what} element {x} out of range for order {group.order}")


def group_automorphism(group: FiniteGroup, images: Iterable[int]) -> Perm:
    """The automorphism with these element images; ValueError unless the map
    is a bijection that respects every product (and so fixes the identity)."""
    alpha = Perm(images)
    if alpha.degree != group.order:
        raise ValueError(f"{alpha.degree} images for a group of order {group.order}")
    table, images = group.table, alpha.images
    for a, row in enumerate(table):
        image_row = table[images[a]]
        for b, ab in enumerate(row):
            if images[ab] != image_row[images[b]]:
                raise ValueError(f"not multiplicative at ({a},{b})")
    return alpha


@dataclass(frozen=True)
class QuotientMap:
    """Projection of a group onto its quotient by a normal subgroup: element
    x of the source maps to `cosets.class_index(x)` of the target."""

    source: FiniteGroup
    kernel: frozenset[int]
    target: FiniteGroup
    cosets: PointPartition

    def lift_set(self, coset_indices: Iterable[int]) -> frozenset[int]:
        return frozenset(x for i in coset_indices for x in self.cosets.classes[i])

    def induce(self, alpha: Perm) -> Perm:
        """The induced quotient automorphism: coset of g maps to coset of alpha(g).

        Defined exactly when alpha, an automorphism of the source, preserves
        the kernel.
        """
        if alpha.degree != self.source.order:
            raise ValueError("automorphism belongs to a group of a different order")
        if alpha.image_of_set(self.kernel) != self.kernel:
            raise ValueError(
                "automorphism does not preserve the kernel; no induced map exists"
            )
        induced = self.cosets.induced(alpha)
        if induced is None:
            raise RuntimeError("induced map is not well-defined")
        return group_automorphism(self.target, induced.images)


def _automorphism_images(
    group: FiniteGroup, s: frozenset[int] = frozenset(), t: frozenset[int] = frozenset()
) -> Iterator[tuple[int, ...]]:
    """Images of each automorphism carrying `s` onto `t` (all, by default), by
    backtracking over generator images: Leon's set transporter.

    Level k chooses the image c_k of g_k, the k-th element of the greedy
    generating set, among the elements of g_k's order.  The search reads
    the schedule that `_generating_walk` stored with the group: for each
    level the Cayley-graph edges (x, i, y = x*g_i) that <g_1..g_k> adds to
    <g_1..g_{k-1}>, old members against g_k and new members against
    g_1..g_k, in breadth-first order.  Each candidate copies its parent's
    images and walks only its level's edges: the first edge into a new y
    assigns f(y) = f(x)*c_i, which must be unused (injectivity) and
    transport (y in s exactly when f(y) in t); every other edge must agree
    with f(y) already assigned (relations).
    Together the levels check every edge of <g_1..g_k>, so a partial map
    survives exactly when a homomorphism-compatible injective transporting
    map on <g_1..g_k> extends it; pruning on that drops no solution.  The
    generating set generates the group, so the last level's maps are the
    leaves: total, injective and with f(x*g) = f(x)*f(g) for every x and
    every generator g, hence homomorphisms by induction on word length.
    Generators and candidates ascend, so leaves come in listing order."""
    n = group.order
    if (0 in s) != (0 in t):
        return  # every automorphism fixes the identity
    gens = group.generating_set()
    if not gens:
        yield (0,)
        return
    table = group.table
    orders = [group.element_order(x) for x in range(n)]
    candidates = [[c for c in range(n) if orders[c] == orders[g]] for g in gens]
    columns = list(zip(*table))  # columns[c][z] = z*c
    s_mask = sum(1 << x for x in s)
    t_mask = sum(1 << x for x in t)
    schedule = group._schedule
    cols = [columns[0]] * len(gens)  # cols[i]: right multiplication by c_i
    last = len(gens) - 1

    def descend(k: int, parent: list[int], parent_used: int) -> Iterator[tuple[int, ...]]:
        edges = schedule[k]
        for c in candidates[k]:
            cols[k] = columns[c]
            images = parent[:]
            used = parent_used
            for x, i, y, assign in edges:
                fy = cols[i][images[x]]
                if assign:
                    if used >> fy & 1 or (s_mask >> y & 1) != (t_mask >> fy & 1):
                        break  # not injective, or not transporting
                    images[y] = fy
                    used |= 1 << fy
                elif images[y] != fy:
                    break  # relation violated
            else:
                if k == last:
                    yield tuple(images)
                else:
                    yield from descend(k + 1, images, used)

    yield from descend(0, [0] + [-1] * (n - 1), 1)


def _generating_walk(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], list[list]]:
    """The greedy generating set of a Latin square with identity 0 and the
    transporter's edge schedule, from one breadth-first walk.  Each element,
    in ascending order, that the walk has not reached becomes g_k; level k
    logs (x, i, y = x*g_i, y first reached) for the old members against g_k,
    then for each new member against g_1..g_k.  Every member has then met
    g_1..g_k, so the walk has reached the closure of 0 under right products
    by them, <g_1..g_k> in a finite group: each g_k is the greedy scan's,
    associative table or not, and level k logs the edges <g_1..g_k> adds."""
    gens: list[int] = []
    members, reached, schedule = [0], [True] + [False] * (len(table) - 1), []
    for g in range(len(table)):
        if reached[g]:
            continue
        k = len(gens)
        gens.append(g)
        edges, queue = [], [(x, k) for x in members]  # (member, its first generator)
        for x, first in queue:
            for i in range(first, k + 1):
                y = table[x][gens[i]]
                edges.append((x, i, y, not reached[y]))
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
                    queue.append((y, 0))
        schedule.append(edges)
    return tuple(gens), schedule


def automorphic_image_search(
    group: FiniteGroup, subset: Iterable[int], target_subset: Iterable[int]
) -> Perm | None:
    """First automorphism, in `automorphisms()` order, carrying one subset onto
    the other, or None: a set transporter.  It lists nothing, so no cap
    applies; every library caller has checked the group's order against
    ``limits.search`` first.  `ci_pair` and the CI sweep do so by searching
    Cayley digraphs of the group.  The quotient certificate checks |G/H|
    before it transports the quotient sets in G/H, and |G| before it
    transports the lifted sets in G; it searches no Cayley digraph of G."""
    s = frozenset(subset)
    t = frozenset(target_subset)
    _check_subset(group, s, "subset")
    _check_subset(group, t, "target_subset")
    if len(s) != len(t):
        return None
    return next(map(Perm, _automorphism_images(group, s, t)), None)


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
    """Curated catalog roster up to order 12: one spec per isomorphism
    class it lists, 23 of the 24 classes (Dic3 = Z3⋊Z4 is missing)."""
    return [(spec, order) for spec, order in _CATALOG_ROSTER if order <= max_order]
