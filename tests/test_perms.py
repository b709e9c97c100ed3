"""Permutation, partition, block-system, and group-wreath behavior."""

import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest

import oracles
from oracles import (
    block_of,
    cyclic_group,
    fiber_partition,
    symmetric_group,
    trivial_group,
    union_find_block_systems,
    wreath_product,
)
from cig import digraphs
from cig.ci import lift_connection_set
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup, catalog_specs, parse_group_spec
from cig.iso import automorphism_group_of
from cig.perms import Perm, PermGroup, PointPartition, orbit


def singletons(degree):
    return PointPartition(degree, ([x] for x in range(degree)))


def single_class(degree):
    return PointPartition(degree, [range(degree)])


class TestPerm:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_cycle_string(self):
        assert Perm.from_cycles(4, (0, 1, 2)).cycle_string() == "(0 1 2)"
        assert Perm(range(3)).cycle_string() == "()"


class TestPointPartition:
    def test_canonical_class_order(self):
        p = PointPartition(4, [[3, 1], [2, 0]])
        assert p.classes == ((0, 2), (1, 3))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            PointPartition(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            PointPartition(3, [[0], []])

    def test_refinement_examples(self):
        singles = singletons(4)
        whole = single_class(4)
        a = PointPartition(4, [[0, 1], [2, 3]])
        b = PointPartition(4, [[0, 2], [1, 3]])
        assert oracles.refines(singles, a)
        assert oracles.refines(a, a)
        assert oracles.refines(a, whole)
        assert not oracles.refines(a, b)
        assert not oracles.refines(b, a)
        assert not oracles.refines(singles, singletons(6))

    def test_fiber_images_send_classes_onto_fibers(self):
        cosets = PointPartition(6, [[0, 3], [1, 4], [2, 5]])
        images = cosets.fiber_images()
        assert images == (0, 2, 4, 1, 3, 5)
        assert PointPartition(6, (Perm(images).image_of_set(c) for c in cosets)) == (
            fiber_partition(3, 2)
        )

    def test_fiber_images_need_one_class_size(self):
        with pytest.raises(ValueError, match="differ in size"):
            PointPartition(3, [[0, 1], [2]]).fiber_images()

    @pytest.mark.parametrize(
        "classes",
        [
            [[0, 1], [2, 3], [4, 5]],
            [[0, 1, 2], [3, 4, 5]],
            # Unequal sizes: a class can map into a larger class without
            # mapping onto it.
            [[0], [1, 2], [3, 4, 5]],
            [[0], [1], [2, 3], [4, 5]],
        ],
    )
    def test_induced_matches_set_definition(self, classes):
        partition = PointPartition(6, classes)
        blocks = [frozenset(c) for c in partition]
        for images in permutations(range(6)):
            perm = Perm(images)
            mapped = [perm.image_of_set(c) for c in blocks]
            expected = (
                Perm(blocks.index(m) for m in mapped)
                if all(m in blocks for m in mapped)
                else None
            )
            assert partition.induced(perm) == expected
            assert oracles.sorted_induced(partition, perm) == expected

    def test_induced_needs_the_partition_degree(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            PointPartition(4, [[0, 1], [2, 3]]).induced(Perm(range(6)))


class TestClosure:
    """The closure oracle against hand counts and a pairwise-product check."""

    def test_empty_generating_set(self):
        assert oracles.closure(trivial_group(3)) == [(0, 1, 2)]

    def test_single_cycle(self):
        assert oracles.closure(cyclic_group(3)) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_transposition_and_cycle_generate_symmetric(self):
        g = PermGroup([Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))], order=6)
        # Independent check: close the generators and identity under pairwise products.
        elems = {(0, 1, 2), (1, 0, 2), (1, 2, 0)}
        changed = True
        while changed:
            changed = False
            for p in list(elems):
                for q in list(elems):
                    r = tuple(p[x] for x in q)
                    if r not in elems:
                        elems.add(r)
                        changed = True
        assert set(oracles.closure(g)) == elems
        assert len(elems) == 6

    def test_generator_order_is_irrelevant(self):
        a = PermGroup([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (0, 1, 2, 3))], order=24)
        b = PermGroup([Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (0, 1))], order=24)
        assert oracles.closure(a) == oracles.closure(b)

    def test_closure_contains_identity_and_inverses(self):
        g = PermGroup(
            [Perm.from_cycles(5, (0, 1, 2, 3, 4)), Perm.from_cycles(5, (0, 1))], order=120
        )
        raws = set(oracles.closure(g))
        assert tuple(range(5)) in raws
        for raw in raws:
            assert oracles.inverse(raw) in raws

    def test_order_divides_degree_factorial(self):
        import math

        for g in [
            cyclic_group(6),
            wreath_product(cyclic_group(3), symmetric_group(2)),
            PermGroup([Perm.from_cycles(5, (0, 1)), Perm.from_cycles(5, (2, 3, 4))], order=6),
        ]:
            assert math.factorial(g.degree) % len(oracles.closure(g)) == 0


class TestOrbitsAndTransitivity:
    def test_identity_group_orbits(self):
        g = trivial_group(4)
        assert all(orbit(x, g.generators) == {x} for x in range(4))
        assert not g.is_transitive()

    def test_cycle_is_transitive(self):
        assert cyclic_group(4).is_transitive()

    def test_identity_group_not_transitive(self):
        assert not trivial_group(2).is_transitive()
        assert not automorphism_group_of(Digraph(0, [])).is_transitive()

    def test_two_orbits(self):
        g = PermGroup([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (2, 3))], order=4)
        assert orbit(0, g.generators) == {0, 1} and orbit(2, g.generators) == {2, 3}
        assert not g.is_transitive()

    def test_fiber_orbits_of_inner_wreath(self):
        w = wreath_product(trivial_group(3), symmetric_group(2))
        for fiber in fiber_partition(3, 2).classes:
            assert orbit(fiber[0], w.generators) == set(fiber)
        assert not w.is_transitive()


class TestBlocks:
    """The union-find oracle: `block_of(g, s)` is the smallest block
    holding s, so s is a block exactly when it is its own."""

    def test_full_set_is_block(self):
        assert block_of(cyclic_group(4), frozenset(range(4))) == frozenset(range(4))

    def test_alternate_pair_is_block(self):
        assert block_of(cyclic_group(4), frozenset({0, 2})) == {0, 2}

    def test_adjacent_pair_is_not_block(self):
        assert block_of(cyclic_group(4), frozenset({0, 1})) == frozenset(range(4))

    def test_block_images_partition_points(self):
        g = cyclic_group(6)
        block = frozenset({0, 3})
        assert block_of(g, block) == block
        images = {tuple(sorted(raw[x] for x in block)) for raw in oracles.closure(g)}
        assert PointPartition(6, images)  # constructor validates partition
        for img in images:
            assert block_of(g, frozenset(img)) == frozenset(img)

    def test_block_systems_trivial_sizes(self):
        g = cyclic_group(6)
        assert union_find_block_systems(g, 1) == [singletons(6)]
        assert union_find_block_systems(g, 6) == [single_class(6)]

    def test_block_systems_size_two_of_c4(self):
        assert union_find_block_systems(cyclic_group(4), 2) == [
            PointPartition(4, [[0, 2], [1, 3]])
        ]

    def test_block_systems_requires_divisor(self):
        with pytest.raises(ValueError):
            union_find_block_systems(cyclic_group(4), 3)

    def test_primitivity(self):
        # Primitive: the two trivial partitions are the only invariant ones.
        assert len(_invariant_partitions(symmetric_group(3))) == 2
        assert len(_invariant_partitions(cyclic_group(4))) == 3
        assert len(_invariant_partitions(cyclic_group(5))) == 2

    def test_primitivity_rejects_intransitive(self):
        with pytest.raises(ValueError):
            union_find_block_systems(trivial_group(2), 2)

    def test_block_search_past_twenty_four_points(self):
        g = cyclic_group(30)
        assert union_find_block_systems(g, 2) == oracles.brute_block_systems(g, 2)


def _invariant_partitions(g):
    """The block systems of every class size, which must match the oracle's."""
    found = [
        partition
        for size in range(1, g.degree + 1)
        if g.degree % size == 0
        for partition in union_find_block_systems(g, size)
    ]
    assert found == oracles.invariant_partitions(g)
    return found


def _lift_aut(group, kernel, s_quotient):
    """Aut of the lifted Cayley digraph that a certificate checks."""
    lift = lift_connection_set(group, kernel, s_quotient)
    return automorphism_group_of(cayley(group, lift.connection))


def _z6_snapshot_lift_aut():
    return _lift_aut(FiniteGroup.cyclic(6), {0, 3}, {1})


_WREATHS = [
    pytest.param(lambda: wreath_product(cyclic_group(2), symmetric_group(3)), id="C2wrS3"),
    pytest.param(lambda: wreath_product(symmetric_group(3), cyclic_group(2)), id="S3wrC2"),
    pytest.param(lambda: wreath_product(cyclic_group(3), cyclic_group(4)), id="C3wrC4"),
    pytest.param(lambda: wreath_product(cyclic_group(4), symmetric_group(3)), id="C4wrS3"),
    pytest.param(lambda: wreath_product(symmetric_group(3), cyclic_group(4)), id="S3wrC4"),
    pytest.param(lambda: wreath_product(cyclic_group(2), cyclic_group(6)), id="C2wrC6"),
]


class TestDeclaredOrders:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: trivial_group(4), id="trivial4"),
            pytest.param(lambda: cyclic_group(1), id="C1"),
            pytest.param(lambda: cyclic_group(7), id="C7"),
            pytest.param(lambda: symmetric_group(1), id="S1"),
            pytest.param(lambda: symmetric_group(2), id="S2"),
            pytest.param(lambda: symmetric_group(5), id="S5"),
            *_WREATHS,
        ],
    )
    def test_declared_order_matches_closure(self, make):
        g = make()
        assert g.order == len(oracles.closure(g))


class TestBlocksAgainstElementScan:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: cyclic_group(8), id="C8"),
            pytest.param(lambda: cyclic_group(12), id="C12"),
            pytest.param(lambda: symmetric_group(5), id="S5"),
            *_WREATHS,
            pytest.param(_z6_snapshot_lift_aut, id="z6_snapshot_lift"),
        ],
    )
    def test_block_systems_match_oracle_in_order(self, make):
        g = make()
        for size in range(1, g.degree + 1):
            if g.degree % size == 0:
                assert union_find_block_systems(g, size) == oracles.brute_block_systems(
                    g, size
                )

    @pytest.mark.parametrize("spec", ["Z2xZ2xZ2", "Q8"])
    def test_lifted_digraph_block_systems_match_oracle_in_order(self, spec):
        # The automorphism groups a certificate asks for blocks: every lift
        # over every order-2 kernel, at every class size.  Lifts with the
        # same generators are one group, checked once.
        g = parse_group_spec(spec)
        auts = {}
        for kernel in (h for h in g.normal_subgroups() if len(h) == 2):
            q = g.order // len(kernel)
            for bits in range(1 << q):
                s = {x for x in range(q) if bits >> x & 1}
                aut = _lift_aut(g, kernel, s)
                auts.setdefault(aut.generators, aut)
        for aut in auts.values():
            for size in (1, 2, 4, 8):
                assert union_find_block_systems(aut, size) == oracles.brute_block_systems(
                    aut, size
                )

    @pytest.mark.parametrize("make", _WREATHS)
    def test_closure_joins_no_pair_past_the_size(self, make, monkeypatch):
        # Answers cannot show the bound, which only saves work: every set
        # joined is a pair {0, x} or a union of at most `size` points.
        g = make()
        joined = []

        def recording(group, points):
            joined.append(len(points))
            return block_of(group, points)

        monkeypatch.setattr(oracles, "block_of", recording)
        for size in range(1, g.degree + 1):
            if g.degree % size == 0:
                joined.clear()
                union_find_block_systems(g, size)
                assert max(joined) <= max(size, 2), size

    def test_is_block_matches_oracle_on_small_subsets(self):
        # Atkinson's union-find on arbitrary sets, not only pairs through 0.
        g = wreath_product(cyclic_group(3), cyclic_group(3))
        for size in (2, 3):
            for points in combinations(range(9), size):
                s = frozenset(points)
                assert (block_of(g, s) == s) == oracles.brute_is_block(g, points)


def _assert_block_systems_match_oracle(g):
    for size in range(1, g.degree + 1):
        if g.degree % size == 0:
            assert union_find_block_systems(g, size) == oracles.brute_block_systems(
                g, size
            ), size


def _relabelled(g, rng):
    """g conjugated by a random relabelling of its points, so that which
    generators fix 0 changes."""
    pi = tuple(rng.sample(range(g.degree), g.degree))
    conjugates = (
        Perm(oracles.compose(oracles.compose(pi, x.images), oracles.inverse(pi)))
        for x in g.generators
    )
    return PermGroup(conjugates, order=g.order, degree=g.degree)


class TestBlockSystemsFromStabiliserOrbits:
    """The union-find oracle takes one union-find per orbit of the group K
    that the 0-fixing generators generate, whatever part of the stabiliser
    of 0 K is."""

    @pytest.mark.parametrize("n", [9, 10, 16, 18])
    def test_no_generator_fixes_zero(self, n):
        _assert_block_systems_match_oracle(cyclic_group(n))

    @pytest.mark.parametrize("make", _WREATHS)
    def test_relabelled_wreath_generators(self, make):
        # With S3 as a factor, the generators fixing 0 generate only part
        # of the stabiliser of 0; relabelling changes which generators fix 0.
        rng = random.Random(71)
        g = make()
        for _ in range(4):
            _assert_block_systems_match_oracle(_relabelled(g, rng))

    @pytest.mark.parametrize("spec", [s for s, o in catalog_specs(12) if o in (8, 12)])
    def test_cayley_digraph_automorphism_groups(self, spec):
        # The oracle lists every element, so only groups of at most 2000
        # elements are checked (the empty and complete sets give S_n).
        g = parse_group_spec(spec)
        rng = random.Random(73)
        checked = 0
        while checked < 6:
            s = {x for x in range(g.order) if rng.random() < 0.4}
            aut = automorphism_group_of(cayley(g, s))
            if aut.order <= 2000:
                _assert_block_systems_match_oracle(aut)
                checked += 1


class TestBlockSystemsFromTwinQuotient:
    """In a vertex-transitive digraph each twin class C gives Sym(C), which
    is primitive on C, so a block through 0 is {0}, the class through 0 or
    a union of classes (Gallai 1967).  At every class size, and in list
    order, the block systems the twin classes predict must equal both the
    generators' union-find and the element scan: size 1 the discrete
    partition, the class size c the twin classes, a size that c does not
    divide none, and any other size the block systems of the group induced
    on the classes, lifted class by class."""

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_lifts_match_union_find_and_oracle(self, spec):
        g = parse_group_spec(spec)
        n = g.order
        rng = random.Random(spec)
        sets = [set(), set(range(1, n))]
        sets += [{x for x in range(n) if rng.random() < 0.4} for _ in range(2)]
        proper = sorted(sorted(h) for h in g.subgroups() if 1 < len(h) < n)
        if proper:
            # Over K_r, H - {0} gives twin classes of |H| * r points; over the
            # empty digraph, G - H does.  Neither has a block system of size r.
            h = set(rng.choice(proper))
            sets += [h - {0}, set(range(n)) - h]
        wider = 0
        for s in sets:
            for r in (2, 3):
                for inner in (Digraph.complete(r), Digraph.empty(r)):
                    d = digraphs.wreath_product(cayley(g, s), inner)
                    d = d.relabel(rng.sample(range(d.order), d.order))
                    aut = automorphism_group_of(d)
                    twins = PointPartition(d.order, d.twin_classes())
                    c = len(twins.classes[0])
                    if c > r:
                        assert union_find_block_systems(aut, r) == []
                        wider += 1
                    on_classes = PermGroup(
                        (twins.induced(x) for x in aut.generators),
                        order=aut.order // factorial(c) ** len(twins),
                        degree=len(twins),
                    )
                    for size in range(1, d.order + 1):
                        if d.order % size:
                            continue
                        if size == 1:
                            predicted = [singletons(d.order)]
                        elif size == c:
                            predicted = [twins]
                        elif size % c:
                            predicted = []
                        else:
                            predicted = [
                                PointPartition(
                                    d.order,
                                    ([x for i in q for x in twins.classes[i]] for q in p),
                                )
                                for p in union_find_block_systems(on_classes, size // c)
                            ]
                        found = union_find_block_systems(aut, size)
                        assert found == predicted, (s, r, size)
                        if aut.order <= 2000 and comb(d.order - 1, size - 1) <= 1000:
                            assert found == oracles.brute_block_systems(aut, size)
        assert wider > 0 or n == 1


class TestWreathProduct:
    def test_order_s2_wr_s2(self):
        w = wreath_product(symmetric_group(2), symmetric_group(2))
        assert (w.degree, w.order) == (4, 8)

    def test_order_z3_wr_s2(self):
        w = wreath_product(cyclic_group(3), symmetric_group(2))
        assert (w.degree, w.order) == (6, 24)

    @pytest.mark.parametrize(
        "g,h",
        [
            (cyclic_group(2), cyclic_group(3)),
            (symmetric_group(3), symmetric_group(2)),
            (cyclic_group(4), cyclic_group(2)),
            (cyclic_group(2), symmetric_group(3)),
        ],
    )
    def test_order_formula(self, g, h):
        w = wreath_product(g, h)
        assert w.order == g.order * h.order**g.degree

    def test_invariant_partitions_comparable_with_fibers(self):
        w = wreath_product(cyclic_group(3), symmetric_group(2))
        fibers = fiber_partition(3, 2)
        partitions = _invariant_partitions(w)
        assert fibers in partitions
        for p in partitions:
            assert oracles.refines(p, fibers) or oracles.refines(fibers, p)

    def test_fiber_system_is_unique_at_inner_degree(self):
        w = wreath_product(cyclic_group(3), symmetric_group(2))
        assert union_find_block_systems(w, 2) == [fiber_partition(3, 2)]

    def test_z3_wr_s2_partition_inventory(self):
        w = wreath_product(cyclic_group(3), symmetric_group(2))
        assert _invariant_partitions(w) == [
            singletons(6),
            fiber_partition(3, 2),
            single_class(6),
        ]


class TestInvariantPartitions:
    def test_primitive_group_has_only_trivial_partitions(self):
        assert _invariant_partitions(symmetric_group(3)) == [
            singletons(3),
            single_class(3),
        ]

    def test_c4_partitions(self):
        assert _invariant_partitions(cyclic_group(4)) == [
            singletons(4),
            PointPartition(4, [[0, 2], [1, 3]]),
            single_class(4),
        ]
