"""Permutation, partition, block-system, and group-wreath behavior."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cig.ci import verify_lift_structure
from cig.groups import FiniteGroup
from cig.limits import CapExceeded
from cig.perms import (
    Perm,
    PermGroup,
    PointPartition,
    cyclic_group,
    fiber_partition,
    symmetric_group,
    trivial_group,
    wreath_product,
)


@st.composite
def perms(draw, max_degree=7):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    return Perm(draw(st.permutations(list(range(degree)))))


class TestPerm:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_composition_applies_right_factor_first(self):
        p = Perm.from_cycles(3, (0, 1))
        q = Perm.from_cycles(3, (1, 2))
        assert (p * q).images == (1, 2, 0)  # q then p

    @given(perms())
    @settings(max_examples=60, deadline=None)
    def test_inverse_cancels(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perms(max_degree=5), perms(max_degree=5), perms(max_degree=5))
    @settings(max_examples=60, deadline=None)
    def test_associativity(self, a, b, c):
        if not (a.degree == b.degree == c.degree):
            return
        assert ((a * b) * c).images == (a * (b * c)).images

    def test_cycle_string(self):
        assert Perm.from_cycles(4, (0, 1, 2)).cycle_string() == "(0 1 2)"
        assert Perm.identity(3).cycle_string() == "()"


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
        singles = PointPartition.singletons(4)
        whole = PointPartition.single_class(4)
        a = PointPartition(4, [[0, 1], [2, 3]])
        b = PointPartition(4, [[0, 2], [1, 3]])
        assert singles.refines(a)
        assert a.refines(a)
        assert a.refines(whole)
        assert not a.refines(b)
        assert not b.refines(a)

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

    def test_induced_needs_the_partition_degree(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            PointPartition(4, [[0, 1], [2, 3]]).induced(Perm.identity(6))


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
            assert Perm(raw).inverse().images in raws

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
        assert trivial_group(4).orbits() == PointPartition.singletons(4)

    def test_cycle_is_transitive(self):
        assert cyclic_group(4).is_transitive()
        assert cyclic_group(4).orbits() == PointPartition.single_class(4)

    def test_identity_group_not_transitive(self):
        assert not trivial_group(2).is_transitive()

    def test_two_orbits(self):
        g = PermGroup([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (2, 3))], order=4)
        assert g.orbits() == PointPartition(4, [[0, 1], [2, 3]])
        assert not g.is_transitive()

    def test_fiber_orbits_of_inner_wreath(self):
        w = wreath_product(trivial_group(3), symmetric_group(2))
        assert w.orbits() == fiber_partition(3, 2)


class TestBlocks:
    def test_full_set_is_block(self):
        assert cyclic_group(4).is_block(range(4))

    def test_alternate_pair_is_block(self):
        assert cyclic_group(4).is_block({0, 2})

    def test_adjacent_pair_is_not_block(self):
        assert not cyclic_group(4).is_block({0, 1})

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            cyclic_group(4).is_block(set())

    def test_block_images_partition_points(self):
        g = cyclic_group(6)
        block = frozenset({0, 3})
        assert g.is_block(block)
        images = {tuple(sorted(raw[x] for x in block)) for raw in oracles.closure(g)}
        assert PointPartition(6, images)  # constructor validates partition
        for img in images:
            assert g.is_block(img)

    def test_block_systems_trivial_sizes(self):
        g = cyclic_group(6)
        assert g.block_systems(1) == [PointPartition.singletons(6)]
        assert g.block_systems(6) == [PointPartition.single_class(6)]

    def test_block_systems_size_two_of_c4(self):
        assert cyclic_group(4).block_systems(2) == [PointPartition(4, [[0, 2], [1, 3]])]

    def test_block_systems_requires_divisor(self):
        with pytest.raises(ValueError):
            cyclic_group(4).block_systems(3)

    def test_primitivity(self):
        # Primitive: the two trivial partitions are the only invariant ones.
        assert len(_invariant_partitions(symmetric_group(3))) == 2
        assert len(_invariant_partitions(cyclic_group(4))) == 3
        assert len(_invariant_partitions(cyclic_group(5))) == 2

    def test_primitivity_rejects_intransitive(self):
        with pytest.raises(ValueError):
            trivial_group(2).block_systems(2)

    def test_block_search_degree_cap(self):
        with pytest.raises(CapExceeded):
            cyclic_group(30).block_systems(2)


def _invariant_partitions(g):
    """The block systems of every class size, which must match the oracle's."""
    found = [
        partition
        for size in range(1, g.degree + 1)
        if g.degree % size == 0
        for partition in g.block_systems(size)
    ]
    assert found == oracles.invariant_partitions(g)
    return found


def _z6_snapshot_lift_aut():
    return verify_lift_structure(FiniteGroup.cyclic(6).quotient({0, 3}), {1}).aut_group


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
                assert g.block_systems(size) == oracles.brute_block_systems(g, size)

    def test_is_block_matches_oracle_on_small_subsets(self):
        g = wreath_product(cyclic_group(3), cyclic_group(3))
        for size in (2, 3):
            for points in combinations(range(9), size):
                assert g.is_block(points) == oracles.brute_is_block(g, points)


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
            assert p.refines(fibers) or fibers.refines(p)

    def test_fiber_system_is_unique_at_inner_degree(self):
        w = wreath_product(cyclic_group(3), symmetric_group(2))
        assert w.block_systems(2) == [fiber_partition(3, 2)]

    def test_z3_wr_s2_partition_inventory(self):
        w = wreath_product(cyclic_group(3), symmetric_group(2))
        assert _invariant_partitions(w) == [
            PointPartition.singletons(6),
            fiber_partition(3, 2),
            PointPartition.single_class(6),
        ]


class TestInvariantPartitions:
    def test_primitive_group_has_only_trivial_partitions(self):
        assert _invariant_partitions(symmetric_group(3)) == [
            PointPartition.singletons(3),
            PointPartition.single_class(3),
        ]

    def test_c4_partitions(self):
        assert _invariant_partitions(cyclic_group(4)) == [
            PointPartition.singletons(4),
            PointPartition(4, [[0, 2], [1, 3]]),
            PointPartition.single_class(4),
        ]
