"""Digraphs, Cayley construction, wreath products, twin decompositions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cig.digraphs import (
    Digraph,
    cayley,
    decompose_over_complete,
    decompose_over_empty,
    wreath_product,
)
from cig.groups import FiniteGroup, catalog_specs, parse_group_spec
from cig.iso import automorphism_group_of, find_isomorphism
from cig.perms import PointPartition


def directed_cycle(n):
    return oracles.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def digraphs(draw, max_order=6):
    n = draw(st.integers(min_value=1, max_value=max_order))
    masks = [draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(n)]
    return Digraph(n, masks)


class TestConstruction:
    @pytest.mark.parametrize("masks", [[4, 0], [0, -1], [1 << 5, 3]])
    def test_mask_out_of_range_is_refused(self, masks):
        with pytest.raises(ValueError, match="adjacency mask out of range"):
            Digraph(2, masks)

    def test_masks_at_the_range_ends_are_kept(self):
        assert Digraph(2, [0, 3]).arcs() == [(1, 0), (1, 1)]
        assert Digraph(0, []).order == 0


class TestCayley:
    def test_z3_generator(self):
        d = cayley(FiniteGroup.cyclic(3), {1})
        assert sorted(d.arcs()) == [(0, 1), (1, 2), (2, 0)]

    def test_empty_connection_set(self):
        assert cayley(FiniteGroup.cyclic(5), set()) == Digraph.empty(5)

    def test_identity_in_set_gives_loops(self):
        d = cayley(FiniteGroup.cyclic(3), {0})
        assert all(d.has_loop(u) for u in range(3))
        assert d.arc_count == 3

    def test_inverse_closed_set_gives_undirected(self):
        d = cayley(FiniteGroup.cyclic(4), {1, 3})
        assert d.is_undirected
        assert find_isomorphism(d, oracles.from_arcs(
            4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]
        )) is not None

    def test_inverse_closed_predicate_matches_symmetry(self):
        g = FiniteGroup.quaternion()
        rng = random.Random(3)
        for _ in range(40):
            s = frozenset(x for x in range(8) if rng.random() < 0.4)
            assert g.is_inverse_closed(s) == cayley(g, s).is_undirected

    def test_undirected_matches_pair_loop(self):
        rng = random.Random(17)
        for _ in range(200):
            d = oracles.random_digraph(rng, rng.randrange(0, 9))
            if rng.random() < 0.5:  # symmetrise, loops kept
                d = Digraph(d.order, (r | c for r, c in zip(d.out_masks, d.in_masks)))
            assert d.is_undirected == oracles.pairwise_undirected(d)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_in_masks_are_the_rebuilt_ones(self, spec, mode):
        # `cayley` fills the in-masks itself; they must be the ones
        # `Digraph.in_masks` rebuilds from the out-masks.
        g = parse_group_spec(spec)
        rng = random.Random(f"{spec}:{mode}")
        for looped in (False, True) * 4:
            s = {x for x in range(1, g.order) if rng.random() < 0.4}
            if mode == "graph":
                s |= {g.inv(x) for x in s}
            if looped:
                s.add(0)
            d = cayley(g, s)
            assert d.in_masks == Digraph(d.order, d.out_masks).in_masks, sorted(s)

    def test_left_translations_are_automorphisms(self):
        g = FiniteGroup.symmetric(3)
        d = cayley(g, {1, 4})
        for row in g.table:
            assert all(
                d.has_arc(u, v) == d.has_arc(row[u], row[v])
                for u in range(6)
                for v in range(6)
            )


class TestComplement:
    def test_complete_to_empty(self):
        assert Digraph.complete(4).complement() == Digraph.empty(4)
        assert Digraph.empty(3).complement() == Digraph.complete(3)

    @given(digraphs())
    @settings(max_examples=80, deadline=None)
    def test_involution(self, d):
        assert d.complement().complement() == d

    def test_directed_triangle_reverses(self):
        c3 = directed_cycle(3)
        assert c3.complement() == Digraph(3, c3.in_masks)

    def test_loops_are_preserved(self):
        d = oracles.from_arcs(2, [(0, 0), (0, 1)])
        comp = d.complement()
        assert comp.has_loop(0) and not comp.has_loop(1)
        assert comp.has_arc(1, 0) and not comp.has_arc(0, 1)


class TestWreathProduct:
    def test_k2_over_empty2_is_four_cycle(self):
        w = wreath_product(Digraph.complete(2), Digraph.empty(2))
        four_cycle = oracles.from_arcs(
            4, [(0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1), (1, 3), (3, 1)]
        )
        assert w == four_cycle
        assert find_isomorphism(w, cayley(FiniteGroup.cyclic(4), {1, 3})) is not None

    def test_inner_singleton_is_identity(self):
        d = directed_cycle(5)
        assert wreath_product(d, Digraph.complete(1)) == d

    def test_arc_count_formula_loopless(self):
        rng = random.Random(11)
        for _ in range(25):
            a = oracles.random_digraph(rng, 3, loops=False)
            b = oracles.random_digraph(rng, 4, loops=False)
            w = wreath_product(a, b)
            assert w.arc_count == a.order * b.arc_count + a.arc_count * b.order**2

    def test_outer_loop_fills_fiber(self):
        loop_vertex = oracles.from_arcs(1, [(0, 0)])
        w = wreath_product(loop_vertex, Digraph.empty(3))
        assert w.arc_count == 9  # complete with loops on the single fiber

    def test_complement_distributes_on_loopless(self):
        rng = random.Random(13)
        for _ in range(25):
            a = oracles.random_digraph(rng, 3, loops=False)
            b = oracles.random_digraph(rng, 3, loops=False)
            left = wreath_product(a, b).complement()
            right = wreath_product(a.complement(), b.complement())
            assert left == right

    def test_associativity_up_to_isomorphism(self):
        rng = random.Random(17)
        for _ in range(10):
            a = oracles.random_digraph(rng, 2)
            b = oracles.random_digraph(rng, 2)
            c = oracles.random_digraph(rng, 2)
            assert find_isomorphism(
                wreath_product(wreath_product(a, b), c),
                wreath_product(a, wreath_product(b, c)),
            ) is not None


class TestCompleteEmpty:
    def test_complete_one_equals_empty_one(self):
        assert Digraph.complete(1) == Digraph.empty(1)

    def test_complete_three_has_six_arcs(self):
        assert Digraph.complete(3).arc_count == 6

    def test_no_loops(self):
        assert all(not Digraph.complete(5).has_loop(u) for u in range(5))


def _assert_reassembles(d):
    """Check each decomposition of d against the oracle's twin classes cut
    into runs of the inner size: relabelled fiber by fiber, d is the
    quotient wreath the inner digraph.  Returns how many it checked."""
    checked = 0
    for op, inner_of in (
        (decompose_over_complete, Digraph.complete),
        (decompose_over_empty, Digraph.empty),
    ):
        dec = op(d)
        if dec is None:
            continue
        rebuilt = wreath_product(dec.quotient, inner_of(dec.inner_size))
        # The fibers: each twin class cut into runs of the inner size.
        r = dec.inner_size
        twins = oracles.partition_from_labels(oracles.transposition_twin_labels(d))
        fibers = PointPartition(
            d.order, (c[i : i + r] for c in twins.classes for i in range(0, len(c), r))
        )
        images = [0] * d.order
        for i, cls in enumerate(fibers.classes):
            for pos, x in enumerate(cls):
                images[x] = i * r + pos
        assert d.relabel(images) == rebuilt
        checked += 1
    return checked


class TestDecomposition:
    def test_complete_graph(self):
        dec = decompose_over_complete(Digraph.complete(4))
        assert dec is not None
        assert dec.inner_size == 4
        assert dec.quotient.order == 1
        assert wreath_product(dec.quotient, Digraph.complete(4)) == Digraph.complete(4)

    def test_directed_triangle_has_no_twins(self):
        c3 = directed_cycle(3)
        assert decompose_over_complete(c3) is None
        assert decompose_over_empty(c3) is None

    def test_k2(self):
        dec = decompose_over_complete(Digraph.complete(2))
        assert dec is not None and dec.inner_size == 2
        assert dec.quotient == Digraph.complete(1)

    def test_four_cycle_splits_over_empty(self):
        c4 = cayley(FiniteGroup.cyclic(4), {1, 3})
        assert decompose_over_complete(c4) is None
        dec = decompose_over_empty(c4)
        assert dec is not None
        assert dec.inner_size == 2
        assert dec.quotient == Digraph.complete(2)

    def test_fully_looped_clique_splits_both_ways(self):
        d = oracles.from_arcs(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
        assert decompose_over_complete(d) is not None
        assert decompose_over_empty(d) is not None

    @given(digraphs())
    @settings(max_examples=150, deadline=None)
    def test_reassembly_is_exact(self, d):
        _assert_reassembles(d)

    def test_reassembly_is_exact_on_shuffled_wreath_products(self):
        # Twin classes larger than the inner size, where the fibers are
        # runs of a class and not whole classes: Q wr K_r and Q wr empty_r
        # for every Q on at most 3 vertices and r in {2, 3}, relabelled by a
        # seeded shuffle (2120 products, 2396 decompositions).
        rng = random.Random("shuffled wreath products")
        checked = 0
        for n in (1, 2, 3):
            for q in oracles.all_digraphs(n, loops=True):
                for r in (2, 3):
                    for inner in (Digraph.complete(r), Digraph.empty(r)):
                        images = list(range(n * r))
                        rng.shuffle(images)
                        checked += _assert_reassembles(wreath_product(q, inner).relabel(images))
        assert checked == 2396

    def test_agrees_with_partition_oracle_small(self):
        for n in (1, 2, 3, 4):
            for d in oracles.all_digraphs(n, loops=True) if n <= 3 else ():
                for kind, op in (
                    ("complete", decompose_over_complete),
                    ("empty", decompose_over_empty),
                ):
                    feasible = oracles.feasible_inner_sizes(d, kind)
                    dec = op(d)
                    if dec is None:
                        assert feasible == set()
                    else:
                        assert dec.inner_size == max(feasible)
                        assert feasible == {
                            r for r in range(2, dec.inner_size + 1)
                            if dec.inner_size % r == 0
                        }

    def test_existence_and_size_are_isomorphism_invariant(self):
        rng = random.Random(29)
        for _ in range(80):
            n = rng.randrange(2, 7)
            d = oracles.random_digraph(rng, n)
            relabeling = list(range(n))
            rng.shuffle(relabeling)
            other = d.relabel(relabeling)
            for op in (decompose_over_complete, decompose_over_empty):
                mine, theirs = op(d), op(other)
                assert (mine is None) == (theirs is None)
                if mine is not None:
                    assert mine.inner_size == theirs.inner_size


class TestIsAutomorphism:
    """`is_automorphism(p)` is `relabel(p) == d`, built row by row with an
    early exit instead of as a whole digraph."""

    def test_matches_relabel_on_random_digraphs(self):
        rng = random.Random(2301)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 8)
            d = oracles.random_digraph(rng, n)
            identity = list(range(n))
            perms = [identity, rng.sample(identity, n)]
            pairs = [(m[0], m[-1]) for m in d.twin_classes() if len(m) > 1]
            pairs += [rng.sample(identity, 2) for _ in range(3 if n > 1 else 0)]
            twin = oracles.transposition_twin_labels(d)
            for u, v in pairs:
                swap = list(identity)
                swap[u], swap[v] = v, u
                perms.append(swap)
                assert d.is_automorphism(swap) == (twin[u] == twin[v])
            for images in perms:
                expected = d.relabel(images) == d
                assert d.is_automorphism(images) == expected
                seen.add(expected)
            assert all(
                d.is_automorphism(g.images) for g in automorphism_group_of(d).generators
            )
        assert seen == {True, False}

    def test_first_broken_row_decides(self):
        c4 = cayley(FiniteGroup.cyclic(4), {1})
        assert c4.is_automorphism([1, 2, 3, 0])
        assert not c4.is_automorphism([0, 3, 2, 1])
        assert cayley(FiniteGroup.cyclic(4), {1, 3}).is_automorphism([0, 3, 2, 1])


class TestSerialization:
    def test_json_round_trip(self):
        d = cayley(FiniteGroup.cyclic(6), {1, 3, 4})
        blob = d.to_json()
        assert blob["order"] == 6
        assert oracles.from_arcs(6, blob["arcs"]) == d

    def test_json_shape(self):
        d = oracles.from_arcs(3, [(0, 1), (2, 2)])
        assert d.to_json() == {"order": 3, "arcs": [[0, 1], [2, 2]]}

    def test_dot_output(self):
        dot = oracles.from_arcs(2, [(0, 1)]).to_dot()
        assert dot == "digraph g {\n  0;\n  1;\n  0 -> 1;\n}"
