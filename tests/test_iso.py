"""Isomorphism engine: refinement, search, automorphism groups."""

import random
from itertools import combinations
from math import factorial

import pytest

import oracles
from cig.ci import orbit_representatives
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup, catalog_specs, parse_group_spec
from cig.iso import (
    are_isomorphic,
    automorphism_group_of,
    find_isomorphism,
    refine,
    rooted_key,
)
from cig.limits import CapExceeded


def directed_path(n):
    return Digraph.from_arcs(n, [(i, i + 1) for i in range(n - 1)])


def directed_cycle(n):
    return Digraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


class TestRefine:
    def test_complete_graph_stays_uniform(self):
        assert len(set(refine(Digraph.complete(5)))) == 1

    def test_four_cycle_stays_uniform(self):
        c4 = cayley(FiniteGroup.cyclic(4), {1, 3})
        assert len(set(refine(c4))) == 1

    def test_directed_path_fully_splits(self):
        assert len(set(refine(directed_path(3)))) == 3

    def test_initial_colors_never_merge(self):
        d = Digraph.complete(4)
        coloring = refine(d, [0, 0, 1, 1])
        assert coloring[0] == coloring[1]
        assert coloring[2] == coloring[3]
        assert coloring[0] != coloring[2]

    def test_loops_split_colors(self):
        d = Digraph.from_arcs(2, [(0, 0)])
        assert len(set(refine(d))) == 2

    def test_color_multiset_is_isomorphism_invariant(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(1, 7)
            d = oracles.random_digraph(rng, n)
            relabeling = list(range(n))
            rng.shuffle(relabeling)
            other = d.relabel(relabeling)
            assert sorted(refine(d)) == sorted(refine(other))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            refine(Digraph.empty(3), [0, 0])


class TestFindIsomorphism:
    def test_triangle_and_its_reverse(self):
        c3 = directed_cycle(3)
        mapping = find_isomorphism(c3, c3.transpose())
        assert mapping is not None

    def test_path_vs_empty(self):
        assert find_isomorphism(directed_path(3), Digraph.empty(3)) is None

    def test_rotated_cayley_sets(self):
        z4 = FiniteGroup.cyclic(4)
        assert find_isomorphism(cayley(z4, {1}), cayley(z4, {3})) is not None

    def test_connected_vs_disconnected(self):
        z4 = FiniteGroup.cyclic(4)
        assert find_isomorphism(cayley(z4, {1}), cayley(z4, {2})) is None

    def test_self_isomorphism(self):
        d = cayley(FiniteGroup.quaternion(), {2, 4})
        assert are_isomorphic(d, d)

    def test_different_orders(self):
        assert not are_isomorphic(Digraph.empty(3), Digraph.empty(4))

    def test_returned_mapping_preserves_arcs(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randrange(1, 7)
            a = oracles.random_digraph(rng, n)
            relabeling = list(range(n))
            rng.shuffle(relabeling)
            b = a.relabel(relabeling)
            mapping = find_isomorphism(a, b)
            assert mapping is not None
            assert all(
                a.has_arc(u, v) == b.has_arc(mapping(u), mapping(v))
                for u in range(n)
                for v in range(n)
            )

    def test_agreement_with_brute_force_sample(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randrange(1, 5)
            a = oracles.random_digraph(rng, n)
            b = oracles.random_digraph(rng, n)
            assert (find_isomorphism(a, b) is not None) == (
                oracles.brute_isomorphism(a, b) is not None
            )

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            find_isomorphism(Digraph.empty(41), Digraph.empty(41))

    def test_determinism(self):
        a = cayley(FiniteGroup.cyclic(6), {1, 2})
        b = cayley(FiniteGroup.cyclic(6), {4, 5})
        first = find_isomorphism(a, b)
        second = find_isomorphism(a, b)
        assert first == second


class TestAutomorphismGroup:
    def test_empty_graph_gives_symmetric_group(self):
        assert automorphism_group_of(Digraph.empty(4)).order == 24

    def test_directed_triangle_rotations(self):
        group = automorphism_group_of(directed_cycle(3))
        assert group.order == 3

    def test_wreath_shaped_cayley_graph(self):
        d = cayley(FiniteGroup.cyclic(6), {1, 3, 4})
        assert automorphism_group_of(d).order == 24

    def test_every_element_preserves_arcs(self):
        rng = random.Random(43)
        for _ in range(40):
            d = oracles.random_digraph(rng, rng.randrange(1, 6))
            group = automorphism_group_of(d)
            for raw in oracles.closure(group):
                assert all(
                    d.has_arc(u, v) == d.has_arc(raw[u], raw[v])
                    for u in range(d.order)
                    for v in range(d.order)
                )

    def test_count_matches_brute_force(self):
        rng = random.Random(47)
        for _ in range(40):
            d = oracles.random_digraph(rng, rng.randrange(1, 6))
            assert automorphism_group_of(d).order == oracles.brute_automorphism_count(d)

    def test_left_regular_representation_is_contained(self):
        rng = random.Random(53)
        specs = [s for s, o in catalog_specs(8)]
        for _ in range(30):
            g = parse_group_spec(rng.choice(specs))
            s = frozenset(x for x in range(g.order) if rng.random() < 0.45)
            aut = automorphism_group_of(cayley(g, s))
            raws = set(oracles.closure(aut))
            for row in g.table:
                assert tuple(row) in raws


def _assert_matches_enumeration(d):
    aut = automorphism_group_of(d)
    enumerated = oracles.enumerated_automorphisms(d)
    assert aut.order == len(enumerated)
    for g in aut.generators:
        assert all(
            d.has_arc(u, v) == d.has_arc(g(u), g(v))
            for u in range(d.order)
            for v in range(d.order)
        )
    assert oracles.closure(aut) == enumerated


class TestAutomorphismGroupAgainstEnumeration:
    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(6)])
    def test_every_cayley_digraph_of_small_catalog_groups(self, spec):
        g = parse_group_spec(spec)
        for mask in range(1 << g.order):
            _assert_matches_enumeration(
                cayley(g, {x for x in range(g.order) if mask >> x & 1})
            )

    def test_random_digraphs(self):
        rng = random.Random(59)
        for _ in range(40):
            _assert_matches_enumeration(oracles.random_digraph(rng, rng.randrange(1, 8)))

    def test_complete_graph_order_without_enumeration(self):
        assert automorphism_group_of(Digraph.complete(12)).order == factorial(12)


def _all_connection_sets(group):
    return [
        frozenset(x for x in range(group.order) if m >> x & 1)
        for m in range(1 << group.order)
    ]


class TestRootedKey:
    """Isomorphic Cayley digraphs get equal keys, and equal discrete keys
    mean isomorphic.  Only same-size connection sets are paired, as in the
    CI sweep."""

    @staticmethod
    def assert_sound(group, sets, isomorphic):
        digraphs = [cayley(group, s) for s in sets]
        keys = [rooted_key(d) for d in digraphs]
        for i, j in combinations(range(len(sets)), 2):
            if len(sets[i]) != len(sets[j]):
                continue
            iso = isomorphic(digraphs[i], digraphs[j]) is not None
            if iso:
                assert keys[i] == keys[j], (sets[i], sets[j])
            elif keys[i] == keys[j]:
                assert not keys[i][0], (sets[i], sets[j])

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(6)])
    def test_all_connection_sets_against_search(self, spec):
        g = parse_group_spec(spec)
        self.assert_sound(g, _all_connection_sets(g), find_isomorphism)

    @pytest.mark.parametrize("spec", [s for s, n in catalog_specs(8) if n == 8])
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_order_eight_representatives_against_search(self, spec, mode):
        g = parse_group_spec(spec)
        self.assert_sound(g, orbit_representatives(g, mode), find_isomorphism)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(6)])
    def test_all_connection_sets_against_brute_force(self, spec):
        g = parse_group_spec(spec)
        self.assert_sound(g, _all_connection_sets(g), oracles.brute_isomorphism)

    def test_discrete_key_is_the_relabelled_digraph(self):
        # Z5 with {1, 2}: the out-neighbours of 0 are told apart at once.
        d = cayley(FiniteGroup.cyclic(5), {1, 2})
        discrete, masks = rooted_key(d)
        assert discrete
        assert masks == d.relabel(refine(d, [0, 1, 1, 1, 1])).out_masks

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            rooted_key(Digraph.empty(41))
