"""Isomorphism engine: refinement, search, automorphism groups."""

import random
from collections import Counter
from itertools import combinations
from math import factorial, gcd

import pytest

import cig.iso
import oracles
from cig.ci import lift_connection_set
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup, catalog_specs, parse_group_spec
from cig.iso import (
    _refine_colors,
    _search_automorphisms,
    _signatures,
    automorphism_group_of,
    find_isomorphism,
    neighbourhood_key,
    rooted_key,
)
from cig.limits import CapExceeded, Limits
from cig.perms import Perm, PointPartition


def directed_path(n):
    return oracles.from_arcs(n, [(i, i + 1) for i in range(n - 1)])


def directed_cycle(n):
    return oracles.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


def refine(d):
    """The stable colouring below the uniform one."""
    return _refine_colors(d, [0] * d.order)[0]


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
        coloring, _ = _refine_colors(d, [0, 0, 1, 1])
        assert coloring[0] == coloring[1]
        assert coloring[2] == coloring[3]
        assert coloring[0] != coloring[2]

    def test_loops_split_colors(self):
        d = oracles.from_arcs(2, [(0, 0)])
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


def _sparse_or_dense_digraph(rng, n):
    p = rng.choice([0.1, 0.5, 0.9])
    return Digraph(
        n, (sum(1 << v for v in range(n) if rng.random() < p) for _ in range(n))
    )


def _undirected_graph(rng, n, loops):
    masks = [0] * n
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < 0.4:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return Digraph(n, masks)


class TestRefineAgainstRounds:
    """`_refine_colors` returns exactly the colour indices of the tuple-signature
    rounds in `oracles.round_refinement`: packing the counts and stopping at
    a discrete colouring renumber nothing.  With a colouring that is not
    discrete it returns its stable round's signatures, the ones a fresh
    `_signatures` call would compute."""

    @staticmethod
    def assert_same(d, initial):
        colors, signatures = _refine_colors(d, initial)
        assert colors == oracles.round_refinement(d, initial)
        if len(set(colors)) == d.order:
            assert signatures is None
        else:
            assert signatures == _signatures(d, colors)

    def test_random_small_digraphs(self):
        rng = random.Random(12)
        for n in range(11):
            for _ in range(60):
                d = _sparse_or_dense_digraph(rng, n)
                self.assert_same(d, [0] * n)
                self.assert_same(d, rng.sample(range(-n, n), n))
                self.assert_same(d, [rng.randrange(-3, 3) for _ in range(n)])

    @pytest.mark.parametrize("spec", [s for s, n in catalog_specs(8) if n == 8])
    def test_order_eight_cayley_digraphs_with_zero_individualised(self, spec):
        g = parse_group_spec(spec)
        for s in _all_connection_sets(g):
            self.assert_same(cayley(g, s), [min(v, 1) for v in range(8)])

    def test_random_undirected_graphs(self):
        # Every row equals its column, so every in vector is the out vector.
        rng = random.Random(19)
        for n in range(1, 13):
            for loops in (False, True):
                for _ in range(25):
                    d = _undirected_graph(rng, n, loops)
                    assert d.is_undirected
                    self.assert_same(d, [0] * n)
                    self.assert_same(d, [min(v, 1) for v in range(n)])
                    self.assert_same(d, [rng.randrange(-2, 3) for _ in range(n)])

    def test_digraphs_with_some_symmetric_rows(self):
        # One-way arcs added to an undirected graph leave the vertices they
        # do not touch with equal out- and in-masks.
        rng = random.Random(20)
        mixed = 0
        for n in range(3, 13):
            for _ in range(30):
                masks = list(_undirected_graph(rng, n, rng.random() < 0.5).out_masks)
                for _ in range(rng.randrange(1, 3)):
                    u, v = rng.sample(range(n), 2)
                    masks[u] ^= 1 << v
                d = Digraph(n, masks)
                rows = [row == col for row, col in zip(d.out_masks, d.in_masks)]
                mixed += any(rows) and not all(rows)
                self.assert_same(d, [0] * n)
                self.assert_same(d, [min(v, 1) for v in range(n)])
        assert mixed > 200

    @pytest.mark.parametrize("spec", [s for s, n in catalog_specs(12) if n >= 9])
    def test_graph_mode_cayley_digraphs_with_zero_individualised(self, spec):
        g = parse_group_spec(spec)
        for s in oracles.enumerate_connection_sets(g, "graph"):
            self.assert_same(cayley(g, s), [min(v, 1) for v in range(g.order)])

    def test_counts_past_six_bit_slots(self):
        # From 64 vertices a count can be 64, one bit past a 6-bit slot.  In
        # `spike` with 0 individualised, vertex 1 sees the other n - 2
        # vertices of colour 1 and vertex 2 only vertex 0: (0, n - 2) <
        # (1, 0) as tuples, but not in 6-bit slots once n - 2 >= 64.
        rng = random.Random(64)
        for n in range(64, 71):
            full = Digraph(n, [(1 << n) - 1] * n)
            spike = Digraph(n, [0, (1 << n) - 4, 1] + [0] * (n - 3))
            for d in (full, spike, _sparse_or_dense_digraph(rng, n)):
                self.assert_same(d, [0] * n)
                self.assert_same(d, [min(v, 1) for v in range(n)])
                self.assert_same(d, [rng.randrange(-2, 3) for _ in range(n)])


class TestFindIsomorphism:
    def test_triangle_and_its_reverse(self):
        c3 = directed_cycle(3)
        mapping = find_isomorphism(c3, Digraph(3, c3.in_masks))
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
        assert find_isomorphism(d, d) is not None

    def test_different_orders(self):
        assert find_isomorphism(Digraph.empty(3), Digraph.empty(4)) is None

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


def _cycle_cases():
    # Cay(Z_n, {s}) is g = gcd(n, s) disjoint directed cycles of length
    # m = n / g.  It and its complement have automorphism group Z_m wr S_g,
    # of order m^g * g!.  The search follows arcs on the cycles and missing
    # arcs on the complements, which have more arcs than non-arcs.
    for n in (16, 20, 24, 32, 40):
        for s in (1, 3):
            d = cayley(FiniteGroup.cyclic(n), {s})
            g = gcd(n, s)
            order = (n // g) ** g * factorial(g)
            yield pytest.param(d, order, id=f"Z{n}-{s}")
            yield pytest.param(d.complement(), order, id=f"Z{n}-{s}-complement")
    d = cayley(FiniteGroup.cyclic(24), {5}).complement()
    yield pytest.param(d, 24, id="Z24-5-complement")


class TestFindIsomorphismAgainstNetworkx:
    """`find_isomorphism` gives the verdict of networkx's VF2, a third-party
    implementation, and every bijection it returns carries one digraph onto
    the other by networkx's own graph comparison.  Skipped without
    networkx."""

    def agrees(self, a, b):
        pytest.importorskip("networkx")
        mapping = find_isomorphism(a, b)
        assert (mapping is not None) == oracles.networkx_is_isomorphic(a, b), (
            a.out_masks, b.out_masks,
        )
        if mapping is not None:
            assert oracles.networkx_maps_onto(a, b, mapping.images)
        return mapping is not None

    def test_cayley_pairs_of_the_catalog(self):
        # Same-size connection sets in groups of one order up to 12, in the
        # same group or in two; loops allowed.
        rng = random.Random("networkx cayley pairs")
        groups = [parse_group_spec(spec) for spec, _ in catalog_specs(12)]
        verdicts = Counter()
        for _ in range(300):
            g1 = rng.choice(groups)
            g2 = rng.choice([g for g in groups if g.order == g1.order])
            k = rng.randrange(g1.order + 1)
            a = cayley(g1, rng.sample(range(g1.order), k))
            verdicts[self.agrees(a, cayley(g2, rng.sample(range(g2.order), k)))] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20, verdicts

    def test_random_digraphs_with_loops(self):
        # An independent digraph, a relabelled copy, and a relabelled copy
        # with one non-loop arc moved (same arc and loop counts).
        rng = random.Random("networkx random digraphs")
        verdicts = Counter()
        for _ in range(200):
            n = rng.randrange(1, 9)
            a = oracles.random_digraph(rng, n)
            copy = a.relabel(rng.sample(range(n), n))
            masks = list(copy.out_masks)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            arcs = [(u, v) for u, v in pairs if masks[u] >> v & 1]
            gaps = [(u, v) for u, v in pairs if not masks[u] >> v & 1]
            if arcs and gaps:
                for u, v in (rng.choice(arcs), rng.choice(gaps)):
                    masks[u] ^= 1 << v
            for b in (oracles.random_digraph(rng, n), copy, Digraph(n, masks)):
                verdicts[self.agrees(a, b)] += 1
        assert verdicts[True] > 200 and verdicts[False] > 200, verdicts


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

    @pytest.mark.parametrize("d,order", _cycle_cases())
    def test_cycles_and_complements_up_to_the_cap(self, d, order):
        aut = automorphism_group_of(d)
        assert aut.order == order
        assert all(d.relabel(g.images) == d for g in aut.generators)

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


def _blown_up_digraph(rng, n):
    """A random looped digraph on n vertices, in 2 of 5 cases with each
    vertex replaced by its own 1-3 vertex module: complete, empty, or either
    with loops.  Randomly relabelled, so that twin classes are not runs of
    consecutive vertices."""
    d = oracles.random_digraph(rng, n)
    if rng.random() < 0.4:
        fibers, arcs, start = [], [], 0
        for _ in range(n):
            fiber = range(start, start + rng.randrange(1, 4))
            adjacent, looped = rng.random() < 0.5, rng.random() < 0.3
            arcs += [
                (x, y) for x in fiber for y in fiber if (looped if x == y else adjacent)
            ]
            fibers.append(fiber)
            start = fiber.stop
        for u, v in d.arcs():
            if u != v:
                arcs += [(x, y) for x in fibers[u] for y in fibers[v]]
        d = oracles.from_arcs(start, arcs)
    relabeling = list(range(d.order))
    rng.shuffle(relabeling)
    return d.relabel(relabeling)


def _preserves_arcs(d, g):
    return d.relabel(g.images) == d


class TestTwinQuotient:
    """`automorphism_group_of` searches only the digraph induced on the twin
    class minima; its groups agree with the search on the whole digraph and
    with enumeration."""

    def test_twin_rich_lift_of_z2_to_the_fifth(self):
        # 608 arcs on 32 vertices, twin classes of 4: the unreduced search
        # does not finish.  The quotient digraph on 8 vertices has a group of
        # order 48 and each class contributes S4.
        g = parse_group_spec("Z2xZ2xZ2xZ2xZ2")
        d = cayley(g, lift_connection_set(g, {0, 1, 14, 15}, {1, 2, 3, 7}).connection)
        assert d.arc_count == 608
        aut = automorphism_group_of(d)
        assert aut.order == 48 * 24**8
        assert all(_preserves_arcs(d, x) for x in aut.generators)

    @pytest.mark.parametrize("m", [2, 3])
    def test_classes_of_one_size_and_different_kinds_stay_apart(self, m):
        # K_m beside m isolated vertices: the quotient is two isolated
        # vertices, which the class kinds keep from being swapped.
        d = Digraph(2 * m, list(Digraph.complete(m).out_masks) + [0] * m)
        for digraph in (d, d.complement()):
            assert automorphism_group_of(digraph).order == factorial(m) ** 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_twin_class_is_not_searched(self, n, monkeypatch):
        # Complete and empty, loopless and looped: Sym(n), generated by a
        # transposition and an n-cycle, as `_lift_over_classes` lifts the
        # trivial group of a one-vertex quotient over the one class.
        def search(*args):
            raise AssertionError("searched a digraph of one twin class")

        monkeypatch.setattr(cig.iso, "_search_automorphisms", search)
        full = (1 << n) - 1
        generators = [Perm.from_cycles(n, (0, 1))] if n > 1 else []
        generators += [Perm.from_cycles(n, range(n))] if n > 2 else []
        for d in (
            Digraph.complete(n),
            Digraph.empty(n),
            Digraph(n, [full] * n),
            Digraph(n, [1 << u for u in range(n)]),
        ):
            assert d.twin_classes() == (tuple(range(n)),)
            aut = automorphism_group_of(d)
            assert (aut.degree, aut.order) == (n, factorial(n)), d.out_masks
            assert list(aut.generators) == generators, d.out_masks
            if n <= 5:
                assert len(set(oracles.closure(aut))) == factorial(n), d.out_masks

    def test_against_the_unreduced_search_and_enumeration(self):
        rng = random.Random(101)
        enumerated = 0
        for _ in range(500):
            d = _blown_up_digraph(rng, rng.randrange(1, 7))
            aut = automorphism_group_of(d)
            assert aut.order == _search_automorphisms(d, [0] * d.order).order, d.out_masks
            assert all(_preserves_arcs(d, x) for x in aut.generators), d.out_masks
            if aut.order <= 2000:
                enumeration = oracles.enumerated_automorphisms(d)
                assert oracles.closure(aut) == enumeration, d.out_masks
                enumerated += 1
        assert enumerated >= 400

    def test_block_systems_of_lifted_cayley_digraphs(self):
        # A lift's cosets lie inside its twin classes, and its block systems
        # of size |H| are the twin classes when they have |H| points, none
        # otherwise.  The union-find runs on the unreduced search's group;
        # the oracle lists every element, so only groups of at most 5000
        # elements go to it.
        rng = random.Random(103)
        brute = 0
        for spec in [s for s, n in catalog_specs(12) if n in (8, 12)]:
            g = parse_group_spec(spec)
            kernels = [h for h in g.normal_subgroups() if 1 < len(h) < g.order]
            for _ in range(12):
                h = rng.choice(kernels)
                size = len(h)
                s_q = {x for x in range(g.order // size) if rng.random() < 0.5}
                lift = lift_connection_set(g, h, s_q)
                d = cayley(g, lift.connection)
                aut = automorphism_group_of(d)
                unreduced = _search_automorphisms(d, [0] * d.order)
                instance = (spec, sorted(h), s_q)
                assert aut.order == unreduced.order, instance
                twins = PointPartition(d.order, d.twin_classes())
                assert oracles.refines(lift.coset_partition, twins), instance
                systems = oracles.union_find_block_systems(unreduced, size)
                assert systems == ([twins] if len(twins.classes[0]) == size else []), instance
                if aut.order <= 5000:
                    assert systems == oracles.brute_block_systems(aut, size)
                    brute += 1
        assert brute >= 40


def _all_connection_sets(group):
    return [
        frozenset(x for x in range(group.order) if m >> x & 1)
        for m in range(1 << group.order)
    ]


class TestRootedKey:
    """Isomorphic Cayley digraphs get equal keys (rooted and neighbourhood),
    and equal discrete keys mean isomorphic.  Only same-size connection sets
    are paired, as in the CI sweep."""

    @staticmethod
    def assert_sound(group, sets, isomorphic):
        digraphs = [cayley(group, s) for s in sets]
        keys = [rooted_key(d) for d in digraphs]
        profiles = [neighbourhood_key(d) for d in digraphs]
        for i, j in combinations(range(len(sets)), 2):
            if len(sets[i]) != len(sets[j]):
                continue
            iso = isomorphic(digraphs[i], digraphs[j]) is not None
            if iso:
                assert keys[i] == keys[j], (sets[i], sets[j])
                assert profiles[i] == profiles[j], (sets[i], sets[j])
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
        self.assert_sound(g, oracles.orbit_representatives(g, mode), find_isomorphism)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(6)])
    def test_all_connection_sets_against_brute_force(self, spec):
        g = parse_group_spec(spec)
        self.assert_sound(g, _all_connection_sets(g), oracles.brute_isomorphism)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(10)])
    def test_keys_separate_what_the_tuple_rounds_separate(self, spec):
        g = parse_group_spec(spec)
        digraphs = [cayley(g, r) for r in oracles.orbit_representatives(g, "digraph")]

        def partition(key):
            classes = {}
            for i, d in enumerate(digraphs):
                classes.setdefault(key(d), []).append(i)
            return sorted(classes.values())

        assert partition(rooted_key) == partition(oracles.round_rooted_key)

    def test_discrete_key_is_the_relabelled_digraph(self):
        # Z5 with {1, 2}: the out-neighbours of 0 are told apart at once.
        d = cayley(FiniteGroup.cyclic(5), {1, 2})
        discrete, masks = rooted_key(d)
        assert discrete
        assert masks == d.relabel(_refine_colors(d, [0, 1, 1, 1, 1])[0]).out_masks

    @staticmethod
    def assert_discrete_keys_relabel(digraphs):
        discrete = 0
        for d in digraphs:
            key = rooted_key(d)
            if key[0]:
                colors = _refine_colors(d, [min(v, 1) for v in range(d.order)])[0]
                assert key[1] == d.relabel(colors).out_masks, d.out_masks
                discrete += 1
        return discrete

    def test_discrete_keys_of_random_digraphs(self):
        rng = random.Random(2027)
        digraphs = [oracles.random_digraph(rng, rng.randrange(1, 13)) for _ in range(300)]
        assert self.assert_discrete_keys_relabel(digraphs) > 250

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_discrete_keys_of_catalog_cayley_digraphs(self, spec):
        g = parse_group_spec(spec)
        rng = random.Random(spec)
        digraphs = [
            cayley(g, {x for x in range(g.order) if rng.random() < 0.4}) for _ in range(20)
        ]
        self.assert_discrete_keys_relabel(digraphs)

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            rooted_key(Digraph.empty(41))


# The catalog to order 12 and three groups of order 16.
NEIGHBOURHOOD_SPECS = [s for s, _ in catalog_specs(12)] + ["Z16", "D8", "Z2xZ8"]


class TestNeighbourhoodKey:
    """The key counts what its definition counts, and isomorphic Cayley
    digraphs get equal keys."""

    @pytest.mark.parametrize("spec", NEIGHBOURHOOD_SPECS)
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_equal_under_every_group_automorphism(self, spec, mode):
        # S and alpha(S) give isomorphic Cayley digraphs for every alpha in
        # Aut(G); the catalog numbering and one relabelling of each group.
        for seed in (None, 1):
            g = parse_group_spec(spec)
            if seed is not None:
                g = oracles.relabelled_group(g, random.Random(f"{spec}/{seed}"))
            rng = random.Random(f"{spec}/{mode}/{seed}")
            automorphisms = g.automorphisms()
            for _ in range(6):
                s = {x for x in range(g.order) if rng.random() < 0.4}
                if mode == "graph":
                    s |= {g.inv(x) for x in s}
                d = cayley(g, s)
                key = neighbourhood_key(d)
                assert key == oracles.arc_neighbourhood_key(d), (seed, sorted(s))
                for alpha in automorphisms:
                    image = cayley(g, alpha.image_of_set(frozenset(s)))
                    assert neighbourhood_key(image) == key, (seed, sorted(s), alpha)

    @pytest.mark.parametrize("spec", NEIGHBOURHOOD_SPECS)
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_equal_on_every_isomorphic_pair_of_representatives(self, spec, mode):
        # The unreduced sweep's same-rooted-key pairs, searched past its
        # first witness: every isomorphic pair of loop-free representatives,
        # the first of which is the witness.
        g = parse_group_spec(spec)
        classes = oracles.representative_classes(g, mode)
        found = []
        for _, s1, s2, d1, d2 in oracles._unreduced_same_key_pairs(g, classes, Limits()):
            if 0 not in s1 and find_isomorphism(d1, d2) is not None:
                assert neighbourhood_key(d1) == neighbourhood_key(d2), (s1, s2)
                found.append((s1, s2))
        witness = oracles.unreduced_ci_sweep(g, mode).witness
        assert found[:1] == ([witness[:2]] if witness else [])
