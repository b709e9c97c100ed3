"""CI pairs and groups, lifting, certificates, wreath-aut dichotomy."""

import json
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest

import cig.ci
import cig.digraphs
import cig.iso
import oracles
from cig.ci import (
    MODES,
    ci_pair,
    is_ci_group,
    lift_connection_set,
    quotient_ci_certificate,
    verify_lift_structure,
    verify_wreath_aut_dichotomy,
)
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup, catalog_specs, parse_group_spec
from cig.iso import automorphism_group_of, find_isomorphism, neighbourhood_key
from cig.limits import CapExceeded, Limits
from cig.perms import Perm, PermGroup, PointPartition
from test_acceptance import C9_SPECS, c4_factor_pairs, group_sweep


def directed_cycle(n):
    return oracles.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


class TestCIPair:
    def test_equal_sets_are_ci_equivalent(self):
        res = ci_pair(FiniteGroup.cyclic(5), {1, 2}, {1, 2})
        assert res.verdict == "ci_equivalent"
        assert res.alpha is not None and res.alpha.images == tuple(range(5))

    def test_inversion_pair(self):
        res = ci_pair(FiniteGroup.cyclic(4), {1}, {3})
        assert res.verdict == "ci_equivalent"
        assert res.alpha.images == (0, 3, 2, 1)

    def test_not_isomorphic(self):
        res = ci_pair(FiniteGroup.cyclic(4), {1}, {2})
        assert res.verdict == "not_isomorphic"
        assert res.alpha is None and res.iso is None

    def test_graph_mode_rejects_asymmetric_sets(self):
        with pytest.raises(ValueError, match="inverse-closed"):
            ci_pair(FiniteGroup.cyclic(4), {1}, {3}, mode="graph")

    def test_graph_mode_accepts_symmetric_sets(self):
        res = ci_pair(FiniteGroup.cyclic(5), {1, 4}, {2, 3}, mode="graph")
        assert res.verdict == "ci_equivalent"

    def test_alpha_is_itself_an_isomorphism(self):
        rng = random.Random(59)
        g = parse_group_spec("Z2xZ2xZ2")
        for alpha in g.automorphisms():
            s = frozenset(x for x in range(8) if rng.random() < 0.4)
            image = alpha.image_of_set(s)
            d1, d2 = cayley(g, s), cayley(g, image)
            assert all(
                d1.has_arc(u, v) == d2.has_arc(alpha(u), alpha(v))
                for u in range(8)
                for v in range(8)
            )

    def test_ci_equivalent_implies_isomorphic(self):
        res = ci_pair(FiniteGroup.cyclic(6), {1, 3, 4}, {2, 3, 5})
        assert res.verdict == "ci_equivalent"
        assert res.iso is not None


class TestConnectionSetEnumeration:
    def test_digraph_mode_counts_all_subsets(self):
        assert len(oracles.enumerate_connection_sets(FiniteGroup.cyclic(4), "digraph")) == 16

    def test_graph_mode_counts_inverse_closed(self):
        # Z4: pairs {0},{2},{1,3} -> 8 inverse-closed subsets.
        sets = oracles.enumerate_connection_sets(FiniteGroup.cyclic(4), "graph")
        assert len(sets) == 8
        g = FiniteGroup.cyclic(4)
        assert all(g.is_inverse_closed(s) for s in sets)

    def test_s3_graph_mode(self):
        sets = oracles.enumerate_connection_sets(FiniteGroup.symmetric(3), "graph")
        assert len(sets) == 32


class TestIsCIGroup:
    def test_trivial_group(self):
        v = is_ci_group(FiniteGroup.cyclic(1), "digraph")
        assert v.is_ci and v.exhaustive

    def test_z4_digraph_mode(self):
        v = is_ci_group(FiniteGroup.cyclic(4), "digraph")
        assert v.is_ci and v.exhaustive

    def test_s3_graph_mode(self):
        v = is_ci_group(FiniteGroup.symmetric(3), "graph")
        assert v.is_ci and v.exhaustive

    def test_z8_digraph_witness(self):
        v = is_ci_group(FiniteGroup.cyclic(8), "digraph")
        assert not v.is_ci
        assert v.exhaustive
        s1, s2, iso = v.witness
        assert find_isomorphism(cayley(v.group, s1), cayley(v.group, s2)) is not None
        for alpha in v.group.automorphisms():
            assert alpha.image_of_set(s1) != s2

    def test_z9_digraph_witness(self):
        v = is_ci_group(FiniteGroup.cyclic(9), "digraph")
        assert not v.is_ci and v.exhaustive

    def test_z10_digraph_mode_is_ci(self):
        v = is_ci_group(FiniteGroup.cyclic(10), "digraph")
        assert v.is_ci and v.exhaustive

    @pytest.mark.parametrize(
        "spec,expected",
        [("Z8", True), ("Z2xZ4", False), ("Z2xZ2xZ2", True), ("D4", False), ("Q8", True)],
    )
    def test_order_eight_graph_mode_classification(self, spec, expected):
        # Z8 is CI for graphs but not digraphs; the involution-singleton
        # witnesses of Z2xZ4 and D4 are inverse-closed, so those two fail
        # in both modes.
        v = is_ci_group(parse_group_spec(spec), "graph")
        assert v.exhaustive
        assert v.is_ci == expected

    def test_budget_marks_non_exhaustive(self):
        v = is_ci_group(FiniteGroup.cyclic(6), "digraph", budget=5)
        assert v.pairs_checked == 5
        assert not v.exhaustive

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match="budget"):
            is_ci_group(FiniteGroup.cyclic(6), "digraph", budget=budget)


class TestSweepAgainstPairLoop:
    """`is_ci_group` against the loop with one search per pair, which pins
    `pairs_checked` and `exhaustive` for budgets around every boundary."""

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(11)])
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_every_budget(self, spec, mode):
        g = parse_group_spec(spec)
        full = oracles.pairwise_ci_sweep(g, mode)
        assert is_ci_group(g, mode).to_json() == full.to_json()
        p = full.pairs_checked
        for budget in sorted({1, 2, 3, p // 2, p - 1, p, p + 1}):
            if budget < 1:
                continue
            assert (
                is_ci_group(g, mode, budget).to_json()
                == oracles.pairwise_ci_sweep(g, mode, budget).to_json()
            ), budget

    @pytest.mark.parametrize("spec", ["Z12", "A4"])
    def test_distinct_keys_leave_no_search(self, spec, monkeypatch):
        # Every representative of these groups has its own rooted key, so
        # the sweep decides all pairs without one isomorphism search.
        calls = []
        monkeypatch.setattr(cig.ci, "find_isomorphism", lambda *args: calls.append(args))
        v = is_ci_group(parse_group_spec(spec), "digraph")
        assert v.is_ci and v.exhaustive and calls == []

    def test_witness_asks_the_set_transporter_once(self, monkeypatch):
        # Distinct representatives have no automorphic image of each other,
        # so only `_reverify_witness` asks the transporter, and `ci_pair`
        # never runs.
        calls = []
        search = cig.ci.automorphic_image_search

        def counted(*args):
            calls.append(args)
            return search(*args)

        def pair(*args):
            raise AssertionError("ci_pair called by the sweep")

        monkeypatch.setattr(cig.ci, "automorphic_image_search", counted)
        monkeypatch.setattr(cig.ci, "ci_pair", pair)
        v = is_ci_group(FiniteGroup.cyclic(8), "digraph")
        assert v.witness[:2] == ({1, 2, 5}, {1, 5, 6})
        assert len(calls) == 1


# Relabellings of each group: the catalog numbering (None) and two seeds.
RELABELLINGS = [None, 1, 2]


def _labelled(spec, seed):
    g = parse_group_spec(spec)
    return g if seed is None else oracles.relabelled_group(g, random.Random(f"{spec}/{seed}"))


class TestSweepAgainstUnreduced:
    """The sweep lists and searches only loop-free connection sets of at
    most (n-1)/2 elements, and reconstructs the rest of the scan from
    them; the unreduced sweep lists every orbit representative."""

    @pytest.mark.parametrize("spec", C9_SPECS)
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_same_verdict_witness_and_counts(self, spec, mode):
        for seed in RELABELLINGS:
            g = _labelled(spec, seed)
            full = oracles.unreduced_ci_sweep(g, mode)
            assert is_ci_group(g, mode).to_json() == full.to_json(), seed
            if g.order > 12:
                continue
            w = full.pairs_checked
            total = sum(
                m * (m - 1) // 2
                for m in Counter(map(len, oracles.orbit_representatives(g, mode))).values()
            )
            for budget in sorted(b for b in {1, w - 1, w, w + 1, total} if b >= 1):
                assert (
                    is_ci_group(g, mode, budget).to_json()
                    == oracles.unreduced_ci_sweep(g, mode, budget).to_json()
                ), (seed, budget)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_class_sizes_from_loop_free_representatives(self, spec, mode):
        # The looped representatives of size k are {e} + the loop-free ones
        # of size k - 1, and complements pair sizes k and n - 1 - k.
        g = parse_group_spec(spec)
        n = g.order
        full = oracles.orbit_representatives(g, mode)
        reps = cig.ci._loop_free_representatives(g, mode, Limits())
        assert len(reps) == (n - 1) // 2 + 1
        for k in range(n + 1):
            looped = [r for r in full if len(r) == k and 0 in r]
            loop_free = [r for r in full if len(r) == k and 0 not in r]
            below = [r for r in full if len(r) == k - 1 and 0 not in r]
            assert looped == [r | {0} for r in below], k
            if k < len(reps):
                assert reps[k] == loop_free, k
        assert cig.ci._class_sizes(reps, n) == [
            sum(len(r) == k for r in full) for k in range(n + 1)
        ]

    def test_no_looped_or_large_set_is_keyed(self, monkeypatch):
        listed, keyed = [], []
        cayley_, rooted_key_ = cig.ci.cayley, cig.ci.rooted_key

        def spy_cayley(group, s):
            listed.append((group.order, frozenset(s)))
            return cayley_(group, s)

        def spy_key(d, limits):
            keyed.append((d.order, d.loop_count, d.arc_count // d.order))
            return rooted_key_(d, limits)

        monkeypatch.setattr(cig.ci, "cayley", spy_cayley)
        monkeypatch.setattr(cig.ci, "rooted_key", spy_key)
        for spec in [s for s, _ in catalog_specs(12)] + ["Z16", "D8"]:
            for mode in ("digraph", "graph"):
                is_ci_group(parse_group_spec(spec), mode)
        assert listed and keyed
        assert all(0 not in s and len(s) <= (n - 1) // 2 for n, s in listed)
        assert all(loops == 0 and degree <= (n - 1) // 2 for n, loops, degree in keyed)


class TestNeighbourhoodBucketing:
    """Each size's representatives are grouped by `neighbourhood_key`, and
    only a group of two or more is split further by `rooted_key`."""

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_pairs_are_the_unreduced_pairs_sharing_both_keys(self, spec, mode):
        for seed in RELABELLINGS[:2]:
            g = _labelled(spec, seed)
            n = g.order
            classes = oracles.representative_classes(g, mode)
            expected = [
                (position, s1, s2)
                for position, s1, s2, d1, d2 in oracles._unreduced_same_key_pairs(
                    g, classes, Limits()
                )
                if 0 not in s1 | s2
                and len(s1) <= (n - 1) // 2
                and neighbourhood_key(d1) == neighbourhood_key(d2)
            ]
            reps = cig.ci._loop_free_representatives(g, mode, Limits())
            sizes = cig.ci._class_sizes(reps, n)
            assert [
                (position, s1, s2)
                for position, s1, s2, _, _ in cig.ci._same_key_pairs(g, reps, sizes, Limits())
            ] == expected, seed

    def test_rooted_keys_only_where_neighbourhood_keys_tie(self, monkeypatch):
        keyed = []
        rooted_key_ = cig.ci.rooted_key

        def spy_key(d, limits):
            keyed.append(d.out_masks)
            return rooted_key_(d, limits)

        monkeypatch.setattr(cig.ci, "rooted_key", spy_key)
        skipped = 0
        for spec in [s for s, _ in catalog_specs(12)] + ["Z16", "D8"]:
            for mode in ("digraph", "graph"):
                g = parse_group_spec(spec)
                reps = cig.ci._loop_free_representatives(g, mode, Limits())
                keyed.clear()
                sizes = cig.ci._class_sizes(reps, g.order)
                for _ in cig.ci._same_key_pairs(g, reps, sizes, Limits()):
                    pass
                tied = []
                for same_size in reps:
                    digraphs = [cayley(g, r) for r in same_size]
                    profiles = Counter(map(neighbourhood_key, digraphs))
                    tied += [d.out_masks for d in digraphs if profiles[neighbourhood_key(d)] > 1]
                    if len(same_size) > 1:
                        skipped += sum(c == 1 for c in profiles.values())
                assert sorted(keyed) == sorted(tied), (spec, mode)
        assert skipped > 0


# The groups whose representative listings are compared with the oracles:
# the catalog to order 12 and seven groups of order 16.
LISTING_SPECS = [s for s, _ in catalog_specs(12)] + [
    "Z16", "Z2xZ8", "Z4xZ4", "D8", "Q8xZ2", "Z2xD4", "Z2xZ2xZ2xZ2",
]
# Digraph sweeps past order 16, inside the sweep bound.
PAST_SIXTEEN_SPECS = ["Z17", "Z18", "D9", "S3xZ3", "Z3xZ6"]


class TestRepresentativeListing:
    """The sweep lists its sets as int bitmasks; the frozenset listing it
    replaced gives the same representatives in the same order."""

    @pytest.mark.parametrize("spec", LISTING_SPECS)
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_bitmask_listing_matches_frozenset_listing(self, monkeypatch, spec, mode):
        for seed in RELABELLINGS:
            g = _labelled(spec, seed)
            # Both listings image their sets under one listing of Aut(G).
            automorphisms = g.automorphisms()
            monkeypatch.setattr(g, "automorphisms", lambda limits: automorphisms)
            assert cig.ci._loop_free_representatives(
                g, mode, Limits()
            ) == oracles.frozenset_loop_free_representatives(g, mode), seed


class TestRepresentativeCounts:
    """The representative counts against the Cauchy-Frobenius lemma, which
    counts orbits without listing a set."""

    @pytest.mark.parametrize(
        "spec,mode",
        [(s, mode) for s in LISTING_SPECS for mode in ("digraph", "graph")]
        + [(s, "digraph") for s in PAST_SIXTEEN_SPECS],
    )
    def test_class_sizes_follow_the_lemma(self, spec, mode):
        g = parse_group_spec(spec)
        reps = cig.ci._loop_free_representatives(g, mode, Limits())
        loop_free = oracles.burnside_class_sizes(g, mode, loop_free=True)
        assert [len(r) for r in reps] == loop_free[: len(reps)]
        sizes = oracles.burnside_class_sizes(g, mode)
        assert cig.ci._class_sizes(reps, g.order) == sizes
        total = sum(m * (m - 1) // 2 for m in sizes)
        v = group_sweep(spec, mode)
        assert v.exhaustive
        if v.is_ci:
            assert v.pairs_checked == total
        else:
            assert v.pairs_checked < total


class TestSweepAgainstTheory:
    # Digraph mode runs to Z20; past it the sweep refuses to list the sets.
    # Graph mode runs on to Z24 under the default limits, and to Z31 (but
    # not Z30, which takes seconds) with Aut(G) listed past order 24: Z18 is
    # CI for graphs but not for digraphs, Z24, Z25 and Z27 are not CI.
    @pytest.mark.parametrize(
        "mode,n",
        [(mode, n) for mode in ("digraph", "graph") for n in range(1, 17)]
        + [("digraph", n) for n in (17, 18, 19, 20)]
        + [("graph", n) for n in (*range(17, 30), 31)],
    )
    def test_cyclic_groups_follow_muzychuk(self, n, mode):
        v = is_ci_group(FiniteGroup.cyclic(n), mode, limits=Limits(aut=max(n, 24)))
        assert v.exhaustive
        assert v.is_ci == oracles.muzychuk_is_ci(n, mode)

    def test_elementary_abelian_rank_four_is_ci(self):
        # Hirasaka & Muzychuk, "An elementary abelian group of rank 4 is a
        # CI-group", JCTA 2001.
        v = is_ci_group(parse_group_spec("Z2xZ2xZ2xZ2"), "digraph")
        assert v.is_ci and v.exhaustive

    @pytest.mark.parametrize("spec", ["Z16", "Z2xZ8", "Z4xZ4", "D8"])
    def test_order_sixteen_digraph_witnesses(self, spec):
        # 16! bijections are past brute force: re-verify the witness with
        # the returned map, a fresh search and a scan of all of Aut(G).
        g = parse_group_spec(spec)
        v = is_ci_group(g, "digraph")
        assert not v.is_ci and v.exhaustive
        s1, s2, iso = v.witness
        d1, d2 = cayley(g, s1), cayley(g, s2)
        assert all(
            d1.has_arc(x, y) == d2.has_arc(iso(x), iso(y))
            for x in range(16)
            for y in range(16)
        )
        assert find_isomorphism(d1, d2) is not None
        assert all(alpha.image_of_set(s1) != s2 for alpha in g.automorphisms())


class TestLimits:
    @pytest.mark.parametrize(
        "fields",
        [{"search": 0}, {"aut": -1}, {"search": "40"}, {"aut": True}, {"search": 1.5}],
    )
    def test_rejects_non_positive_ints(self, fields):
        with pytest.raises(ValueError, match="positive int"):
            Limits(**fields)

    @pytest.mark.parametrize(
        "run",
        [
            lambda limits: ci_pair(FiniteGroup.cyclic(6), {1}, {5}, limits=limits),
            lambda limits: is_ci_group(FiniteGroup.cyclic(6), limits=limits),
            # Z8/<4> = Z4: the quotient digraphs are not isomorphic, so only
            # the quotient-level search runs.
            lambda limits: quotient_ci_certificate(
                FiniteGroup.cyclic(8), {0, 4}, {1}, {2}, limits=limits
            ),
            lambda limits: verify_wreath_aut_dichotomy(
                directed_cycle(2), directed_cycle(2), limits=limits
            ),
        ],
    )
    def test_search_cap_takes_effect(self, run):
        with pytest.raises(CapExceeded, match="search cap 3"):
            run(Limits(search=3))

    def test_aut_cap_takes_effect(self):
        with pytest.raises(CapExceeded, match="automorphism cap 5"):
            is_ci_group(FiniteGroup.cyclic(6), limits=Limits(aut=5))

    def test_sweep_refuses_before_listing_automorphisms(self, monkeypatch):
        # Graph mode on Z2^5 would list 2^30 loop-free connection sets of at
        # most 15 elements, and listing its 9,999,360 automorphisms first
        # would take minutes.
        def listing(*args):
            raise AssertionError("Aut(G) listed before the refusal")

        monkeypatch.setattr(FiniteGroup, "automorphisms", listing)
        g = parse_group_spec("Z2xZ2xZ2xZ2xZ2")
        with pytest.raises(
            CapExceeded,
            match="1073741824 connection sets to list is past the sweep bound of 262144",
        ):
            is_ci_group(g, "graph", limits=Limits(aut=40))

    @pytest.mark.parametrize("spec", ["Z20", "D10", "Z2xZ10"])
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_order_twenty_sweeps_pass_the_set_count(self, monkeypatch, spec, mode):
        # A digraph sweep of order 20 lists 2^18 sets, exactly the bound,
        # so it goes on to list Aut(G).
        class Reached(Exception):
            pass

        def listing(*args):
            raise Reached

        monkeypatch.setattr(FiniteGroup, "automorphisms", listing)
        with pytest.raises(Reached):
            is_ci_group(parse_group_spec(spec), mode)

    def test_order_twenty_one_digraph_sweep_is_refused(self, monkeypatch):
        def listing(*args):
            raise AssertionError("Aut(G) listed before the refusal")

        monkeypatch.setattr(FiniteGroup, "automorphisms", listing)
        with pytest.raises(
            CapExceeded,
            match="616666 connection sets to list is past the sweep bound of 262144",
        ):
            is_ci_group(FiniteGroup.cyclic(21), "digraph")

    def test_sweep_refuses_past_the_search_cap_before_any_work(self, monkeypatch):
        # Z2^4 has 2^16 connection sets and 20,160 automorphisms to list
        # before the first rooted key would meet the cap.
        def listing(*args):
            raise AssertionError("Aut(G) listed before the refusal")

        monkeypatch.setattr(FiniteGroup, "automorphisms", listing)
        g = parse_group_spec("Z2xZ2xZ2xZ2")
        with pytest.raises(CapExceeded, match="digraph order 16 exceeds search cap 10"):
            is_ci_group(g, limits=Limits(search=10))

    def test_wreath_product_is_refused_before_any_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("searched before the refusal")

        monkeypatch.setattr(cig.ci, "automorphism_group_of", search)
        with pytest.raises(CapExceeded, match="49 vertices exceeds search cap 40"):
            verify_wreath_aut_dichotomy(directed_cycle(7), directed_cycle(7))


class TestPastTwentyFourVertices:
    """Answers above 24 vertices, inside the default search cap of 40."""

    @pytest.mark.parametrize(
        "n,k,s1,s2", [(25, 5, 1, 2), (28, 7, 1, 3), (32, 16, 1, 3), (40, 20, 1, 3)]
    )
    def test_cyclic_certificate_is_accepted(self, n, k, s1, s2):
        # Coset i of <k> holds i, so the quotient sets are {s1} and {s2}.
        g = FiniteGroup.cyclic(n)
        cert = quotient_ci_certificate(g, g.subgroup_generated([k]), {s1}, {s2})
        assert cert.accepted, cert.failing_checks()
        assert cert.alpha == oracles.first_automorphic_image(
            g, cert.lift1.connection, cert.lift2.connection, Limits(aut=40)
        )

    @pytest.mark.parametrize(
        "spec,kernel,s1,s2",
        [("Z2xZ16", {0, 16}, {1}, {3}), ("D16", {0, 8}, {1}, {7})],
        ids=["Z2xZ16", "D16"],
    )
    def test_noncyclic_certificate_is_accepted(self, spec, kernel, s1, s2):
        g = parse_group_spec(spec)
        cert = quotient_ci_certificate(g, kernel, s1, s2)
        assert cert.accepted, cert.failing_checks()

    def test_lifted_z40_automorphism_group(self):
        # The lift of a directed 20-cycle over <20> is C20 wr (empty 2),
        # whose automorphism group is Z20 wr S2.
        g = FiniteGroup.cyclic(40)
        lift = lift_connection_set(g, g.subgroup_generated([20]), {1})
        assert automorphism_group_of(cayley(g, lift.connection)).order == 20 * 2**20

    def test_z32_pair_is_ci_equivalent(self):
        res = ci_pair(FiniteGroup.cyclic(32), {1, 2}, {3, 6})
        assert res.verdict == "ci_equivalent"
        assert res.alpha.image_of_set({1, 2}) == {3, 6}


class TestLift:
    def test_z6_non_decomposable(self):
        lift = lift_connection_set(FiniteGroup.cyclic(6), {0, 3}, {1})
        assert lift.case == "non_decomposable"
        assert lift.connection == frozenset({1, 3, 4})

    def test_z4_decomposable(self):
        lift = lift_connection_set(FiniteGroup.cyclic(4), {0, 2}, {1})
        assert lift.case == "decomposable"
        assert lift.connection == frozenset({1, 3})

    def test_z4_empty_set(self):
        lift = lift_connection_set(FiniteGroup.cyclic(4), {0, 2}, set())
        assert lift.case == "non_decomposable"
        assert lift.connection == frozenset({2})

    def test_requires_normal_subgroup(self):
        s3 = FiniteGroup.symmetric(3)
        transposition = next(x for x in range(6) if s3.element_order(x) == 2)
        with pytest.raises(ValueError, match="not normal"):
            lift_connection_set(s3, {0, transposition}, {1})

    def test_intra_coset_arcs_follow_case(self):
        rng = random.Random(61)
        for _ in range(40):
            g = parse_group_spec(rng.choice(["Z6", "Z8", "Z2xZ4", "Q8", "D4"]))
            subgroups = [h for h in g.normal_subgroups() if 1 < len(h) < g.order]
            if not subgroups:
                continue
            h = rng.choice(subgroups)
            q = g.quotient(h)
            s_q = frozenset(
                i for i in range(1, q.target.order) if rng.random() < 0.5
            )  # loopless instances here
            lift = lift_connection_set(g, h, s_q)
            d = cayley(g, lift.connection)
            for cls in lift.coset_partition.classes:
                pairs = [(x, y) for x in cls for y in cls if x != y]
                if lift.case == "non_decomposable":
                    assert all(d.has_arc(x, y) for x, y in pairs)
                else:
                    assert not any(d.has_arc(x, y) for x, y in pairs)

    def test_inter_coset_arcs_depend_only_on_coset_pair(self):
        g = parse_group_spec("Q8")
        for h in g.normal_subgroups():
            if not 1 < len(h) < 8:
                continue
            q = g.quotient(h)
            lift = lift_connection_set(g, h, {i for i in range(q.target.order) if i % 2})
            d = cayley(g, lift.connection)
            classes = lift.coset_partition.classes
            for ci in classes:
                for cj in classes:
                    if ci is cj:
                        continue
                    arcs = {d.has_arc(x, y) for x in ci for y in cj}
                    assert len(arcs) == 1


def lift_report(qmap, s_quotient):
    """`verify_lift_structure` with the quotient digraph and its automorphism
    group found here, as a certificate finds them for its first side."""
    dq = cayley(qmap.target, frozenset(s_quotient))
    return verify_lift_structure(qmap, s_quotient, dq, automorphism_group_of(dq))


def lifted_aut_order(group, report) -> int:
    return automorphism_group_of(cayley(group, report.lift.connection)).order


class TestLiftStructure:
    def test_z6_wreath_identity(self):
        z6 = FiniteGroup.cyclic(6)
        report = lift_report(z6.quotient({0, 3}), {1})
        assert all(report.checks.values())
        assert lifted_aut_order(z6, report) == 24

    def test_z4_empty_set_structure(self):
        z4 = FiniteGroup.cyclic(4)
        report = lift_report(z4.quotient({0, 2}), set())
        assert all(report.checks.values())
        assert lifted_aut_order(z4, report) == 8

    def test_z4_full_coset_structure(self):
        z4 = FiniteGroup.cyclic(4)
        report = lift_report(z4.quotient({0, 2}), {1})
        assert all(report.checks.values())
        assert lifted_aut_order(z4, report) == 8

    def test_one_twin_pass_per_digraph(self, monkeypatch):
        # The quotient digraph's automorphism group, the lift's case and the
        # block and group checks read classes computed once, on dq.  No pass
        # runs on the |G| points, whether or not the lifted twin classes are
        # the cosets.
        calls = []
        twin_labels = cig.digraphs._kernels.twin_labels
        monkeypatch.setattr(
            cig.digraphs._kernels,
            "twin_labels",
            lambda out, into: calls.append(out) or twin_labels(out, into),
        )
        z6 = FiniteGroup.cyclic(6)
        report = lift_report(z6.quotient({0, 3}), {1})
        assert all(report.checks.values())
        assert len(calls) == len(set(calls)) == 1
        assert [len(out) for out in calls] == [3]
        # Z4 over {0, 2} with S = {0, 1}: the lift is K4 with every loop,
        # one twin class, read from dq's.
        calls.clear()
        report = lift_report(FiniteGroup.cyclic(4).quotient({0, 2}), {0, 1})
        assert not report.checks["unique_block_system"]
        assert len(calls) == len(set(calls)) == 1
        assert [len(out) for out in calls] == [2]


def lift_check(qmap, s_quotient):
    """`verify_lift_structure`'s checks, given dq and Aut(dq) found here, and
    the Aut(lifted) that `oracles.built_lift_structure` builds from the same
    dq and Aut(dq): lifted over the cosets when they are the twin classes,
    searched otherwise.  The library's checks, which build and search
    nothing on |G| points, must equal that oracle's, which builds both
    groups and tests every generator of each."""
    dq = cayley(qmap.target, frozenset(s_quotient))
    aut_q = automorphism_group_of(dq)
    report = verify_lift_structure(qmap, s_quotient, dq, aut_q)
    checks, aut_lifted = oracles.built_lift_structure(qmap, s_quotient, dq, aut_q)
    assert report.checks == checks, (sorted(qmap.kernel), sorted(s_quotient))
    return report.checks, aut_lifted


def lift_sample(spec):
    """Each proper non-trivial normal subgroup of the group with every
    quotient set, or 64 seeded ones where the quotient has more than 6
    elements; with each, whether the two-search check searched dq twice
    from equal inputs or the lifted twin classes are not the cosets, so
    that both checks run the same searches."""
    g = parse_group_spec(spec)
    rng = random.Random(spec)
    for h in g.normal_subgroups():
        if not 1 < len(h) < g.order:
            continue
        qmap = g.quotient(h)
        q = qmap.target.order
        codes = range(1 << q) if q <= 6 else [rng.getrandbits(q) for _ in range(64)]
        for code in codes:
            s = {x for x in range(q) if code >> x & 1}
            dq = cayley(qmap.target, s)
            lifted = cayley(g, lift_connection_set(g, h, s).connection)
            reused = PointPartition(g.order, lifted.twin_classes()) == qmap.cosets
            yield qmap, s, not reused or len(dq.twin_classes()) == dq.order


def same_group_over(a, b, cosets) -> bool:
    """Whether two generating sets of permutations that keep `cosets`, each
    with Sym of one coset per orbit among its generators, generate the same
    group: the same action on the cosets, by closure, and the same
    generators that fix every coset.  Each group then holds Sym of every
    coset and is the whole preimage of that action."""

    def on_cosets(group):
        bars = [cosets.induced(g) for g in group.generators]
        return oracles.closure(PermGroup(bars, degree=len(cosets), order=1))

    def fixing_cosets(group):
        identity = tuple(range(len(cosets)))
        return [g for g in group.generators if cosets.induced(g).images == identity]

    return on_cosets(a) == on_cosets(b) and fixing_cosets(a) == fixing_cosets(b)


def search_dropping_its_last_generator(search):
    """`_search_automorphisms` broken on purpose: its last generator goes,
    and the order shrinks to that of the generators left."""

    def broken(d, initial):
        found = search(d, initial)
        if not found.generators:
            return found
        kept = found.generators[:-1]
        order = len(oracles.closure(PermGroup(kept, degree=d.order, order=1)))
        return PermGroup(kept, degree=d.order, order=order)

    return broken


class TestOneSearchOfTheQuotient:
    """When the lifted twin classes are the cosets, Aut(lifted) lifts the
    Aut(dq) already found over the cosets instead of searching dq again."""

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_same_checks_and_group_as_two_searches(self, spec):
        for qmap, s, same_searches in lift_sample(spec):
            checks, aut = lift_check(qmap, s)
            two_checks, two_aut = oracles.two_search_lift_structure(qmap, s)
            instance = (spec, sorted(qmap.kernel), sorted(s))
            assert checks == two_checks, instance
            assert aut.order == two_aut.order, instance
            if same_searches:
                assert aut.generators == two_aut.generators, instance
            else:
                # dq with twins: Aut(dq) through its twin quotient, lifted,
                # against dq searched as it is, lifted.
                assert same_group_over(aut, two_aut, qmap.cosets), instance

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_a_broken_search_reads_as_before_or_fails_the_route_comparison(
        self, spec, monkeypatch
    ):
        # Where the two-search check ran equal searches, one search sees
        # what two saw.  Elsewhere the two-search check also compared two
        # routes to Aut(dq); where that alone caught the broken search, the
        # route comparison of tests/test_iso.py catches it.
        search = search_dropping_its_last_generator(cig.iso._search_automorphisms)
        monkeypatch.setattr(cig.iso, "_search_automorphisms", search)
        for qmap, s, same_searches in lift_sample(spec):
            checks, aut = lift_check(qmap, s)
            two_checks, two_aut = oracles.two_search_lift_structure(qmap, s)
            instance = (spec, sorted(qmap.kernel), sorted(s))
            if same_searches:
                assert checks == two_checks, instance
                assert aut.generators == two_aut.generators, instance
                assert aut.order == two_aut.order, instance
            elif checks != two_checks:
                dq = cayley(qmap.target, s)
                unreduced = cig.iso._search_automorphisms(dq, [0] * dq.order)
                assert automorphism_group_of(dq).order != unreduced.order, instance

    @pytest.mark.parametrize(
        "n, kernel, s, searches",
        [
            (6, {0, 3}, {1}, 1),  # twin classes are the cosets
            (4, {0, 2}, {1}, 0),  # the same, and dq = K2 is one twin class
            (4, {0, 2}, {0, 1}, 0),  # the looped K4 over the looped K2: one class each
        ],
    )
    def test_search_count(self, n, kernel, s, searches, monkeypatch):
        calls = []
        search = cig.iso._search_automorphisms
        monkeypatch.setattr(
            cig.iso,
            "_search_automorphisms",
            lambda d, initial: calls.append(d) or search(d, initial),
        )
        # The search of dq that gives Aut(dq), none where dq is one twin
        # class; the lift check runs none.
        lift_report(FiniteGroup.cyclic(n).quotient(kernel), s)
        assert len(calls) == searches

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_lifted_digraph_induces_dq_on_the_coset_minima(self, spec):
        # The lemma behind the reuse, which holds for every lift: with the
        # twin classes the cosets, the twin quotient is dq in one colour.
        sides = reused = 0
        for qmap, s, _ in lift_sample(spec):
            sides += 1
            dq = cayley(qmap.target, s)
            lift = lift_connection_set(qmap.source, qmap.kernel, s)
            lifted = cayley(qmap.source, lift.connection)
            cosets = lift.coset_partition
            assert lifted.induced(c[0] for c in cosets.classes) == dq
            assert len({lifted.has_arc(c[0], c[1]) for c in cosets.classes}) == 1
            reused += PointPartition(lifted.order, lifted.twin_classes()) == cosets
        assert reused or not sides


@lru_cache(maxsize=None)
def automorphism_set(d: Digraph) -> frozenset[tuple[int, ...]]:
    # Cached: across kernels, the looped complete and the empty lifts repeat.
    return frozenset(oracles.enumerated_automorphisms(d))


def wreath_closure(report, dq) -> set[tuple[int, ...]]:
    """Every element of Aut(dq) wr S_block, with Aut(dq) from enumeration,
    as image tuples on the group's elements: each acts on the pair space,
    whose fibers are the cosets in rank order."""
    aut_q = [Perm(p) for p in oracles.enumerated_automorphisms(dq)]
    outer = PermGroup(aut_q, order=len(aut_q), degree=dq.order)
    pairs = oracles.wreath_product(outer, oracles.symmetric_group(report.lift.block_size))
    to_pair = report.lift.coset_partition.fiber_images()
    from_pair = oracles.inverse(to_pair)
    return {
        tuple(from_pair[w[to_pair[x]]] for x in range(len(to_pair)))
        for w in oracles.closure(pairs)
    }


class TestLiftStructureAgainstClosures:
    """Each automorphism-level check of `verify_lift_structure` is the set
    relation it names, between Aut(lifted) and the wreath group, both listed
    element by element."""

    @staticmethod
    def assert_checks_are_set_relations(group, kernel, s_quotient):
        qmap = group.quotient(kernel)
        report = lift_report(qmap, s_quotient)
        dq = cayley(qmap.target, s_quotient)
        lifted = cayley(group, report.lift.connection)
        aut = automorphism_set(lifted)
        wreath = wreath_closure(report, dq)
        expected_order = (
            automorphism_group_of(dq).order
            * factorial(report.lift.block_size) ** dq.order
        )
        assert automorphism_group_of(lifted).order == len(aut)
        assert expected_order == len(wreath)
        assert report.checks["aut_order_equal"] == (len(aut) == len(wreath))
        assert report.checks["wreath_generators_in_aut"] == (wreath <= aut)
        assert report.checks["aut_inside_wreath"] == (aut <= wreath)
        return report, len(aut), len(wreath)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(8)])
    def test_every_kernel_and_quotient_set(self, spec):
        g = parse_group_spec(spec)
        for h in g.normal_subgroups():
            if 1 < len(h) < g.order:
                q = g.order // len(h)
                for m in range(1 << q):
                    s = {x for x in range(q) if m >> x & 1}
                    self.assert_checks_are_set_relations(g, h, s)

    def test_looped_quotient_outgrows_the_wreath_group(self):
        # Z4 over {0, 2} with S = {0, 1}: the lift is K4 with every loop,
        # whose 24 automorphisms are more than the wreath group's 8.
        report, aut_order, wreath_order = self.assert_checks_are_set_relations(
            FiniteGroup.cyclic(4), {0, 2}, {0, 1}
        )
        assert (aut_order, wreath_order) == (24, 8)
        assert report.checks["wreath_generators_in_aut"]
        assert not report.checks["aut_order_equal"]
        assert not report.checks["aut_inside_wreath"]


class TestUniqueBlockPartition:
    def test_z6_cosets(self):
        aut = automorphism_group_of(cayley(FiniteGroup.cyclic(6), {1, 3, 4}))
        cosets = PointPartition(6, [[0, 3], [1, 4], [2, 5]])
        assert oracles.brute_block_systems(aut, 2) == [cosets]

    def test_z4_cosets(self):
        aut = automorphism_group_of(cayley(FiniteGroup.cyclic(4), {2}))
        cosets = PointPartition(4, [[0, 2], [1, 3]])
        assert oracles.brute_block_systems(aut, 2) == [cosets]

    def test_primitive_group_fails(self):
        assert oracles.brute_block_systems(oracles.symmetric_group(4), 2) != [
            PointPartition(4, [[0, 1], [2, 3]])
        ]

    def test_multiple_systems_fail(self):
        # The regular Klein four-group has one size-2 system per order-2
        # subgroup, so uniqueness fails even though the expected one exists.
        klein = oracles.regular_representation(parse_group_spec("Z2xZ2"))
        systems = oracles.brute_block_systems(klein, 2)
        assert len(systems) == 3
        assert systems != [PointPartition(4, [[0, 1], [2, 3]])]

    def test_structural_wreath_membership(self):
        def in_wreath(images, partition, quotient):
            # The aut_inside_wreath test of verify_lift_structure.
            bar = partition.induced(Perm(images))
            return bar is not None and quotient.relabel(bar.images) == quotient

        cosets = PointPartition(4, [[0, 1], [2, 3]])
        quotient = Digraph.complete(2)
        # Swapping the two classes and fixing insides is in the wreath group.
        assert in_wreath((2, 3, 0, 1), cosets, quotient)
        # Any within-class shuffle is too.
        assert in_wreath((1, 0, 2, 3), cosets, quotient)
        # A map splitting a class across two classes is not.
        assert not in_wreath((0, 2, 1, 3), cosets, quotient)
        # Class-preserving but quotient-arc-breaking maps are not, either.
        path = oracles.from_arcs(2, [(0, 1)])
        assert not in_wreath((2, 3, 0, 1), cosets, path)


def oracle_says_unique(group, report) -> bool:
    """Whether the cosets are the only block system of their size of
    Aut(lifted): by the element scan for groups of at most 5000 elements,
    by the union-find on the generators past that."""
    aut = automorphism_group_of(cayley(group, report.lift.connection))
    size = report.lift.block_size
    if aut.order <= 5000:
        systems = oracles.brute_block_systems(aut, size)
    else:
        systems = oracles.union_find_block_systems(aut, size)
    return systems == [report.lift.coset_partition]


class TestUniqueBlockSystemAgainstOracles:
    """`unique_block_system` reads the lifted twin classes (from dq's); it must
    say what the block systems of Aut(lifted) say."""

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_every_kernel_with_seeded_sets(self, spec):
        # The empty set lifts to disjoint cliques on the cosets (unique),
        # the whole quotient to the looped complete digraph (not unique).
        g = parse_group_spec(spec)
        rng = random.Random(spec)
        outcomes, cases = set(), set()
        for h in g.normal_subgroups():
            if not 1 < len(h) < g.order:
                continue
            qmap = g.quotient(h)
            q = qmap.target.order
            sets = [set(), set(range(q))]
            for looped in (True, True, False, False):
                s = {x for x in range(1, q) if rng.random() < 0.5}
                sets.append(s | {0} if looped else s)
            for s in sets:
                report = lift_report(qmap, s)
                unique = oracle_says_unique(g, report)
                assert report.checks["unique_block_system"] == unique, (
                    spec, sorted(h), sorted(s),
                )
                outcomes.add(unique)
                cases.add(report.lift.case)
        if outcomes:
            assert outcomes == {True, False}
            assert cases == {"decomposable", "non_decomposable"}

    def test_looped_complete_lift_is_not_unique(self):
        # Z4 over {0, 2} with S = {0, 1}: the lift is K4 with every loop,
        # one twin class, and Sym(4) has three block systems of size 2.
        z4 = FiniteGroup.cyclic(4)
        report = lift_report(z4.quotient({0, 2}), {0, 1})
        assert not oracle_says_unique(z4, report)
        assert not report.checks["unique_block_system"]

    def test_trivial_kernel_is_unique_whatever_the_twins(self):
        # Certificates short-circuit a trivial kernel, but the check stays
        # exact: the discrete partition is the one block system of size 1,
        # although the empty Z4 digraph has a single twin class.
        z4 = FiniteGroup.cyclic(4)
        report = lift_report(z4.quotient({0}), set())
        assert oracle_says_unique(z4, report)
        assert report.checks["unique_block_system"]


class TestQuotientCertificate:
    @pytest.mark.parametrize("spec", ["Z16", "Z2xZ8"])
    def test_non_ci_quotient_lifts_to_a_non_ci_witness(self, spec):
        # The contrapositive of the lift argument: G/{0, 8} is Z8, which is
        # not CI at {1,2,5} vs {1,5,6}, so neither is G at the lifted sets.
        g = parse_group_spec(spec)
        cert = quotient_ci_certificate(g, {0, 8}, {1, 2, 5}, {1, 5, 6})
        assert cert.status == "hypothesis_not_ci"
        assert cert.failing_checks() == ["alpha_found"]
        s1, s2 = cert.lift1.connection, cert.lift2.connection
        assert (sorted(s1), sorted(s2)) == (
            [1, 2, 5, 8, 9, 10, 13],
            [1, 5, 6, 8, 9, 13, 14],
        )
        res = ci_pair(g, s1, s2)
        assert res.verdict == "non_ci_witness"
        cig.ci._reverify_witness(g, s1, s2, res.iso)

    @pytest.mark.parametrize(
        "spec,kernel,set1,set2,expected",
        [
            pytest.param(
                "Z2xZ2xZ2", {0, 1}, {1, 2}, {2, 3},
                ("accepted", [], [0, 1, 4, 5, 6, 7, 2, 3], [0, 2, 3, 1],
                 [1, 2, 3, 4, 5], [1, 4, 5, 6, 7]),
                id="accepted",
            ),
            pytest.param(
                "Z8", {0}, {1, 2}, {3, 6},
                ("accepted", [], None, [0, 3, 6, 1, 4, 7, 2, 5], None, None),
                id="degenerate",
            ),
            pytest.param(
                "Z16", {0, 8}, {1, 2, 5}, {1, 5, 6},
                ("hypothesis_not_ci", ["alpha_found"], None, None,
                 [1, 2, 5, 8, 9, 10, 13], [1, 5, 6, 8, 9, 13, 14]),
                id="hypothesis_not_ci",
            ),
        ],
    )
    def test_certificate_lists_no_automorphisms(
        self, monkeypatch, spec, kernel, set1, set2, expected
    ):
        def refuse(self, limits=None):
            raise AssertionError("the certificate listed Aut(G)")

        monkeypatch.setattr(FiniteGroup, "automorphisms", refuse)
        cert = quotient_ci_certificate(parse_group_spec(spec), kernel, set1, set2)
        out = cert.to_json()
        lifts = [lift and lift["connection"] for lift in (out["lift1"], out["lift2"])]
        assert (
            out["status"], cert.failing_checks(), out["alpha"], out["alpha_bar"], *lifts
        ) == expected

    def test_reverify_refuses_a_pair_with_an_automorphic_image(self):
        g = FiniteGroup.cyclic(4)
        negation = Perm((0, 3, 2, 1))
        with pytest.raises(AssertionError, match="automorphic image after all"):
            cig.ci._reverify_witness(g, frozenset({1}), frozenset({3}), negation)

    def test_z6_worked_instance(self):
        cert = quotient_ci_certificate(FiniteGroup.cyclic(6), {0, 3}, {1}, {2})
        assert cert.accepted
        assert cert.lift1.connection == frozenset({1, 3, 4})
        assert cert.lift2.connection == frozenset({2, 3, 5})
        assert cert.alpha.images == (0, 5, 4, 3, 2, 1)
        assert cert.alpha_bar.images == (0, 2, 1)
        assert all(cert.checks.values())

    def test_trivial_kernel_short_circuits(self):
        cert = quotient_ci_certificate(FiniteGroup.cyclic(4), {0}, {1}, {3})
        assert cert.accepted and cert.degenerate

    def test_whole_group_kernel(self):
        g = FiniteGroup.cyclic(4)
        cert = quotient_ci_certificate(g, set(range(4)), {0}, {0})
        assert cert.accepted and cert.degenerate

    def test_equal_sets_accept_with_identity(self):
        cert = quotient_ci_certificate(FiniteGroup.cyclic(4), {0, 2}, {1}, {1})
        assert cert.accepted
        assert cert.alpha.images == tuple(range(4))

    def test_non_isomorphic_quotients_short_circuit(self):
        cert = quotient_ci_certificate(FiniteGroup.cyclic(8), {0, 4}, {1}, {2})
        assert cert.status == "quotient_not_isomorphic"
        assert not cert.accepted

    def test_lift_cases_agree_for_isomorphic_quotients(self):
        g = parse_group_spec("Z2xZ2xZ2")
        h = g.subgroup_generated([1])
        q = g.quotient(h)
        sets = [frozenset(s) for s in [{1}, {2}, {3}, {1, 2}, {1, 2, 3}]]
        for s1 in sets:
            for s2 in sets:
                if find_isomorphism(cayley(q.target, s1), cayley(q.target, s2)):
                    cert = quotient_ci_certificate(g, h, s1, s2)
                    assert cert.checks["lift_cases_agree"]

    def test_fully_looped_quotient_is_rejected_with_named_checks(self):
        # The anticipated corner: identity coset present and the loopless
        # part has clique twins; the wreath-equality shortcut fails and the
        # certificate must say exactly where.
        cert = quotient_ci_certificate(FiniteGroup.cyclic(4), {0, 2}, {0, 1}, {0, 1})
        assert cert.status == "rejected"
        failing = set(cert.failing_checks())
        assert "aut_wreath_equality_side1" in failing
        assert "unique_block_system_side1" in failing

    def test_json_round_trip_fields(self):
        cert = quotient_ci_certificate(FiniteGroup.cyclic(6), {0, 3}, {1}, {2})
        blob = cert.to_json()
        assert blob["accepted"] is True
        assert blob["lift1"]["case"] == "non_decomposable"
        assert blob["alpha"] == [0, 5, 4, 3, 2, 1]
        assert set(blob["checks"]) == set(cert.checks)

    def test_serialization_matches_snapshot(self):
        import json
        from pathlib import Path

        cert = quotient_ci_certificate(FiniteGroup.cyclic(6), {0, 3}, {1}, {2})
        snapshot = json.loads(
            (Path(__file__).parent / "snapshots" / "z6_certificate.json").read_text()
        )
        assert cert.to_json() == snapshot

    def test_graph_mode_validates_sets(self):
        g = FiniteGroup.cyclic(8)
        with pytest.raises(ValueError, match="inverse-closed"):
            quotient_ci_certificate(g, {0, 4}, {1}, {1}, mode="graph")

    def test_graph_mode_worked_instance(self):
        g = FiniteGroup.cyclic(8)
        cert = quotient_ci_certificate(g, {0, 4}, {1, 3}, {1, 3}, mode="graph")
        assert cert.accepted


def isomorphic_quotient_pairs(spec, mode):
    """(qmap, s1, s2) for each proper non-trivial normal subgroup of the
    group and each pair of quotient sets, equal sets included, whose Cayley
    digraphs are isomorphic; graph mode takes the inverse-closed sets."""
    g = parse_group_spec(spec)
    for h in g.normal_subgroups():
        if not 1 < len(h) < g.order:
            continue
        qmap = g.quotient(h)
        q = qmap.target.order
        classes = []  # per isomorphism class, its (set, digraph) pairs
        for code in range(1 << q):
            s = frozenset(x for x in range(q) if code >> x & 1)
            if mode == "graph" and not qmap.target.is_inverse_closed(s):
                continue
            d = cayley(qmap.target, s)
            for members in classes:
                if find_isomorphism(members[0][1], d) is not None:
                    members.append((s, d))
                    break
            else:
                classes.append([(s, d)])
        for members in classes:
            for (s1, _), (s2, _) in combinations_with_replacement(members, 2):
                yield qmap, s1, s2


class TestOneQuotientSearchPerCertificate:
    """A certificate searches dq1 alone, takes Aut(dq2) as Aut(dq1)
    conjugated by the quotient isomorphism phi, and its checks stand for
    the wreath group with Sym(block) on one fiber per orbit of Aut(dq)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_certificate_equals_the_two_search_oracle(self, spec, mode):
        pairs = 0
        for qmap, s1, s2 in isomorphic_quotient_pairs(spec, mode):
            g, h = qmap.source, qmap.kernel
            cert = quotient_ci_certificate(g, h, s1, s2, mode)
            oracle = oracles.two_search_certificate(g, h, s1, s2, mode)
            assert cert.to_json() == oracle.to_json(), (spec, sorted(h), sorted(s1), sorted(s2))
            pairs += 1
        assert pairs or spec in ("Z1", "Z2", "Z3", "Z5", "Z7", "Z11")

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_conjugated_group_is_aut_of_the_second_quotient(self, spec):
        for qmap, s1, s2 in isomorphic_quotient_pairs(spec, "digraph"):
            dq1, dq2 = cayley(qmap.target, s1), cayley(qmap.target, s2)
            phi = find_isomorphism(dq1, dq2)
            aut2 = cig.ci._conjugated(automorphism_group_of(dq1), phi)
            instance = (spec, sorted(qmap.kernel), sorted(s1), sorted(s2))
            assert aut2.order == len(automorphism_set(dq2)), instance
            assert set(oracles.closure(aut2)) == automorphism_set(dq2), instance

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(8)])
    def test_one_search_of_a_quotient_digraph(self, spec, monkeypatch):
        searched = []
        real = cig.ci.automorphism_group_of
        monkeypatch.setattr(
            cig.ci,
            "automorphism_group_of",
            lambda d, limits: searched.append(d) or real(d, limits),
        )
        for qmap, s1, s2 in isomorphic_quotient_pairs(spec, "digraph"):
            searched.clear()
            quotient_ci_certificate(qmap.source, qmap.kernel, s1, s2)
            q = qmap.target.order
            assert [d for d in searched if d.order == q] == [cayley(qmap.target, s1)]

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(8)])
    def test_fiber_wreath_group_is_the_oracle_wreath_product(self, spec, monkeypatch):
        # The library builds no wreath group and tests no permutation of
        # |G| points; the wreath group its checks stand for is
        # `_lift_over_classes` over the fibers, called here.  `cig.ci` has
        # no name of its own for it, so the spy sees every call.
        assert not hasattr(cig.ci, "_lift_over_classes")
        built, tested = [], []
        real_lift = cig.iso._lift_over_classes
        monkeypatch.setattr(
            cig.iso,
            "_lift_over_classes",
            lambda aut_q, classes, n: built.append(n) or real_lift(aut_q, classes, n),
        )
        real_test = Digraph.is_automorphism
        monkeypatch.setattr(
            Digraph,
            "is_automorphism",
            lambda d, images: tested.append(tuple(images)) or real_test(d, images),
        )
        g = parse_group_spec(spec)
        for h in g.normal_subgroups():
            if not 1 < len(h) < g.order:
                continue
            qmap = g.quotient(h)
            q, b = qmap.target.order, len(h)
            for code in range(1 << q):
                s = {x for x in range(q) if code >> x & 1}
                dq = cayley(qmap.target, s)
                aut_q = automorphism_group_of(dq)
                built.clear()
                tested.clear()
                report = verify_lift_structure(qmap, s, dq, aut_q)
                instance = (spec, sorted(h), sorted(s))
                assert not built, instance
                assert not [t for t in tested if len(t) == g.order], instance
                ranges = [range(i * b, i * b + b) for i in range(q)]
                wreath = real_lift(aut_q, ranges, g.order)
                built_checks = oracles.built_lift_structure(qmap, s, dq, aut_q)[0]
                assert report.checks == built_checks, instance
                expected = oracles.wreath_product(aut_q, oracles.symmetric_group(b))
                assert report.checks["wreath_generators_in_aut"], instance
                assert wreath.order == expected.order, instance
                assert oracles.closure(
                    PermGroup(wreath.generators, order=1, degree=g.order)
                ) == oracles.closure(expected), instance

    def test_lifted_order_is_checked_before_the_quotient_search(self, monkeypatch):
        # Z64 over <32>: the quotient digraphs have 32 vertices, the lifted
        # ones 64, past the default cap of 40.
        def search(*args):
            raise AssertionError("searched before the refusal")

        monkeypatch.setattr(cig.ci, "automorphism_group_of", search)
        with pytest.raises(CapExceeded, match="digraph order 64 exceeds search cap 40"):
            quotient_ci_certificate(FiniteGroup.cyclic(64), {0, 32}, {1}, {3})


def routing_pairs(spec, mode):
    """(qmap, s1, s2) over every normal subgroup of the group, graph mode
    taking inverse-closed sets.  A kernel other than the trivial one takes
    every pair of quotient sets, equal sets included.  The trivial kernel
    takes each set of `trivial_kernel_sample` (closed under inverses in
    graph mode) with its image under a seeded automorphism and with the
    sample's next set of its size, and the sweep's witness where the group
    is not CI."""
    g = parse_group_spec(spec)
    rng = random.Random(f"{spec} {mode}")
    for h in g.normal_subgroups():
        qmap = g.quotient(h)
        q = qmap.target
        if len(h) > 1:
            sets = [
                frozenset(x for x in range(q.order) if code >> x & 1)
                for code in range(1 << q.order)
            ]
            sets = [s for s in sets if mode == "digraph" or q.is_inverse_closed(s)]
            for s1, s2 in combinations_with_replacement(sets, 2):
                yield qmap, s1, s2
            continue
        automorphisms = q.automorphisms()
        last_of_size = {}
        for _, s in trivial_kernel_sample(spec):
            if mode == "graph":
                s |= {q.inv(x) for x in s}
            s = frozenset(s)
            yield qmap, s, rng.choice(automorphisms).image_of_set(s)
            if len(s) in last_of_size:
                yield qmap, last_of_size[len(s)], s
            last_of_size[len(s)] = s
        witness = group_sweep(spec, mode).witness
        if witness is not None:
            yield qmap, witness[0], witness[1]


class TestQuotientIsomorphismRouting:
    """A certificate decides whether its quotient digraphs are isomorphic by
    their neighbourhood keys, then by the set transporter on G/H, then by
    `find_isomorphism`, each step only where the earlier ones leave the
    answer open; a quotient past the search cap is refused before any."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_each_step_runs_only_where_the_earlier_ones_leave_it_open(
        self, spec, mode, monkeypatch
    ):
        transported, searched = [], []
        transport, search = cig.ci.automorphic_image_search, cig.ci.find_isomorphism
        monkeypatch.setattr(
            cig.ci,
            "automorphic_image_search",
            lambda g, s, t: transported.append(g) or transport(g, s, t),
        )
        monkeypatch.setattr(
            cig.ci,
            "find_isomorphism",
            lambda a, b, limits: searched.append(a) or search(a, b, limits),
        )
        routes = Counter()
        for qmap, s1, s2 in routing_pairs(spec, mode):
            g, h, q = qmap.source, qmap.kernel, qmap.target
            dq1, dq2 = cayley(q, s1), cayley(q, s2)
            tied = neighbourhood_key(dq1) == neighbourhood_key(dq2)
            related = oracles.first_automorphic_image(q, s1, s2) is not None
            isomorphic = search(dq1, dq2) is not None
            transported.clear()
            searched.clear()
            cert = quotient_ci_certificate(g, h, s1, s2, mode)
            instance = (spec, sorted(h), sorted(s1), sorted(s2))
            assert (cert.status == "quotient_not_isomorphic") == (not isomorphic), instance
            # Keys that differ run neither the transporter nor the search.
            assert len([t for t in transported if t.table == q.table]) == tied, instance
            assert len(searched) == (tied and not related), instance
            if not 1 < len(h) < g.order:
                # A degenerate kernel transports once, its alpha_bar.
                assert len(transported) == tied, instance
                assert cert.alpha_bar == oracles.first_automorphic_image(q, s1, s2), instance
            elif isomorphic:
                oracle = oracles.two_search_certificate(g, h, s1, s2, mode)
                assert cert.to_json() == oracle.to_json(), instance
            routes[tied, related, isomorphic] += 1
        assert routes[True, True, True] > 0
        assert routes[False, False, False] > 0 or spec == "Z1"

    @pytest.mark.parametrize(
        "group, kernel, s1, s2, status",
        [
            # Z8 over <8>: an 8-cycle against two 4-cycles, keys tied.
            (FiniteGroup.cyclic(16), {0, 8}, {1}, {2}, "quotient_not_isomorphic"),
            # The order-8 circulant witness: isomorphic, no automorphism.
            (FiniteGroup.cyclic(8), {0}, {1, 2, 5}, {1, 5, 6}, "hypothesis_not_ci"),
        ],
    )
    def test_the_search_decides_what_no_automorphism_relates(
        self, group, kernel, s1, s2, status, monkeypatch
    ):
        searched = []
        search = cig.ci.find_isomorphism
        monkeypatch.setattr(
            cig.ci,
            "find_isomorphism",
            lambda a, b, limits: searched.append(a) or search(a, b, limits),
        )
        q = group.quotient(kernel).target
        assert neighbourhood_key(cayley(q, s1)) == neighbourhood_key(cayley(q, s2))
        assert quotient_ci_certificate(group, kernel, s1, s2).status == status
        assert len(searched) == 1

    def test_a_quotient_past_the_cap_is_refused_before_any_step(self, monkeypatch):
        def step(*args):
            raise AssertionError("ran before the refusal")

        for name in ("neighbourhood_key", "automorphic_image_search", "find_isomorphism"):
            monkeypatch.setattr(cig.ci, name, step)
        with pytest.raises(CapExceeded, match="digraph order 48 exceeds search cap 40"):
            quotient_ci_certificate(FiniteGroup.cyclic(48), {0}, {1}, {5})


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def pinned_lifts():
    """(qmap, s1, s2) for each pinned quotient_cert variant with a proper
    non-trivial kernel; the pins are read, never written."""
    pool = json.loads(PINNED.read_text())["quotient_cert"]["pool"]
    for entry in pool:
        g, h = parse_group_spec(entry["group"]), frozenset(entry["kernel"])
        if not 1 < len(h) < g.order:
            continue
        qmap = g.quotient(h)
        for s1, s2, _ in entry["variants"]:
            yield qmap, frozenset(s1), frozenset(s2)


def on_twin_branch(qmap, s) -> bool:
    """Whether the lifted twin classes are the cosets: the lifts on which no
    two fibers merge."""
    lifted = cayley(qmap.source, lift_connection_set(qmap.source, qmap.kernel, s).connection)
    return lifted.twin_classes() == qmap.cosets.classes


def conjugated_backwards(group, phi):
    """phi^-1 group phi, where the certificate needs phi group phi^-1."""
    back = sorted(range(group.degree), key=phi.images.__getitem__)
    return PermGroup(
        [Perm(back[g(phi(y))] for y in range(group.degree)) for g in group.generators],
        order=group.order,
        degree=group.degree,
    )


def with_a_stranger(dq, aut_q):
    """`aut_q` with one more generator, last, that is no automorphism of dq
    (the first transposition that is not), its order kept; None when every
    transposition is an automorphism, as for complete and empty dq."""
    for i, j in combinations(range(dq.order), 2):
        stranger = Perm.from_cycles(dq.order, (i, j))
        if not dq.is_automorphism(stranger.images):
            gens = [*aut_q.generators, stranger]
            return PermGroup(gens, order=aut_q.order, degree=aut_q.degree)
    return None


class TestLiftChecksThatCanFail:
    """Where the lifted twin classes are the cosets, the three group checks
    are one test of each generator of Aut(dq) against dq; it must still fail
    on a group that is not inside Aut(dq), and read as building both groups
    would everywhere."""

    def test_a_generator_outside_aut_dq(self):
        qmap = FiniteGroup.cyclic(6).quotient({0, 3})
        dq = cayley(qmap.target, {1})  # the directed 3-cycle
        aut_q = automorphism_group_of(dq)
        stranger = PermGroup(
            [*aut_q.generators, Perm.from_cycles(3, (1, 2))], order=aut_q.order, degree=3
        )
        assert on_twin_branch(qmap, {1})
        checks = verify_lift_structure(qmap, {1}, dq, stranger).checks
        assert checks == oracles.built_lift_structure(qmap, {1}, dq, stranger)[0]
        assert checks["arc_identity"] and checks["unique_block_system"]
        assert checks["aut_order_equal"]
        assert not checks["wreath_generators_in_aut"]
        assert not checks["aut_inside_wreath"]

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_a_stranger_in_aut_q_reads_as_building_both_groups(self, spec):
        twin_branch = 0
        for qmap, s, _ in lift_sample(spec):
            dq = cayley(qmap.target, s)
            aut_q = with_a_stranger(dq, automorphism_group_of(dq))
            if aut_q is None:
                continue
            checks = verify_lift_structure(qmap, s, dq, aut_q).checks
            built = oracles.built_lift_structure(qmap, s, dq, aut_q)[0]
            instance = (spec, sorted(qmap.kernel), sorted(s))
            assert checks == built, instance
            if on_twin_branch(qmap, s):
                twin_branch += 1
                assert checks["aut_order_equal"], instance
                assert not checks["wreath_generators_in_aut"], instance
                assert not checks["aut_inside_wreath"], instance
        # Groups of prime order have no proper non-trivial kernel; the other
        # four have only quotients of order 2, where every permutation is
        # an automorphism of a Cayley digraph.
        no_stranger = ("Z1", "Z2", "Z3", "Z5", "Z7", "Z11", "Z4", "Z2xZ2", "S3", "D5")
        assert twin_branch or spec in no_stranger

    def test_a_backward_conjugation_fails_the_certificate(self, monkeypatch):
        args = (FiniteGroup.quaternion(), {0, 1}, {0, 1, 2}, {0, 2, 3}, "graph")
        assert quotient_ci_certificate(*args).accepted
        monkeypatch.setattr(cig.ci, "_conjugated", conjugated_backwards)
        cert = quotient_ci_certificate(*args)
        assert cert.failing_checks() == ["aut_wreath_equality_side2"]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_a_backward_conjugation_fails_wherever_it_leaves_aut_dq2(
        self, spec, mode, monkeypatch
    ):
        monkeypatch.setattr(cig.ci, "_conjugated", conjugated_backwards)
        for qmap, s1, s2 in isomorphic_quotient_pairs(spec, mode):
            dq1, dq2 = cayley(qmap.target, s1), cayley(qmap.target, s2)
            backwards = conjugated_backwards(
                automorphism_group_of(dq1), find_isomorphism(dq1, dq2)
            )
            if all(dq2.is_automorphism(g.images) for g in backwards.generators):
                continue
            cert = quotient_ci_certificate(qmap.source, qmap.kernel, s1, s2, mode)
            instance = (spec, sorted(qmap.kernel), sorted(s1), sorted(s2))
            assert not cert.checks["aut_wreath_equality_side2"], instance
            assert not cert.accepted, instance

    def test_pinned_lift_checks_equal_the_two_search_oracle(self):
        # Both sets of every pinned variant, each distinct side once.
        seen = set()
        for qmap, s1, s2 in pinned_lifts():
            for s in (s1, s2):
                if (qmap.source.name, qmap.kernel, s) in seen:
                    continue
                seen.add((qmap.source.name, qmap.kernel, s))
                checks, aut = lift_check(qmap, s)
                two_checks, two_aut = oracles.two_search_lift_structure(qmap, s)
                instance = (qmap.source.name, sorted(qmap.kernel), sorted(s))
                assert checks == two_checks, instance
                assert aut.order == two_aut.order, instance
        assert len(seen) == 272

    def test_pinned_certificates_equal_the_two_search_oracle(self):
        compared = 0
        for qmap, s1, s2 in pinned_lifts():
            g, h = qmap.source, qmap.kernel
            cert = quotient_ci_certificate(g, h, s1, s2)
            if cert.status == "quotient_not_isomorphic":
                continue
            oracle = oracles.two_search_certificate(g, h, s1, s2)
            assert cert.to_json() == oracle.to_json(), (g.name, sorted(h), sorted(s1), sorted(s2))
            compared += 1
        assert compared > 0


class TestOneAlphaFact:
    """alpha, from the set transporter, is an automorphism of G, so it maps
    the cosets onto cosets exactly when alpha(H) = H: the certificate reads
    `alpha_preserves_cosets`, `alpha_fixes_subgroup` and
    `alpha_bar_well_defined` from one induced action, and each must equal
    the oracle's own computation of it."""

    def test_the_three_coset_checks_are_one_fact(self):
        instances = [(qmap, s1, s2, "digraph") for qmap, s1, s2 in pinned_lifts()]
        instances += [
            (qmap, s1, s2, mode)
            for spec, _ in catalog_specs(12)
            for mode in MODES
            for qmap, s1, s2 in isomorphic_quotient_pairs(spec, mode)
        ]
        outcomes = Counter()
        for qmap, s1, s2, mode in instances:
            cert = quotient_ci_certificate(qmap.source, qmap.kernel, s1, s2, mode)
            if cert.alpha is None:
                continue
            checks, alpha_bar = oracles.alpha_coset_checks(qmap, cert.alpha)
            instance = (qmap.source.name, sorted(qmap.kernel), sorted(s1), sorted(s2), mode)
            assert {name: cert.checks[name] for name in checks} == checks, instance
            assert len(set(checks.values())) == 1, instance
            assert cert.alpha_bar == alpha_bar, instance
            outcomes[cert.checks["alpha_fixes_subgroup"]] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


def trivial_kernel_sample(spec):
    """The trivial kernel of the group with every quotient set, or the empty
    set and 63 seeded ones where the group has more than 6 elements: lifts
    with |H| = 1, which certificates short-circuit but
    `verify_lift_structure` takes."""
    g = parse_group_spec(spec)
    qmap = g.quotient({0})
    rng = random.Random(spec)
    codes = (
        range(1 << g.order)
        if g.order <= 6
        else [0, *(rng.getrandbits(g.order) for _ in range(63))]
    )
    for code in codes:
        yield qmap, {x for x in range(g.order) if code >> x & 1}


def cosets_are_brute_twin_classes(qmap, lift) -> bool:
    """Whether the transposition twin classes of Cay(G, T) are the cosets."""
    lifted = cayley(qmap.source, lift.connection)
    labels = oracles.transposition_twin_labels(lifted)
    return oracles.partition_from_labels(labels) == lift.coset_partition


class TestLiftReadsTheQuotient:
    """`verify_lift_structure` reads the lift in one pass over G's table, in
    fiber order, and whether its fibers merge and its case from dq's: each
    read equals the one made on the lifted digraph."""

    @staticmethod
    def assert_reads(qmap, s):
        dq = cayley(qmap.target, frozenset(s))
        lift = cig.ci._lift(qmap, frozenset(s), dq)
        lifted = cayley(qmap.source, lift.connection)
        instance = (qmap.source.name, sorted(qmap.kernel), sorted(s))
        twins = cosets_are_brute_twin_classes(qmap, lift)
        if lift.block_size > 1:
            assert cig.ci._fibers_merge(dq, lift) != twins, instance
        masks = cig.ci._fiber_masks(qmap.source, lift.connection, lift.coset_partition)
        fib = lift.coset_partition.fiber_images()
        assert tuple(masks) == lifted.relabel(fib).out_masks, instance
        complete = cig.digraphs.decompose_over_complete(dq)
        assert (lift.case == "non_decomposable") == (complete is None), instance
        return lift.case, twins

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_every_kernel_and_quotient_set(self, spec):
        reads = {self.assert_reads(qmap, s) for qmap, s, _ in lift_sample(spec)}
        kinds = {case for case, _ in reads}
        assert kinds == {"decomposable", "non_decomposable"} or not reads
        assert {twins for _, twins in reads} == {True, False} or not reads

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_trivial_kernel(self, spec):
        outcomes = set()
        for qmap, s in trivial_kernel_sample(spec):
            _, twins = self.assert_reads(qmap, s)
            outcomes.add(twins)
            dq = cayley(qmap.target, s)
            aut_q = automorphism_group_of(dq)
            checks = verify_lift_structure(qmap, s, dq, aut_q).checks
            built = oracles.built_lift_structure(qmap, s, dq, aut_q)[0]
            assert checks == built, (spec, sorted(s))
            assert checks["arc_identity"] and checks["unique_block_system"]
        # The empty set's digraph is one twin class.  Z1 has one point, and
        # every Cayley digraph of Z2 or Z2xZ2 has twins.
        assert outcomes == {True, False} or spec in ("Z1", "Z2", "Z2xZ2")

    def test_case_on_random_looped_digraphs(self):
        # `_lift` reads dq only for its case; half of these digraphs are
        # relabelled wreath products, so both cases come up.
        rng = random.Random(3201)
        qmap = FiniteGroup.cyclic(4).quotient({0, 2})
        cases = Counter()
        for i in range(500):
            if i % 2:
                d = oracles.random_digraph(rng, rng.randrange(0, 9))
            else:
                outer = oracles.random_digraph(rng, rng.randrange(1, 5))
                r = rng.randrange(1, 4)
                inner = Digraph.complete(r) if rng.random() < 0.5 else Digraph.empty(r)
                d = cig.digraphs.wreath_product(outer, inner)
                d = d.relabel(rng.sample(range(d.order), d.order))
            case = cig.ci._lift(qmap, frozenset(), d).case
            complete = cig.digraphs.decompose_over_complete(d)
            assert (case == "non_decomposable") == (complete is None), d.out_masks
            if d.order <= 6:
                feasible = oracles.feasible_inner_sizes(d, "complete")
                assert (case == "decomposable") == bool(feasible), d.out_masks
            cases[case] += 1
        assert min(cases.values()) >= 50, cases

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_a_twin_branch_lift_builds_nothing_on_the_group(self, spec, monkeypatch):
        # Past dq and Aut(dq), which the caller hands over: no digraph on
        # |G| points, no twin pass on |G| points, no wreath decomposition.
        orders, passes, decompositions = [], [], []
        init = Digraph.__init__
        monkeypatch.setattr(
            Digraph, "__init__", lambda d, n, masks: orders.append(n) or init(d, n, masks)
        )
        twin_labels = cig.digraphs._kernels.twin_labels
        monkeypatch.setattr(
            cig.digraphs._kernels,
            "twin_labels",
            lambda out, into: passes.append(len(out)) or twin_labels(out, into),
        )
        decompose = cig.digraphs._decompose
        monkeypatch.setattr(
            cig.digraphs,
            "_decompose",
            lambda d, kind: decompositions.append(d) or decompose(d, kind),
        )
        twin_branch = 0
        for qmap, s, _ in lift_sample(spec):
            if not on_twin_branch(qmap, s):
                continue
            twin_branch += 1
            dq = cayley(qmap.target, s)
            aut_q = automorphism_group_of(dq)
            for spied in (orders, passes, decompositions):
                spied.clear()
            report = verify_lift_structure(qmap, s, dq, aut_q)
            instance = (spec, sorted(qmap.kernel), sorted(s))
            assert all(report.checks.values()), instance
            assert qmap.source.order not in orders, instance
            assert qmap.source.order not in passes, instance
            assert not decompositions, instance
        assert twin_branch or spec in ("Z1", "Z2", "Z3", "Z5", "Z7", "Z11")

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_no_lift_searches_or_builds_on_the_group(self, spec, monkeypatch):
        # Every lift, its fibers merged or not: past dq and Aut(dq), which
        # the caller hands over, no automorphism search, no digraph on |G|
        # points and no twin pass on |G| points.
        orders, passes, searched = [], [], []
        init = Digraph.__init__
        monkeypatch.setattr(
            Digraph, "__init__", lambda d, n, masks: orders.append(n) or init(d, n, masks)
        )
        twin_labels = cig.digraphs._kernels.twin_labels
        monkeypatch.setattr(
            cig.digraphs._kernels,
            "twin_labels",
            lambda out, into: passes.append(len(out)) or twin_labels(out, into),
        )
        for module, name in ((cig.ci, "automorphism_group_of"), (cig.iso, "_search_automorphisms")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda d, *rest, real=real: searched.append(d) or real(d, *rest)
            )
        merged = 0
        for qmap, s, _ in lift_sample(spec):
            dq = cayley(qmap.target, s)
            aut_q = automorphism_group_of(dq)
            for spied in (orders, passes, searched):
                spied.clear()
            report = verify_lift_structure(qmap, s, dq, aut_q)
            instance = (spec, sorted(qmap.kernel), sorted(s))
            assert not searched, instance
            assert qmap.source.order not in orders, instance
            assert qmap.source.order not in passes, instance
            merged += not report.checks["unique_block_system"]
        # The whole quotient set lifts to the looped complete digraph, one
        # twin class, wherever there is a proper non-trivial kernel.
        assert merged or spec in ("Z1", "Z2", "Z3", "Z5", "Z7", "Z11")

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_merged_fibers_outgrow_the_wreath_group(self, spec):
        # Wherever the library reads two fibers as merged, the two facts its
        # group checks rest on, checked by search: Aut(lifted) is larger
        # than Aut(dq) wr S_block, and one of its generators splits a coset.
        merged = 0
        for qmap, s, _ in lift_sample(spec):
            dq = cayley(qmap.target, s)
            lift = cig.ci._lift(qmap, frozenset(s), dq)
            if not cig.ci._fibers_merge(dq, lift):
                continue
            merged += 1
            instance = (spec, sorted(qmap.kernel), sorted(s))
            aut = automorphism_group_of(cayley(qmap.source, lift.connection))
            wreath_order = automorphism_group_of(dq).order * factorial(lift.block_size) ** dq.order
            assert aut.order > wreath_order, instance
            assert any(qmap.cosets.induced(g) is None for g in aut.generators), instance
        assert merged or spec in ("Z1", "Z2", "Z3", "Z5", "Z7", "Z11")


def assert_a_flipped_arc_fails(qmap, s, rng):
    """Hand `verify_lift_structure` Cay(G/H, S) with one arc, a loop or not,
    flipped, and its automorphism group."""
    dq = cayley(qmap.target, s)
    u, v = rng.randrange(dq.order), rng.randrange(dq.order)
    masks = list(dq.out_masks)
    masks[u] ^= 1 << v
    wrong = Digraph(dq.order, masks)
    checks = verify_lift_structure(qmap, s, wrong, automorphism_group_of(wrong)).checks
    instance = (qmap.source.name, sorted(qmap.kernel), sorted(s), (u, v))
    assert not checks["arc_identity"], instance
    assert not checks["unique_block_system"], instance
    assert not checks["wreath_generators_in_aut"], instance


class TestAWrongQuotientDigraph:
    """A dq that is not Cay(G/H, S) fails the arc identity, and with it the
    checks that read it: the block check and the wreath generators."""

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_one_flipped_arc_fails_the_lift(self, spec):
        rng = random.Random(spec)
        sides = 0
        for qmap, s, _ in lift_sample(spec):
            assert_a_flipped_arc_fails(qmap, s, rng)
            sides += 1
        assert sides or spec in ("Z1", "Z2", "Z3", "Z5", "Z7", "Z11")

    def test_trivial_kernel(self):
        rng = random.Random(3202)
        for qmap, s in trivial_kernel_sample("D4"):
            assert_a_flipped_arc_fails(qmap, s, rng)


def schreier_sims_order(group: PermGroup) -> int:
    """The order sympy's Schreier-Sims gives the group's generators."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    identity = combinatorics.Permutation(list(range(group.degree)))
    gens = [combinatorics.Permutation(list(g.images)) for g in group.generators]
    return combinatorics.PermutationGroup(gens or [identity]).order()


class TestSearchedLiftOrdersAgainstSympy:
    """Where the lifted twin classes are not the cosets, the lift check still
    searches Aut(lifted): its order must be the Schreier-Sims order of its
    generators, from a third-party implementation."""

    def test_pinned_lifts(self):
        sides = set()
        for qmap, s1, s2 in pinned_lifts():
            for s in (s1, s2):
                lift = lift_connection_set(qmap.source, qmap.kernel, s)
                lifted = cayley(qmap.source, lift.connection)
                if lifted.twin_classes() != qmap.cosets.classes:
                    sides.add((qmap.source.name, qmap.kernel, s, lifted))
        for name, h, s, lifted in sides:
            aut = automorphism_group_of(lifted)
            assert aut.order == schreier_sims_order(aut), (name, sorted(h), sorted(s))
        assert len(sides) == 28

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_catalog_lifts(self, spec):
        for qmap, s, _ in lift_sample(spec):
            lift = lift_connection_set(qmap.source, qmap.kernel, s)
            lifted = cayley(qmap.source, lift.connection)
            if lifted.twin_classes() != qmap.cosets.classes:
                aut = automorphism_group_of(lifted)
                instance = (spec, sorted(qmap.kernel), sorted(s))
                assert aut.order == schreier_sims_order(aut), instance


@lru_cache(maxsize=None)
def dichotomy_pairs():
    """The criterion-4 factor pairs, then 300 seeded pairs of Cayley digraphs
    of the order <= 12 catalog groups, loops allowed, with products of at
    most 40 vertices."""
    pairs = [(d1, d2) for _, d1, _, d2 in c4_factor_pairs()]
    rng = random.Random("searched dichotomy")
    groups = [parse_group_spec(spec) for spec, _ in catalog_specs(12)]
    for _ in range(300):
        g1 = rng.choice(groups)
        g2 = rng.choice([g for g in groups if g1.order * g.order <= 40])
        pairs.append(
            tuple(
                cayley(g, rng.sample(range(g.order), rng.randrange(g.order + 1)))
                for g in (g1, g2)
            )
        )
    return tuple(pairs)


DECOMPOSITIONS = (
    ("complete", cig.digraphs.decompose_over_complete),
    ("empty", cig.digraphs.decompose_over_empty),
)


def pieces(d2, kind):
    """The weak components of d2 (of its complement for the complete kind)."""
    return (d2.complement() if kind == "complete" else d2).weak_components()


class TestWreathAutDichotomy:
    def test_dichotomy_equals_the_searched_dichotomy(self):
        blowups = Counter()
        for d1, d2 in dichotomy_pairs():
            report = verify_wreath_aut_dichotomy(d1, d2)
            instance = (d1.out_masks, d2.out_masks)
            assert report.dichotomy == oracles.searched_dichotomy(d1, d2), instance
            if report.dichotomy is not None:
                blowups[report.dichotomy.inner_kind] += 1
        assert blowups["complete"] > 0 and blowups["empty"] > 0, blowups

    def test_every_report_is_equal_or_explained(self):
        # 68 reports with a looped outer factor are unequal: 21 explained by
        # a decomposition kind, and 47 by the looped-outer rule alone.
        looped_unequal = 0
        for d1, d2 in dichotomy_pairs():
            report = verify_wreath_aut_dichotomy(d1, d2)
            assert report.equal or report.dichotomy is not None, (d1.out_masks, d2.out_masks)
            looped_unequal += bool(d1.loop_count) and not report.equal
        assert looped_unequal == 68

    def test_pieces_of_a_vertex_transitive_digraph_share_its_group(self):
        # |Aut(piece)|^s * s! = |Aut(d2)|: the order the report reads in
        # place of searching a piece, on every inner factor and kind.
        cases = 0
        for d2 in {d2 for _, d2 in dichotomy_pairs()}:
            for kind, _ in DECOMPOSITIONS:
                comps = pieces(d2, kind)
                if len(comps) < 2:
                    continue
                induced = [d2.induced(c) for c in comps]
                assert all(find_isomorphism(induced[0], p) is not None for p in induced[1:])
                piece_order = automorphism_group_of(induced[0]).order
                s = len(comps)
                assert piece_order**s * factorial(s) == automorphism_group_of(d2).order
                cases += 1
        assert cases == 43

    def test_twin_classes_of_an_outer_factor_share_one_size_and_one_kind(self):
        # The rule reads r from d1's twin classes in place of building and
        # searching each decomposition: on every kind that d1 decomposes
        # over, r and q are the decomposition's, and |Aut(Q)| (r!)^q is
        # |Aut(d1)|.
        outers = {d1 for d1, _ in dichotomy_pairs()}
        cases = 0
        for d1 in outers:
            classes = d1.twin_classes()
            r = len(classes[0])
            aut_order = automorphism_group_of(d1).order
            assert {len(c) for c in classes} == {r}, d1.out_masks
            assert d1.loop_count in (0, d1.order), d1.out_masks
            for kind, decompose in DECOMPOSITIONS:
                takes = {
                    r >= 2 and cig.digraphs._class_takes_kind(d1, c, kind) for c in classes
                }
                assert len(takes) == 1, (d1.out_masks, kind)
                dec = decompose(d1)
                assert (dec is not None) == takes.pop(), (d1.out_masks, kind)
                witness = cig.ci._blowup_witness(d1, aut_order, kind, 1, 1)
                assert witness.r == (dec.inner_size if dec else 1), (d1.out_masks, kind)
                if dec is None:
                    continue
                q = d1.order // r
                assert (dec.inner_size, dec.quotient.order) == (r, q)
                quotient_order = automorphism_group_of(dec.quotient).order
                assert quotient_order * factorial(r) ** q == aut_order, (d1.out_masks, kind)
                cases += 1
        assert (len(outers), cases) == (203, 68)

    def test_a_try_with_one_class_member_or_one_piece_gives_the_wreath_order(self):
        # Why the rule needs no guard: such a try cannot explain an unequal
        # report.
        tries = trivial = 0
        for d1, d2 in dichotomy_pairs():
            a1 = automorphism_group_of(d1).order
            a2 = automorphism_group_of(d2).order
            for kind, _ in DECOMPOSITIONS:
                witness = cig.ci._blowup_witness(d1, a1, kind, len(pieces(d2, kind)), a2)
                tries += 1
                if witness.r == 1 or witness.s == 1:
                    assert witness.predicted_order == a1 * a2**d1.order, (d1.out_masks, kind)
                    trivial += 1
        assert (tries, trivial) == (696, 644)

    def test_a_report_searches_the_factors_and_the_product_only(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("find_isomorphism ran")

        monkeypatch.setattr(cig.ci, "find_isomorphism", refuse)
        monkeypatch.setattr(cig.iso, "find_isomorphism", refuse)
        searched = []
        real = cig.ci.automorphism_group_of
        monkeypatch.setattr(
            cig.ci,
            "automorphism_group_of",
            lambda d, limits: searched.append(d) or real(d, limits),
        )
        unequal = 0
        for d1, d2 in dichotomy_pairs():
            searched.clear()
            report = verify_wreath_aut_dichotomy(d1, d2)
            product = cig.digraphs.wreath_product(d1, d2)
            assert searched == [d1, d2, product], (d1.out_masks, d2.out_masks)
            unequal += not report.equal
        assert unequal == 98

    def test_equal_case(self):
        report = verify_wreath_aut_dichotomy(directed_cycle(3), Digraph.complete(2))
        assert report.equal
        assert report.product_aut_order == report.wreath_order == 24

    def test_complete_blowup(self):
        report = verify_wreath_aut_dichotomy(Digraph.complete(2), Digraph.complete(2))
        assert not report.equal
        assert (report.product_aut_order, report.wreath_order) == (24, 8)
        assert report.dichotomy is not None
        assert (report.dichotomy.r, report.dichotomy.s) == (2, 2)
        assert report.dichotomy.inner_kind == "complete"
        assert report.dichotomy.predicted_order == 24

    def test_empty_blowup(self):
        report = verify_wreath_aut_dichotomy(Digraph.empty(2), Digraph.empty(2))
        assert not report.equal
        assert (report.product_aut_order, report.wreath_order) == (24, 8)
        assert report.dichotomy.inner_kind == "empty"
        assert report.dichotomy.predicted_order == 24

    def test_rejects_non_vertex_transitive(self):
        path = oracles.from_arcs(2, [(0, 1)])
        with pytest.raises(ValueError, match="vertex-transitive"):
            verify_wreath_aut_dichotomy(path, Digraph.complete(2))
