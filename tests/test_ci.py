"""CI pairs and groups, lifting, certificates, wreath-aut dichotomy."""

import random
from functools import lru_cache

import pytest

import cig.ci
import oracles
from cig.ci import (
    ci_pair,
    enumerate_connection_sets,
    is_ci_group,
    lift_connection_set,
    quotient_ci_certificate,
    verify_lift_structure,
    verify_wreath_aut_dichotomy,
)
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup, catalog_specs, parse_group_spec
from cig.iso import automorphism_group_of, find_isomorphism
from cig.limits import CapExceeded, Limits
from cig.perms import Perm, PermGroup, PointPartition, symmetric_group, wreath_product


def directed_cycle(n):
    return Digraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


class TestCIPair:
    def test_equal_sets_are_ci_equivalent(self):
        res = ci_pair(FiniteGroup.cyclic(5), {1, 2}, {1, 2})
        assert res.verdict == "ci_equivalent"
        assert res.alpha is not None and res.alpha.is_identity()

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
        assert len(enumerate_connection_sets(FiniteGroup.cyclic(4), "digraph")) == 16

    def test_graph_mode_counts_inverse_closed(self):
        # Z4: pairs {0},{2},{1,3} -> 8 inverse-closed subsets.
        sets = enumerate_connection_sets(FiniteGroup.cyclic(4), "graph")
        assert len(sets) == 8
        g = FiniteGroup.cyclic(4)
        assert all(g.is_inverse_closed(s) for s in sets)

    def test_s3_graph_mode(self):
        sets = enumerate_connection_sets(FiniteGroup.symmetric(3), "graph")
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
        monkeypatch.setattr(cig.ci, "ci_pair", lambda *args: calls.append(args))
        v = is_ci_group(parse_group_spec(spec), "digraph")
        assert v.is_ci and v.exhaustive and calls == []


class TestSweepAgainstTheory:
    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("mode", ["digraph", "graph"])
    def test_cyclic_groups_follow_muzychuk(self, n, mode):
        v = is_ci_group(FiniteGroup.cyclic(n), mode)
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
            ci_pair(FiniteGroup.cyclic(6), {1}, {5}, limits=Limits(aut=5))


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


class TestLiftStructure:
    def test_z6_wreath_identity(self):
        report = verify_lift_structure(FiniteGroup.cyclic(6).quotient({0, 3}), {1})
        assert report.all_passed
        assert report.aut_group.order == 24

    def test_z4_empty_set_structure(self):
        report = verify_lift_structure(FiniteGroup.cyclic(4).quotient({0, 2}), set())
        assert report.all_passed
        assert report.aut_group.order == 8

    def test_z4_full_coset_structure(self):
        report = verify_lift_structure(FiniteGroup.cyclic(4).quotient({0, 2}), {1})
        assert report.all_passed
        assert report.aut_group.order == 8


@lru_cache(maxsize=None)
def automorphism_set(d: Digraph) -> frozenset[tuple[int, ...]]:
    # Cached: across kernels, the looped complete and the empty lifts repeat.
    return frozenset(oracles.enumerated_automorphisms(d))


def wreath_closure(report) -> set[tuple[int, ...]]:
    """Every element of Aut(quotient) wr S_block, with Aut(quotient) from
    enumeration, as image tuples on the group's elements: each acts on the
    pair space, whose fibers are the cosets in rank order."""
    dq = report.quotient_digraph
    aut_q = [Perm(p) for p in oracles.enumerated_automorphisms(dq)]
    outer = PermGroup(aut_q, order=len(aut_q), degree=dq.order)
    pairs = wreath_product(outer, symmetric_group(report.lift.block_size))
    to_pair = report.lift.coset_partition.fiber_images()
    from_pair = Perm(to_pair).inverse().images
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
        report = verify_lift_structure(group.quotient(kernel), s_quotient)
        aut = automorphism_set(report.lifted_digraph)
        wreath = wreath_closure(report)
        assert report.aut_group.order == len(aut)
        assert report.expected_aut_order == len(wreath)
        assert report.checks["aut_order_equal"] == (len(aut) == len(wreath))
        assert report.checks["wreath_generators_in_aut"] == (wreath <= aut)
        assert report.checks["aut_inside_wreath"] == (aut <= wreath)
        return report

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
        report = self.assert_checks_are_set_relations(
            FiniteGroup.cyclic(4), {0, 2}, {0, 1}
        )
        assert (report.aut_group.order, report.expected_aut_order) == (24, 8)
        assert report.checks["wreath_generators_in_aut"]
        assert not report.checks["aut_order_equal"]
        assert not report.checks["aut_inside_wreath"]


class TestUniqueBlockPartition:
    def test_z6_cosets(self):
        aut = automorphism_group_of(cayley(FiniteGroup.cyclic(6), {1, 3, 4}))
        cosets = PointPartition(6, [[0, 3], [1, 4], [2, 5]])
        assert aut.block_systems(2) == [cosets]

    def test_z4_cosets(self):
        aut = automorphism_group_of(cayley(FiniteGroup.cyclic(4), {2}))
        cosets = PointPartition(4, [[0, 2], [1, 3]])
        assert aut.block_systems(2) == [cosets]

    def test_primitive_group_fails(self):
        assert symmetric_group(4).block_systems(2) != [PointPartition(4, [[0, 1], [2, 3]])]

    def test_multiple_systems_fail(self):
        # The regular Klein four-group has one size-2 system per order-2
        # subgroup, so uniqueness fails even though the expected one exists.
        klein = oracles.regular_representation(parse_group_spec("Z2xZ2"))
        assert len(klein.block_systems(2)) == 3
        assert klein.block_systems(2) != [PointPartition(4, [[0, 1], [2, 3]])]

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
        path = Digraph.from_arcs(2, [(0, 1)])
        assert not in_wreath((2, 3, 0, 1), cosets, path)


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
        assert cert.alpha.is_identity()

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


class TestWreathAutDichotomy:
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
        path = Digraph.from_arcs(2, [(0, 1)])
        with pytest.raises(ValueError, match="vertex-transitive"):
            verify_wreath_aut_dichotomy(path, Digraph.complete(2))
