"""Multiplication tables, catalog, quotients, automorphisms."""

import json
import random
import tracemalloc

import pytest

import oracles
from cig.groups import (
    FiniteGroup,
    GroupSpecError,
    automorphic_image_search,
    catalog_specs,
    group_automorphism,
    parse_group_spec,
)
from cig.perms import Perm
from cig.limits import CapExceeded, Limits


class TestConstruction:
    def test_trivial_group(self):
        g = parse_group_spec("Z1")
        assert g.order == 1

    def test_klein_group_self_inverse(self):
        g = parse_group_spec("Z2xZ2")
        assert g.order == 4
        assert all(g.mul(x, x) == 0 for x in range(4))

    def test_s3_table_matches_permutation_composition(self):
        g = FiniteGroup.symmetric(3)
        assert g.order == 6
        assert not g.is_abelian()
        # Independent oracle: rebuild products from the permutation list.
        from itertools import permutations

        perms = list(permutations(range(3)))
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                composed = tuple(p[q[x]] for x in range(3))
                assert perms[g.mul(i, j)] == composed

    def test_identity_is_index_zero_everywhere(self):
        for spec, _ in catalog_specs(12):
            g = parse_group_spec(spec)
            assert all(g.mul(0, x) == x == g.mul(x, 0) for x in range(g.order))

    def test_dihedral_order_and_center(self):
        d4 = FiniteGroup.dihedral(4)
        assert d4.order == 8
        assert sorted(d4.element_order(x) for x in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_quaternion_structure(self):
        q8 = FiniteGroup.quaternion()
        assert sorted(q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
        assert not q8.is_abelian()
        assert all(q8.is_normal(h) for h in q8.subgroups())

    def test_alternating(self):
        a4 = FiniteGroup.alternating(4)
        assert a4.order == 12
        assert sorted(len(h) for h in a4.normal_subgroups()) == [1, 4, 12]

    def test_order_cap(self):
        with pytest.raises(CapExceeded):
            FiniteGroup.symmetric(6)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FiniteGroup.cyclic(1500),
            lambda: FiniteGroup.dihedral(700),
            lambda: FiniteGroup.symmetric(9),
            lambda: FiniteGroup.alternating(9),
            lambda: parse_group_spec("Z2xZ1500"),
        ],
        ids=["cyclic(1500)", "dihedral(700)", "symmetric(9)", "alternating(9)", "Z2xZ1500"],
    )
    def test_order_cap_comes_before_the_table(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSpecGrammar:
    def test_products_fold_left(self):
        g = parse_group_spec("Z2xZ2xZ3")
        assert g.order == 12

    def test_unknown_atom_reports_position(self):
        with pytest.raises(GroupSpecError) as info:
            parse_group_spec("Z2xB5")
        assert info.value.position == 3

    def test_empty_atom_rejected(self):
        with pytest.raises(GroupSpecError):
            parse_group_spec("Z2x")

    def test_catalog_roster(self):
        order8 = [s for s, o in catalog_specs(8) if o == 8]
        assert order8 == ["Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"]
        assert len(catalog_specs(8)) == 14


class TestFileLoading:
    def test_round_trip(self, tmp_path):
        g = FiniteGroup.cyclic(6)
        path = tmp_path / "z6.json"
        path.write_text(json.dumps(g.to_json()))
        loaded = parse_group_spec(f"file:{path}")
        assert loaded.table == g.table

    def test_non_associative_table_names_triple(self, tmp_path):
        # Latin square with identity but (1*1)*2 != 1*(1*2).
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"order": 5, "table": table}))
        with pytest.raises(ValueError, match=r"not associative.*\d+\*\d+"):
            parse_group_spec(f"file:{path}")

    def test_missing_identity_rejected(self, tmp_path):
        path = tmp_path / "noid.json"
        path.write_text(json.dumps({"order": 2, "table": [[1, 0], [0, 1]]}))
        with pytest.raises(ValueError, match="identity"):
            parse_group_spec(f"file:{path}")

    def test_non_latin_rejected(self):
        with pytest.raises(ValueError, match="Latin"):
            FiniteGroup([[0, 1], [1, 1]])


class TestSubgroups:
    def test_empty_generators_give_identity(self):
        g = FiniteGroup.cyclic(5)
        assert g.subgroup_generated([]) == {0}

    def test_cyclic_subgroup_of_z6(self):
        assert FiniteGroup.cyclic(6).subgroup_generated([2]) == {0, 2, 4}

    def test_transposition_and_cycle_generate_s3(self):
        s3 = FiniteGroup.symmetric(3)
        transposition = next(x for x in range(6) if s3.element_order(x) == 2)
        rotation = next(x for x in range(6) if s3.element_order(x) == 3)
        assert s3.subgroup_generated([transposition, rotation]) == set(range(6))

    def test_whole_group_is_normal(self):
        g = FiniteGroup.symmetric(3)
        assert g.is_normal(frozenset(range(6)))

    def test_abelian_subgroups_all_normal(self):
        g = parse_group_spec("Z2xZ4")
        assert all(g.is_normal(h) for h in g.subgroups())

    def test_transposition_subgroup_of_s3_not_normal(self):
        s3 = FiniteGroup.symmetric(3)
        transposition = next(x for x in range(6) if s3.element_order(x) == 2)
        assert not s3.is_normal(s3.subgroup_generated([transposition]))

    def test_is_normal_rejects_non_subgroups(self):
        with pytest.raises(ValueError):
            FiniteGroup.cyclic(4).is_normal({0, 1})

    def test_normal_subgroup_sizes(self):
        assert sorted(len(h) for h in FiniteGroup.cyclic(4).normal_subgroups()) == [1, 2, 4]
        assert sorted(len(h) for h in FiniteGroup.symmetric(3).normal_subgroups()) == [1, 3, 6]
        assert sorted(len(h) for h in parse_group_spec("Z2xZ2").normal_subgroups()) == [
            1, 2, 2, 2, 4,
        ]


class TestCosets:
    def test_z4_mod_two(self):
        cosets = FiniteGroup.cyclic(4).cosets({0, 2})
        assert cosets.classes == ((0, 2), (1, 3))
        assert [cosets.class_index(x) for x in range(4)] == [0, 1, 0, 1]

    def test_z6_mod_three(self):
        cosets = FiniteGroup.cyclic(6).cosets({0, 3})
        assert cosets.classes == ((0, 3), (1, 4), (2, 5))

    def test_identity_subgroup_gives_singletons(self):
        cosets = FiniteGroup.symmetric(3).cosets({0})
        assert cosets.classes == tuple((x,) for x in range(6))


class TestQuotients:
    def test_z4_mod_z2(self):
        q = FiniteGroup.cyclic(4).quotient({0, 2})
        assert q.target.order == 2
        assert oracles.tables_isomorphic(q.target, FiniteGroup.cyclic(2))

    def test_z6_mod_z2(self):
        q = FiniteGroup.cyclic(6).quotient({0, 3})
        assert oracles.tables_isomorphic(q.target, FiniteGroup.cyclic(3))

    def test_non_normal_quotient_rejected(self):
        s3 = FiniteGroup.symmetric(3)
        transposition = next(x for x in range(6) if s3.element_order(x) == 2)
        with pytest.raises(ValueError, match="not normal"):
            s3.quotient(s3.subgroup_generated([transposition]))

    def test_projection_fibers_are_cosets(self):
        g = parse_group_spec("Z2xZ4")
        for h in g.normal_subgroups():
            q = g.quotient(h)
            for i, coset in enumerate(q.cosets.classes):
                fiber = {x for x in range(g.order) if q.cosets.class_index(x) == i}
                assert fiber == {g.mul(coset[0], y) for y in h}

    def test_projection_is_homomorphism(self):
        g = FiniteGroup.quaternion()
        q = g.quotient(g.subgroup_generated([1]))  # center {1,-1}
        for a in range(8):
            for b in range(8):
                assert q.cosets.class_index(g.mul(a, b)) == q.target.mul(
                    q.cosets.class_index(a), q.cosets.class_index(b)
                )


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "spec,count",
        [("Z2", 1), ("Z4", 2), ("Z2xZ2", 6), ("Z6", 2), ("S3", 6), ("Q8", 24), ("D4", 8)],
    )
    def test_counts(self, spec, count):
        assert len(parse_group_spec(spec).automorphisms()) == count

    def test_closed_under_composition_and_inverse(self):
        for spec in ["Z4", "Z2xZ2", "S3", "Z8", "D4"]:
            g = parse_group_spec(spec)
            auts = set(g.automorphisms())
            for a in auts:
                assert a.inverse() in auts
                for b in auts:
                    assert a * b in auts

    def test_order_divides_factorial(self):
        import math

        for spec, order in catalog_specs(8):
            g = parse_group_spec(spec)
            assert math.factorial(g.order) % len(g.automorphisms()) == 0

    def test_images_preserve_element_order(self):
        g = parse_group_spec("Z2xZ4")
        for alpha in g.automorphisms():
            for x in range(g.order):
                assert g.element_order(alpha(x)) == g.element_order(x)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(8)])
    def test_equal_brute_force_enumeration(self, spec):
        g = parse_group_spec(spec)
        found = sorted(alpha.images for alpha in g.automorphisms())
        assert found == oracles.brute_group_automorphisms(g.table)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_every_map_passes_validation(self, spec):
        # automorphisms() does not run group_automorphism's check; the
        # search must return only maps that pass it.
        g = parse_group_spec(spec)
        for alpha in g.automorphisms():
            assert group_automorphism(g, alpha.images) == alpha

    def test_validation_rejects_a_non_bijection(self):
        with pytest.raises(ValueError, match="not a permutation"):
            group_automorphism(FiniteGroup.cyclic(4), (0, 1, 1, 3))

    def test_validation_rejects_a_non_multiplicative_bijection(self):
        # 1 -> 2 would send 1 + 1 = 2 to 2 + 2 = 0, but 2 -> 1.
        with pytest.raises(ValueError, match="not multiplicative"):
            group_automorphism(FiniteGroup.cyclic(4), (0, 2, 1, 3))

    def test_validation_rejects_the_wrong_degree(self):
        with pytest.raises(ValueError, match="order 4"):
            group_automorphism(FiniteGroup.cyclic(4), (0, 2, 1))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            FiniteGroup.symmetric(5).automorphisms()

    def test_cap_holds_after_caching(self):
        # A cached enumeration must not let a later, smaller cap through.
        g = FiniteGroup.cyclic(6)
        assert len(g.automorphisms()) == 2
        small = Limits(aut=5)
        with pytest.raises(CapExceeded):
            g.automorphisms(small)
        with pytest.raises(CapExceeded):
            automorphic_image_search(g, {1}, {5}, limits=small)

    def test_automorphic_image_search_identity(self):
        g = FiniteGroup.cyclic(6)
        alpha = automorphic_image_search(g, {1, 3}, {1, 3})
        assert alpha is not None and alpha.is_identity()

    def test_automorphic_image_search_negation(self):
        g = FiniteGroup.cyclic(6)
        alpha = automorphic_image_search(g, {1, 3, 4}, {2, 3, 5})
        assert alpha is not None
        assert alpha.images == (0, 5, 4, 3, 2, 1)

    def test_automorphic_image_search_respects_element_order(self):
        assert automorphic_image_search(FiniteGroup.cyclic(4), {1}, {2}) is None


class TestLeftRegularRepresentation:
    def test_z3_translations(self):
        rep = oracles.regular_representation(FiniteGroup.cyclic(3))
        assert oracles.closure(rep) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_regularity(self):
        # The rows of a group table are closed under composition and act
        # transitively, so they form a regular group: one element per point.
        for spec in ["Z6", "S3", "D4", "Q8"]:
            g = parse_group_spec(spec)
            rep = oracles.regular_representation(g)
            assert rep.is_transitive()
            assert oracles.closure(rep) == sorted(g.table)

    def test_s3_representation_order(self):
        rep = oracles.regular_representation(FiniteGroup.symmetric(3))
        assert rep.degree == 6 and len(oracles.closure(rep)) == 6 and rep.is_transitive()


class TestInducedAutomorphism:
    def test_identity_induces_identity(self):
        g = FiniteGroup.cyclic(6)
        q = g.quotient({0, 3})
        identity = g.automorphisms()[0]
        assert identity.is_identity()
        assert q.induce(identity).is_identity()

    def test_negation_induces_negation(self):
        g = FiniteGroup.cyclic(6)
        q = g.quotient({0, 3})
        negation = Perm((0, 5, 4, 3, 2, 1))
        bar = q.induce(negation)
        assert bar.images == (0, 2, 1)  # coset of 1 maps to coset of 2

    def test_wrong_degree_is_rejected(self):
        q = FiniteGroup.cyclic(6).quotient({0, 3})
        with pytest.raises(ValueError, match="different order"):
            q.induce(Perm.identity(4))

    def test_kernel_must_be_preserved(self):
        g = parse_group_spec("Z2xZ2")
        swap = Perm((0, 2, 1, 3))  # swaps the two coordinates
        q = g.quotient(g.subgroup_generated([2]))  # kernel {(0,0),(1,0)}
        with pytest.raises(ValueError, match="kernel"):
            q.induce(swap)

    def test_coset_splitting_bijection_is_rejected(self):
        # (1 2) preserves the kernel {0, 3} but sends the coset {1, 4} to
        # {2, 4}, which is no coset, so no map of cosets is induced.
        q = FiniteGroup.cyclic(6).quotient({0, 3})
        with pytest.raises(RuntimeError, match="not well-defined"):
            q.induce(Perm((0, 2, 1, 3, 4, 5)))

    def test_functoriality_on_random_pairs(self):
        rng = random.Random(7)
        g = FiniteGroup.cyclic(12)
        q = g.quotient({0, 4, 8})
        auts = g.automorphisms()
        for _ in range(20):
            a, b = rng.choice(auts), rng.choice(auts)
            if a.image_of_set(q.kernel) != q.kernel:
                continue
            if b.image_of_set(q.kernel) != q.kernel:
                continue
            left = q.induce(a * b)
            right = q.induce(a) * q.induce(b)
            assert left.images == right.images


class TestTablesIsomorphic:
    def test_isomorphic_relabelings(self):
        assert oracles.tables_isomorphic(parse_group_spec("S3"), FiniteGroup.dihedral(3))
        assert oracles.tables_isomorphic(parse_group_spec("Z2xZ3"), FiniteGroup.cyclic(6))

    def test_distinguishes_groups(self):
        assert not oracles.tables_isomorphic(parse_group_spec("Z8"), parse_group_spec("D4"))
        assert not oracles.tables_isomorphic(parse_group_spec("Q8"), parse_group_spec("D4"))
