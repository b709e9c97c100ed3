"""Multiplication tables, catalog, quotients, automorphisms."""

import hashlib
import json
import random
import re
import tracemalloc
from pathlib import Path

import pytest

import cig.groups
import oracles
from cig.groups import (
    FiniteGroup,
    GroupSpecError,
    _automorphism_images,
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
        assert any(g.mul(a, b) != g.mul(b, a) for a in range(6) for b in range(6))
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

    def test_dihedral_labels_name_their_products(self):
        """Label `r<k>s` is r^k s.  As maps of Z_n, r is x -> x + 1 and s is
        x -> -x, so r^k s is x -> k - x; every product, read from its
        label, is the composite of its factors' maps."""
        d4 = FiniteGroup.dihedral(4)
        s, r1 = d4.labels.index("s"), d4.labels.index("r1")
        assert d4.labels[d4.mul(s, r1)] == "r3s"
        assert d4.labels[d4.mul(r1, s)] == "r1s"
        for n in range(3, 9):
            g = FiniteGroup.dihedral(n)
            maps = []
            for label in g.labels:
                k = int(label[1:].rstrip("s")) if label.startswith("r") else 0
                sign = -1 if label.endswith("s") else 1
                maps.append(tuple((k + sign * x) % n for x in range(n)))
            assert len(set(maps)) == 2 * n
            for x in range(2 * n):
                for y in range(2 * n):
                    composite = tuple(maps[x][maps[y][i]] for i in range(n))
                    assert maps[g.mul(x, y)] == composite, (n, g.labels[x], g.labels[y])

    def test_quaternion_structure(self):
        q8 = FiniteGroup.quaternion()
        assert sorted(q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
        assert any(q8.mul(a, b) != q8.mul(b, a) for a in range(8) for b in range(8))
        assert all(q8.is_normal(h) for h in q8.subgroups())

    def test_alternating(self):
        a4 = FiniteGroup.alternating(4)
        assert a4.order == 12
        assert sorted(len(h) for h in a4.normal_subgroups()) == [1, 4, 12]

    @pytest.mark.parametrize(
        "build",
        [
            FiniteGroup.cyclic,
            FiniteGroup.dihedral,
            FiniteGroup.symmetric,
            FiniteGroup.alternating,
        ],
    )
    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_parameters_are_refused(self, build, n):
        with pytest.raises(ValueError):
            build(n)

    def test_degree_zero_gives_the_trivial_group(self):
        for group, name in ((FiniteGroup.symmetric(0), "S0"), (FiniteGroup.alternating(0), "A0")):
            assert (group.order, group.table, group.name) == (1, ((0,),), name)

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


CATALOG_TABLES = Path(__file__).parent / "snapshots" / "catalog_tables.json"
NUMBERING_SPECS = [s for s, _ in catalog_specs(12)] + [
    "Z16", "Z2xZ8", "Z4xZ4", "D8", "Z2xZ2xZ4", "Q8xZ2", "Z2xD4", "Z2xZ2xZ2xZ2",
    "S1", "S2", "S4", "S5", "A1", "A2", "A5", "D1", "D2",
]


class TestCatalogNumbering:
    def test_tables_labels_and_names_match_snapshot(self):
        """Every element index in cig's output (CLI arguments, witnesses,
        lifts, alpha) refers to this numbering: the snapshot holds the sha256
        of json.dumps([table, labels, name]) for each spec."""
        snapshot = json.loads(CATALOG_TABLES.read_text())
        assert list(snapshot) == NUMBERING_SPECS
        changed = []
        for spec in NUMBERING_SPECS:
            g = parse_group_spec(spec)
            blob = json.dumps([g.table, g.labels, g.name]).encode()
            if hashlib.sha256(blob).hexdigest() != snapshot[spec]:
                changed.append(spec)
        assert not changed, f"numbering changed for {changed}"


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
        path.write_text(json.dumps({"order": 6, "table": g.table, "labels": g.labels}))
        loaded = parse_group_spec(f"file:{path}")
        assert (loaded.table, loaded.labels) == (g.table, g.labels)

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
        with pytest.raises(ValueError, match="not associative") as raised:
            parse_group_spec(f"file:{path}")
        message = str(raised.value)
        assert message.endswith("(1*1)*2 = 2 but 1*(1*2) = 4")
        # The named triple fails associativity, and both sides are as named.
        triple = re.search(
            r"\((\d+)\*(\d+)\)\*(\d+) = (\d+) but \1\*\(\2\*\3\) = (\d+)", message
        )
        x, g, y, left, right = map(int, triple.groups())
        assert (table[table[x][g]][y], table[x][table[g][y]]) == (left, right)
        assert left != right

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

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_is_normal_matches_conjugation_by_every_element(self, spec):
        # `is_normal` conjugates by the generating set only.
        g = parse_group_spec(spec)
        for h in g.subgroups():
            every = all(g.conjugate(x, y) in h for x in range(g.order) for y in h)
            assert g.is_normal(h) == every, sorted(h)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_generating_set_is_the_greedy_scan(self, spec):
        g = parse_group_spec(spec)
        gens = []
        for x in range(g.order):
            if x not in g.subgroup_generated(gens):
                gens.append(x)
        assert g.generating_set() == tuple(gens)
        assert g.subgroup_generated(gens) == frozenset(range(g.order))

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

    def test_non_subgroup_rejected(self):
        with pytest.raises(ValueError, match="^not a subgroup$"):
            FiniteGroup.cyclic(4).cosets({0, 1})


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

    def test_non_subgroup_rejected(self):
        with pytest.raises(ValueError, match="^not a subgroup$"):
            FiniteGroup.cyclic(4).quotient({0, 1})

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_subgroup_checked_once(self, spec, monkeypatch):
        # `is_normal` checks that the kernel is a subgroup; the cosets are
        # then built without checking again, and they are `cosets`' own.
        g = parse_group_spec(spec)
        calls = []
        is_subgroup = FiniteGroup.is_subgroup
        monkeypatch.setattr(
            FiniteGroup, "is_subgroup", lambda self, s: calls.append(s) or is_subgroup(self, s)
        )
        for h in g.normal_subgroups():
            calls.clear()
            q = g.quotient(h)
            assert len(calls) == 1
            assert q.cosets == g.cosets(h)

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_target_passes_full_validation(self, spec, monkeypatch):
        # The target is built without `_validate_table`; the validating
        # constructor accepts its table and finds the same generating set
        # and inverses.
        g = parse_group_spec(spec)
        validated = []
        validate = FiniteGroup._validate_table
        monkeypatch.setattr(
            FiniteGroup, "_validate_table", lambda self: validated.append(self) or validate(self)
        )
        for h in g.normal_subgroups():
            target = g.quotient(h).target
            assert not validated
            rebuilt = FiniteGroup(target.table, labels=target.labels, name=target.name)
            validated.clear()
            assert rebuilt.table == target.table
            assert rebuilt.generating_set() == target.generating_set()
            assert rebuilt._inverse == target._inverse
            assert (rebuilt.labels, rebuilt.name) == (target.labels, target.name)

    def test_projection_fibers_are_cosets(self):
        g = parse_group_spec("Z2xZ4")
        for h in g.normal_subgroups():
            q = g.quotient(h)
            for i, coset in enumerate(q.cosets.classes):
                fiber = {x for x in range(g.order) if q.cosets.class_index(x) == i}
                assert fiber == {g.mul(coset[0], y) for y in h}

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_projection_is_homomorphism(self, spec):
        # `quotient` builds the target table from coset minima alone, on the
        # premise that the kernel is normal; every product of every pair of
        # members must land in the coset the table names.  The catalog up to
        # order 12 has 108 quotients (Q8 over its centre among them), and
        # some are non-abelian.
        g = parse_group_spec(spec)
        for h in g.normal_subgroups():
            q = g.quotient(h)
            index = [q.cosets.class_index(x) for x in range(g.order)]
            for a in range(g.order):
                for b in range(g.order):
                    assert index[g.mul(a, b)] == q.target.mul(index[a], index[b]), (h, a, b)


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
            auts = {a.images for a in g.automorphisms()}
            for a in auts:
                assert oracles.inverse(a) in auts
                for b in auts:
                    assert oracles.compose(a, b) in auts

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

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(8)])
    def test_validation_names_the_first_failing_product(self, spec):
        g = parse_group_spec(spec)
        rng = random.Random(spec)
        for _ in range(20):
            images = [0] + rng.sample(range(1, g.order), g.order - 1)
            failing = [
                (a, b)
                for a in range(g.order)
                for b in range(g.order)
                if images[g.mul(a, b)] != g.mul(images[a], images[b])
            ]
            if failing:
                a, b = failing[0]
                with pytest.raises(ValueError, match=re.escape(f"multiplicative at ({a},{b})")):
                    group_automorphism(g, images)
            else:
                assert group_automorphism(g, images).images == tuple(images)

    def test_validation_rejects_the_wrong_degree(self):
        with pytest.raises(ValueError, match="order 4"):
            group_automorphism(FiniteGroup.cyclic(4), (0, 2, 1))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            FiniteGroup.symmetric(5).automorphisms()

    def test_cap_holds_on_every_call(self):
        # An earlier listing must not let a later, smaller cap through.
        g = FiniteGroup.cyclic(6)
        assert len(g.automorphisms()) == 2
        small = Limits(aut=5)
        with pytest.raises(CapExceeded):
            g.automorphisms(small)

    def test_automorphic_image_search_identity(self):
        g = FiniteGroup.cyclic(6)
        alpha = automorphic_image_search(g, {1, 3}, {1, 3})
        assert alpha is not None and alpha.images == tuple(range(6))

    def test_automorphic_image_search_negation(self):
        g = FiniteGroup.cyclic(6)
        alpha = automorphic_image_search(g, {1, 3, 4}, {2, 3, 5})
        assert alpha is not None
        assert alpha.images == (0, 5, 4, 3, 2, 1)

    def test_automorphic_image_search_respects_element_order(self):
        assert automorphic_image_search(FiniteGroup.cyclic(4), {1}, {2}) is None

    @pytest.mark.parametrize(
        "s,t,message",
        [
            ({5}, {6}, "subset element 5 out of range for order 4"),
            ({1, 7}, {1, 9}, "subset element 7 out of range for order 4"),
            ({-1}, {1}, "subset element -1 out of range for order 4"),
            ({1}, {-1}, "target_subset element -1 out of range for order 4"),
        ],
    )
    def test_automorphic_image_search_refuses_non_elements(self, s, t, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            automorphic_image_search(FiniteGroup.cyclic(4), s, t)


def _transporter_pairs(group, rng):
    """Seeded (s, t) pairs of one size: the empty and the full set, then
    per round an automorphic image, a random set, and a set holding the
    identity (a looped Cayley digraph) against sets without it, both ways."""
    n = group.order
    auts = group.automorphisms()
    pairs = [(set(), set()), (set(range(n)), set(range(n)))]
    for _ in range(25 if n > 1 else 0):
        k = rng.randrange(1, n)
        s = set(rng.sample(range(n), k))
        looped = {0, *rng.sample(range(1, n), k - 1)}
        unlooped = set(rng.sample(range(1, n), k))
        pairs += [
            (s, rng.choice(auts).image_of_set(s)),
            (s, set(rng.sample(range(n), k))),
            (looped, unlooped),
            (unlooped, looped),
            (looped, rng.choice(auts).image_of_set(looped)),
        ]
    return pairs


_TRANSPORTER_SPECS = [s for s, _ in catalog_specs(12)] + ["Z16", "Z2xZ8", "Z4xZ4", "D8"]


class TestSetTransporter:
    """`automorphic_image_search` finds without listing what the list scan
    finds: the first automorphism, in `automorphisms()` order, carrying s
    onto t."""

    @pytest.mark.parametrize("spec", _TRANSPORTER_SPECS)
    def test_first_image_matches_the_list_scan(self, spec):
        g = parse_group_spec(spec)
        for s, t in _transporter_pairs(g, random.Random(f"transporter {spec}")):
            expected = oracles.first_automorphic_image(g, s, t)
            assert automorphic_image_search(g, s, t) == expected, (s, t)

    @pytest.mark.parametrize("spec", _TRANSPORTER_SPECS)
    def test_every_leaf_is_a_listed_transporter(self, spec):
        # The search's leaves, sets of unequal size included (which the
        # public entry point answers before searching), are exactly the
        # listed automorphisms carrying s onto t, in list order; for the
        # first pair, s = t = {}, that is the whole list.
        g = parse_group_spec(spec)
        auts = g.automorphisms()
        rng = random.Random(f"leaves {spec}")
        for s, t in _transporter_pairs(g, rng)[:40]:
            s = frozenset(s)
            for target in (frozenset(t), frozenset(t) ^ {rng.randrange(g.order)}):
                found = list(map(Perm, _automorphism_images(g, s, target)))
                expected = [a for a in auts if a.image_of_set(s) == target]
                assert found == expected, (s, target)


class TestScheduleAgainstRebuiltSearch:
    """The edge-schedule search yields the very sequence of the backtrack it
    replaced, which rebuilds each node's map from the identity
    (`oracles.rebuilt_automorphism_images`): same leaves, same order.
    `TestSetTransporter` cannot see an order change, since the listing it
    compares with runs the same search.  In S4, Z3xS3 and Q8xZ2 some maps
    that are total and injective on the edges that reach new elements break
    a relation, so there the relation checks decide leaves."""

    @pytest.mark.parametrize(
        "spec", _TRANSPORTER_SPECS + ["Z2xZ2xZ2xZ2", "S4", "Z3xS3", "Q8xZ2"]
    )
    def test_listing(self, spec):
        g = parse_group_spec(spec)
        expected = list(oracles.rebuilt_automorphism_images(g))
        assert list(_automorphism_images(g)) == expected
        assert [a.images for a in g.automorphisms()] == expected

    @pytest.mark.parametrize("spec", _TRANSPORTER_SPECS)
    def test_transporter_leaves(self, spec):
        g = parse_group_spec(spec)
        rng = random.Random(f"schedule {spec}")
        for s, t in _transporter_pairs(g, rng):
            s = frozenset(s)
            for target in (frozenset(t), frozenset(t) ^ {rng.randrange(g.order)}):
                expected = list(oracles.rebuilt_automorphism_images(g, s, target))
                assert list(_automorphism_images(g, s, target)) == expected, (s, target)


_WALK_SPECS = [s for s, _ in catalog_specs(12)] + [
    "Z16", "Z2xZ8", "Z4xZ4", "D8", "Z2xZ2xZ4", "Q8xZ2", "Z2xD4", "Z2xZ2xZ2xZ2", "S4",
]


class TestGeneratingWalk:
    """The one walk per group gives what the two walks it replaced give: the
    greedy scan with a fresh closure per generator
    (`oracles.greedy_generating_set`) and the edge schedule walked on its
    own (`oracles.edge_schedule`), on validated groups and on quotient
    targets, which `_image` builds without validation."""

    def assert_walk(self, g):
        gens = oracles.greedy_generating_set(g)
        assert g.generating_set() == gens
        assert g._schedule == oracles.edge_schedule(g.table, gens)

    @pytest.mark.parametrize("spec", _WALK_SPECS)
    def test_validated_group(self, spec):
        self.assert_walk(parse_group_spec(spec))

    @pytest.mark.parametrize("spec", [s for s, _ in catalog_specs(12)])
    def test_quotient_targets(self, spec):
        g = parse_group_spec(spec)
        for h in g.normal_subgroups():
            if len(h) < g.order:
                self.assert_walk(g.quotient(h).target)

    def test_each_group_walks_once_and_takes_no_closure(self, monkeypatch):
        walks = []
        walk = cig.groups._generating_walk
        monkeypatch.setattr(
            cig.groups, "_generating_walk", lambda table: walks.append(table) or walk(table)
        )

        def refuse(self, gens):
            raise AssertionError("subgroup_generated ran")

        monkeypatch.setattr(FiniteGroup, "subgroup_generated", refuse)
        g = FiniteGroup.dihedral(6)
        assert len(g.automorphisms()) == 12
        assert automorphic_image_search(g, {1, 6}, {5, 7}) is not None
        assert automorphic_image_search(g, {1, 6}, {2, 7}) is None
        assert walks == [g.table]
        target = g.quotient({0, 3}).target  # by the centre {e, r3}
        assert len(target.automorphisms()) == 6  # the quotient is S3
        assert automorphic_image_search(target, {1}, {2}) is not None
        assert walks == [g.table, target.table]


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
        assert identity.images == tuple(range(6))
        assert q.induce(identity).images == (0, 1, 2)

    def test_negation_induces_negation(self):
        g = FiniteGroup.cyclic(6)
        q = g.quotient({0, 3})
        negation = Perm((0, 5, 4, 3, 2, 1))
        bar = q.induce(negation)
        assert bar.images == (0, 2, 1)  # coset of 1 maps to coset of 2

    def test_wrong_degree_is_rejected(self):
        q = FiniteGroup.cyclic(6).quotient({0, 3})
        with pytest.raises(ValueError, match="different order"):
            q.induce(Perm(range(4)))

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
            left = q.induce(Perm(oracles.compose(a.images, b.images)))
            right = oracles.compose(q.induce(a).images, q.induce(b).images)
            assert left.images == right


class TestTablesIsomorphic:
    def test_isomorphic_relabelings(self):
        assert oracles.tables_isomorphic(parse_group_spec("S3"), FiniteGroup.dihedral(3))
        assert oracles.tables_isomorphic(parse_group_spec("Z2xZ3"), FiniteGroup.cyclic(6))

    def test_distinguishes_groups(self):
        assert not oracles.tables_isomorphic(parse_group_spec("Z8"), parse_group_spec("D4"))
        assert not oracles.tables_isomorphic(parse_group_spec("Q8"), parse_group_spec("D4"))
