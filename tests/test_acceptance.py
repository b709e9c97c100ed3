"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Oracles are brute force (all bijections, all uniform
partitions) and never share code with the engine paths they check.
"""

import json
import time
from itertools import permutations
from math import factorial
from pathlib import Path
from random import Random

import numpy as np

import oracles
from cig.ci import (
    is_ci_group,
    lift_connection_set,
    quotient_ci_certificate,
    verify_lift_structure,
    verify_wreath_aut_dichotomy,
)
from cig.digraphs import (
    Digraph,
    cayley,
    decompose_over_complete,
    decompose_over_empty,
    wreath_product,
)
from cig.groups import (
    FiniteGroup,
    automorphic_image_search,
    catalog_specs,
    parse_group_spec,
)
from cig.iso import automorphism_group_of, find_isomorphism
from cig.perms import fiber_partition
from cig.perms import cyclic_group as cyclic_perm_group
from cig.perms import symmetric_group
from cig.perms import wreath_product as wreath_perm_group

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"


def report(criterion: str, detail: str, started: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail}, {time.time() - started:.1f}s)")


def digraph_from_code(n: int, code: int) -> Digraph:
    mask = (1 << n) - 1
    return Digraph(n, ((code >> (u * n)) & mask for u in range(n)))


def canonical_codes(n: int) -> np.ndarray:
    """Minimum adjacency code over all vertex relabelings, per code.

    Independent all-bijections oracle: two digraphs are isomorphic exactly
    when their canonical codes agree.
    """
    bits = n * n
    codes = np.arange(1 << bits, dtype=np.int64)
    mats = (codes[:, None] >> np.arange(bits)[None, :]) & 1
    canon = codes.copy()
    for perm in permutations(range(n)):
        idx = np.array(
            [perm[u] * n + perm[v] for u in range(n) for v in range(n)],
            dtype=np.int64,
        )
        weights = (np.int64(1) << idx).astype(np.int64)
        canon = np.minimum(canon, mats @ weights)
    return canon


class TestCriterion1IsomorphismOracle:
    def test_exhaustive_small_and_random_large(self):
        started = time.time()
        checked = 0
        # All ordered pairs of adjacency matrices on n <= 3 vertices.
        for n in (1, 2, 3):
            canon = canonical_codes(n)
            count = 1 << (n * n)
            graphs = [digraph_from_code(n, code) for code in range(count)]
            for a in range(count):
                ga = graphs[a]
                ca = canon[a]
                for b in range(count):
                    engine = find_isomorphism(ga, graphs[b]) is not None
                    assert engine == (ca == canon[b]), (n, a, b)
                    checked += 1
        # n = 4: every matrix against its transpose, plus random pairs.
        n = 4
        canon = canonical_codes(n)
        transpose_code = np.zeros(1 << 16, dtype=np.int64)
        codes = np.arange(1 << 16, dtype=np.int64)
        for u in range(4):
            for v in range(4):
                bit = (codes >> (u * 4 + v)) & 1
                transpose_code |= bit << (v * 4 + u)
        rng = Random(2024)
        pairs = [(int(code), int(transpose_code[code])) for code in range(1 << 16)]
        pairs += [
            (rng.randrange(1 << 16), rng.randrange(1 << 16)) for _ in range(5000)
        ]
        for a, b in pairs:
            engine = (
                find_isomorphism(digraph_from_code(4, a), digraph_from_code(4, b))
                is not None
            )
            assert engine == (canon[a] == canon[b]), (a, b)
            checked += 1
        # 200 random pairs at n in {5, 6}, against the raw all-bijections oracle.
        for n in (5, 6):
            for i in range(100):
                a = oracles.random_digraph(rng, n)
                if i % 2:
                    images = list(range(n))
                    rng.shuffle(images)
                    b = a.relabel(images)
                else:
                    b = oracles.random_digraph(rng, n)
                engine = find_isomorphism(a, b) is not None
                assert engine == (oracles.brute_isomorphism(a, b) is not None)
                checked += 1
        report("C1 iso-oracle-equivalence", f"{checked} pairs", started)


class TestCriterion2RegularRepresentation:
    def test_left_translations_are_automorphisms(self):
        started = time.time()
        rng = Random(777)
        specs = [s for s, _ in catalog_specs(12)]
        groups = {s: parse_group_spec(s) for s in specs}
        for _ in range(500):
            g = groups[rng.choice(specs)]
            n = g.order
            s = frozenset(x for x in range(n) if rng.getrandbits(1))
            d = cayley(g, s)
            for row in g.table:
                assert all(
                    d.has_arc(u, v) == d.has_arc(row[u], row[v])
                    for u in range(n)
                    for v in range(n)
                )
        report("C2 regular-representation-containment", "500 pairs", started)


class TestCriterion3WreathBlockSystems:
    def test_invariant_partitions_of_wreath_products(self):
        started = time.time()
        outers = {
            "Z2": cyclic_perm_group(2),
            "Z3": cyclic_perm_group(3),
            "S3": symmetric_group(3),
            "Z4": cyclic_perm_group(4),
        }
        inners = {"S2": symmetric_group(2), "Z3": cyclic_perm_group(3)}
        cases = 0
        for g in outers.values():
            for h in inners.values():
                w = wreath_perm_group(g, h)
                fibers = fiber_partition(g.degree, h.degree)
                for partition in oracles.invariant_partitions(w):
                    assert partition.refines(fibers) or fibers.refines(partition)
                assert w.block_systems(h.degree) == [fibers]
                cases += 1
        report("C3 wreath-block-systems", f"{cases} group pairs", started)


class TestCriterion4WreathAutDichotomy:
    def test_equality_or_explained_blowup(self):
        started = time.time()
        z3 = FiniteGroup.cyclic(3)
        z4 = FiniteGroup.cyclic(4)
        family = {
            "K1": Digraph.complete(1),
            "K2": Digraph.complete(2),
            "K2bar": Digraph.empty(2),
            "C3": cayley(z3, {1}),
            "K3": Digraph.complete(3),
            "C4": cayley(z4, {1, 3}),
            "K3bar": Digraph.empty(3),
        }
        checked = equal_count = blowups = 0
        for name1, d1 in family.items():
            for name2, d2 in family.items():
                if d1.order * d2.order > 12:
                    continue
                reportee = verify_wreath_aut_dichotomy(d1, d2)
                if reportee.equal:
                    equal_count += 1
                else:
                    assert reportee.dichotomy is not None, (name1, name2)
                    assert (
                        reportee.dichotomy.predicted_order
                        == reportee.product_aut_order
                    ), (name1, name2)
                    blowups += 1
                checked += 1
        report(
            "C4 wreath-aut-dichotomy",
            f"{checked} pairs, {equal_count} equal, {blowups} explained blowups",
            started,
        )


class TestCriterion5DeskScaleCISweep:
    def test_exhaustive_verdicts_and_snapshot(self):
        started = time.time()
        with open(SNAPSHOT_DIR / "ci_verdicts.json") as fh:
            snapshot = json.load(fh)
        specs = [s for s, _ in catalog_specs(8)]
        assert sorted(specs) == sorted(snapshot)
        results = {}
        for spec in specs:
            g = parse_group_spec(spec)
            verdict = is_ci_group(g, "digraph")
            assert verdict.exhaustive
            if not verdict.is_ci:
                s1, s2, iso = verdict.witness
                # Independent re-verification (all-bijections + full Aut list).
                assert (
                    oracles.brute_isomorphism(cayley(g, s1), cayley(g, s2))
                    is not None
                )
                for alpha in g.automorphisms():
                    assert alpha.image_of_set(s1) != s2
            results[spec] = {
                "is_ci": verdict.is_ci,
                "witness": (
                    [sorted(verdict.witness[0]), sorted(verdict.witness[1])]
                    if verdict.witness
                    else None
                ),
                "pairs_checked": verdict.pairs_checked,
                "exhaustive": verdict.exhaustive,
            }
        assert results == snapshot
        ci_names = sorted(s for s in results if results[s]["is_ci"])
        report(
            "C5 desk-scale-ci-sweep",
            f"14 groups, CI: {', '.join(ci_names)}",
            started,
        )


def _ci_groups_of_order_8():
    return [
        spec
        for spec, _ in catalog_specs(8)
        if is_ci_group(parse_group_spec(spec), "digraph").is_ci
    ]


def _instances(group):
    """(kernel, quotient map, iso classes of quotient connection sets)."""
    for kernel in group.normal_subgroups():
        if not 1 < len(kernel) < group.order:
            continue
        qmap = group.quotient(kernel)
        qn = qmap.target.order
        subsets = [
            frozenset(x for x in range(qn) if m >> x & 1) for m in range(1 << qn)
        ]
        graphs = {s: cayley(qmap.target, s) for s in subsets}
        classes: list[list[frozenset[int]]] = []
        for s in subsets:
            for cls in classes:
                if find_isomorphism(graphs[cls[0]], graphs[s]) is not None:
                    cls.append(s)
                    break
            else:
                classes.append([s])
        yield kernel, qmap, classes


class TestCriterion6QuotientCertificates:
    def test_loopless_instances_all_accepted(self):
        """Strict reading over loop-free quotient connection sets: zero
        rejected certificates."""
        started = time.time()
        accepted = 0
        for spec in _ci_groups_of_order_8():
            group = parse_group_spec(spec)
            for kernel, qmap, classes in _instances(group):
                for cls in classes:
                    for s1 in cls:
                        if 0 in s1:
                            continue
                        for s2 in cls:
                            if 0 in s2:
                                continue
                            cert = quotient_ci_certificate(group, kernel, s1, s2)
                            assert cert.accepted, (
                                spec, sorted(kernel), sorted(s1), sorted(s2),
                                cert.failing_checks(),
                            )
                            accepted += 1
        report("C6a quotient-certificates-loopless", f"{accepted} certificates accepted", started)

    def test_looped_instances_match_anticipated_findings(self):
        """Identity-coset instances: every rejection must be the documented
        corner (fully looped quotient that splits over both inner kinds),
        the automorphism blowup must be explained by the dichotomy exactly,
        and the top-level conclusion must still hold."""
        started = time.time()
        accepted = 0
        findings = []
        allowed_failures = {
            "aut_wreath_equality_side1", "aut_wreath_equality_side2",
            "unique_block_system_side1", "unique_block_system_side2",
            "alpha_preserves_cosets", "alpha_fixes_subgroup",
            "alpha_bar_well_defined", "alpha_bar_maps_sets",
        }
        for spec in _ci_groups_of_order_8():
            group = parse_group_spec(spec)
            for kernel, qmap, classes in _instances(group):
                size = len(kernel)
                for cls in classes:
                    for s1 in cls:
                        for s2 in cls:
                            if 0 not in s1 and 0 not in s2:
                                continue
                            cert = quotient_ci_certificate(group, kernel, s1, s2)
                            if cert.accepted:
                                accepted += 1
                                continue
                            instance = (spec, sorted(kernel), sorted(s1), sorted(s2))
                            # isomorphic quotients agree on loops, so both
                            # sides carry the identity coset
                            assert 0 in s1 and 0 in s2, instance
                            q1 = cayley(qmap.target, s1)
                            assert decompose_over_complete(q1) is not None, instance
                            dec = decompose_over_empty(q1)
                            assert dec is not None, instance
                            assert set(cert.failing_checks()) <= allowed_failures, (
                                instance, cert.failing_checks(),
                            )
                            # The cited dichotomy explains the exact Aut order.
                            rep = verify_lift_structure(qmap, s1)
                            predicted = (
                                automorphism_group_of(dec.quotient).order
                                * factorial(dec.inner_size * size)
                                ** dec.quotient.order
                            )
                            assert rep.aut_group.order == predicted, instance
                            # The conclusion itself still holds.
                            assert (
                                automorphic_image_search(qmap.target, s1, s2)
                                is not None
                            ), instance
                            findings.append(instance)
        for spec, kernel, s1, s2 in findings:
            print(
                f"  FINDING: {spec} kernel={kernel} sets={s1}/{s2}: "
                "wreath-equality shortcut fails on this fully looped quotient "
                "(automorphism blowup explained by the dichotomy; conclusion "
                "re-verified directly)"
            )
        report(
            "C6b quotient-certificates-looped",
            f"{accepted} accepted, {len(findings)} anticipated findings",
            started,
        )


class TestCriterion7LiftStructureIdentity:
    def test_arc_identity_and_coset_uniformity(self):
        started = time.time()
        rng = Random(4242)
        eligible = []
        for spec, _ in catalog_specs(12):
            group = parse_group_spec(spec)
            kernels = [
                h for h in group.normal_subgroups() if 1 < len(h) < group.order
            ]
            if kernels:
                eligible.append((group, kernels))
        for _ in range(200):
            group, kernels = eligible[rng.randrange(len(eligible))]
            kernel = kernels[rng.randrange(len(kernels))]
            qmap = group.quotient(kernel)
            qn = qmap.target.order
            s_quot = frozenset(x for x in range(qn) if rng.random() < 0.5)
            lift = lift_connection_set(group, kernel, s_quot)
            lifted = cayley(group, lift.connection)
            # Arc identity under coset-sorted indexing.
            size = lift.block_size
            images = [0] * group.order
            for i, cls in enumerate(lift.coset_partition.classes):
                for pos, x in enumerate(cls):
                    images[x] = i * size + pos
            inner = (
                Digraph.complete(size)
                if lift.case == "non_decomposable"
                else Digraph.empty(size)
            )
            expected = wreath_product(cayley(qmap.target, s_quot), inner)
            assert lifted.relabel(images) == expected
            # Inter-coset arcs depend only on the coset pair.
            classes = lift.coset_partition.classes
            for ci in classes:
                for cj in classes:
                    if ci is cj:
                        continue
                    arcs = {lifted.has_arc(x, y) for x in ci for y in cj}
                    assert len(arcs) == 1
        report("C7 lift-structure-identity", "200 random triples", started)


class TestCriterion8DecompositionOracle:
    @staticmethod
    def _agree(d: Digraph) -> None:
        loopless = d.loop_count == 0
        both = 0
        for kind, op in (
            ("complete", decompose_over_complete),
            ("empty", decompose_over_empty),
        ):
            feasible = oracles.feasible_inner_sizes(d, kind)
            dec = op(d)
            if dec is None:
                assert feasible == set(), (d.out_masks, kind)
            else:
                both += 1
                assert feasible == {
                    r
                    for r in range(2, dec.inner_size + 1)
                    if dec.inner_size % r == 0
                }, (d.out_masks, kind)
        if loopless:
            # A loop-free digraph never splits over both inner kinds; this
            # is what makes the loopless certificate sweep rejection-free.
            assert both < 2, d.out_masks

    def test_exhaustive_small_and_random_larger(self):
        started = time.time()
        checked = 0
        for n in (1, 2, 3, 4):
            for d in oracles.all_digraphs(n, loops=True):
                self._agree(d)
                checked += 1
        for d in oracles.all_digraphs(5, loops=False):
            self._agree(d)
            checked += 1
        rng = Random(31337)
        for _ in range(200_000):
            self._agree(oracles.random_digraph(rng, 5, loops=True))
            checked += 1
        for _ in range(100):
            self._agree(oracles.random_digraph(rng, 6, loops=True))
            checked += 1
        report("C8 decomposition-oracle", f"{checked} digraphs", started)
