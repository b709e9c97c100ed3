"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Oracles are brute force (all bijections, all uniform
partitions) and never share code with the engine paths they check.
"""

import json
import time
from functools import cache
from itertools import permutations
from math import factorial
from pathlib import Path
from random import Random

import numpy as np

import oracles
from cig.ci import (
    _reverify_witness,
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
    group_automorphism,
    parse_group_spec,
)
from cig.iso import automorphism_group_of, find_isomorphism
from cig.limits import Limits

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
            "Z2": oracles.cyclic_group(2),
            "Z3": oracles.cyclic_group(3),
            "S3": oracles.symmetric_group(3),
            "Z4": oracles.cyclic_group(4),
        }
        inners = {"S2": oracles.symmetric_group(2), "Z3": oracles.cyclic_group(3)}
        cases = 0
        for g in outers.values():
            for h in inners.values():
                w = oracles.wreath_product(g, h)
                fibers = oracles.fiber_partition(g.degree, h.degree)
                for partition in oracles.invariant_partitions(w):
                    assert oracles.refines(partition, fibers) or oracles.refines(
                        fibers, partition
                    )
                assert oracles.brute_block_systems(w, h.degree) == [fibers]
                cases += 1
        report("C3 wreath-block-systems", f"{cases} group pairs", started)


def c4_factor_pairs():
    """(name1, d1, name2, d2) for each ordered pair of the vertex-transitive
    factor family of criterion 4 with a product of at most 12 vertices."""
    family = {
        "K1": Digraph.complete(1),
        "K2": Digraph.complete(2),
        "K2bar": Digraph.empty(2),
        "C3": cayley(FiniteGroup.cyclic(3), {1}),
        "K3": Digraph.complete(3),
        "C4": cayley(FiniteGroup.cyclic(4), {1, 3}),
        "K3bar": Digraph.empty(3),
    }
    for name1, d1 in family.items():
        for name2, d2 in family.items():
            if d1.order * d2.order <= 12:
                yield name1, d1, name2, d2


class TestCriterion4WreathAutDichotomy:
    def test_equality_or_explained_blowup(self):
        started = time.time()
        checked = equal_count = blowups = 0
        for name1, d1, name2, d2 in c4_factor_pairs():
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
                            rep = verify_lift_structure(qmap, s1, q1, automorphism_group_of(q1))
                            lifted = cayley(group, rep.lift.connection)
                            predicted = (
                                automorphism_group_of(dec.quotient).order
                                * factorial(dec.inner_size * size)
                                ** dec.quotient.order
                            )
                            assert automorphism_group_of(lifted).order == predicted, instance
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


# The sweepable groups: the catalog, and the order-16 groups whose sweeps
# take about a second each (Z2^4 takes several).
C9_SPECS = [s for s, _ in catalog_specs(12)] + [
    "Z16", "Z2xZ8", "Z4xZ4", "D8", "Z2xZ2xZ4", "Q8xZ2", "Z2xD4",
]


@cache
def group_sweep(spec: str, mode: str):
    """One sweep per C9 group and mode, shared by C9 and C12."""
    return is_ci_group(parse_group_spec(spec), mode)


class TestCriterion9QuotientTheorem:
    def test_quotients_of_ci_groups_sweep_ci(self):
        """The paper's theorem: a quotient of a CI-group is a CI-group, for
        graphs and for digraphs.  Its contrapositive is constructive: the
        certificate lifts a non-CI witness (S, T) of G/H to two connection
        sets of G whose Cayley digraphs are isomorphic, and when only
        `alpha_found` fails, no automorphism of G carries one onto the other.

        For every group above, mode and proper non-trivial normal subgroup H:
        if G sweeps CI, G/H must sweep CI; and the sweep's witness of a
        non-CI G/H must lift to a re-verified witness of a non-CI G."""
        started = time.time()
        findings = []
        counts = {}
        for mode in ("digraph", "graph"):
            quotients = of_ci = lifted = 0
            for spec in C9_SPECS:
                sweep = group_sweep(spec, mode)
                group, group_ci = sweep.group, sweep.is_ci
                for kernel in group.normal_subgroups():
                    if not 1 < len(kernel) < group.order:
                        continue
                    instance = f"{mode} {spec} H={sorted(kernel)}"
                    quotients += 1
                    verdict = is_ci_group(group.quotient(kernel).target, mode)
                    of_ci += group_ci
                    if verdict.is_ci:
                        continue
                    if group_ci:
                        findings.append(f"{instance}: G sweeps CI but G/H does not")
                    s, t, _ = verdict.witness
                    instance += f" S={sorted(s)} T={sorted(t)}"
                    cert = quotient_ci_certificate(group, kernel, s, t, mode)
                    failing = cert.failing_checks()
                    if cert.status != "hypothesis_not_ci" or failing != ["alpha_found"]:
                        findings.append(f"{instance}: certificate {cert.status}, {failing}")
                        continue
                    s1, s2 = cert.lift1.connection, cert.lift2.connection
                    iso = find_isomorphism(cayley(group, s1), cayley(group, s2))
                    if iso is None:
                        findings.append(f"{instance}: lifted digraphs not isomorphic")
                        continue
                    try:
                        _reverify_witness(group, s1, s2, iso)
                    except AssertionError as exc:
                        findings.append(f"{instance}: lift is no witness ({exc})")
                        continue
                    lifted += 1
            counts[mode] = (quotients, of_ci, lifted)
        for finding in findings:
            print(f"  FINDING: {finding}")
        assert not findings
        report(
            "C9 quotient-theorem",
            "; ".join(
                f"{mode}: {q} quotients of {len(C9_SPECS)} groups, {c} of CI groups "
                f"and all CI, {w} non-CI quotient witnesses lifted to witnesses of G"
                for mode, (q, c, w) in counts.items()
            ),
            started,
        )


def _random_automorphism(group: FiniteGroup, rng: Random):
    """A random automorphism of an elementary abelian 2-group: independent
    random images of a basis, extended by products."""
    basis = group.generating_set()
    images: list[int] = []
    for _ in basis:
        span = group.subgroup_generated(images)
        images.append(rng.choice([y for y in range(group.order) if y not in span]))
    alpha = [0] * group.order
    for bits in range(1 << len(basis)):
        x = y = 0
        for i in range(len(basis)):
            if bits >> i & 1:
                x, y = group.mul(x, basis[i]), group.mul(y, images[i])
        alpha[x] = y
    return group_automorphism(group, alpha)


C10_SEEDS = (1, 2, 7, 1010)


class TestCriterion10RankFiveCertificates:
    def test_seeded_loopless_certificates_all_accepted(self):
        """Z2^5 is a DCI-group (Feng and Kovacs, JCTA 157, 2018), so by C6a's
        rule every loop-free certificate whose quotient sets are automorphic
        images of each other must be accepted.  Sixteen instances per seed;
        seed 7 lifts {1, 2, 3, 7} over the kernel {0, 1, 14, 15}, a digraph
        with 608 arcs and twin classes of 4."""
        started = time.time()
        group = parse_group_spec("Z2xZ2xZ2xZ2xZ2")
        kernels = {
            size: [h for h in group.normal_subgroups(Limits(aut=32)) if len(h) == size]
            for size in (2, 4)
        }
        counts = {2: 0, 4: 0}
        slowest = (0.0, None)
        for seed in C10_SEEDS:
            rng = Random(seed)
            for i in range(16):
                size = (2, 4)[i % 2]
                kernel = rng.choice(kernels[size])
                quotient = group.quotient(kernel).target
                s1 = frozenset(x for x in range(1, quotient.order) if rng.random() < 0.5)
                s2 = _random_automorphism(quotient, rng).image_of_set(s1)
                instance = (seed, sorted(kernel), sorted(s1), sorted(s2))
                t = time.time()
                cert = quotient_ci_certificate(group, kernel, s1, s2)
                assert cert.accepted, (instance, cert.failing_checks())
                elapsed = time.time() - t
                if elapsed >= slowest[0]:
                    slowest = (elapsed, instance)
                counts[size] += 1
        report(
            "C10 rank-five-certificates",
            f"{sum(counts.values())} certificates accepted over seeds {C10_SEEDS} "
            f"({counts[2]} with |H| = 2, {counts[4]} with |H| = 4), "
            f"slowest {slowest[0]:.2f}s at {slowest[1]}",
            started,
        )


C11_SEED = 11


class TestCriterion11WreathAutTheorem:
    def test_seeded_cayley_pairs_follow_the_twin_condition(self):
        """Sabidussi settled when Aut(X wreath Y) = Aut(X) wreath Aut(Y) for
        graphs ("The composition of graphs", Duke Math. J. 26, 1959), and
        Dobson and Morris for vertex-transitive digraphs ("Automorphism groups
        of wreath product digraphs", Electron. J. Combin. 16, 2009).  The
        condition tested here, for loop-free vertex-transitive X (outer) and
        Y (inner), is our reading of those results, not a quotation: equality
        fails exactly when Y is disconnected and X has two non-adjacent
        twins, or Y's complement is disconnected and X has two adjacent
        twins.  Pairs of loop-free Cayley digraphs of the catalog groups with
        products of at most 40 vertices; every unequal report must explain
        its order."""
        started = time.time()
        rng = Random(C11_SEED)
        groups = [parse_group_spec(spec) for spec, _ in catalog_specs(12)]

        def random_cayley(group):
            size = rng.randrange(group.order)
            return cayley(group, rng.sample(range(1, group.order), size))

        equal_count = blowups = 0
        for _ in range(400):
            g1 = rng.choice(groups)
            g2 = rng.choice([g for g in groups if g1.order * g.order <= 40])
            outer, inner = random_cayley(g1), random_cayley(g2)
            pair = (g1.name, outer.out_masks, g2.name, inner.out_masks)
            reported = verify_wreath_aut_dichotomy(outer, inner)
            assert reported.equal != oracles.wreath_aut_blows_up(outer, inner), pair
            if reported.equal:
                equal_count += 1
            else:
                assert reported.dichotomy is not None, pair
                assert reported.dichotomy.predicted_order == reported.product_aut_order
                blowups += 1
        report(
            "C11 wreath-aut-theorem",
            f"{equal_count + blowups} seeded pairs (seed {C11_SEED}), "
            f"{equal_count} equal, {blowups} blow-ups, all as the twin condition says",
            started,
        )


class TestCriterion12SubgroupTheorem:
    def test_subgroups_of_ci_groups_sweep_ci(self):
        """Babai and Frankl ("Isomorphisms of Cayley graphs I", Colloq. Math.
        Soc. Janos Bolyai 18, 1978), as Li's survey states it ("On
        isomorphisms of finite Cayley graphs -- a survey", Discrete Math.
        256, 2002), paraphrased: every subgroup of a CI-group is a CI-group,
        for graphs and for digraphs.

        For every C9 group, mode and proper non-trivial subgroup K: if G
        sweeps CI, K must sweep CI.  A witness (S, T) of a non-CI K is read
        as two subsets of G.  Cay(G, S) is |G:K| copies of Cay(K, S), so the
        two digraphs of G are isomorphic, and (S, T) is a witness for G too
        exactly when no automorphism of G carries S onto T.  Those are
        counted, not asserted on.  Equal subgroup tables are swept once."""
        started = time.time()
        findings = []
        counts = {}
        sweeps = {}
        for mode in ("digraph", "graph"):
            subgroups = of_ci = non_ci = for_g = 0
            for spec in C9_SPECS:
                sweep = group_sweep(spec, mode)
                group, group_ci = sweep.group, sweep.is_ci
                for elements in group.subgroups():
                    if not 1 < len(elements) < group.order:
                        continue
                    subgroups += 1
                    of_ci += group_ci
                    members = sorted(elements)
                    k = oracles.subgroup_as_group(group, members)
                    if (k.table, mode) not in sweeps:
                        sweeps[k.table, mode] = is_ci_group(k, mode)
                    verdict = sweeps[k.table, mode]
                    if verdict.is_ci:
                        continue
                    non_ci += 1
                    if group_ci:
                        findings.append(
                            f"{mode} {spec} K={members}: G sweeps CI but K does not"
                        )
                    s, t = ({members[x] for x in side} for side in verdict.witness[:2])
                    for_g += automorphic_image_search(group, s, t) is None
            counts[mode] = (subgroups, of_ci, non_ci, for_g)
        for finding in findings:
            print(f"  FINDING: {finding}")
        assert not findings
        report(
            "C12 subgroup-theorem",
            "; ".join(
                f"{mode}: {k} subgroups of {len(C9_SPECS)} groups, {c} of CI groups "
                f"and all CI, {w} witnesses of non-CI subgroups, {g} also witnesses of G"
                for mode, (k, c, w, g) in counts.items()
            )
            + f"; {len(sweeps)} distinct subgroup tables swept",
            started,
        )
