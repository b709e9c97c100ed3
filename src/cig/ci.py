"""CI-pair and CI-group testing, connection-set lifting, and end-to-end
machine verification of the quotient construction on concrete instances.

Everything here is exhaustive at desk scale: isomorphism verdicts come from
full backtracking search (CI sweeps first rule out every pair whose rooted
refinement keys differ), automorphism verdicts from strong generating sets
(exact group orders, membership checked on generators), and the quotient
certificate records one named boolean per verification step.  A
certificate builds G/H once and checks each side's lift against it in one
`verify_lift_structure` pass: arcs, the wreath automorphism group, and the
cosets as the only block system of their size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator

from cig import perms
from cig.digraphs import (
    Digraph,
    cayley,
    decompose_over_complete,
    decompose_over_empty,
    wreath_product,
)
from cig.groups import FiniteGroup, QuotientMap, automorphic_image_search
from cig.iso import automorphism_group_of, find_isomorphism, rooted_key
from cig.limits import DEFAULT_LIMITS, CapExceeded, Limits
from cig.perms import Perm, PermGroup, PointPartition

MODES = ("digraph", "graph")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_subset(group: FiniteGroup, subset: frozenset[int], what: str) -> None:
    for x in subset:
        if not 0 <= x < group.order:
            raise ValueError(f"{what} element {x} out of range for order {group.order}")


def _check_sets(
    group: FiniteGroup, mode: str, s1: frozenset[int], s2: frozenset[int]
) -> None:
    """The mode, both sets' ranges, and in graph mode their inverse-closure."""
    _check_mode(mode)
    _check_subset(group, s1, "set1")
    _check_subset(group, s2, "set2")
    if mode == "graph":
        for s in (s1, s2):
            if not group.is_inverse_closed(s):
                raise ValueError(
                    f"graph mode requires inverse-closed sets, got {sorted(s)}"
                )


# ---------------------------------------------------------------------------
# CI pairs and CI groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CIPairResult:
    """Outcome of comparing two connection sets of one group."""

    verdict: str  # "not_isomorphic" | "ci_equivalent" | "non_ci_witness"
    alpha: Perm | None
    iso: Perm | None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "alpha": list(self.alpha.images) if self.alpha else None,
            "iso": list(self.iso.images) if self.iso else None,
        }


def ci_pair(
    group: FiniteGroup,
    set1: Iterable[int],
    set2: Iterable[int],
    mode: str = "digraph",
    limits: Limits = DEFAULT_LIMITS,
) -> CIPairResult:
    """Classify a pair of connection sets.

    not_isomorphic: the Cayley digraphs differ; ci_equivalent: some group
    automorphism carries one set to the other; non_ci_witness: isomorphic
    but no automorphism works (exhaustively checked).
    """
    s1, s2 = frozenset(set1), frozenset(set2)
    _check_sets(group, mode, s1, s2)
    iso = find_isomorphism(cayley(group, s1), cayley(group, s2), limits)
    if iso is None:
        return CIPairResult("not_isomorphic", None, None)
    alpha = automorphic_image_search(group, s1, s2, limits)
    if alpha is None:
        return CIPairResult("non_ci_witness", None, iso)
    return CIPairResult("ci_equivalent", alpha, iso)


def enumerate_connection_sets(group: FiniteGroup, mode: str) -> list[frozenset[int]]:
    """All candidate connection sets, ordered by (size, elements).

    Digraph mode: every subset.  Graph mode: every inverse-closed subset,
    built from {x, x^-1} pairs.
    """
    _check_mode(mode)
    n = group.order
    if mode == "digraph":
        if n > 16:
            raise CapExceeded(f"2^{n} connection sets is past desk scale")
        subsets = [
            frozenset(x for x in range(n) if m >> x & 1) for m in range(1 << n)
        ]
    else:
        pairs = []
        seen: set[int] = set()
        for x in range(n):
            if x in seen:
                continue
            pair = frozenset({x, group.inv(x)})
            seen |= pair
            pairs.append(pair)
        if len(pairs) > 16:
            raise CapExceeded(f"2^{len(pairs)} connection sets is past desk scale")
        subsets = []
        for m in range(1 << len(pairs)):
            s: frozenset[int] = frozenset()
            for i, pair in enumerate(pairs):
                if m >> i & 1:
                    s |= pair
            subsets.append(s)
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class CIGroupVerdict:
    """Result of sweeping all connection-set pairs of one group."""

    group: FiniteGroup
    mode: str
    is_ci: bool
    witness: tuple[frozenset[int], frozenset[int], Perm] | None
    pairs_checked: int
    exhaustive: bool

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "mode": self.mode,
            "is_ci": self.is_ci,
            "witness": (
                [sorted(self.witness[0]), sorted(self.witness[1]), list(self.witness[2].images)]
                if self.witness
                else None
            ),
            "pairs_checked": self.pairs_checked,
            "exhaustive": self.exhaustive,
        }


def _reverify_witness(
    group: FiniteGroup, s1: frozenset[int], s2: frozenset[int], iso: Perm,
    limits: Limits = DEFAULT_LIMITS,
) -> None:
    """Independent re-check of a non-CI witness; raises on any failure."""
    if cayley(group, s1).relabel(iso.images) != cayley(group, s2):
        raise AssertionError("witness isomorphism does not preserve arcs")
    for alpha in group.automorphisms(limits):
        if alpha.image_of_set(s1) == s2:
            raise AssertionError("witness has an automorphic image after all")


def orbit_representatives(
    group: FiniteGroup, mode: str, limits: Limits = DEFAULT_LIMITS
) -> list[frozenset[int]]:
    """The first connection set of every Aut(G)-orbit, in enumeration order."""
    auts = group.automorphisms(limits)
    reps: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for s in enumerate_connection_sets(group, mode):
        if s in seen:
            continue
        seen.update(alpha.image_of_set(s) for alpha in auts)
        reps.append(s)
    return reps


def _same_key_pairs(
    group: FiniteGroup, classes: list[list[frozenset[int]]], limits: Limits
) -> Iterator[tuple[int, frozenset[int], frozenset[int]]]:
    """(position, s1, s2) for each same-size pair with equal rooted keys, in
    scan order; `position` is its 1-based index among all same-size pairs.
    Keys are computed one size at a time, as the scan gets there."""
    offset = 0
    for same_size in classes:
        m = len(same_size)
        if m < 2:
            continue
        by_key: dict[tuple, list[int]] = {}
        for i, r in enumerate(same_size):
            by_key.setdefault(rooted_key(cayley(group, r), limits), []).append(i)
        pairs = sorted(p for ids in by_key.values() for p in combinations(ids, 2))
        for i, j in pairs:
            position = offset + i * m - i * (i + 1) // 2 + j - i
            yield position, same_size[i], same_size[j]
        offset += m * (m - 1) // 2


def is_ci_group(
    group: FiniteGroup,
    mode: str = "digraph",
    budget: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> CIGroupVerdict:
    """Exhaustive CI sweep over automorphism-orbit representatives.

    Distinct representatives lie in distinct Aut(G)-orbits, so G is CI
    exactly when no two of equal size have isomorphic Cayley digraphs.
    Each gets one `rooted_key` (refinement with the identity individualised,
    canonical when discrete); pairs with different keys are not isomorphic,
    so `ci_pair` runs only on same-key pairs, in scan order (by size, then
    index i < j), up to the first re-verified witness.

    `pairs_checked` counts the pairs decided in that scan order: the
    witness's 1-based position, or all same-size pairs when there is none,
    capped at `budget` (at least 1).  `exhaustive` is cleared only when the
    budget ran out before the scan was decided.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive number of pairs, got {budget}")
    by_size: dict[int, list[frozenset[int]]] = {}
    for r in orbit_representatives(group, mode, limits):
        by_size.setdefault(len(r), []).append(r)
    classes = [same_size for _, same_size in sorted(by_size.items())]

    witness = None
    decided = sum(len(c) * (len(c) - 1) // 2 for c in classes)
    for position, s1, s2 in _same_key_pairs(group, classes, limits):
        if budget is not None and position > budget:
            break
        res = ci_pair(group, s1, s2, mode, limits)
        if res.verdict == "non_ci_witness":
            assert res.iso is not None
            _reverify_witness(group, s1, s2, res.iso, limits)
            witness, decided = (s1, s2, res.iso), position
            break
    exhaustive = budget is None or decided <= budget
    return CIGroupVerdict(
        group=group,
        mode=mode,
        is_ci=witness is None,
        witness=witness,
        pairs_checked=decided if exhaustive else budget,
        exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
# Connection-set lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    """A quotient connection set lifted to the full group.

    non_decomposable: the union of the named cosets plus the non-identity
    kernel elements (the lifted digraph is quotient-wreath-complete);
    decomposable: the union alone (quotient-wreath-empty).
    """

    case: str  # "non_decomposable" | "decomposable"
    connection: frozenset[int]
    block_size: int
    coset_partition: PointPartition

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "connection": sorted(self.connection),
            "block_size": self.block_size,
            "cosets": [list(c) for c in self.coset_partition.classes],
        }


def _lift(qmap: QuotientMap, s_quotient: frozenset[int]) -> LiftResult:
    _check_subset(qmap.target, s_quotient, "quotient connection set")
    dq = cayley(qmap.target, s_quotient)
    union = qmap.lift_set(s_quotient)
    if decompose_over_complete(dq) is None:
        case = "non_decomposable"
        connection = union | (qmap.kernel - {0})
    else:
        case = "decomposable"
        connection = union
    return LiftResult(
        case=case,
        connection=frozenset(connection),
        block_size=len(qmap.kernel),
        coset_partition=qmap.cosets,
    )


def lift_connection_set(
    group: FiniteGroup, subgroup: Iterable[int], s_quotient: Iterable[int]
) -> LiftResult:
    """Lift a quotient connection set, choosing the case by decomposability."""
    qmap = group.quotient(frozenset(subgroup))
    return _lift(qmap, frozenset(s_quotient))


@dataclass(frozen=True)
class LiftStructureReport:
    """Arc-level, automorphism-level and block-level verification of one lift."""

    lift: LiftResult
    quotient_digraph: Digraph
    lifted_digraph: Digraph
    aut_group: PermGroup
    expected_aut_order: int
    checks: dict[str, bool]

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())


def verify_lift_structure(
    qmap: QuotientMap,
    s_quotient: Iterable[int],
    limits: Limits = DEFAULT_LIMITS,
) -> LiftStructureReport:
    """Check that the lifted Cayley digraph is exactly the expected wreath
    product, that its automorphism group is the expected wreath group, and
    that the cosets are that group's only block system of their size.

    Group equality is order equality plus two-way generator membership.
    Both groups are subgroups of Sym(n), so each lies inside the other
    exactly when its generators do: the generators of Aut(quotient) wr
    S_block, acting on the lifted digraph relabelled so that the cosets are
    its fibers, must preserve that digraph's arcs, and each generator of
    Aut(lifted) found by the search must carry cosets onto cosets and
    induce an automorphism of the quotient digraph.  The orders are exact:
    products of basic-orbit lengths, and, for the wreath group,
    |Aut(quotient)| * (block size)!^|quotient|.
    """
    s_quotient = frozenset(s_quotient)
    lift = _lift(qmap, s_quotient)
    cosets, size = lift.coset_partition, lift.block_size
    dq = cayley(qmap.target, s_quotient)
    lifted = cayley(qmap.source, lift.connection)

    inner = (
        Digraph.complete(size)
        if lift.case == "non_decomposable"
        else Digraph.empty(size)
    )
    expected = wreath_product(dq, inner)
    relabeled = lifted.relabel(cosets.fiber_images())
    arc_identity = relabeled == expected

    aut_lifted = automorphism_group_of(lifted, limits)
    aut_q = automorphism_group_of(dq, limits)
    wreath = perms.wreath_product(aut_q, perms.symmetric_group(size))

    order_equal = aut_lifted.order == wreath.order
    gens_in_aut = all(
        relabeled.relabel(g.images) == relabeled for g in wreath.generators
    )
    aut_in_wreath = all(
        (bar := cosets.induced(g)) is not None and dq.relabel(bar.images) == dq
        for g in aut_lifted.generators
    )
    checks = {
        "arc_identity": arc_identity,
        "aut_order_equal": order_equal,
        "wreath_generators_in_aut": gens_in_aut,
        "aut_inside_wreath": aut_in_wreath,
        "unique_block_system": aut_lifted.block_systems(size) == [cosets],
    }
    return LiftStructureReport(
        lift=lift,
        quotient_digraph=dq,
        lifted_digraph=lifted,
        aut_group=aut_lifted,
        expected_aut_order=wreath.order,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# The quotient certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientCICertificate:
    """Machine-checkable trace of the quotient construction on one instance."""

    group: FiniteGroup
    subgroup: frozenset[int]
    set1: frozenset[int]
    set2: frozenset[int]
    mode: str
    status: str
    accepted: bool
    degenerate: bool
    checks: dict[str, bool]
    lift1: LiftResult | None
    lift2: LiftResult | None
    alpha: Perm | None
    alpha_bar: Perm | None

    def failing_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def to_json(self) -> dict:
        return {
            "group": self.group.name,
            "group_order": self.group.order,
            "subgroup": sorted(self.subgroup),
            "set1": sorted(self.set1),
            "set2": sorted(self.set2),
            "mode": self.mode,
            "status": self.status,
            "accepted": self.accepted,
            "degenerate": self.degenerate,
            "checks": dict(self.checks),
            "lift1": self.lift1.to_json() if self.lift1 else None,
            "lift2": self.lift2.to_json() if self.lift2 else None,
            "alpha": list(self.alpha.images) if self.alpha else None,
            "alpha_bar": list(self.alpha_bar.images) if self.alpha_bar else None,
        }


def quotient_ci_certificate(
    group: FiniteGroup,
    subgroup: Iterable[int],
    set1: Iterable[int],
    set2: Iterable[int],
    mode: str = "digraph",
    limits: Limits = DEFAULT_LIMITS,
) -> QuotientCICertificate:
    """Run the whole lift-and-descend verification on one instance.

    Every step is a named boolean check; the certificate is accepted only
    when all of them hold.  A missing lift automorphism is reported as the
    group not being CI at this instance, not as a pipeline error.  Trivial
    kernels (size 1 or the whole group) short-circuit to a direct
    quotient-level verification.
    """
    h = frozenset(subgroup)
    qmap = group.quotient(h)  # validates normality
    s1, s2 = frozenset(set1), frozenset(set2)
    _check_sets(qmap.target, mode, s1, s2)

    size = len(h)
    checks: dict[str, bool] = {}

    def certificate(status, accepted, degenerate=False, lift1=None, lift2=None,
                    alpha=None, alpha_bar=None):
        return QuotientCICertificate(
            group=group, subgroup=h, set1=s1, set2=s2, mode=mode,
            status=status, accepted=accepted, degenerate=degenerate,
            checks=checks, lift1=lift1, lift2=lift2,
            alpha=alpha, alpha_bar=alpha_bar,
        )

    dq1 = cayley(qmap.target, s1)
    dq2 = cayley(qmap.target, s2)
    iso_q = find_isomorphism(dq1, dq2, limits)
    checks["quotient_isomorphic"] = iso_q is not None
    if iso_q is None:
        return certificate("quotient_not_isomorphic", False)

    if size in (1, group.order):
        # Degenerate kernel: the quotient is the group itself (or trivial);
        # verify the conclusion directly at quotient level.
        beta = automorphic_image_search(qmap.target, s1, s2, limits)
        checks["alpha_bar_found"] = beta is not None
        checks["alpha_bar_maps_sets"] = (
            beta is not None and beta.image_of_set(s1) == s2
        )
        accepted = all(checks.values())
        status = "accepted" if accepted else "hypothesis_not_ci"
        return certificate(status, accepted, degenerate=True, alpha_bar=beta)

    report1 = verify_lift_structure(qmap, s1, limits)
    report2 = verify_lift_structure(qmap, s2, limits)
    lift1, lift2 = report1.lift, report2.lift
    checks["lift_cases_agree"] = lift1.case == lift2.case
    per_side = {
        "lift_arc_identity": ("arc_identity",),
        "aut_wreath_equality": (
            "aut_order_equal", "wreath_generators_in_aut", "aut_inside_wreath",
        ),
        "unique_block_system": ("unique_block_system",),
    }
    for name, keys in per_side.items():
        for side, report in enumerate((report1, report2), 1):
            checks[f"{name}_side{side}"] = all(report.checks[k] for k in keys)

    alpha = automorphic_image_search(group, lift1.connection, lift2.connection, limits)
    checks["alpha_found"] = alpha is not None
    if alpha is None:
        return certificate("hypothesis_not_ci", False, lift1=lift1, lift2=lift2)

    checks["alpha_preserves_cosets"] = qmap.cosets.induced(alpha) is not None
    checks["alpha_fixes_subgroup"] = alpha.image_of_set(h) == h

    alpha_bar = None
    if checks["alpha_fixes_subgroup"]:
        try:
            alpha_bar = qmap.induce(alpha)
            checks["alpha_bar_well_defined"] = True
        except (ValueError, RuntimeError):
            checks["alpha_bar_well_defined"] = False
    else:
        checks["alpha_bar_well_defined"] = False
    checks["alpha_bar_maps_sets"] = (
        alpha_bar is not None and alpha_bar.image_of_set(s1) == s2
    )

    accepted = all(checks.values())
    return certificate(
        "accepted" if accepted else "rejected",
        accepted,
        lift1=lift1,
        lift2=lift2,
        alpha=alpha,
        alpha_bar=alpha_bar,
    )


# ---------------------------------------------------------------------------
# Wreath automorphism dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DichotomyWitness:
    """Parameters explaining an automorphism-group blowup of a wreath product."""

    r: int
    s: int
    inner_kind: str  # factoring of the outer graph: over complete or empty
    predicted_order: int

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "s": self.s,
            "inner_kind": self.inner_kind,
            "predicted_order": self.predicted_order,
        }


@dataclass(frozen=True)
class WreathAutReport:
    """Aut of a wreath product versus the wreath of the factor Auts."""

    factor1: Digraph
    factor2: Digraph
    aut_order_1: int
    aut_order_2: int
    product_aut_order: int
    wreath_order: int
    equal: bool
    dichotomy: DichotomyWitness | None

    def to_json(self) -> dict:
        return {
            "factor1": self.factor1.to_json(),
            "factor2": self.factor2.to_json(),
            "aut_order_1": self.aut_order_1,
            "aut_order_2": self.aut_order_2,
            "product_aut_order": self.product_aut_order,
            "wreath_order": self.wreath_order,
            "equal": self.equal,
            "dichotomy": self.dichotomy.to_json() if self.dichotomy else None,
        }


def _iso_pieces(d: Digraph, components: list[list[int]], limits: Limits) -> Digraph | None:
    """Induced subgraph of the first component if all are isomorphic."""
    pieces = [d.induced(c) for c in components]
    first = pieces[0]
    for other in pieces[1:]:
        if find_isomorphism(first, other, limits) is None:
            return None
    return first


def verify_wreath_aut_dichotomy(
    d1: Digraph, d2: Digraph, limits: Limits = DEFAULT_LIMITS
) -> WreathAutReport:
    """Compare Aut(d1 wreath d2) with Aut(d1) wreath Aut(d2).

    When unequal, find the blowup parameters: the outer factor must split
    over a complete (or empty) inner factor of size r, the inner factor must
    be a join (or disjoint union) of s isomorphic pieces, and the composite
    wreath formula must reproduce the computed order exactly.
    """
    a1 = automorphism_group_of(d1, limits)
    a2 = automorphism_group_of(d2, limits)
    if not a1.is_transitive() or not a2.is_transitive():
        raise ValueError("both factors must be vertex-transitive")
    product = wreath_product(d1, d2)
    aut_product = automorphism_group_of(product, limits)
    wreath_order = a1.order * a2.order**d1.order
    equal = aut_product.order == wreath_order

    dichotomy = None
    if not equal:
        for kind in ("complete", "empty"):
            if kind == "complete":
                dec = decompose_over_complete(d1)
                comps = d2.complement().weak_components()
            else:
                dec = decompose_over_empty(d1)
                comps = d2.weak_components()
            if dec is None or len(comps) < 2:
                continue
            piece = _iso_pieces(d2, comps, limits)
            if piece is None:
                continue
            r, s = dec.inner_size, len(comps)
            inner_aut = automorphism_group_of(piece, limits)
            outer_aut = automorphism_group_of(dec.quotient, limits)
            predicted = (
                outer_aut.order
                * (factorial(r * s) * inner_aut.order ** (r * s)) ** dec.quotient.order
            )
            if predicted == aut_product.order:
                dichotomy = DichotomyWitness(r, s, kind, predicted)
                break
    return WreathAutReport(
        factor1=d1,
        factor2=d2,
        aut_order_1=a1.order,
        aut_order_2=a2.order,
        product_aut_order=aut_product.order,
        wreath_order=wreath_order,
        equal=equal,
        dichotomy=dichotomy,
    )
