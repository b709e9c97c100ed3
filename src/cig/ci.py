"""CI-pair and CI-group testing, connection-set lifting, and end-to-end
machine verification of the quotient construction on concrete instances.

Everything here is exhaustive at desk scale: isomorphism verdicts come from
full backtracking search (CI sweeps search only loop-free connection sets of
at most (n-1)/2 elements, since adding the identity loops every vertex and
the complement in G - {e} complements the digraph; they rule out pairs whose
neighbourhood keys differ, then those whose rooted refinement keys differ,
and run `find_isomorphism` on the rest),
automorphism verdicts from generating sets
(exact group orders, membership checked on generators), and the quotient
certificate records one named boolean per verification step.  A
certificate builds G/H and the two quotient digraphs once.  It finds the
quotient isomorphism as an automorphism of G/H carrying one quotient set
onto the other (the set transporter), after their neighbourhood keys tie;
`find_isomorphism` runs only on key-tied pairs that no automorphism
relates.  It runs one automorphism search of a quotient digraph: Aut(dq2)
is Aut(dq1) carried over by the quotient isomorphism.  It checks each
side's lift in `verify_lift_structure`: arcs, the wreath automorphism
group, and the cosets as the only block system of their size, which holds
exactly when they are the lifted digraph's twin classes.  One pass over
G's table gives the lifted digraph's rows in fiber order for the arc
identity; the twin classes and the lift's case are read from the quotient
digraph's.  No lift check builds a digraph on G's points or searches one:
whether two cosets merge into one twin class decides both the block check
and the group orders, and the wreath check tests only what else can fail,
that each generator of Aut(quotient) preserves the quotient digraph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator

from cig.digraphs import (
    Digraph,
    _class_takes_kind,
    _has_wreath_factor,
    _wreath_masks,
    cayley,
    wreath_product,
)
from cig.groups import FiniteGroup, QuotientMap, _check_subset, automorphic_image_search
from cig.iso import (
    _check_cap,
    automorphism_group_of,
    find_isomorphism,
    neighbourhood_key,
    rooted_key,
)
from cig.limits import DEFAULT_LIMITS, SWEEP_SET_CAP, CapExceeded, Limits
from cig.perms import Perm, PermGroup, PointPartition

MODES = ("digraph", "graph")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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
    alpha = automorphic_image_search(group, s1, s2)
    if alpha is None:
        return CIPairResult("non_ci_witness", None, iso)
    return CIPairResult("ci_equivalent", alpha, iso)


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
    group: FiniteGroup, s1: frozenset[int], s2: frozenset[int], iso: Perm
) -> None:
    """Independent re-check of a non-CI witness; raises on any failure."""
    if cayley(group, s1).relabel(iso.images) != cayley(group, s2):
        raise AssertionError("witness isomorphism does not preserve arcs")
    if automorphic_image_search(group, s1, s2) is not None:
        raise AssertionError("witness has an automorphic image after all")


def _loop_free_representatives(
    group: FiniteGroup, mode: str, limits: Limits
) -> list[list[frozenset[int]]]:
    """The first set of each Aut(G)-orbit of connection sets without the
    identity and of at most (n-1)/2 elements, one list per size.  A set is
    a union of atoms: singletons in digraph mode, {x, x^-1} in graph mode.

    The sets are counted before any is listed: the coefficients up to
    (n-1)/2 of the product of (1 + x^|atom|) over the non-identity atoms.
    Past SWEEP_SET_CAP it refuses before Aut(G) is listed.  Sets are ints
    with element x at bit n-1-x, so within one size descending ints are
    ascending element tuples.  Each kept set is imaged under every
    automorphism at once: its elements' columns of image bits, summed."""
    _check_mode(mode)
    n, half = group.order, (group.order - 1) // 2
    bit = [1 << n - 1 - x for x in range(n)]
    atoms = {bit[x] | bit[group.inv(x)] if mode == "graph" else bit[x] for x in range(1, n)}
    counts = [1] + [0] * half
    for atom in atoms:
        size = atom.bit_count()
        for k in range(half, size - 1, -1):
            counts[k] += counts[k - size]
    if (total := sum(counts)) > SWEEP_SET_CAP:
        raise CapExceeded(
            f"{total} connection sets to list is past the sweep bound of {SWEEP_SET_CAP}"
        )
    images = [alpha.images for alpha in group.automorphisms(limits)]
    by_size: list[list[int]] = [[0]] + [[] for _ in range(half)]
    for atom in atoms:
        size = atom.bit_count()
        for k in range(half - size, -1, -1):
            by_size[k + size] += [s | atom for s in by_size[k]]
    columns = [[bit[image[x]] for image in images] for x in range(n)]
    reps: list[list[frozenset[int]]] = []
    for same_size in by_size:
        kept: list[frozenset[int]] = []
        seen: set[int] = set()
        same_size.sort(reverse=True)
        for s in same_size:
            if s not in seen:
                elements = [x for x in range(n) if s & bit[x]]
                seen.update(map(sum, zip(*(columns[x] for x in elements))))
                kept.append(frozenset(elements))
        reps.append(kept)
    return reps


def _class_sizes(reps: list[list[frozenset[int]]], order: int) -> list[int]:
    """m_k = L_{k-1} + L_k representatives of each size k = 0..n, where L_k
    counts the loop-free ones: L_k = L_{n-1-k}, and L_{-1} = L_n = 0."""
    loop_free = [len(reps[min(k, order - 1 - k)]) for k in range(order)] + [0]
    return [loop_free[k - 1] + loop_free[k] for k in range(order + 1)]


def _same_key_pairs(
    group: FiniteGroup, reps: list[list[frozenset[int]]], sizes: list[int], limits: Limits
) -> Iterator[tuple[int, frozenset[int], frozenset[int], Digraph, Digraph]]:
    """(position, s1, s2, cayley(s1), cayley(s2)) for each same-size pair of
    loop-free representatives with equal neighbourhood keys and equal rooted
    keys, in scan order, keyed one size at a time; `position` is the pair's
    1-based index among all same-size pairs, where the looped
    representatives come first.  A size's representatives are grouped by
    `neighbourhood_key`, and only those in a group of two or more get a
    `rooted_key`, which groups them further."""
    offset = 0
    for same_size, m in zip(reps, sizes):
        if len(same_size) > 1:
            shift = m - len(same_size)
            digraphs = [cayley(group, r) for r in same_size]
            profiles = [neighbourhood_key(d) for d in digraphs]
            ties = Counter(profiles)
            by_key: dict[tuple, list[int]] = {}
            for i, (d, profile) in enumerate(zip(digraphs, profiles)):
                if ties[profile] > 1:
                    by_key.setdefault((profile, rooted_key(d, limits)), []).append(i)
            for i, j in sorted(p for ids in by_key.values() for p in combinations(ids, 2)):
                a, b = i + shift, j + shift
                position = offset + a * m - a * (a + 1) // 2 + b - a
                yield position, same_size[i], same_size[j], digraphs[i], digraphs[j]
        offset += m * (m - 1) // 2


def is_ci_group(
    group: FiniteGroup,
    mode: str = "digraph",
    budget: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> CIGroupVerdict:
    """Exhaustive CI sweep over automorphism-orbit representatives.

    A representative is the first connection set of its Aut(G)-orbit in
    (size, elements) order.  G is CI exactly when no two of equal size have
    isomorphic Cayley digraphs.  Pairs are scanned by size, then i < j, up
    to the first isomorphic pair, the witness.  Only loop-free
    representatives of at most (n-1)/2 elements are listed and searched:

    - S -> S + {e} loops every vertex.  The looped representatives of size
      k are {e} + those of size k-1 and come first in size k; a looped pair
      is isomorphic iff its pair one size down is, a mixed pair never is.
    - S -> G - {e} - S complements a loop-free Cayley digraph and keeps
      inverse-closed sets so.  A witness of size k > (n-1)/2 gives one of
      size n-1-k < k, scanned earlier.

    So the first witness is a listed pair (i, j) of size k, the full scan's
    pair (L_{k-1} + i, L_{k-1} + j) with L_k loop-free representatives of
    size k, and `_class_sizes` gives every size's count.

    Each listed set gets one `neighbourhood_key` (popcounts over the
    identity's neighbourhood), and each set whose neighbourhood key another
    set of its size shares gets one `rooted_key` (refinement with the
    identity individualised, canonical when discrete).  Isomorphic sets
    share both keys, so `find_isomorphism` runs only on pairs that do, and
    the first isomorphic pair in scan order is among them.  No set
    transporter runs until the witness, which `_reverify_witness` checks
    once.  `pairs_checked` counts the pairs decided in scan order: the
    witness's 1-based position, or all same-size pairs when there is none,
    capped at `budget` (at least 1).
    `exhaustive` is cleared only when the budget ran out before the scan
    was decided.  A group past the search cap is refused before any work,
    and one with more than SWEEP_SET_CAP sets to list before Aut(G) is
    listed.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive number of pairs, got {budget}")
    _check_cap(group.order, limits.search)
    reps = _loop_free_representatives(group, mode, limits)
    sizes = _class_sizes(reps, group.order)

    witness = None
    decided = sum(m * (m - 1) // 2 for m in sizes)
    for position, s1, s2, d1, d2 in _same_key_pairs(group, reps, sizes, limits):
        if budget is not None and position > budget:
            break
        iso = find_isomorphism(d1, d2, limits)
        if iso is not None:
            _reverify_witness(group, s1, s2, iso)
            witness, decided = (s1, s2, iso), position
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


def _lift(qmap: QuotientMap, s_quotient: frozenset[int], dq: Digraph) -> LiftResult:
    union = qmap.lift_set(s_quotient)
    if not _has_wreath_factor(dq, "complete"):
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
    s_quotient = frozenset(s_quotient)
    _check_subset(qmap.target, s_quotient, "quotient connection set")
    return _lift(qmap, s_quotient, cayley(qmap.target, s_quotient))


@dataclass(frozen=True)
class LiftStructureReport:
    """Arc-level, automorphism-level and block-level verification of one lift."""

    lift: LiftResult
    checks: dict[str, bool]


def _fiber_masks(
    group: FiniteGroup, connection: frozenset[int], cosets: PointPartition
) -> list[int]:
    """The out-masks of Cay(group, connection) relabelled by
    `cosets.fiber_images()`, in one pass over the group table: row fib[x]
    holds fib[x*t] for each t in the connection set."""
    fib = cosets.fiber_images()
    bits = [1 << y for y in fib]
    masks = [0] * group.order
    for x, row in enumerate(group.table):
        out = 0
        for t in connection:
            out |= bits[row[t]]
        masks[fib[x]] = out
    return masks


def _fibers_merge(dq: Digraph, lift: LiftResult) -> bool:
    """Whether two fibers of wreath_product(dq, inner), the lifted digraph
    in fiber order, share a twin class when |H| >= 2, read from dq's twin
    classes by the fiber-merge lemma of `verify_lift_structure`."""
    kind = "complete" if lift.case == "non_decomposable" else "empty"
    return any(
        len(members) > 1 and _class_takes_kind(dq, members, kind)
        for members in dq.twin_classes()
    )


def verify_lift_structure(
    qmap: QuotientMap,
    s_quotient: Iterable[int],
    dq: Digraph,
    aut_q: PermGroup,
) -> LiftStructureReport:
    """Check that the lifted Cayley digraph is exactly the expected wreath
    product, that its automorphism group is the expected wreath group, and
    that the cosets are that group's only block system of their size.

    `dq` is Cay(G/H, s_quotient) and `aut_q` is Aut(dq), both from the
    caller.  `quotient_ci_certificate` searches one side's dq and conjugates
    its group onto the other's, which is exactly that side's Aut(dq) (see
    there), so each side checks the groups a search of its own would give.

    The lift is read in one pass over G's table: the out-masks of the
    lifted digraph already in fiber order (`_fiber_masks`), where fib =
    `cosets.fiber_images()` sends coset i onto the fiber i*|H| ..
    i*|H|+|H|-1.  Relabelling by fib is an isomorphism that carries the
    cosets onto the fibers, so every check reads the same on these rows as
    on Cay(G, T) itself.  The arc identity compares them with the rows of
    W = wreath_product(dq, inner); everything else reads dq, on |G/H|
    points.  No digraph on |G| points is built and nothing is searched.

    Let r_i be the least element of coset i, which is element i of G/H, so
    the r_i ascend with i.  The arc r_i -> r_j is there when r_i^-1 r_j is
    in the lifted set, and r_i^-1 r_j lies in coset i^-1 j.  For i != j
    that coset is not H, and outside H the lifted set is the union of the
    cosets named by the quotient set, so the arc is there exactly when dq
    has i -> j.  For i = j, r_i^-1 r_i = e, which the lifted set holds
    exactly when the quotient set names H (H - {e} never holds e), that is
    when dq loops at i.  So the lifted digraph induces dq on the coset
    minima, loops included, and inside every coset it has the same arcs
    (those of H or of H - {e} in the lifted set).  As any two points of
    cosets i != j are joined as r_i and r_j are (x^-1 y lies in coset
    i^-1 j), the lifted digraph in fiber order is W: the arc identity holds
    whenever dq is Cay(G/H, s_quotient).

    The block check.  The connection set is a union of H-cosets (plus
    H - {e} for the complete kind, which joins each coset into a clique),
    so two points of one coset have the same neighbours and the cosets lie
    inside twin classes.  Each twin class C gives Sym(C) in Aut(lifted),
    which is primitive on C: twin classes are the simplest modules (Gallai,
    "Transitiv orientierbare Graphen", 1967).  So in the transitive group
    Aut(lifted) a block B through 0 is {0}, the class C0 through 0, or a
    union of whole classes: if B holds y in a class Cj other than C0, then
    Sym(Cj) fixes 0 and Sym(C0) fixes y, so B contains both classes.  With
    |H| >= 2 the one block of |H| points through 0 there can be is C0, so
    the cosets are the unique block system of size |H| exactly when they
    are the twin classes, that is when no two fibers merge; with |H| = 1
    the discrete partition always is.

    Whether two fibers merge is read from dq's twin classes
    (`_fibers_merge`), by the fiber-merge lemma.  With |H| >= 2, take u in
    fiber i and v in fiber j != i of W, and let inside(i) be whether two
    points of fiber i are joined: always for the complete inner digraph,
    when dq loops at i for the empty one.  Then u and v are twins exactly
    when i and j are twins of dq and dq has i -> j exactly when inside(i).
    For take u' != u in fiber i and v' != v in fiber j: the transposition
    (u v) must keep v -> u' against u -> u' and u' -> v against u' -> u,
    so dq(j, i) = dq(i, j) = inside(i), likewise both equal inside(j), the
    loops at u and v (those of dq at i and j) agree, and every other fiber
    sees fibers i and j alike: i and j are dq-twins with that arc.
    Conversely these make (u v) an automorphism of W.  So the fibers of a
    twin class of dq with two or more members merge into one twin class of
    W exactly when that class takes the kind of the inner digraph
    (`digraphs._class_takes_kind`, the test the decompositions apply).
    The lemma describes the lifted digraph when the arc identity holds, so
    `unique_block_system` and `wreath_generators_in_aut` also read the arc
    identity: a lift that fails it, as on a dq that is not Cay(G/H,
    s_quotient), fails them too.

    The group checks.  Group equality is order equality plus two-way
    generator membership: both groups are subgroups of Sym(n), so each lies
    inside the other exactly when its generators do.  The three checks read
    one test per generator g of `aut_q`, whether g is an automorphism of
    dq, on |G/H| points, and whether fibers merge.  The wreath group
    Aut(dq) wr S_block is generated by Sym(fiber) and the lifts of the g,
    which move fibers whole.
    - Sym(fiber) always preserves W: inside a fiber W has no arc, every arc
      (loops included, where dq loops) or the loopless complete inner
      digraph's arcs, and between two fibers every arc or none.  The lift
      of g carries the arcs between fibers i and j onto those between g(i)
      and g(j), and the inside of fiber i onto that of fiber g(i); the
      inside of a fiber differs with and without a loop of dq, since the
      inner digraph has no loop.  So the lift preserves W exactly when g is
      in Aut(dq), and `wreath_generators_in_aut` holds exactly when every g
      is: then Aut(dq) wr S_block <= Aut(W) on every lift.
    - When no fibers merge, the twin classes are the fibers, the twin
      quotient of W is dq in a single colour, and Aut(W) is Aut(dq) lifted
      over the fibers (see `automorphism_group_of`), the wreath group
      itself.  Both orders are |aut_q| * (|H|!)^|G/H|, so `aut_order_equal`
      holds, and Aut(W)'s generators lie in Sym(fiber), inducing the
      identity on the fibers, or lift a g fiber onto fiber, inducing g: so
      `aut_inside_wreath` holds exactly when every g is in Aut(dq).
    - When two fibers merge (|H| >= 2), a twin class of W holds u and v in
      different fibers, and the transposition (u v) lies in Aut(W) but
      splits a fiber.  So Aut(W) properly contains the wreath group: the
      orders differ, and some generator of Aut(W) leaves the fiber
      partition, since otherwise Aut(W) would keep it and induce
      automorphisms of dq, and lie inside the wreath group.
    - With |H| = 1, W is dq and both groups are `aut_q`, so the checks
      read as where no fibers merge, and `merged` is False.
    The generator test fails when `aut_q` is not inside Aut(dq), as for a
    wrongly conjugated group on side 2 of a certificate.  Where the fibers
    do not merge, `automorphism_group_of` rests on the same twin
    decomposition, so a search could only find Aut(dq) again; whether the
    twin quotient's route and the unreduced search agree is a property of
    the search, which tests/test_iso.py checks against the unreduced search
    and enumeration.
    """
    s_quotient = frozenset(s_quotient)
    _check_subset(qmap.target, s_quotient, "quotient connection set")
    lift = _lift(qmap, s_quotient, dq)
    size = lift.block_size
    masks = _fiber_masks(qmap.source, lift.connection, lift.coset_partition)
    inner = Digraph.complete(size) if lift.case == "non_decomposable" else Digraph.empty(size)
    arc_identity = masks == _wreath_masks(dq, inner)
    merged = size > 1 and _fibers_merge(dq, lift)
    in_aut = all(dq.is_automorphism(g.images) for g in aut_q.generators)
    checks = {
        "arc_identity": arc_identity,
        "aut_order_equal": not merged,
        "wreath_generators_in_aut": arc_identity and in_aut,
        "aut_inside_wreath": in_aut and not merged,
        "unique_block_system": arc_identity and not merged,
    }
    return LiftStructureReport(lift=lift, checks=checks)


def _conjugated(group: PermGroup, phi: Perm) -> PermGroup:
    """phi group phi^-1, the order kept: g becomes y -> phi(g(phi^-1(y)))."""
    back = sorted(range(group.degree), key=phi.images.__getitem__)  # phi^-1
    return PermGroup(
        [Perm(phi(g(x)) for x in back) for g in group.generators],
        order=group.order,
        degree=group.degree,
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

    |G/H|, the order of every digraph the certificate may search, is
    checked against ``limits.search`` before keys, transporter or search
    run, with the message `find_isomorphism` would give.  Whether the
    quotient digraphs are isomorphic is then decided in three steps:
    - Both are Cayley digraphs, hence vertex-transitive, so isomorphic ones
      have equal `neighbourhood_key`s.  Keys that differ decide "not
      isomorphic", and nothing is searched.
    - Otherwise `automorphic_image_search` looks for beta in Aut(G/H) with
      beta(S1) = S2.  Such a beta is an isomorphism: x -> y is an arc of
      dq1 when x^-1 y is in S1, exactly when beta(x)^-1 beta(y) =
      beta(x^-1 y) is in S2.  It is checked arc by arc, as
      `find_isomorphism` checks its own result, and becomes phi.  On a
      degenerate kernel it is also alpha_bar.
    - Otherwise `find_isomorphism` decides: the quotient digraphs may still
      be isomorphic, with G/H not CI at this pair.  By the paper's theorem
      G/H is CI when G is, so on a CI group this runs only for key-tied
      quotient digraphs that are not isomorphic.

    Only dq1 is searched for automorphisms, once |G| has passed
    ``limits.search``.  For any isomorphism phi: dq1 -> dq2, g preserves
    dq1's arcs exactly when phi g phi^-1 preserves dq2's, and conjugation
    by phi is a bijection of Sym(G/H), so phi Aut(dq1) phi^-1 = Aut(dq2),
    of the same order, generated by the conjugated generators.  Which
    isomorphism phi is changes those generators but no check.

    The lifted sets' alpha comes from the set transporter, so it is an
    automorphism of G, and alpha(xH) = alpha(x)alpha(H).  That is a coset
    of H for every x exactly when alpha(H) = H: if it is, alpha(H) is the
    coset holding alpha(e) = e, which is H.  So `alpha_preserves_cosets`,
    `alpha_fixes_subgroup` and `alpha_bar_well_defined` are one fact, read
    from one `cosets.induced(alpha)`, which is None exactly when it fails.
    Then alpha_bar(xH) = alpha(x)H is an automorphism of G/H with no scan
    of its table: alpha_bar(xH yH) = alpha(xy)H = alpha(x)H alpha(y)H.
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

    _check_cap(qmap.target.order, limits.search)
    dq1 = cayley(qmap.target, s1)
    dq2 = cayley(qmap.target, s2)
    iso_q = beta = None
    if neighbourhood_key(dq1) == neighbourhood_key(dq2):
        beta = automorphic_image_search(qmap.target, s1, s2)
        if beta is not None and dq1.relabel(beta.images) == dq2:
            iso_q = beta
        else:
            iso_q = find_isomorphism(dq1, dq2, limits)
    checks["quotient_isomorphic"] = iso_q is not None
    if iso_q is None:
        return certificate("quotient_not_isomorphic", False)

    if size in (1, group.order):
        # Degenerate kernel: the quotient is the group itself (or trivial);
        # verify the conclusion directly at quotient level.
        checks["alpha_bar_found"] = beta is not None
        checks["alpha_bar_maps_sets"] = (
            beta is not None and beta.image_of_set(s1) == s2
        )
        accepted = all(checks.values())
        status = "accepted" if accepted else "hypothesis_not_ci"
        return certificate(status, accepted, degenerate=True, alpha_bar=beta)

    _check_cap(group.order, limits.search)
    aut_q1 = automorphism_group_of(dq1, limits)
    report1 = verify_lift_structure(qmap, s1, dq1, aut_q1)
    report2 = verify_lift_structure(qmap, s2, dq2, _conjugated(aut_q1, iso_q))
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

    alpha = automorphic_image_search(group, lift1.connection, lift2.connection)
    checks["alpha_found"] = alpha is not None
    if alpha is None:
        return certificate("hypothesis_not_ci", False, lift1=lift1, lift2=lift2)

    alpha_bar = qmap.cosets.induced(alpha)
    for name in ("alpha_preserves_cosets", "alpha_fixes_subgroup", "alpha_bar_well_defined"):
        checks[name] = alpha_bar is not None
    checks["alpha_bar_maps_sets"] = alpha_bar is not None and alpha_bar.image_of_set(s1) == s2

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


def _blowup_witness(
    d1: Digraph, outer_aut: int, kind: str, s: int, inner_aut: int
) -> DichotomyWitness:
    """The witness one try predicts for an inner factor d2 with s pieces and
    a group of order A, with no piece or quotient searched.

    An automorphism of d2 maps the weak components of d2, and those of its
    complement, onto weak components, and Aut(d2) is transitive, so the s
    pieces are isomorphic; Aut of s disjoint isomorphic connected pieces is
    Aut(piece) wr S_s, and complementing changes no automorphism group, so
    |Aut(piece)|^s = A / s!.  Aut(d1) is transitive and conjugates (u v) to
    (a(u) a(v)), so it permutes d1's twin classes: they share one size and
    one kind.  So `decompose_over_<kind>(d1)` is (Q, r), r the class size,
    exactly when the classes have two or more members and take the kind,
    and r = 1 otherwise.  Q, induced on the class minima, is the twin
    quotient `automorphism_group_of` searches, in one colour, so |Aut(Q)| is
    |Aut(d1)| / (r!)^q for q = |d1| / r.  The order is
    |Aut(Q)| ((r s)! (A / s!)^r)^q; with r = 1 or s = 1 it is the wreath
    order |Aut(d1)| A^|d1|, so no try needs a guard."""
    twins = d1.twin_classes()[0]
    r = len(twins) if len(twins) >= 2 and _class_takes_kind(d1, twins, kind) else 1
    q = d1.order // r
    inner = factorial(r * s) * (inner_aut // factorial(s)) ** r
    return DichotomyWitness(r, s, kind, outer_aut // factorial(r) ** q * inner**q)


def verify_wreath_aut_dichotomy(
    d1: Digraph, d2: Digraph, limits: Limits = DEFAULT_LIMITS
) -> WreathAutReport:
    """Compare Aut(d1 wreath d2) with Aut(d1) wreath Aut(d2).

    When unequal, find the blowup parameters: d1 must split over a complete
    (or empty) inner factor of size r, d2 must be a join (or disjoint union)
    of s isomorphic pieces, and `_blowup_witness`'s composite wreath formula
    must reproduce the computed order exactly.  The tries, in order, are the
    complete kind with s the weak components of d2's complement, the empty
    kind with s those of d2, and, for a looped d1, which fills each fiber so
    that d1 wreath d2 = d1 wreath K°_m for m = |d2| and K°_m the looped
    complete digraph, the complete kind with s = m looped points, A = m!.

    The product is built only to be searched, so its order is checked
    against ``limits.search`` before any search runs.  The searches are
    those of d1, d2 and the product, the side the formula is compared with.
    """
    n = d1.order * d2.order
    if n > limits.search:
        raise CapExceeded(f"wreath product on {n} vertices exceeds search cap {limits.search}")
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
        tries = [
            ("complete", len(d2.complement().weak_components()), a2.order),
            ("empty", len(d2.weak_components()), a2.order),
        ]
        if d1.has_loop(0):
            tries.append(("complete", d2.order, factorial(d2.order)))
        for kind, s, inner_aut in tries:
            witness = _blowup_witness(d1, a1.order, kind, s, inner_aut)
            if witness.predicted_order == aut_product.order:
                dichotomy = witness
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
