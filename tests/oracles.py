"""Brute-force oracles, independent of the library's search paths.

Everything here enumerates: all bijections for isomorphism questions and
for group automorphisms, the whole automorphism list for the first
automorphism carrying one set onto another (the scan the library replaced
by a set transporter), the generator-image backtrack that rebuilds each
node's partial map from the identity (the walk the library replaced by a
precomputed edge schedule), the greedy generating set with one closure per
generator taken and the edge schedule walked apart from it (the two the
library reads from one walk per group), every automorphism of a digraph
by placing its vertices in index order within their stable colours (the
element listing the library itself no longer builds), refinement rounds with tuple
signatures and a confirming round at a discrete colouring (the rounds the
library replaced by packed counts and an early exit), one isomorphism
search per pair of connection sets for the CI sweep (the pair loop the
library replaced by refinement keys), every connection set and the first of
each Aut(G)-orbit, looped and large ones included, with the sweep that keys
them all (the listing the library reduces to loop-free sets of at most
(n-1)/2 elements), those loop-free sets listed and imaged as frozensets
(the listing the library replaced by int bitmasks), the orbits of sets of
each size counted by the Cauchy-Frobenius lemma over the whole
automorphism list (which checks the listings' counts without listing a
set), every vertex pair for the twins of
each decomposition kind (the test the library replaced by one key per
vertex), for the twin relation itself (by trying each transposition) and
for arc symmetry (replaced by comparing out- and in-masks), every vertex
pair in a depth-first search for connectivity (the library walks masks),
the breadth-first element closure of a permutation group (which the
library, holding only generators and an order, never builds) for group
orders, blocks and invariant partitions, Atkinson's union-find with its
join closure for the block systems of a transitive group (which the library
no longer computes: its one block check reads twin classes), all uniform
set partitions for wreath-structure questions, the lift check that
builds Aut(lifted) and the wreath group on every lift and tests every
generator of each (the library builds neither where the lifted twin
classes are the cosets), with Aut(lifted) lifted from Aut(quotient) there
or searched on every lift along with the quotient digraph, and the
certificate that runs that check on both sides, searching both quotient
digraphs (the library searches one and carries its group to the other),
with alpha's three coset checks each computed on its own (the library reads
them from one induced action), and the wreath dichotomy with every piece
induced, compared and searched (the library reads the pieces' order from
Aut of the inner factor), with its looped-outer rule on Aut of d1's twin
quotient searched (the library reads it from Aut(d1)).  networkx's VF2
(optional; tests that use it skip without it) answers isomorphism questions
with a third-party implementation.
The wreath product of permutation groups puts a copy of the inner group's
generators on every fiber (the library puts Sym(block) on one fiber per
orbit), and the induced action on classes sorts each class's image (the
library reads class indices).  The small constructors and comparisons that
only tests need live here too: composing and inverting image tuples, a
digraph from its arc list, the trivial, cyclic and symmetric permutation
groups, the pair-space fibers, a point's class, a partition from class
labels, partition refinement, a group with its elements renamed and a
subgroup's own multiplication table.  They stay dumb on purpose -- the package is
tested against them, never the other way around.
"""

from collections import Counter
from functools import cache, lru_cache
from itertools import combinations, permutations
from math import factorial
from random import Random

from cig.ci import (
    CIGroupVerdict,
    DichotomyWitness,
    QuotientCICertificate,
    _check_mode,
    _lift,
    _reverify_witness,
    ci_pair,
)
from cig import digraphs
from cig.digraphs import Digraph, cayley
from cig.groups import FiniteGroup
from cig.iso import (
    _check_cap,
    _lift_over_classes,
    automorphism_group_of,
    find_isomorphism,
    rooted_key,
)
from cig.limits import DEFAULT_LIMITS, CapExceeded
from cig.perms import Perm, PermGroup, PointPartition, orbit


def brute_isomorphism(a: Digraph, b: Digraph):
    """Lexicographically first arc-preserving bijection, by trying all n!."""
    if a.order != b.order:
        return None
    n = a.order
    for images in permutations(range(n)):
        if all(
            a.has_arc(u, v) == b.has_arc(images[u], images[v])
            for u in range(n)
            for v in range(n)
        ):
            return images
    return None


def networkx_digraph(d: Digraph):
    """d as a `networkx.DiGraph` on vertices 0..n-1, loops included."""
    import networkx

    graph = networkx.DiGraph()
    graph.add_nodes_from(range(d.order))
    graph.add_edges_from(d.arcs())
    return graph


def networkx_is_isomorphic(a: Digraph, b: Digraph) -> bool:
    """networkx's VF2 verdict on whether a and b are isomorphic."""
    import networkx

    return networkx.is_isomorphic(networkx_digraph(a), networkx_digraph(b))


def networkx_maps_onto(a: Digraph, b: Digraph, images) -> bool:
    """Whether a with vertex u renamed images[u] is b, by networkx's own
    graph comparison."""
    import networkx

    renamed = networkx.relabel_nodes(networkx_digraph(a), dict(enumerate(images)))
    return networkx.utils.graphs_equal(renamed, networkx_digraph(b))


def brute_group_automorphisms(table) -> list[tuple[int, ...]]:
    """Every automorphism of a multiplication table (identity 0), sorted:
    all bijections fixing 0, kept when they respect every product."""
    n = len(table)
    found = []
    for rest in permutations(range(1, n)):
        f = (0, *rest)
        if all(f[table[a][b]] == table[f[a]][f[b]] for a in range(n) for b in range(n)):
            found.append(f)
    return found


def first_automorphic_image(group, s, t, limits=DEFAULT_LIMITS):
    """The first automorphism of `group.automorphisms(limits)`, in list order,
    that carries the set s onto the set t, or None."""
    s, t = frozenset(s), frozenset(t)
    for alpha in group.automorphisms(limits):
        if alpha.image_of_set(s) == t:
            return alpha
    return None


def rebuilt_automorphism_images(group, s=frozenset(), t=frozenset()):
    """The generator-image backtrack the library replaced by a precomputed
    edge schedule: every node rebuilds its partial homomorphism from the
    identity by a breadth-first walk over the subgroup the assigned
    generators generate, and the leaf walks once more.  Yields the images of
    each automorphism carrying s onto t, in the library's listing order."""
    n = group.order
    if (0 in s) != (0 in t):
        return
    orders = [group.element_order(x) for x in range(n)]
    gens = group.generating_set()
    candidates = [[c for c in range(n) if orders[c] == orders[g]] for g in gens]
    chosen = []

    def consistent_map():
        images = [-1] * n
        images[0] = 0
        used = {0}
        frontier = [0]
        pairs = list(zip(gens[: len(chosen)], chosen))
        while frontier:
            fresh = []
            for x in frontier:
                for g, c in pairs:
                    y = group.mul(x, g)
                    fy = group.mul(images[x], c)
                    if images[y] == -1:
                        if fy in used or (y in s) != (fy in t):
                            return None
                        images[y] = fy
                        used.add(fy)
                        fresh.append(y)
                    elif images[y] != fy:
                        return None
            frontier = fresh
        return images

    def descend():
        if len(chosen) == len(gens):
            images = consistent_map()
            if images is not None and -1 not in images:
                yield tuple(images)
            return
        for c in candidates[len(chosen)]:
            chosen.append(c)
            if consistent_map() is not None:
                yield from descend()
            chosen.pop()

    yield from descend()


def greedy_generating_set(group) -> tuple[int, ...]:
    """Each element, in ascending order, not in the closure of the ones
    taken so far (a fresh `subgroup_generated` per generator), until they
    generate the group."""
    gens: list[int] = []
    closure = frozenset({0})
    for x in range(group.order):
        if x not in closure:
            gens.append(x)
            closure = group.subgroup_generated(gens)
            if len(closure) == group.order:
                break
    return tuple(gens)


def edge_schedule(table, gens) -> list[list[tuple[int, int, int, bool]]]:
    """Per level k, the edges (x, i, y = x*g_i, y first reached) that
    <g_1..g_k> adds to <g_1..g_{k-1}>: old members against g_k, then, in
    breadth-first order, each new member against g_1..g_k."""
    members = [0]
    reached = {0}
    schedule = []
    for k in range(len(gens)):
        edges = []
        queue = [(x, k) for x in members]  # (member, its first generator)
        for x, first in queue:
            for i in range(first, k + 1):
                y = table[x][gens[i]]
                edges.append((x, i, y, y not in reached))
                if y not in reached:
                    reached.add(y)
                    members.append(y)
                    queue.append((y, 0))
        schedule.append(edges)
    return schedule


@cache
def _pair_verdict(group, s1, s2, mode, limits):
    """`ci_pair`, searched once however many budgets sweep one group."""
    return ci_pair(group, s1, s2, mode, limits)


def enumerate_connection_sets(group, mode):
    """All candidate connection sets, ordered by (size, elements): every
    union of atoms, which are the singletons in digraph mode and the
    {x, x^-1} pairs in graph mode.  Past 2^16 sets it raises CapExceeded
    before building any."""
    _check_mode(mode)
    atoms = {
        frozenset({x, group.inv(x)} if mode == "graph" else {x})
        for x in range(group.order)
    }
    if len(atoms) > 16:
        raise CapExceeded(f"2^{len(atoms)} connection sets is past desk scale")
    subsets = [frozenset()]
    for atom in atoms:
        subsets += [s | atom for s in subsets]
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


@lru_cache(maxsize=4)
def orbit_representatives(group, mode, limits=DEFAULT_LIMITS):
    """The first connection set of every Aut(G)-orbit, in enumeration order,
    looped and large sets included: the full listing that the library's
    sweep reduces to loop-free sets of at most (n-1)/2 elements.  The last
    few listings are kept, so sweeping one group under many budgets lists
    it once."""
    auts = group.automorphisms(limits)
    reps = []
    seen = set()
    for s in enumerate_connection_sets(group, mode):
        if s in seen:
            continue
        seen.update(alpha.image_of_set(s) for alpha in auts)
        reps.append(s)
    return tuple(reps)


def frozenset_loop_free_representatives(group, mode, limits=DEFAULT_LIMITS):
    """The first set of each Aut(G)-orbit of loop-free connection sets of at
    most (n-1)/2 elements, one list per size, listed and imaged as
    frozensets and ordered by their sorted elements: the listing the
    library replaced by int bitmasks."""
    _check_mode(mode)
    atoms = {
        frozenset({x, group.inv(x)} if mode == "graph" else {x})
        for x in range(group.order)
    }
    half = (group.order - 1) // 2
    subsets = [frozenset()]
    for atom in atoms - {frozenset({0})}:
        subsets += [s | atom for s in subsets if len(s) + len(atom) <= half]
    maps = [alpha.images.__getitem__ for alpha in group.automorphisms(limits)]
    by_size = [[] for _ in range(half + 1)]
    for s in subsets:
        by_size[len(s)].append(s)
    reps = [[] for _ in range(half + 1)]
    seen = set()
    for same_size, kept in zip(by_size, reps):
        for s in sorted(same_size, key=sorted):
            if s not in seen:
                seen.update(frozenset(map(image, s)) for image in maps)
                kept.append(s)
    return reps


def burnside_class_sizes(group, mode, limits=DEFAULT_LIMITS, loop_free=False):
    """The number of Aut(G)-orbits of connection sets of each size k = 0..n
    (0..n-1 with `loop_free`, which counts only sets without the identity),
    by the Cauchy-Frobenius lemma in Polya's form: the mean over the
    automorphisms alpha of the k-sets alpha fixes, the x^k coefficient of
    the product over alpha's cycles on the atoms of (1 + x^(cycle length *
    atom size)).  No set is listed; automorphisms with one cycle type share
    one product."""
    _check_mode(mode)
    n = group.order
    atom_of = [min(x, group.inv(x)) if mode == "graph" else x for x in range(n)]
    atoms = sorted(set(atom_of[1:] if loop_free else atom_of))
    atom_size = Counter(atom_of)
    cycle_types = Counter()
    for alpha in group.automorphisms(limits):
        cycle_type, done = [], set()
        for a in atoms:
            length = 0
            while a not in done:
                done.add(a)
                length += 1
                a = atom_of[alpha(a)]
            if length:
                cycle_type.append(length * atom_size[a])
        cycle_types[tuple(sorted(cycle_type))] += 1
    fixed = [0] * (n + 1)
    for cycle_type, count in cycle_types.items():
        product = [1] + [0] * n
        for width in cycle_type:
            for k in range(n, width - 1, -1):
                product[k] += product[k - width]
        fixed = [f + count * p for f, p in zip(fixed, product)]
    automorphisms = sum(cycle_types.values())
    assert all(f % automorphisms == 0 for f in fixed)
    sizes = [f // automorphisms for f in fixed]
    return sizes[:n] if loop_free else sizes


def representative_classes(group, mode, limits=DEFAULT_LIMITS):
    """`orbit_representatives`, one list per size, by ascending size."""
    by_size = {}
    for r in orbit_representatives(group, mode, limits):
        by_size.setdefault(len(r), []).append(r)
    return [same_size for _, same_size in sorted(by_size.items())]


def _unreduced_same_key_pairs(group, classes, limits):
    """(position, s1, s2, cayley(s1), cayley(s2)) for each same-size pair
    with equal rooted keys, in scan order; `position` is its 1-based index
    among all same-size pairs.  Keys are computed one size at a time."""
    offset = 0
    for same_size in classes:
        m = len(same_size)
        digraphs = [cayley(group, r) for r in same_size]
        by_key = {}
        for i, d in enumerate(digraphs):
            by_key.setdefault(rooted_key(d, limits), []).append(i)
        for i, j in sorted(p for ids in by_key.values() for p in combinations(ids, 2)):
            position = offset + i * m - i * (i + 1) // 2 + j - i
            yield position, same_size[i], same_size[j], digraphs[i], digraphs[j]
        offset += m * (m - 1) // 2


def unreduced_ci_sweep(group, mode="digraph", budget=None, limits=DEFAULT_LIMITS):
    """The CI sweep over every orbit representative, looped and large sets
    included: one `rooted_key` per representative, `find_isomorphism` on
    the same-key pairs of each size in scan order (by size, then i < j),
    stopping at the first re-verified witness or past `budget` pairs.  It
    uses the library's keys and searches; what it checks is the library's
    reduction of the listing and its reconstruction of pair positions."""
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive number of pairs, got {budget}")
    _check_cap(group.order, limits.search)
    classes = representative_classes(group, mode, limits)
    witness = None
    decided = sum(len(c) * (len(c) - 1) // 2 for c in classes)
    for position, s1, s2, d1, d2 in _unreduced_same_key_pairs(group, classes, limits):
        if budget is not None and position > budget:
            break
        iso = find_isomorphism(d1, d2, limits)
        if iso is not None:
            _reverify_witness(group, s1, s2, iso)
            witness, decided = (s1, s2, iso), position
            break
    exhaustive = budget is None or decided <= budget
    pairs_checked = decided if exhaustive else budget
    return CIGroupVerdict(group, mode, witness is None, witness, pairs_checked, exhaustive)


def pairwise_ci_sweep(group, mode="digraph", budget=None, limits=DEFAULT_LIMITS):
    """The CI sweep with one `ci_pair` search per same-size pair of
    Aut(G)-orbit representatives, in scan order (by size, then i < j),
    stopping at the first re-verified witness or when `budget` pairs ran."""
    pairs = [
        (same_size[i], same_size[j])
        for same_size in representative_classes(group, mode, limits)
        for i in range(len(same_size))
        for j in range(i + 1, len(same_size))
    ]
    pairs_checked = 0
    witness = None
    exhaustive = True
    for s1, s2 in pairs:
        if budget is not None and pairs_checked >= budget:
            exhaustive = False
            break
        pairs_checked += 1
        res = _pair_verdict(group, s1, s2, mode, limits)
        if res.verdict == "non_ci_witness":
            _reverify_witness(group, s1, s2, res.iso)
            witness = (s1, s2, res.iso)
            break
    return CIGroupVerdict(group, mode, witness is None, witness, pairs_checked, exhaustive)


def relabelled_group(group, rng):
    """The same group with its non-identity elements renamed at random."""
    pi = [0, *rng.sample(range(1, group.order), group.order - 1)]
    table = [[0] * group.order for _ in range(group.order)]
    labels = [""] * group.order
    for a in range(group.order):
        labels[pi[a]] = group.labels[a]
        for b in range(group.order):
            table[pi[a]][pi[b]] = pi[group.table[a][b]]
    return FiniteGroup(table, labels=labels, name=group.name)


def subgroup_as_group(group, elements):
    """A subgroup as a group of its own, on its sorted elements: element i is
    the i-th smallest, so the identity stays at index 0."""
    elements = sorted(elements)
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[group.mul(a, b)] for b in elements] for a in elements]
    return FiniteGroup(
        table, labels=[group.labels[x] for x in elements], name=f"{group.name}>{elements}"
    )


def muzychuk_is_ci(n: int, mode: str) -> bool:
    """Muzychuk's classification of cyclic CI groups.

    Z_n is DCI iff n is k, 2k or 4k with k odd and square-free; it is CI for
    graphs iff it is DCI or n is 8, 9 or 18.
    """
    dci = any(
        n % m == 0 and (n // m) % 2 == 1 and all((n // m) % (p * p) for p in range(2, n))
        for m in (1, 2, 4)
    )
    return dci or (mode == "graph" and n in (8, 9, 18))


def brute_automorphism_count(d: Digraph) -> int:
    n = d.order
    return sum(
        1
        for images in permutations(range(n))
        if all(
            d.has_arc(u, v) == d.has_arc(images[u], images[v])
            for u in range(n)
            for v in range(n)
        )
    )


def enumerated_automorphisms(d: Digraph) -> list[tuple[int, ...]]:
    """Every automorphism as an image tuple, in lexicographic order: vertices
    placed in index order, each onto an unused vertex of its stable colour
    (`round_refinement`) with the same loop and the same arcs to and from
    every vertex placed before it."""
    n = d.order
    colors = round_refinement(d, [0] * n)
    found = []
    images = []

    def place(u):
        if u == n:
            found.append(tuple(images))
            return
        for v in range(n):
            if (
                colors[v] == colors[u]
                and v not in images
                and d.has_arc(u, u) == d.has_arc(v, v)
                and all(
                    d.has_arc(u, w) == d.has_arc(v, images[w])
                    and d.has_arc(w, u) == d.has_arc(images[w], v)
                    for w in range(u)
                )
            ):
                images.append(v)
                place(u + 1)
                images.pop()

    place(0)
    return found


def round_signatures(d: Digraph, colors) -> list[tuple]:
    """Per vertex: (color, loop flag, out-degree per color, in-degree per
    color), the count vectors as tuples: the refinement round the library
    replaced by packed counts."""
    k = max(colors, default=-1) + 1
    signatures = []
    for v in range(d.order):
        out_by = [0] * k
        row = d.out_masks[v]
        while row:
            w = (row & -row).bit_length() - 1
            out_by[colors[w]] += 1
            row &= row - 1
        in_by = [0] * k
        col = d.in_masks[v]
        while col:
            w = (col & -col).bit_length() - 1
            in_by[colors[w]] += 1
            col &= col - 1
        signatures.append((colors[v], d.has_loop(v), tuple(out_by), tuple(in_by)))
    return signatures


def round_refinement(d: Digraph, colors) -> list[int]:
    """The stable colouring by tuple signatures, with a confirming round
    even when the colouring is already discrete."""
    ranking = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [ranking[c] for c in colors]
    while True:
        k = max(colors, default=-1) + 1
        signatures = round_signatures(d, colors)
        ranking = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[s] for s in signatures]
        if max(new_colors, default=-1) + 1 == k:
            return new_colors
        colors = new_colors


def round_rooted_key(d: Digraph) -> tuple:
    """`iso.rooted_key` from the tuple-signature rounds: the relabelled
    digraph when vertex 0 individualised refines to a discrete colouring,
    the sorted tuple signatures otherwise."""
    colors = round_refinement(d, [min(v, 1) for v in range(d.order)])
    if len(set(colors)) == d.order:
        return (True, d.relabel(colors).out_masks)
    return (False, tuple(sorted(round_signatures(d, colors))))


def arc_neighbourhood_key(d: Digraph) -> tuple:
    """`iso.neighbourhood_key` from arc tests: for each out- or in-neighbour
    s of vertex 0, whether it is an out- and an in-neighbour, and how many
    arcs run from s into, and into s from, 0's out- and in-neighbours; the
    two flags and then each count shifted in, n.bit_length() bits apiece."""
    w = d.order.bit_length()
    out = {v for v in range(d.order) if d.has_arc(0, v)}
    into = {v for v in range(d.order) if d.has_arc(v, 0)}
    entries = []
    for s in out | into:
        entry = int(s in out) << 1 | int(s in into)
        for count in (
            sum(d.has_arc(s, t) for t in out), sum(d.has_arc(s, t) for t in into),
            sum(d.has_arc(t, s) for t in out), sum(d.has_arc(t, s) for t in into),
        ):
            entry = entry << w | count
        entries.append(entry)
    return tuple(sorted(entries))


def pairwise_undirected(d: Digraph) -> bool:
    """Every pair u < v has arcs both ways or neither."""
    return all(
        d.has_arc(u, v) == d.has_arc(v, u)
        for u in range(d.order)
        for v in range(u + 1, d.order)
    )


def transposition_twin_labels(d: Digraph) -> list[int]:
    """Twin-class labels (numbered by first occurrence): u joins the class of
    the least v < u for which swapping u and v, tried with `Digraph.relabel`,
    is an automorphism, and starts a class of its own when there is none."""
    labels = []
    for u in range(d.order):
        for v in range(u):
            swap = list(range(d.order))
            swap[u], swap[v] = v, u
            if d.relabel(swap) == d:
                labels.append(labels[v])
                break
        else:
            labels.append(max(labels, default=-1) + 1)
    return labels


def weakly_connected(d: Digraph) -> bool:
    """Every vertex is reached from vertex 0 by a depth-first search that
    follows arcs either way, each read with `Digraph.has_arc`."""
    seen = {0} if d.order else set()
    stack = list(seen)
    while stack:
        x = stack.pop()
        for y in range(d.order):
            if y not in seen and (d.has_arc(x, y) or d.has_arc(y, x)):
                seen.add(y)
                stack.append(y)
    return len(seen) == d.order


def wreath_aut_blows_up(outer: Digraph, inner: Digraph) -> bool:
    """Whether Aut(outer wreath inner) exceeds Aut(outer) wreath Aut(inner),
    by the condition for loop-free vertex-transitive factors: the inner
    factor is disconnected and the outer one has two non-adjacent twins, or
    the inner factor's complement is disconnected and the outer one has two
    adjacent twins.  Twins come from `transposition_twin_labels`."""
    labels = transposition_twin_labels(outer)
    twin_arcs = {
        outer.has_arc(u, v)
        for u in range(outer.order)
        for v in range(u + 1, outer.order)
        if labels[u] == labels[v]
    }
    return (False in twin_arcs and not weakly_connected(inner)) or (
        True in twin_arcs and not weakly_connected(inner.complement())
    )


def union_find_twin_labels(n: int, out, complete_kind: bool) -> list[int]:
    """Twin-class labels (numbered by first occurrence) by testing every
    vertex pair against the twin relation and merging with union-find."""
    in_masks = [0] * n
    for u in range(n):
        for v in range(n):
            if out[u] >> v & 1:
                in_masks[v] |= 1 << u
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    full = (1 << n) - 1
    for u in range(n):
        lu = out[u] >> u & 1
        for v in range(u + 1, n):
            mask = full ^ (1 << u) ^ (1 << v)
            if (out[u] & mask) != (out[v] & mask):
                continue
            if (in_masks[u] & mask) != (in_masks[v] & mask):
                continue
            a = out[u] >> v & 1
            b = out[v] >> u & 1
            lv = out[v] >> v & 1
            if complete_kind:
                ok = a and b and lu == lv
            else:
                ok = (not a and not b and not lu and not lv) or (a and b and lu and lv)
            if ok:
                ru, rv = find(u), find(v)
                parent[max(ru, rv)] = min(ru, rv)
    labels = [0] * n
    seen = {}
    for x in range(n):
        labels[x] = seen.setdefault(find(x), len(seen))
    return labels


def closure(group: PermGroup) -> list[tuple[int, ...]]:
    """Every element of the group as a sorted list of image tuples: the
    breadth-first closure of the generators from the identity, uncapped."""
    identity = tuple(range(group.degree))
    gens = [g.images for g in group.generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(p[x] for x in g)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return sorted(seen)


def compose(p, q) -> tuple[int, ...]:
    """The images of "q, then p" for two image tuples."""
    return tuple(p[x] for x in q)


def inverse(p) -> tuple[int, ...]:
    """The inverse of an image tuple."""
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def from_arcs(order: int, arcs) -> Digraph:
    """The digraph on 0..order-1 with these arcs, each checked in range."""
    masks = [0] * order
    for u, v in arcs:
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"arc ({u},{v}) out of range")
        masks[u] |= 1 << v
    return Digraph(order, masks)


def cyclic_group(n: int) -> PermGroup:
    """The n-cycle group on n points."""
    if n == 1:
        return PermGroup((), order=1, degree=1)
    return PermGroup([Perm.from_cycles(n, range(n))], order=n)


def trivial_group(degree: int) -> PermGroup:
    return PermGroup((), order=1, degree=degree)


def symmetric_group(n: int) -> PermGroup:
    """Sym(n) from a transposition and an n-cycle."""
    if n <= 1:
        return trivial_group(max(n, 1))
    gens = [Perm.from_cycles(n, (0, 1))]
    if n > 2:
        gens.append(Perm.from_cycles(n, range(n)))
    return PermGroup(gens, order=factorial(n))


def wreath_product(g: PermGroup, h: PermGroup) -> PermGroup:
    """Wreath product acting on pairs, with (x, y) indexed as x*|Y| + y.

    Generated by g moving the first coordinate and an independent copy of
    h's generators on each fiber, of order |g| * |h|^deg(g) (the library
    puts Sym(block) on one fiber per orbit of g instead).
    """
    nx, ny = g.degree, h.degree
    degree = nx * ny
    gens = []
    for gamma in g.generators:
        gens.append(Perm(gamma(x) * ny + y for x in range(nx) for y in range(ny)))
    for x in range(nx):
        for eta in h.generators:
            images = list(range(degree))
            for y in range(ny):
                images[x * ny + y] = x * ny + eta(y)
            gens.append(Perm(images))
    return PermGroup(gens, order=g.order * h.order**nx, degree=degree)


def fiber_partition(nx: int, ny: int) -> PointPartition:
    """The partition of pair space into fibers {x} x Y, (x, y) as x*ny + y."""
    return PointPartition(nx * ny, ([x * ny + y for y in range(ny)] for x in range(nx)))


def class_of(partition: PointPartition, x: int) -> tuple[int, ...]:
    """The class of the partition that holds x."""
    return partition.classes[partition.class_index(x)]


def sorted_induced(partition: PointPartition, perm: Perm):
    """`PointPartition.induced` by sorting each class's image and comparing
    it with the class of its least point (the library reads class indices
    instead)."""
    images = []
    for c in partition.classes:
        image = tuple(sorted(perm.images[x] for x in c))
        if image != class_of(partition, image[0]):
            return None
        images.append(partition.class_index(image[0]))
    return Perm(images)


def refines(a: PointPartition, b: PointPartition) -> bool:
    """Same points, and every class of a lies inside a class of b."""
    return a.degree == b.degree and all(
        set(c) <= set(class_of(b, c[0])) for c in a.classes
    )


def regular_representation(group) -> PermGroup:
    """The left translations x -> g*x of a multiplication table, generated
    by every row; a regular group has one element per point."""
    return PermGroup([Perm(row) for row in group.table], order=group.order)


def tables_isomorphic(a, b) -> bool:
    """Some bijection fixing the identity 0 respects every product."""
    n = len(a.table)
    return n == len(b.table) and any(
        all(f[a.table[x][y]] == b.table[f[x]][f[y]] for x in range(n) for y in range(n))
        for f in ((0, *rest) for rest in permutations(range(1, n)))
    )


def _maps_onto_or_off(elements, block) -> bool:
    return all(
        sum(1 for x in block if raw[x] in block) in (0, len(block)) for raw in elements
    )


def brute_is_block(group: PermGroup, points) -> bool:
    """Every element maps the set onto itself or clear of it."""
    return _maps_onto_or_off(closure(group), frozenset(points))


def brute_block_systems(group: PermGroup, size: int) -> list[PointPartition]:
    """Every size-``size`` set through 0 that is a block, in combinations
    order, with its images under every element as the partition."""
    n = group.degree
    elements = closure(group)
    systems = []
    for rest in combinations(range(1, n), size - 1):
        block = frozenset((0, *rest))
        if _maps_onto_or_off(elements, block):
            classes = {tuple(sorted(raw[x] for x in block)) for raw in elements}
            systems.append(PointPartition(n, classes))
    return systems


def partition_from_labels(labels) -> PointPartition:
    """The partition whose classes are the points sharing a label."""
    groups: dict[int, list[int]] = {}
    for x, lab in enumerate(labels):
        groups.setdefault(lab, []).append(x)
    return PointPartition(len(labels), groups.values())


def minimal_partition(group: PermGroup, points) -> list[int]:
    """Class label per point of the finest invariant partition that puts
    the given points in one class (Atkinson's union-find, 1975).

    Every merged pair's images under every generator are merged too, so
    the partition is invariant under the whole group.
    """
    gens = [g.images for g in group.generators]
    parent = list(range(group.degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        x, y = find(x), find(y)
        if x == y:
            return False
        parent[max(x, y)] = min(x, y)
        return True

    points = list(points)
    merged = [(points[0], y) for y in points[1:] if union(points[0], y)]
    while merged:
        x, y = merged.pop()
        for g in gens:
            if union(g[x], g[y]):
                merged.append((g[x], g[y]))
    return [find(x) for x in range(group.degree)]


def block_of(group: PermGroup, points) -> frozenset[int]:
    """The smallest block containing the given points."""
    labels = minimal_partition(group, points)
    label = labels[min(points)]
    return frozenset(x for x, lab in enumerate(labels) if lab == label)


def union_find_block_systems(group: PermGroup, size: int) -> list[PointPartition]:
    """All invariant partitions of a transitive group with classes of the
    given size, sorted by the class through 0, from the generators alone.

    An invariant partition is the set of images of its class through 0, and
    every block through 0 other than {0} is the join of the minimal blocks
    of the pairs {0, x} in it, which lie inside it, as do their joins.  So
    the blocks through 0 of at most `size` points are {0} plus the join
    closure of the minimal blocks, dropping any set larger than `size`.
    """
    n = group.degree
    if not group.is_transitive():
        raise ValueError("block systems are defined for transitive groups")
    if size <= 0 or n % size:
        raise ValueError(f"class size {size} does not divide degree {n}")
    # An element k fixing 0 maps the minimal block of {0, x} onto that of
    # {0, k(x)}, and maps every block through 0 onto itself: x's whole orbit
    # under the 0-fixing generators shares one minimal block.
    stab = [g for g in group.generators if g.images[0] == 0]
    minimal = set()
    covered = {0}
    for x in range(1, n):
        if x not in covered:
            covered |= orbit(x, stab)
            minimal.add(block_of(group, (0, x)))
    blocks = {frozenset({0})} | {b for b in minimal if len(b) <= size}
    todo = list(blocks)
    while todo:
        a = todo.pop()
        # A join is larger than both parts unless one holds the other.
        for b in [b for b in blocks if max(len(a), len(b)) < len(a | b) <= size]:
            join = block_of(group, a | b)
            if len(join) <= size and join not in blocks:
                blocks.add(join)
                todo.append(join)
    return [
        partition_from_labels(minimal_partition(group, block))
        for block in sorted(tuple(sorted(b)) for b in blocks if len(b) == size)
    ]


def invariant_partitions(group: PermGroup) -> list[PointPartition]:
    """Every invariant partition, trivial ones included, by class size."""
    n = group.degree
    return [
        partition
        for size in range(1, n + 1)
        if n % size == 0
        for partition in brute_block_systems(group, size)
    ]


def uniform_partitions(points: tuple[int, ...], size: int):
    """All partitions of the points into classes of the given size."""
    if not points:
        yield ()
        return
    first = points[0]
    rest = points[1:]
    for others in combinations(rest, size - 1):
        cls = (first, *others)
        remaining = tuple(x for x in rest if x not in others)
        for tail in uniform_partitions(remaining, size):
            yield (cls, *tail)


def partition_realizes_wreath(d: Digraph, classes, kind: str) -> bool:
    """Could d be quotient-wreath-inner with these classes as fibers?

    Intra-class: a fully looped class must be complete (a quotient loop
    fills its fiber either way); a loop-free class must be complete for the
    complete kind and arcless for the empty kind.  Cross-class arcs must be
    all-or-none per ordered class pair.
    """
    for cls in classes:
        flags = {d.has_arc(x, x) for x in cls}
        if len(flags) != 1:
            return False
        looped = flags.pop()
        if len(cls) == 1:
            continue
        pairs = [(x, y) for x in cls for y in cls if x != y]
        if looped or kind == "complete":
            if not all(d.has_arc(x, y) for x, y in pairs):
                return False
        else:
            if any(d.has_arc(x, y) for x, y in pairs):
                return False
    for ci in classes:
        for cj in classes:
            if ci is cj:
                continue
            arcs = {d.has_arc(x, y) for x in ci for y in cj}
            if len(arcs) != 1:
                return False
    return True


def feasible_inner_sizes(d: Digraph, kind: str) -> set[int]:
    """All r >= 2 admitting a uniform partition that realizes a wreath."""
    n = d.order
    out = set()
    for r in range(2, n + 1):
        if n % r:
            continue
        for classes in uniform_partitions(tuple(range(n)), r):
            if partition_realizes_wreath(d, classes, kind):
                out.add(r)
                break
    return out


def random_digraph(rng: Random, n: int, loops: bool = True) -> Digraph:
    masks = []
    for u in range(n):
        row = rng.getrandbits(n)
        if not loops:
            row &= ~(1 << u)
        masks.append(row)
    return Digraph(n, masks)


def all_digraphs(n: int, loops: bool = True):
    """Every digraph on n vertices (2^(n^2), or 2^(n(n-1)) loopless)."""
    if loops:
        for code in range(1 << (n * n)):
            yield Digraph(
                n, ((code >> (u * n)) & ((1 << n) - 1) for u in range(n))
            )
    else:
        per_row = n - 1
        for code in range(1 << (n * per_row)):
            masks = []
            for u in range(n):
                bits = (code >> (u * per_row)) & ((1 << per_row) - 1)
                row = 0
                pos = 0
                for v in range(n):
                    if v == u:
                        continue
                    if (bits >> pos) & 1:
                        row |= 1 << v
                    pos += 1
                masks.append(row)
            yield Digraph(n, masks)


def lift_structure_checks(qmap, s_quotient, dq, aut_q, aut_lifted):
    """`verify_lift_structure`'s five checks with both groups built and every
    generator of each tested: Aut(lifted) as given, and the wreath group
    `aut_q` wr S_block with a copy of Sym(block) on every fiber."""
    lift = _lift(qmap, frozenset(s_quotient), dq)
    cosets, size = lift.coset_partition, lift.block_size
    lifted = cayley(qmap.source, lift.connection)
    inner = Digraph.complete(size) if lift.case == "non_decomposable" else Digraph.empty(size)
    relabeled = lifted.relabel(cosets.fiber_images())
    wreath = wreath_product(aut_q, symmetric_group(size))
    return {
        "arc_identity": relabeled == digraphs.wreath_product(dq, inner),
        "aut_order_equal": aut_lifted.order == wreath.order,
        "wreath_generators_in_aut": all(
            relabeled.is_automorphism(g.images) for g in wreath.generators
        ),
        "aut_inside_wreath": all(
            (bar := cosets.induced(g)) is not None and dq.is_automorphism(bar.images)
            for g in aut_lifted.generators
        ),
        "unique_block_system": size == 1
        or PointPartition(lifted.order, lifted.twin_classes()) == cosets,
    }


def built_lift_structure(qmap, s_quotient, dq, aut_q, limits=DEFAULT_LIMITS):
    """`lift_structure_checks` with Aut(lifted) built: `aut_q` lifted over
    the cosets when they are the lifted twin classes, searched otherwise
    (the library builds neither group on any lift: it tests `aut_q` against
    dq and reads from dq's twin classes whether two fibers merge).  Returns
    the checks and Aut(lifted)."""
    lifted = cayley(qmap.source, _lift(qmap, frozenset(s_quotient), dq).connection)
    if lifted.twin_classes() == qmap.cosets.classes:
        aut_lifted = _lift_over_classes(aut_q, qmap.cosets.classes, lifted.order)
    else:
        aut_lifted = automorphism_group_of(lifted, limits)
    return lift_structure_checks(qmap, s_quotient, dq, aut_q, aut_lifted), aut_lifted


def two_search_lift_structure(qmap, s_quotient, limits=DEFAULT_LIMITS):
    """`lift_structure_checks` with dq, Aut(dq) and Aut(lifted) each searched
    on its own, Aut(lifted) never lifted from Aut(quotient) (the library
    searches one quotient digraph per certificate and no lifted digraph).
    Returns the checks and Aut(lifted)."""
    dq = cayley(qmap.target, frozenset(s_quotient))
    lifted = cayley(qmap.source, _lift(qmap, frozenset(s_quotient), dq).connection)
    aut_lifted = automorphism_group_of(lifted, limits)
    aut_q = automorphism_group_of(dq, limits)
    return lift_structure_checks(qmap, s_quotient, dq, aut_q, aut_lifted), aut_lifted


def alpha_coset_checks(qmap, alpha):
    """The certificate's three coset checks on a group automorphism alpha,
    each computed on its own (the library reads all three from one
    `cosets.induced`): every class's sorted image is a class, alpha(H) = H,
    and `QuotientMap.induce` succeeds, with its kernel test and its scan of
    the quotient table.  Returns the checks and alpha_bar, None where
    `induce` refuses."""
    h = qmap.kernel
    try:
        alpha_bar = qmap.induce(alpha)
    except (ValueError, RuntimeError):
        alpha_bar = None
    checks = {
        "alpha_preserves_cosets": sorted_induced(qmap.cosets, alpha) is not None,
        "alpha_fixes_subgroup": alpha.image_of_set(h) == h,
        "alpha_bar_well_defined": alpha_bar is not None,
    }
    return checks, alpha_bar


def two_search_certificate(group, subgroup, set1, set2, mode="digraph", limits=DEFAULT_LIMITS):
    """`quotient_ci_certificate` on a proper non-trivial kernel whose two
    quotient digraphs are isomorphic, with each side's lift checked by
    `two_search_lift_structure`: each quotient digraph and each lifted
    digraph searched on its own, and the wreath group with a copy of
    Sym(block) on every fiber (the library searches dq1 alone, carries its
    group to dq2 by the quotient isomorphism, and builds neither group).
    The set transporter is the scan of the whole automorphism list."""
    h, s1, s2 = frozenset(subgroup), frozenset(set1), frozenset(set2)
    qmap = group.quotient(h)
    if not 1 < len(h) < group.order:
        raise ValueError("the kernel must be proper and non-trivial")
    dq1, dq2 = cayley(qmap.target, s1), cayley(qmap.target, s2)
    if find_isomorphism(dq1, dq2, limits) is None:
        raise ValueError("the quotient digraphs must be isomorphic")
    lift1, lift2 = _lift(qmap, s1, dq1), _lift(qmap, s2, dq2)
    sides = [two_search_lift_structure(qmap, s, limits)[0] for s in (s1, s2)]
    checks = {"quotient_isomorphic": True, "lift_cases_agree": lift1.case == lift2.case}
    per_side = {
        "lift_arc_identity": ("arc_identity",),
        "aut_wreath_equality": (
            "aut_order_equal", "wreath_generators_in_aut", "aut_inside_wreath",
        ),
        "unique_block_system": ("unique_block_system",),
    }
    for name, keys in per_side.items():
        for side, side_checks in enumerate(sides, 1):
            checks[f"{name}_side{side}"] = all(side_checks[k] for k in keys)
    alpha = first_automorphic_image(group, lift1.connection, lift2.connection, limits)
    checks["alpha_found"] = alpha is not None
    alpha_bar = None
    if alpha is not None:
        alpha_facts, alpha_bar = alpha_coset_checks(qmap, alpha)
        checks.update(alpha_facts)
        checks["alpha_bar_maps_sets"] = (
            alpha_bar is not None and alpha_bar.image_of_set(s1) == s2
        )
    accepted = all(checks.values())
    status = (
        "accepted" if accepted else "hypothesis_not_ci" if alpha is None else "rejected"
    )
    return QuotientCICertificate(
        group=group, subgroup=h, set1=s1, set2=s2, mode=mode, status=status,
        accepted=accepted, degenerate=False, checks=checks, lift1=lift1,
        lift2=lift2, alpha=alpha, alpha_bar=alpha_bar,
    )


def searched_dichotomy(d1: Digraph, d2: Digraph, limits=DEFAULT_LIMITS):
    """`verify_wreath_aut_dichotomy`'s dichotomy with every piece induced and
    searched: for each decomposition kind the weak components of d2 (of its
    complement for the complete kind) are induced, checked isomorphic by
    `find_isomorphism`, and Aut(piece) is searched (the library reads
    |Aut(piece)|^s as |Aut(d2)| / s!).  Then, for a looped d1, the
    looped-outer rule with Aut of d1's twin quotient searched (the library
    reads it from Aut(d1)), once d1 wr d2 is checked to be d1 wr K°_m for
    m = |d2| and K°_m looped and complete.  None where Aut(d1 wreath d2) is
    Aut(d1) wreath Aut(d2) or nothing explains its order."""
    a1 = automorphism_group_of(d1, limits).order
    a2 = automorphism_group_of(d2, limits).order
    wreath = digraphs.wreath_product(d1, d2)
    product = automorphism_group_of(wreath, limits).order
    if product == a1 * a2**d1.order:
        return None
    for kind, decompose in (
        ("complete", digraphs.decompose_over_complete),
        ("empty", digraphs.decompose_over_empty),
    ):
        dec = decompose(d1)
        comps = (d2.complement() if kind == "complete" else d2).weak_components()
        if dec is None or len(comps) < 2:
            continue
        pieces = [d2.induced(c) for c in comps]
        if any(find_isomorphism(pieces[0], p, limits) is None for p in pieces[1:]):
            continue
        r, s = dec.inner_size, len(comps)
        inner = automorphism_group_of(pieces[0], limits).order
        outer = automorphism_group_of(dec.quotient, limits).order
        predicted = outer * (factorial(r * s) * inner ** (r * s)) ** dec.quotient.order
        if predicted == product:
            return DichotomyWitness(r, s, kind, predicted)
    m = d2.order
    looped_complete = Digraph(m, [(1 << m) - 1] * m)
    if d1.loop_count and wreath == digraphs.wreath_product(d1, looped_complete):
        dec = digraphs.decompose_over_complete(d1)
        quotient, r = (dec.quotient, dec.inner_size) if dec else (d1, 1)
        outer = automorphism_group_of(quotient, limits).order
        predicted = outer * factorial(r * m) ** quotient.order
        if predicted == product:
            return DichotomyWitness(r, m, "complete", predicted)
    return None
