"""Digraph isomorphism and automorphism search.

Backtracking over color-compatible vertex images after iterated degree
refinement.  A refinement round packs each vertex's per-colour degree
counts into one int and stops as soon as the colouring is discrete.  Every
isomorphism found is checked with `Digraph.relabel`.
Deterministic: `find_isomorphism` places sources smallest color class
first, the automorphism search places each base point first and then the
least vertex linked to a placed one, and candidate targets ascend, so
identical inputs always produce identical bijections.  Automorphism groups
come back as a generating set with their order; the elements are never
listed.  The search first takes out the twin classes, the simplest modules
(Gallai, "Transitiv orientierbare Graphen", 1967), then runs one first-hit
search per basic-orbit point of the digraph induced on the class minima.
Vertex-transitive digraphs get two isomorphism invariants rooted at vertex
0.  `neighbourhood_key` counts, for each neighbour of 0, its arcs into 0's
out- and in-neighbourhoods: a few popcounts, no refinement.
`rooted_key` runs one refinement with 0 individualised: a canonical form
when that colouring is discrete, a signature multiset otherwise.  There is
no full canonical labelling: digraphs whose keys agree but are not discrete
still need a pairwise search.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Sequence

from cig import _kernels
from cig.digraphs import Digraph
from cig.limits import DEFAULT_LIMITS, CapExceeded, Limits
from cig.perms import Perm, PermGroup, orbit


def _normalize(colors: Sequence[int]) -> list[int]:
    ranking = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [ranking[c] for c in colors]


def _signatures(d: Digraph, colors: Sequence[int]) -> list[tuple]:
    """Per vertex: (color, loop flag, out-degree per color, in-degree per color).

    Each count vector is packed into one int, colour c's count in the slot
    of weight 2**(w*(k-1-c)), w = n.bit_length(): counts are at most n, so
    no slot overflows and integer order is the vector's lexicographic order.
    A vertex whose out- and in-neighbours agree (every vertex of an
    undirected digraph) reuses its out vector as its in vector.
    """
    k = max(colors, default=-1) + 1
    w = d.order.bit_length()
    weight = [1 << w * (k - 1 - c) for c in colors]
    signatures = []
    for v, (row, col) in enumerate(zip(d.out_masks, d.in_masks)):
        loop = row >> v & 1
        out = 0
        bits = row
        while bits:
            low = bits & -bits
            out += weight[low.bit_length() - 1]
            bits ^= low
        if col == row:
            into = out
        else:
            into = 0
            while col:
                low = col & -col
                into += weight[low.bit_length() - 1]
                col ^= low
        signatures.append((colors[v], loop, out, into))
    return signatures


def _refine_colors(
    d: Digraph, colors: Sequence[int]
) -> tuple[list[int], list[tuple] | None]:
    """The stable colouring that refines `colors`, one colour index 0..k-1 per
    vertex (distinct initial colours are never merged), and the signatures
    of its stable round, or None when it is discrete."""
    colors = _normalize(colors)
    while True:
        k = max(colors, default=-1) + 1
        if k == d.order:
            return colors, None  # discrete, hence stable
        signatures = _signatures(d, colors)
        ranking = {s: i for i, s in enumerate(sorted(set(signatures)))}
        if len(ranking) == k:
            return colors, signatures  # stable: every class kept its colour index
        colors = [ranking[s] for s in signatures]


def neighbourhood_key(d: Digraph) -> tuple:
    """An isomorphism invariant of a vertex-transitive digraph, read off the
    neighbourhood of vertex 0 without refinement or search.

    With N the out-mask of 0 and M its in-mask (S and S^-1 for a Cayley
    digraph), the key is the sorted tuple, over every s in N | M, of
    (s in N, s in M, |out(s) & N|, |out(s) & M|, |in(s) & N|, |in(s) & M|),
    each packed into one int: the two flags above four count slots of
    w = n.bit_length() bits.  Counts are at most n, so integer order is the
    tuple's lexicographic order, and an int takes a fraction of a tuple's
    memory in a sweep that keeps one key per representative.

    An isomorphism phi of vertex-transitive digraphs can be composed with
    an automorphism so that it fixes 0.  It then maps N onto N' and M onto
    M', and the out- and in-neighbours of each s onto those of phi(s), so s
    and phi(s) have equal entries and isomorphic digraphs get equal keys
    (the argument behind `rooted_key`).  Equal keys do not prove
    isomorphism.  Every Cayley digraph is vertex-transitive (left
    multiplication), so the CI sweep groups its representatives by this key,
    and the quotient certificate decides "not isomorphic" on two quotient
    digraphs whose keys differ, before any set transporter or search.
    """
    out, into = d.out_masks, d.in_masks
    n_mask, m_mask = out[0], into[0]
    w = d.order.bit_length()
    entries = []
    rest = n_mask | m_mask
    while rest:
        low = rest & -rest
        s = low.bit_length() - 1
        row, col = out[s], into[s]
        entries.append(
            (n_mask >> s & 1) << 4 * w + 1 | (m_mask >> s & 1) << 4 * w
            | (row & n_mask).bit_count() << 3 * w | (row & m_mask).bit_count() << 2 * w
            | (col & n_mask).bit_count() << w | (col & m_mask).bit_count()
        )
        rest ^= low
    return tuple(sorted(entries))


def rooted_key(d: Digraph, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """An isomorphism invariant of a vertex-transitive digraph: refinement
    with vertex 0 in a colour of its own.

    Any isomorphism composed with an automorphism fixes 0, and colours are
    numbered from signatures alone, so isomorphic digraphs get equal keys.
    A discrete colouring gives the out-masks of the digraph relabelled by
    colour, a canonical form (McKay, "Practical graph isomorphism", 1981),
    written straight from the colouring; otherwise the key is
    the sorted stable signatures, which can only rule isomorphism out.
    """
    _check_cap(d.order, limits.search)
    colors, signatures = _refine_colors(d, [min(v, 1) for v in range(d.order)])
    if signatures is None:
        masks = [0] * d.order
        for u, row in enumerate(d.out_masks):
            canonical = 0
            while row:
                low = row & -row
                canonical |= 1 << colors[low.bit_length() - 1]
                row ^= low
            masks[colors[u]] = canonical
        return (True, tuple(masks))
    return (False, tuple(sorted(signatures)))


def _search_order(colors: Sequence[int]) -> list[int]:
    """Sources sorted by (color class size, color, index): small classes first."""
    sizes = Counter(colors)
    return sorted(range(len(colors)), key=lambda v: (sizes[colors[v]], colors[v], v))


def _candidates(order: Sequence[int], colors_a: Sequence[int], colors_b: Sequence[int]) -> list[list[int]]:
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors_b):
        by_color.setdefault(c, []).append(v)
    return [by_color.get(colors_a[u], []) for u in order]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"digraph order {n} exceeds search cap {cap}")


def find_isomorphism(
    a: Digraph, b: Digraph, limits: Limits = DEFAULT_LIMITS
) -> Perm | None:
    """An arc-preserving bijection a -> b, or None after exhaustive search.

    The two graphs are refined jointly (over their disjoint union) so color
    identities are comparable across sides.
    """
    _check_cap(max(a.order, b.order), limits.search)
    if a.order != b.order:
        return None
    n = a.order
    if n == 0:
        return Perm(())
    if a.arc_count != b.arc_count or a.loop_count != b.loop_count:
        return None
    joint, _ = _refine_colors(a.disjoint_union(b), [0] * (2 * n))
    colors_a, colors_b = joint[:n], joint[n:]
    if Counter(colors_a) != Counter(colors_b):
        return None
    order = _search_order(colors_a)
    cand = _candidates(order, colors_a, colors_b)
    hits = _kernels.iso_backtrack(n, a.out_masks, b.out_masks, order, cand, False)
    if not hits:
        return None
    mapping = Perm(hits[0])
    if a.relabel(mapping.images) != b:
        raise AssertionError("search returned a non-isomorphism")  # unreachable
    return mapping


def _connected_order(adj: Sequence[int], start: int) -> list[int]:
    """Placement order from `start`: next the least unplaced vertex linked
    (per the bitmasks `adj`) to a placed one, else the least unplaced one."""
    unplaced = ((1 << len(adj)) - 1) ^ (1 << start)
    frontier = adj[start] & unplaced
    order = [start]
    while unplaced:
        pick = frontier or unplaced
        v = (pick & -pick).bit_length() - 1
        order.append(v)
        unplaced ^= 1 << v
        frontier = (frontier | adj[v]) & unplaced
    return order


def automorphism_group_of(d: Digraph, limits: Limits = DEFAULT_LIMITS) -> PermGroup:
    """The full automorphism group, as a generating set and its order.

    Twins come out first: each twin class C gives Sym(C), every automorphism
    permutes the classes, and arcs between two classes are all present or
    all absent.  So Aut(d) is the semidirect product of the Sym(C) by
    Aut(Q), for the digraph Q induced on the minima of
    `Digraph.twin_classes` and coloured by class size and whether the
    class's members are adjacent.  Twin classes are the simplest modules
    (Gallai, "Transitiv orientierbare Graphen", 1967).  `_search_automorphisms`
    finds Aut(Q) and `_lift_over_classes` lifts it: its order is |Aut(Q)|
    times the product of the class sizes' factorials.  A digraph without
    twins is searched as it is, from the uniform colouring.  A digraph that
    is one twin class (complete or empty, looped or not) is searched not at
    all: Q has one vertex and Aut(Q) is trivial, so `_lift_over_classes`
    gives Sym(n), of order n!, from the trivial group directly.
    """
    _check_cap(d.order, limits.search)
    n = d.order
    classes = d.twin_classes()
    if len(classes) == 1:
        return _lift_over_classes(PermGroup([], degree=1, order=1), classes, n)
    if len(classes) == n:
        return _search_automorphisms(d, [0] * n)
    quotient = d.induced(members[0] for members in classes)
    colours = [(len(m), len(m) > 1 and d.has_arc(m[0], m[1])) for m in classes]
    return _lift_over_classes(_search_automorphisms(quotient, colours), classes, n)


def _lift_over_classes(
    aut_q: PermGroup, classes: Sequence[Sequence[int]], n: int
) -> PermGroup:
    """The group on n points that permutes `classes` as `aut_q` permutes
    their indices and acts as Sym(C) inside each class C, which must be
    ascending and of one size wherever `aut_q` maps one onto another.

    Each generator of `aut_q` is lifted class onto class in rank order; one
    class per orbit of `aut_q` adds a transposition and a cycle of its
    members, which the lifted generators conjugate onto the rest of the
    orbit.  The order is |aut_q| times the product of the class sizes'
    factorials.
    """
    generators = []
    for g in aut_q.generators:
        images = [0] * n
        for members, image in zip(classes, g.images):
            for x, y in zip(members, classes[image]):
                images[x] = y
        generators.append(Perm(images))
    order = aut_q.order
    covered = set()
    for i, members in enumerate(classes):
        order *= factorial(len(members))
        if i in covered:
            continue
        covered |= orbit(i, aut_q.generators)
        if len(members) > 1:
            generators.append(Perm.from_cycles(n, members[:2]))
        if len(members) > 2:
            generators.append(Perm.from_cycles(n, members))
    return PermGroup(generators, degree=n, order=order)


def _search_automorphisms(d: Digraph, initial: Sequence) -> PermGroup:
    """The automorphisms of d that keep every vertex's `initial` colour, as
    a strong generating set and their order.

    The base b_1..b_m follows the first path of individualisation and
    refinement: individualise the first vertex of the smallest non-singleton
    cell until the colouring is discrete.  Levels are filled deepest first.
    At level k every v in b_k's cell of the colouring with b_1..b_{k-1}
    individualised that is not yet in the orbit of b_k under the generators
    found so far (all of which fix b_1..b_{k-1}) gets one first-hit search
    for an automorphism mapping b_k to v, every other vertex staying in its
    cell of that colouring.  Afterwards the generators act on b_k with
    exactly its basic orbit, so the group has order equal to the product of
    the basic-orbit lengths (McKay, "Practical graph isomorphism", 1981).
    Each search places b_k first and then follows `_connected_order`, so
    placements meet a placed neighbour early.  Vertices are linked by an
    arc either way or, when more than half of all ordered pairs are arcs,
    by a missing arc either way: the kernel checks both, the rarer prunes.
    """
    n = d.order
    masks = d.out_masks
    path = [_refine_colors(d, initial)[0]]
    base = []
    while len(set(path[-1])) < n:
        colors = list(path[-1])
        sizes = Counter(colors)
        _, _, b = min((sizes[c], c, v) for v, c in enumerate(colors) if sizes[c] > 1)
        base.append(b)
        colors[b] = -1  # a colour of its own
        path.append(_refine_colors(d, colors)[0])

    if 2 * d.arc_count <= n * n:
        adj = [row | col for row, col in zip(masks, d.in_masks)]
    else:
        full = (1 << n) - 1
        adj = [full & ~(row & col) for row, col in zip(masks, d.in_masks)]
    generators: list[Perm] = []
    order = 1
    for k in reversed(range(len(base))):
        b, above = base[k], path[k]
        b_orbit = orbit(b, generators)
        search_order = _connected_order(adj, b)
        cand = _candidates(search_order, above, above)
        cell = cand[0]
        for v in cell:
            if v in b_orbit:
                continue
            cand[0] = [v]
            hits = _kernels.iso_backtrack(n, masks, masks, search_order, cand, False)
            if hits:
                generators.append(Perm(hits[0]))
                b_orbit = orbit(b, generators)
        order *= len(b_orbit)
    return PermGroup(generators, degree=n, order=order)
