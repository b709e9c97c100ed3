"""Digraph isomorphism and automorphism search.

Backtracking over color-compatible vertex images after iterated degree
refinement; `refine` gives the stable colouring as a tuple of colour
indices.  Every isomorphism found is checked with `Digraph.relabel`.
Deterministic: sources are placed smallest color class first,
candidate targets ascend, so identical inputs always produce identical
bijections.  Automorphism groups come back as a strong generating set with
their order, found by one first-hit search per basic-orbit point; the
elements are never listed.  `rooted_key` gives vertex-transitive digraphs
an isomorphism invariant from one refinement rooted at vertex 0: a
canonical form when that colouring is discrete, a signature multiset
otherwise.  There is no full canonical labelling: digraphs whose keys agree
but are not discrete still need a pairwise search.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from cig import _kernels
from cig.digraphs import Digraph
from cig.limits import DEFAULT_LIMITS, CapExceeded, Limits
from cig.perms import Perm, PermGroup, orbit


def _normalize(colors: Sequence[int]) -> list[int]:
    ranking = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [ranking[c] for c in colors]


def _signatures(d: Digraph, colors: Sequence[int]) -> list[tuple]:
    """Per vertex: (color, loop flag, out-degree per color, in-degree per color)."""
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


def _refine_colors(d: Digraph, colors: Sequence[int]) -> list[int]:
    colors = _normalize(colors)
    while True:
        k = max(colors, default=-1) + 1
        signatures = _signatures(d, colors)
        ranking = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[s] for s in signatures]
        if max(new_colors, default=-1) + 1 == k:
            return new_colors
        colors = new_colors


def refine(d: Digraph, initial: Sequence[int] | None = None) -> tuple[int, ...]:
    """The stable colouring, one colour index 0..k-1 per vertex.

    Iterate (color, loop flag, out-degree-per-color, in-degree-per-color)
    signatures until stable.  Distinct initial colors are never merged."""
    colors = [0] * d.order if initial is None else list(initial)
    if len(colors) != d.order:
        raise ValueError("coloring length does not match order")
    return tuple(_refine_colors(d, colors))


def rooted_key(d: Digraph, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """An isomorphism invariant of a vertex-transitive digraph: refinement
    with vertex 0 in a colour of its own.

    Any isomorphism composed with an automorphism fixes 0, and colours are
    numbered from signatures alone, so isomorphic digraphs get equal keys.
    A discrete colouring gives the digraph relabelled by colour, a canonical
    form (McKay, "Practical graph isomorphism", 1981); otherwise the key is
    the sorted stable signatures, which can only rule isomorphism out.
    """
    _check_cap(d.order, limits.search)
    colors = _refine_colors(d, [min(v, 1) for v in range(d.order)])
    if len(set(colors)) == d.order:
        return (True, d.relabel(colors).out_masks)
    return (False, tuple(sorted(_signatures(d, colors))))


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
    joint = _refine_colors(a.disjoint_union(b), [0] * (2 * n))
    colors_a, colors_b = joint[:n], joint[n:]
    if Counter(colors_a) != Counter(colors_b):
        return None
    order = _search_order(colors_a)
    cand = _candidates(order, colors_a, colors_b)
    hits = _kernels.iso_backtrack(
        n, list(a.out_masks), list(b.out_masks), order, cand, False
    )
    if not hits:
        return None
    mapping = Perm(hits[0])
    if a.relabel(mapping.images) != b:
        raise AssertionError("search returned a non-isomorphism")  # unreachable
    return mapping


def are_isomorphic(a: Digraph, b: Digraph, limits: Limits = DEFAULT_LIMITS) -> bool:
    return find_isomorphism(a, b, limits) is not None


def automorphism_group_of(d: Digraph, limits: Limits = DEFAULT_LIMITS) -> PermGroup:
    """The full automorphism group, as a strong generating set and its order.

    The base b_1..b_m follows the first path of individualisation and
    refinement: individualise the first vertex of the smallest non-singleton
    cell until the colouring is discrete.  Levels are filled deepest first.
    At level k every v in b_k's cell of the colouring with b_1..b_{k-1}
    individualised that is not yet in the orbit of b_k under the generators
    found so far (all of which fix b_1..b_{k-1}) gets one first-hit search
    for an automorphism mapping b_k to v, every other vertex staying in its
    cell of that colouring.  Afterwards the generators act on b_k with
    exactly its basic orbit, so Aut(d) has order equal to the product of
    the basic-orbit lengths (McKay, "Practical graph isomorphism", 1981).
    """
    _check_cap(d.order, limits.search)
    n = d.order
    masks = list(d.out_masks)
    path = [_refine_colors(d, [0] * n)]
    base = []
    while len(set(path[-1])) < n:
        colors = list(path[-1])
        sizes = Counter(colors)
        b = next(v for v in _search_order(colors) if sizes[colors[v]] > 1)
        base.append(b)
        colors[b] = -1  # a colour of its own
        path.append(_refine_colors(d, colors))

    generators: list[Perm] = []
    order = 1
    for k in reversed(range(len(base))):
        b, above, below = base[k], path[k], path[k + 1]
        b_orbit = orbit(b, generators)
        search_order = _search_order(below)
        cand = _candidates(search_order, above, above)
        slot = search_order.index(b)
        cell = cand[slot]
        for v in cell:
            if v in b_orbit:
                continue
            cand[slot] = [v]
            hits = _kernels.iso_backtrack(n, masks, masks, search_order, cand, False)
            if hits:
                generators.append(Perm(hits[0]))
                b_orbit = orbit(b, generators)
        order *= len(b_orbit)
    return PermGroup(generators, degree=n, order=order)

