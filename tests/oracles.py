"""Brute-force oracles, independent of the library's search paths.

Everything here enumerates: all bijections for isomorphism questions, every
leaf of the find-all backtracking for automorphism groups (the element
listing the library itself no longer builds), every group element for
blocks, all uniform set partitions for wreath-structure questions.  They stay dumb on
purpose -- the package is tested against them, never the other way around.
"""

from itertools import combinations, permutations
from random import Random

from cig import _kernels
from cig.digraphs import Digraph
from cig.iso import _candidates, _refine_colors, _search_order
from cig.perms import PermGroup, PointPartition


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
    """Every automorphism as a sorted list of image tuples: one find-all
    backtracking search over the refined colour classes, one leaf each."""
    n = d.order
    colors = _refine_colors(d, [0] * n)
    order = _search_order(colors)
    cand = _candidates(order, colors, colors)
    masks = list(d.out_masks)
    return sorted(_kernels.iso_backtrack(n, masks, masks, order, cand, True))


def brute_is_block(group: PermGroup, points) -> bool:
    """Every element maps the set onto itself or clear of it."""
    block = frozenset(points)
    return all(
        sum(1 for x in block if raw[x] in block) in (0, len(block))
        for raw in group.raw_elements
    )


def brute_block_systems(group: PermGroup, size: int) -> list[PointPartition]:
    """Every size-``size`` set through 0 that is a block, in combinations
    order, with its images under every element as the partition."""
    n = group.degree
    systems = []
    for rest in combinations(range(1, n), size - 1):
        block = (0, *rest)
        if brute_is_block(group, block):
            classes = {tuple(sorted(raw[x] for x in block)) for raw in group.raw_elements}
            systems.append(PointPartition(n, classes))
    return systems


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
