"""Search kernels: isomorphism backtracking and twin classes.

All pure Python; ``BACKEND`` is always ``"python"``.

Adjacency is one integer bitmask per vertex: ``out[u] >> v & 1`` is the arc
u -> v, and ``into[v] >> u & 1`` the same arc seen from its head (the
``Digraph.out_masks`` and ``Digraph.in_masks`` tuples).  Python integers
have no fixed width, so these kernels take any number of vertices.
"""

BACKEND = "python"


def iso_backtrack(n, out_a, out_b, order, cand, find_all):
    """Backtracking search for arc-preserving vertex bijections a -> b.

    ``order``   -- source vertices in placement order,
    ``cand[k]`` -- ascending candidate targets for ``order[k]``.

    Candidates are tried ascending; consistency with every placed pair is
    checked in both arc directions, plus the loop bit at placement.  Returns
    image tuples (``images[u]`` = target of source u): all of them when
    ``find_all``, else at most one (the first found).
    """
    if n == 0:
        return [()]
    results = []
    tgt = [0] * n
    cur = [0] * n
    used = 0
    k = 0
    while k >= 0:
        u = order[k]
        row = cand[k]
        i = cur[k]
        placed = False
        while i < len(row):
            v = row[i]
            i += 1
            if used >> v & 1:
                continue
            if (out_a[u] >> u & 1) != (out_b[v] >> v & 1):
                continue
            ok = True
            for j in range(k):
                u2 = order[j]
                v2 = tgt[j]
                if (out_a[u] >> u2 & 1) != (out_b[v] >> v2 & 1) or (
                    out_a[u2] >> u & 1
                ) != (out_b[v2] >> v & 1):
                    ok = False
                    break
            if ok:
                cur[k] = i
                tgt[k] = v
                used |= 1 << v
                placed = True
                break
        if not placed:
            cur[k] = 0
            k -= 1
            if k >= 0:
                used &= ~(1 << tgt[k])
            continue
        if k == n - 1:
            images = [0] * n
            for j in range(n):
                images[order[j]] = tgt[j]
            results.append(tuple(images))
            if not find_all:
                return results
            used &= ~(1 << tgt[k])
        else:
            k += 1
    return results


def twin_labels(out, into, complete_kind):
    """Twin-class label per vertex (labels numbered by first occurrence),
    from the out-masks ``out`` and in-masks ``into`` of one digraph.

    Two vertices are twins when they have identical in- and out-
    neighbourhoods outside the pair and, for ``complete_kind``, are mutually
    adjacent with equal loop flags; otherwise (empty kind) either share no
    arcs and no loops, or are mutually adjacent and both looped (the fully
    looped clique case, which an inner empty factor also realizes through a
    quotient loop).

    That relation is equality of one key per vertex: ``(out[u], into[u])``
    for the empty kind, and ``(out[u] | 1<<u, into[u] | 1<<u, loop bit)``
    for the complete kind.
    """
    if not complete_kind:
        return _numbered(zip(out, into))
    return _numbered(
        (row | 1 << u, col | 1 << u, row >> u & 1)
        for u, (row, col) in enumerate(zip(out, into))
    )


def apart_twin_labels(out, into):
    """Label per vertex, numbered as in ``twin_labels``, of its class of
    non-adjacent twins: vertices with equal loop flags, no arc either way
    and identical in- and out-neighbourhoods outside the pair.

    The key ``(out[u] & ~(1<<u), into[u] & ~(1<<u), loop bit)`` is the
    complete kind's with the own bit cleared instead of set.  Unlike the
    empty kind, it never groups a mutually adjacent looped pair, so
    decompositions over an empty inner factor keep the empty kind.
    """
    return _numbered(
        (row & ~(1 << u), col & ~(1 << u), row >> u & 1)
        for u, (row, col) in enumerate(zip(out, into))
    )


def _numbered(keys):
    """Per key, the index of its first occurrence among the distinct keys."""
    seen = {}
    return [seen.setdefault(key, len(seen)) for key in keys]
