"""Search kernels: isomorphism backtracking and twin classes.

All pure Python; ``BACKEND`` is always ``"python"``.

Adjacency is one integer bitmask per vertex: ``out[u] >> v & 1`` is the arc
u -> v, and ``into[v] >> u & 1`` the same arc seen from its head (the
``Digraph.out_masks`` and ``Digraph.in_masks`` tuples).  Python integers
have no fixed width, so these kernels take any number of vertices.

There is one twin relation, the transpositions that are automorphisms, and
one pass computes it (``twin_labels``).  Both wreath decompositions, the
automorphism search, and the lift check's case and twin test (on the
quotient digraph, whose twin classes give the lifted digraph's) read their
classes from it, through ``Digraph.twin_classes``.
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


def twin_labels(out, into):
    """Twin-class label per vertex (labels numbered by first occurrence),
    from the out-masks ``out`` and in-masks ``into`` of one digraph.

    u != v are twins when the transposition (u v) is an automorphism: equal
    loop flags, identical neighbourhoods outside the pair, and both arcs
    between them or neither.  Each vertex has two keys, its neighbourhoods
    with its own bit set (equal for adjacent twins) and cleared (equal for
    non-adjacent twins), each with its loop bit.  A class is adjacent or
    non-adjacent throughout, so a vertex takes its adjacent key's class when
    that has two or more members, and its non-adjacent key's class
    otherwise.  The two kinds of key never collide: were u's adjacent key w's
    non-adjacent key, w's out-mask would hold u (set in u's key), so u's
    in-mask would hold w (cleared in w's key).
    """
    keys = []
    sizes = {}
    for u, (row, col) in enumerate(zip(out, into)):
        bit = 1 << u
        loop = row >> u & 1
        near = (row | bit, col | bit, loop)
        keys.append((near, (row & ~bit, col & ~bit, loop)))
        sizes[near] = sizes.get(near, 0) + 1
    seen = {}
    return [seen.setdefault(a if sizes[a] > 1 else b, len(seen)) for a, b in keys]
