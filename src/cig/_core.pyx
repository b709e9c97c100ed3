# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled twins of two of cig._core_py's kernels.

``iso_backtrack`` and ``twin_labels`` have the same deterministic search
order and results as their pure-Python twins; only faster.  They hold
adjacency in 64-bit words, so inputs with more than 64 vertices delegate
to the pure-Python twin.  ``perm_closure`` has no compiled twin: measured
end to end it saved nothing.
"""

BACKEND = "compiled"


def iso_backtrack(int n, out_a, out_b, order, cand, bint find_all):
    """Backtracking search for arc-preserving vertex bijections a -> b."""
    if n == 0:
        return [()]
    if n > 64:
        from cig import _core_py
        return _core_py.iso_backtrack(n, out_a, out_b, order, cand, find_all)
    cdef unsigned long long A[64]
    cdef unsigned long long B[64]
    cdef unsigned long long one = 1
    cdef int ordv[64]
    cdef int tgt[64]
    cdef int cur[64]
    cdef int cand_off[65]
    cdef int cand_flat[4096]
    cdef int i, j, k, u, v, u2, v2, row_len
    cdef int offset = 0
    for i in range(n):
        A[i] = <unsigned long long> out_a[i]
        B[i] = <unsigned long long> out_b[i]
        ordv[i] = order[i]
        cur[i] = 0
        cand_off[i] = offset
        row = cand[i]
        row_len = len(row)
        for j in range(row_len):
            cand_flat[offset + j] = row[j]
        offset += row_len
    cand_off[n] = offset

    cdef unsigned long long used = 0
    cdef bint ok, placed
    cdef list results = []
    cdef list images
    k = 0
    while k >= 0:
        u = ordv[k]
        i = cand_off[k] + cur[k]
        placed = False
        while i < cand_off[k + 1]:
            v = cand_flat[i]
            i += 1
            if (used >> v) & 1:
                continue
            if ((A[u] >> u) & 1) != ((B[v] >> v) & 1):
                continue
            ok = True
            for j in range(k):
                u2 = ordv[j]
                v2 = tgt[j]
                if ((A[u] >> u2) & 1) != ((B[v] >> v2) & 1) or (
                    (A[u2] >> u) & 1
                ) != ((B[v2] >> v) & 1):
                    ok = False
                    break
            if ok:
                cur[k] = i - cand_off[k]
                tgt[k] = v
                used |= one << v
                placed = True
                break
        if not placed:
            cur[k] = 0
            k -= 1
            if k >= 0:
                used &= ~(one << tgt[k])
            continue
        if k == n - 1:
            images = [0] * n
            for j in range(n):
                images[ordv[j]] = tgt[j]
            results.append(tuple(images))
            if not find_all:
                return results
            used &= ~(one << tgt[k])
        else:
            k += 1
    return results


def twin_labels(int n, out, bint complete_kind):
    """Twin-class label per vertex (labels numbered by first occurrence)."""
    if n > 64:
        from cig import _core_py
        return _core_py.twin_labels(n, out, complete_kind)
    cdef unsigned long long O[64]
    cdef unsigned long long I[64]
    cdef unsigned long long one = 1
    cdef unsigned long long full, mask
    cdef int parent[64]
    cdef int u, v, ru, rv, a, b, lu, lv
    cdef bint ok
    if n == 0:
        return []
    for u in range(n):
        O[u] = <unsigned long long> out[u]
        I[u] = 0
        parent[u] = u
    for u in range(n):
        for v in range(n):
            if (O[u] >> v) & 1:
                I[v] |= one << u
    full = (one << n) - 1 if n < 64 else <unsigned long long> 0xFFFFFFFFFFFFFFFF
    for u in range(n):
        lu = (O[u] >> u) & 1
        for v in range(u + 1, n):
            mask = full ^ (one << u) ^ (one << v)
            if (O[u] & mask) != (O[v] & mask):
                continue
            if (I[u] & mask) != (I[v] & mask):
                continue
            a = (O[u] >> v) & 1
            b = (O[v] >> u) & 1
            lv = (O[v] >> v) & 1
            if complete_kind:
                ok = a and b and lu == lv
            else:
                ok = (not a and not b and not lu and not lv) or (
                    a and b and lu and lv
                )
            if ok:
                ru = u
                while parent[ru] != ru:
                    parent[ru] = parent[parent[ru]]
                    ru = parent[ru]
                rv = v
                while parent[rv] != rv:
                    parent[rv] = parent[parent[rv]]
                    rv = parent[rv]
                if ru != rv:
                    if ru < rv:
                        parent[rv] = ru
                    else:
                        parent[ru] = rv
    labels = [0] * n
    seen = {}
    cdef int next_label = 0
    cdef int r
    for u in range(n):
        r = u
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        if r not in seen:
            seen[r] = next_label
            next_label += 1
        labels[u] = seen[r]
    return labels
