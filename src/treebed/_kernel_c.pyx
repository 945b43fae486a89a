# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of treebed._kernel_py (hosts up to 64 vertices).

Semantics, traversal order, tie-breaking and node counts match the pure
backend exactly; the equivalence is asserted by the test suite and measured
by benchmarks/bench_kernels.py.
"""

from libc.stdlib cimport free, malloc

ctypedef unsigned long long u64

FOUND = 0
NOT_FOUND = 1
BUDGET = 2


cdef inline int popcount(u64 x) noexcept:
    cdef int c = 0
    while x:
        x &= x - 1
        c += 1
    return c


def solve_embed(
    adj, host_deg, host_order, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget
):
    """See treebed._kernel_py.solve_embed; hosts must have n <= 64 here."""
    cdef int m = len(parent_pos)
    cdef int n = len(adj)
    if n > 64:
        raise ValueError("compiled kernel handles hosts up to 64 vertices")
    if m == 0:
        return FOUND, [], 0
    cdef u64 *c_adj = <u64 *> malloc(n * sizeof(u64))
    cdef u64 *c_lower = <u64 *> malloc(n * sizeof(u64))
    cdef int *c_deg = <int *> malloc(n * sizeof(int))
    cdef int *c_order = <int *> malloc(n * sizeof(int))
    cdef int *c_parent = <int *> malloc(m * sizeof(int))
    cdef u64 *c_allowed = <u64 *> malloc(m * sizeof(u64))
    cdef int *c_tdeg = <int *> malloc(m * sizeof(int))
    cdef int *c_nchild = <int *> malloc(m * sizeof(int))
    cdef int *c_symprev = <int *> malloc(m * sizeof(int))
    cdef int *img = <int *> malloc(m * sizeof(int))
    cdef int *ptr = <int *> malloc(m * sizeof(int))
    if (c_adj == NULL or c_lower == NULL or c_deg == NULL or c_order == NULL or c_parent == NULL
            or c_allowed == NULL or c_tdeg == NULL or c_nchild == NULL
            or c_symprev == NULL or img == NULL or ptr == NULL):
        raise MemoryError()
    cdef int i, j, h, p, need, kids, sp, floor_
    cdef u64 used = 0, mask, bit
    cdef long long nodes = 0, c_budget = budget
    cdef int status = NOT_FOUND
    try:
        for i in range(n):
            c_adj[i] = <u64> adj[i]
            c_lower[i] = <u64> lower_twins[i]
            c_deg[i] = host_deg[i]
            c_order[i] = host_order[i]
        for i in range(m):
            c_parent[i] = parent_pos[i]
            c_allowed[i] = <u64> allowed[i]
            c_tdeg[i] = tdeg[i]
            c_nchild[i] = nchild[i]
            c_symprev[i] = symprev[i]
            img[i] = -1
            ptr[i] = 0
        i = 0
        while True:
            p = c_parent[i]
            if p < 0:
                mask = c_allowed[i] & ~used
            else:
                mask = c_adj[img[p]] & c_allowed[i] & ~used
            need = c_tdeg[i]
            kids = c_nchild[i]
            sp = c_symprev[i]
            floor_ = img[sp] if sp >= 0 else -1
            j = ptr[i]
            h = -1
            while j < n:
                h = c_order[j]
                j += 1
                bit = (<u64> 1) << h
                if not (mask & bit):
                    h = -1
                    continue
                if c_deg[h] < need:
                    h = -1
                    continue
                if h <= floor_:
                    h = -1
                    continue
                if c_lower[h] & ~used:
                    h = -1
                    continue
                if popcount(c_adj[h] & ~used & ~bit) < kids:
                    h = -1
                    continue
                break
            if h >= 0:
                nodes += 1
                if nodes > c_budget:
                    status = BUDGET
                    break
                img[i] = h
                used |= (<u64> 1) << h
                ptr[i] = j
                i += 1
                if i == m:
                    status = FOUND
                    break
                ptr[i] = 0
            else:
                if i == 0:
                    status = NOT_FOUND
                    break
                i -= 1
                used &= ~((<u64> 1) << img[i])
                img[i] = -1
        if status == FOUND:
            out = [img[i] for i in range(m)]
            return FOUND, out, int(nodes)
        return status, None, int(nodes)
    finally:
        free(c_adj)
        free(c_lower)
        free(c_deg)
        free(c_order)
        free(c_parent)
        free(c_allowed)
        free(c_tdeg)
        free(c_nchild)
        free(c_symprev)
        free(img)
        free(ptr)


def min_density_cut(adj, n):
    """See treebed._kernel_py.min_density_cut; n <= 62 here."""
    cdef int cn = n
    if cn < 2:
        raise ValueError("need n >= 2")
    if cn > 62:
        raise ValueError("compiled kernel handles cuts up to 62 vertices")
    cdef u64 *c_adj = <u64 *> malloc(cn * sizeof(u64))
    if c_adj == NULL:
        raise MemoryError()
    cdef int i, v, asz
    cdef u64 full = ((<u64> 1) << cn) - 1
    cdef u64 amask = 1, bit, av, gray = 0, ng, flip
    cdef long long cross, best_cross, best_den, den, g, total
    cdef u64 best_amask = 1
    try:
        for i in range(cn):
            c_adj[i] = <u64> adj[i]
        cross = popcount(c_adj[0])
        best_cross = cross
        best_den = cn - 1
        total = (<long long> 1) << (cn - 1)
        for g in range(1, total):
            ng = (<u64> g) ^ ((<u64> g) >> 1)
            flip = gray ^ ng
            gray = ng
            v = 0
            while not (flip >> v) & 1:
                v += 1
            v += 1
            bit = (<u64> 1) << v
            av = c_adj[v]
            if amask & bit:
                amask ^= bit
                cross += popcount(av & amask) - popcount(av & (full & ~amask))
            else:
                cross += popcount(av & (full & ~amask)) - popcount(av & amask)
                amask ^= bit
            asz = popcount(amask)
            if asz == cn:
                continue
            den = (<long long> asz) * (cn - asz)
            if cross * best_den < best_cross * den:
                best_cross = cross
                best_den = den
                best_amask = amask
        return int(best_cross), int(best_amask)
    finally:
        free(c_adj)
