"""The search kernels.

Two hot loops live here: the exhaustive tree-into-graph backtracking search
and the exact minimum-density cut enumeration.  Both are iterative, and
bitmasks are plain ints, so hosts of any size are covered.
"""

FOUND = 0
NOT_FOUND = 1
BUDGET = 2


def solve_embed(
    adj, host_deg, host_order, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget
):
    """Backtracking search for an injective, edge-preserving tree placement.

    adj:        per-host-vertex neighbour bitmask
    host_deg:   per-host-vertex degree
    host_order: all host ids, candidate iteration order (degree-descending)
    parent_pos: for tree-position i, the earlier position adjacent to it (-1 at 0)
    allowed:    per-position bitmask of admissible host vertices (pins shrink it)
    tdeg:       tree degree per position (candidates must have host degree >= it)
    nchild:     children still to be placed below each position (lookahead prune)
    symprev:    earlier sibling position carrying an identical subtree, else -1;
                the image of i must exceed that sibling's image (symmetry cut,
                sound because swapping the two subtree images is an automorphism)
    lower_twins: per-host-vertex mask of its host twins with smaller ids (all
                zeros disables the cut); a candidate h is skipped while any of
                them is unused

    The twin cut is value-symmetry breaking.  Twins u, v satisfy
    N(u) - {v} = N(v) - {u}, so swapping them is a host automorphism; the
    caller leaves pinned host vertices out of every twin class, so the swap
    also fixes every pin.  When h and a smaller twin h' are both unused, the
    swap fixes the partial map too, and h' passes every filter h passes (same
    adjacency to the parent's image, same degree, same count of unused
    neighbours).  Any embedding placing h here thus has a swapped copy placing
    h', and h' comes first in host_order (equal degree, smaller id): the
    lexicographically first embedding is never cut.  Combining this cut with
    symprev is not covered by that argument, so callers pass symprev all -1
    whenever lower_twins is nonzero.

    Returns (status, images|None, nodes); nodes counts accepted placements.
    A NOT_FOUND status means the constrained search space was exhausted.
    """
    m = len(parent_pos)
    n = len(adj)
    if m == 0:
        return FOUND, [], 0
    img = [-1] * m
    used = 0
    ptr = [0] * m
    nodes = 0
    i = 0
    while True:
        p = parent_pos[i]
        if p < 0:
            mask = allowed[i] & ~used
        else:
            mask = adj[img[p]] & allowed[i] & ~used
        need = tdeg[i]
        kids = nchild[i]
        sp = symprev[i]
        floor = img[sp] if sp >= 0 else -1
        placed = False
        j = ptr[i]
        while j < n:
            h = host_order[j]
            j += 1
            if not (mask >> h) & 1:
                continue
            if host_deg[h] < need:
                continue
            if h <= floor:
                continue
            if lower_twins[h] & ~used:
                continue
            if ((adj[h] & ~used) & ~(1 << h)).bit_count() < kids:
                continue
            nodes += 1
            if nodes > budget:
                return BUDGET, None, nodes
            img[i] = h
            used |= 1 << h
            ptr[i] = j
            placed = True
            break
        if placed:
            i += 1
            if i == m:
                return FOUND, img, nodes
            ptr[i] = 0
        else:
            if i == 0:
                return NOT_FOUND, None, nodes
            i -= 1
            used &= ~(1 << img[i])
            img[i] = -1


def min_density_cut(adj, n):
    """Exact min of crossing/(|A||B|) over proper bipartitions, Gray-code scan.

    Vertex 0 is anchored on side A; gray code enumerates which of the other
    vertices join it.  Gray step g flips vertex (g & -g).bit_length(), and
    the crossing count moves by +-(deg v - 2|N(v) & A|) per flip, so each
    step costs one popcount.  Returns (crossing, a_mask) of the first minimum
    encountered.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    deg = [a.bit_count() for a in adj]
    amask = 1
    asz = 1
    cross = deg[0]
    best_cross = cross
    best_den = n - 1
    best_amask = amask
    # The flips of steps 1 .. 2^low - 1 repeat in every block of 2^low steps;
    # only the block's first step, g = j * 2^low, flips a higher vertex.
    low = min(n - 1, 10)
    ruler = [(g & -g).bit_length() for g in range(1, 1 << low)]
    for j in range(1 << (n - 1 - low)):
        for v in [(j & -j).bit_length() + low] + ruler if j else ruler:
            bit = 1 << v
            # joining A, v's edges into B start crossing and those into A stop
            d = deg[v] - 2 * (adj[v] & amask).bit_count()
            amask ^= bit
            if amask & bit:
                cross += d
                asz += 1
            else:
                cross -= d
                asz -= 1
            # den is 0 only with every vertex in A; the test is then false
            den = asz * (n - asz)
            if cross * best_den < best_cross * den:
                best_cross = cross
                best_den = den
                best_amask = amask
    return best_cross, best_amask
