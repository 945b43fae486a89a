"""The search kernels.

Two hot loops live here: the exhaustive tree-into-graph backtracking search
and the exact minimum-density cut's branch and bound.  Both run on explicit
stacks, not recursion, under a node budget, and bitmasks are plain ints, so
hosts of any size are covered.
"""

from functools import lru_cache
from itertools import accumulate
from operator import add, lt

# Stack pops allowed to one `min_density_cut` call; see its *Budget* paragraph.
CUT_NODE_BUDGET = 1 << 20


def solve_embed(
    adj, classes, atleast, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget
):
    """Backtracking search for an injective, edge-preserving tree placement.

    adj:        per-host-vertex neighbour bitmask (no self-loops)
    classes:    one host vertex mask per distinct degree, highest degree first
                (`Graph.degree_classes`)
    atleast:    atleast[d] is the mask of host vertices of degree >= d, for
                every d in tdeg
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

    *Candidate order.*  Candidates are tried in the host's degree order:
    highest degree first, ties by smaller id.  The classes partition the
    host vertices by degree and come highest degree first, so every vertex
    of an earlier class precedes every vertex of a later one in that order,
    and inside one class, where degrees tie, the order is by id, which is
    the order in which the lowest set bit is popped.  Walking the classes
    in turn and popping each one's bits ascending therefore visits exactly
    the degree order restricted to the position's candidate mask.  On
    backtracking, a position resumes from its saved state: the candidates
    in classes not yet entered, the next class, and the untried bits of the
    current class, which is the point where the walk stopped.

    *Folded prunes.*  At each position one candidate mask is built,
    adj[img[parent]] & allowed & ~used & atleast[tdeg] & (-1 << (floor + 1)),
    with no parent factor at the root and the last factor only when symprev
    names a sibling whose image is floor.  A vertex fails `atleast[tdeg]`
    exactly when its host degree is below the tree degree, and fails the
    floor mask exactly when its id is at most floor, so the two masks drop
    the same vertices that a test per vertex would skip, and nothing else.
    Neither test depends on `used`, so the mask built on entry stays right
    on every return to the position: by then `used` is back to its value on
    entry.  Only the twin and lookahead tests, which read `used`, run per
    candidate.  `atleast` holds host vertices only, so every candidate lies
    in some class and the walk ends with the classes.

    *Twin cut.*  This is value-symmetry breaking.  Twins u, v satisfy
    N(u) - {v} = N(v) - {u}, so swapping them is a host automorphism; the
    caller leaves pinned host vertices out of every twin class, so the swap
    also fixes every pin.  When h and a smaller twin h' are both unused, the
    swap fixes the partial map too, and h' passes every filter h passes (same
    adjacency to the parent's image, same degree, same count of unused
    neighbours).  Any embedding placing h here thus has a swapped copy placing
    h', and h' comes first in the degree order (equal degree, smaller id):
    the lexicographically first embedding is never cut.  Combining this cut
    with symprev is not covered by that argument, so callers pass symprev
    all -1 whenever lower_twins is nonzero.

    Returns (images | None, complete, nodes); nodes counts accepted
    placements, the count the budget is charged in.  images is the host
    vertex per position when an embedding was found; None with complete True
    means the constrained search space was exhausted, and None with complete
    False that the budget ran out first.
    """
    m = len(parent_pos)
    if m == 0:
        return [], True, 0
    img = [0] * m
    # per placed position, where its candidate walk resumes after a backtrack
    rest = [0] * m
    nxt = [0] * m
    left = [0] * m
    free = -1  # the unused host vertices, as ~used
    nodes = 0
    i = 0
    # position i's walk: `cur` holds the untried candidates of class c - 1,
    # `mask` the candidates in classes c, c + 1, ...
    mask = allowed[0] & atleast[tdeg[0]]
    c = 0
    cur = 0
    kids = nchild[0]
    while True:
        if cur:
            bit = cur & -cur
            cur ^= bit
            h = bit.bit_length() - 1
            if lower_twins[h] & free or (adj[h] & free).bit_count() < kids:
                continue
            nodes += 1
            if nodes > budget:
                return None, False, nodes
            img[i] = h
            free ^= bit
            rest[i] = mask
            nxt[i] = c
            left[i] = cur
            i += 1
            if i == m:
                return img, True, nodes
            mask = adj[img[parent_pos[i]]] & allowed[i] & atleast[tdeg[i]] & free
            sp = symprev[i]
            if sp >= 0:
                mask &= -1 << (img[sp] + 1)
            c = 0
            cur = 0
            kids = nchild[i]
        elif mask:
            cur = mask & classes[c]
            mask ^= cur
            c += 1
        elif i:
            i -= 1
            free |= 1 << img[i]
            mask = rest[i]
            c = nxt[i]
            cur = left[i]
            kids = nchild[i]
        else:
            return None, True, nodes


@lru_cache(maxsize=64)
def _sizes(n):
    """s(n - s) for s = 0..n: the denominator of a cut whose side A has s vertices."""
    return tuple(s * (n - s) for s in range(n + 1))


@lru_cache(maxsize=1024)
def _caps(n, best_cross, best_den, cnum, cden, tie):
    """The one keep test as a table over sizes s = 0..n-1.  Its threshold
    num/den is the incumbent's density with tie 0 when that is at most the
    ceiling cnum/cden, else the ceiling with its tie; caps[s] is the least
    int b with b * den >= num * s(n - s) + tie, so that b < caps[s] exactly
    when b * den < num * s(n - s) + tie."""
    if best_cross * cden <= cnum * best_den:
        num, den, tie = best_cross, best_den, 0
    else:
        num, den = cnum, cden
    return tuple(-(-(num * size + tie) // den) for size in _sizes(n)[:n])


@lru_cache(maxsize=256)
def _inside(u, m):
    """For k = 0..u, the least number of crossing edges inside u unplaced
    vertices with m non-adjacent pairs when k of them join A: at least
    e - C(k, 2) - C(u - k, 2) = k(u - k) - m, and at least 0.  None when
    every entry is 0, since k(u - k) <= u^2/4."""
    if m >= u * u // 4:
        return None
    return tuple(k * (u - k) - m if k * (u - k) > m else 0 for k in range(u + 1))


def _levels(adj, n):
    """Per level v: `_inside` of the unplaced 1..v, and the positions w - 1 in
    the difference vector of v's lower neighbours w = 1..v-1."""
    inside = [None] * n
    lower = [()] * n
    e_u = 0
    for v in range(2, n):
        low = (adj[v] & ((1 << v) - 2)) >> 1
        pos = []
        while low:
            bit = low & -low
            pos.append(bit.bit_length() - 1)
            low ^= bit
        lower[v] = pos
        e_u += len(pos)
        inside[v] = _inside(v, v * (v - 1) // 2 - e_u)
    return inside, lower


def min_density_cut(adj, n, rho=None):
    """Exact min of crossing/(|A||B|) over proper bipartitions, by branch and bound.

    Returns (crossing, a_mask, complete, pops); pops counts stack pops, the
    count the budget is charged in.  With complete True and no ceiling,
    (crossing, a_mask) is the first minimum in reflected-Gray order:
    a_mask = 1 | gray(g) << 1 for g = 0, 1, ..., 2^(n-1) - 1, where
    gray(g) = g ^ (g >> 1), so vertex 0 is always in A.  Whatever the
    outcome, it is a real proper bipartition, the best leaf visited.

    *Order.*  Vertices n-1 down to 1 are placed one per level on an explicit
    stack.  Gray bit j (vertex j + 1) equals b_j ^ b_(j+1), where b is the
    binary g, so with the vertices above v placed, taking b_(v-1) = 0 first
    puts v on the side equal to the parity (XOR) of the side bits above it,
    with A = 1.  Visiting that child first makes the leaves come in the
    order of g, and the first leaf is A = {0}, which is the starting
    incumbent.  A leaf replaces the incumbent only when strictly sparser,
    and this test cuts a subtree only when its bound is >= the density of
    the incumbent, an earlier leaf.  Were the first minimum F in a subtree
    so cut, the incumbent's density would be <= that bound <= F's density,
    making an earlier leaf a minimum too.  So F is visited, becomes the incumbent,
    and no later leaf is strictly sparser: the result is the scan's F.

    *Bound.*  At a node, A and B hold the placed vertices, `cross` counts
    their crossing edges, and U = {1..v} is unplaced, u = |U|.  Fix a final
    size |A| = s and let k = s - |A| vertices of U join A.  A vertex w of U
    crosses a_w = |N(w) & A| placed edges if it goes to B and
    b_w = |N(w) & B| if it goes to A, so edges from U to placed vertices add
    sum(a_w) plus the sum over the k joiners of (b_w - a_w), which is at
    least sum(a_w) plus the k smallest of those differences.  Edges inside U
    that do not cross lie within the k joiners or within the u - k others,
    so at least e(U) - C(k, 2) - C(u - k, 2) of them cross.  The three edge
    sets (placed-placed, placed-U, inside U) are disjoint, so for every
    completion with |A| = s, crossing >= cross + both terms, and dividing by
    s(n - s) bounds its density.  The node's bound is the minimum over k,
    skipping s = n.  On K_n, and on K_n less an edge at vertex 0, the root's
    bound equals the density of A = {0}, so the search is that one node.

    *Ceiling.*  A size s is also dropped when its bound b is at or above a
    ceiling, and a subtree is cut when every size is dropped.  Two ceilings
    apply.  The first is rho1 = min_deg / (n - 1), the density of the
    sparsest one-vertex side: every such side is a proper bipartition, so F
    has density <= rho1, and a size is dropped only when b > rho1 strictly.
    At an ancestor of F, F's size has bound b <= F's density <= rho1, so it
    is never dropped, and the incumbent test does not drop it by the
    argument above: the result is still the scan's F.  rho1 serves only as
    a bound; a one-vertex side that ties the minimum need not come first in
    Gray order.  The second is the caller's `rho`, used when rho <= rho1
    (above rho1 it drops nothing the first does not): a size is dropped when
    b >= rho.  When F's density is below rho, F's size has bound
    b <= d(F) < rho at every ancestor of F, so F is still found and the
    result is unchanged.  Otherwise the result may be any leaf visited, of
    density >= rho, and a complete search then proves no bipartition is
    sparser than rho.

    *One keep test.*  With best the incumbent's density and c the ceiling,
    a size is kept when b/d < best and b/d < c, or b/d <= c when c is rho1
    (tie = 1).  When best <= c, b/d < best implies both ceiling tests, so
    the pair keeps exactly b/d < best; when best > c, either ceiling test
    implies b/d < best, so the pair keeps exactly the ceiling's sizes.  The
    search therefore holds one threshold num/den with a tie flag (0 for the
    incumbent), set again only when the incumbent improves, and keeps a
    size when b * den < num * d + tie, all in ints.  As a table per size,
    caps[s] = the least int b with b * den >= num * s(n - s) + tie
    (`_caps`), the test is b < caps[s].  It keeps the same sizes as the two
    tests, so the pops, the leaves and the witness are theirs.

    *Incremental bound.*  No a_w or b_w is recounted at a node.  Each stack
    entry carries |A|, the list d with d[w - 1] = b_w - a_w for the unplaced
    w = 1..v, and base = cross + sum(a_w), the part of the bound that does
    not depend on k; at a leaf U is empty and base = cross.  Placing v drops
    v's entry, d[:-1], and moves only the entries of v's lower neighbours
    w < v, by one each: v -> A adds 1 to a_w, so d[w - 1] falls by 1, and
    v -> B adds 1 to b_w, so it rises by 1.  v -> B crosses a_v placed
    edges and takes a_v out of the sum, so base stays; v -> A crosses b_v
    and adds 1 to the sum per lower neighbour, so base rises by
    d[v - 1] + #lower neighbours.  A pop is then one sorted(d): its prefix
    sums from base are the placed terms for k = 0..v, `_inside` holds the
    inside term per k (None when U is too sparse for it to be positive), and
    the node is kept when some size's bound is below its cap.

    *Budget.*  The search pops at most CUT_NODE_BUDGET = 2^20 nodes.  The
    full search tree has one root, 2^j nodes at depth j and 2^(n-1) leaves,
    2^n - 1 nodes in all, so every graph on n <= 20 vertices completes
    whatever its pruning.  A search that would pop one node more returns its
    incumbent with complete False: an upper bound on the minimum, and a
    real cut whose density may already lie below rho.

    Bitmasks are plain ints, so any n works.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    sizes = _sizes(n)
    deg = [a.bit_count() for a in adj]
    best_cross = deg[0]
    best_den = n - 1
    best_amask = 1
    min_deg = min(deg)
    # the ceiling cnum/cden is rho when rho <= rho1 = min_deg / (n - 1), else rho1
    if rho is not None and rho.numerator * (n - 1) <= min_deg * rho.denominator:
        cnum, cden, tie = rho.numerator, rho.denominator, 0
    else:
        cnum, cden, tie = min_deg, n - 1, 1
    caps = _caps(n, best_cross, best_den, cnum, cden, tie)
    # the root's inside term needs only e(1..n-1); the other levels are
    # tabled by `_levels` when the root is first expanded
    top = n - 1
    inside = [None] * n
    inside[top] = _inside(top, top * (top - 1) // 2 - (sum(deg) // 2 - deg[0]))
    lower = None
    budget = CUT_NODE_BUDGET
    pops = 0
    # (next vertex to place, A mask, |A|, base, d, parity)
    stack = [(top, 1, 1, best_cross, [-(a & 1) for a in adj[1:]], 0)]
    while stack:
        if pops == budget:
            return best_cross, best_amask, False, pops
        pops += 1
        v, amask, asz, base, d, par = stack.pop()
        if v == 0:
            den = sizes[asz]
            # den is 0 only with every vertex in A; the test is then false
            if base * best_den < best_cross * den:
                best_cross = base
                best_den = den
                best_amask = amask
                caps = _caps(n, best_cross, best_den, cnum, cden, tie)
            continue
        # bounds for k = 0..v joiners, against the caps of sizes |A| + k < n
        bounds = accumulate(sorted(d), initial=base)
        if inside[v] is not None:
            bounds = map(add, bounds, inside[v])
        if not any(map(lt, bounds, caps[asz:])):
            continue  # every size is dropped
        if lower is None:
            inside, lower = _levels(adj, n)
        below = lower[v]
        d_a = d[:-1]
        d_b = d[:-1]
        for i in below:
            d_a[i] -= 1
            d_b[i] += 1
        to_b = (v - 1, amask, asz, base, d_b, par)
        to_a = (v - 1, amask | 1 << v, asz + 1, base + d[-1] + len(below), d_a, par ^ 1)
        # the child on side `par` (A = 1) goes first, so it is pushed last
        stack.extend((to_b, to_a) if par else (to_a, to_b))
    return best_cross, best_amask, True, pops
