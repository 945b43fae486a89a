"""Tree-into-graph embedding: constructive procedures and the exhaustive oracle.

Every procedure that reports "found" validates its embedding before
returning, so a found outcome is self-certifying.  Only the oracle's
exhaustive `not_found` is a proof of non-containment; the constructive
procedures raise EmbedNotFound instead when they get stuck.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import lt
from typing import Callable, Iterable, Optional, Sequence

from . import kernel
from .errors import EmbedNotFound, InternalInvariantError, PreconditionViolated
from .generators import gen_path
from .graph import Graph, as_vertex_set
from .trees import (
    Tree,
    _subset_with_sum,
    balanced_separator_vertex,
    even_odd_split,
    msf_decomposition,
    split_three_forests,
    split_two_forests,
)

# the oracle's node budget when a caller gives none, also spent by the
# oracle searches inside `embed_via_path` and `matching_forest_embed`; the
# path-length window of `embed_via_path` past the heavy branch's depth, and
# its degree slack eps (each pool needs min degree (2/3 - eps)k).  This
# module reads all three at call time
DEFAULT_ORACLE_BUDGET = 10**8
ESCAPE_PATH_SLACK = 64
ESCAPE_PATH_EPS = Fraction(1, 48)


@dataclass(frozen=True)
class Embedding:
    """Injective partial map from tree vertices to host vertices."""

    mapping: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = self.mapping
        tvs, hvs = zip(*m) if m else ((), ())
        injective = len(set(hvs)) == len(m)
        # strictly ascending tree vertices are distinct and sort the pairs
        if injective and all(map(lt, tvs, tvs[1:])):
            return
        if len(set(tvs)) != len(m):
            raise PreconditionViolated("a tree vertex is mapped twice")
        if not injective:
            raise PreconditionViolated("embedding is not injective")
        raise PreconditionViolated("mapping pairs must be sorted")

    @classmethod
    def from_dict(cls, d: dict) -> "Embedding":
        return cls(tuple(sorted((int(k), int(v)) for k, v in d.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)

    def __len__(self) -> int:
        return len(self.mapping)

    def is_total_for(self, t: Tree) -> bool:
        m = self.mapping  # distinct ascending tree vertices: the ends bound them all
        return len(m) == t.n and (not m or (m[0][0] >= 0 and m[-1][0] < t.n))


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of an embedding attempt.

    status "not_found" only ever comes from the oracle after exhausting the
    search space; budgeted interruptions report "budget_exhausted".
    """

    status: str  # found | not_found | budget_exhausted
    embedding: Optional[Embedding]
    nodes_explored: int

    def __post_init__(self):
        if self.status not in ("found", "not_found", "budget_exhausted"):
            raise PreconditionViolated(f"bad status {self.status!r}")
        if (self.status == "found") != (self.embedding is not None):
            raise PreconditionViolated("embedding present iff status is found")


def validate(g: Graph, t: Tree, e: Embedding) -> tuple[bool, Optional[str]]:
    """Check a total embedding: injectivity and edge preservation.

    Returns (True, None) or (False, first violation).  Totality is a
    precondition; partial maps are rejected outright.
    """
    if not e.is_total_for(t):
        raise PreconditionViolated("validate requires a total embedding")
    for tv, hv in e.mapping:
        if not (0 <= hv < g.n):
            return False, f"tree vertex {tv} mapped outside the host ({hv})"
    phi = [hv for _, hv in e.mapping]  # total and sorted: pair i is (i, phi[i])
    masks = g.masks()
    for u, v in t.edges:
        if not masks[phi[u]] >> phi[v] & 1:
            return False, f"tree edge ({u},{v}) maps to non-edge ({phi[u]},{phi[v]})"
    return True, None


def _certify_found(g: Graph, t: Tree, emb: Embedding, nodes: int) -> EmbedOutcome:
    ok, why = validate(g, t, emb)
    if not ok:
        raise InternalInvariantError(f"produced embedding fails validation: {why}")
    return EmbedOutcome("found", emb, nodes)


# ---------------------------------------------------------------------------
# Exhaustive oracle


def _host_twins(g: Graph, pinned: Iterable[int]) -> Sequence[int]:
    """g's lower-twin table (`Graph.lower_twins`) with the pinned host
    vertices taken out of every twin class: a pinned vertex has no twins,
    and no vertex keeps a pinned one among its own."""
    lower = g.lower_twins()
    pin_bits = 0
    for h in pinned:
        pin_bits |= 1 << h
    if not pin_bits or not any(lower):
        return lower
    return [0 if pin_bits >> h & 1 else m & ~pin_bits for h, m in enumerate(lower)]


def brute_force_embed(
    g: Graph,
    t: Tree,
    pins: Optional[Embedding] = None,
    budget: Optional[int] = None,
) -> EmbedOutcome:
    """Ground-truth backtracking search for a copy of t in g.

    Tree vertices are placed in BFS order from a deterministic root (a pinned
    vertex when pins exist, else a maximum-degree vertex); candidates follow
    host-degree order with degree and child-count pruning.

    Two symmetry cuts keep the search small, and at most one of them is on:

    - host twins: unpinned host vertices u, v with N(u) - {v} = N(v) - {u}.
      A candidate is skipped while a twin with a smaller id is unused.
      Swapping two unused unpinned twins is a host automorphism that fixes
      the partial map and every pin, and the smaller twin passes every filter
      the larger one does, so the lexicographically first embedding survives
      (see `treebed.kernel.solve_embed`).  Pinned host vertices stay out
      of the twin classes: the swap must fix all pins at once.
    - isomorphic sibling subtrees without pins are explored in increasing
      root-image order only.  This cut is used only when the host has no
      twins, because no proof covers combining it with the twin cut.

    "not_found" is a proof; budget overruns report "budget_exhausted" instead.
    A budget of None is DEFAULT_ORACLE_BUDGET as it reads when the search starts.
    """
    if budget is None:
        budget = DEFAULT_ORACLE_BUDGET
    pin_map = pins.as_dict() if pins is not None else {}
    if pin_map:
        for tv, hv in pin_map.items():
            if not (0 <= tv < t.n and 0 <= hv < g.n):
                raise PreconditionViolated(f"pin ({tv},{hv}) out of range")
        for u, v in t.edges:
            if u in pin_map and v in pin_map and not g.has_edge(pin_map[u], pin_map[v]):
                raise PreconditionViolated("pins violate edge preservation")
    if t.n == 0:
        return EmbedOutcome("found", Embedding(()), 0)
    if t.n > g.n:
        return EmbedOutcome("not_found", None, 0)
    order_t, parent_pos, tdeg, nchild, symprev = t.search_plan(pin_map)
    classes, atleast = g.degree_classes()
    # some host vertex must reach the tree's maximum degree, which is below
    # t.n <= g.n and so indexes atleast
    if not atleast[max(tdeg)]:
        return EmbedOutcome("not_found", None, 0)

    full = (1 << g.n) - 1
    if pin_map:
        allowed = [1 << pin_map[v] if v in pin_map else full for v in order_t]
    else:
        allowed = [full] * t.n
    lower_twins = _host_twins(g, pin_map.values())
    if any(lower_twins):
        symprev = (-1,) * t.n

    imgs, complete, nodes = kernel.solve_embed(
        g.masks(), classes, atleast, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget
    )
    if imgs is not None:
        phi = [0] * t.n
        for v, h in zip(order_t, imgs):
            phi[v] = h
        return _certify_found(g, t, Embedding(tuple(enumerate(phi))), nodes)
    return EmbedOutcome("not_found" if complete else "budget_exhausted", None, nodes)


def path_in_range(
    g: Graph, y: int, z: int, ell: int, slack: int, budget: int
) -> tuple[Optional[tuple[int, ...]], bool, int]:
    """A simple y-z path with ell+1 to ell+slack edges: (path, complete, nodes).

    Each length L, shortest first, is one oracle search for the path tree on
    L + 1 vertices with its ends pinned on y and z, all within one `budget`,
    so a path found has the shortest admissible length; None with complete
    True proves that there is none.
    """
    if y == z:
        raise PreconditionViolated("endpoints must differ")
    if ell < 0 or slack < 1:
        raise PreconditionViolated("need ell >= 0 and slack >= 1")
    dist = g.bfs_dist(y)[z]
    if dist < 0:
        return None, True, 0
    nodes = 0
    # no y-z path is shorter than d(y, z), so L = 1 comes up only when the
    # pins are adjacent; and no simple path has more than g.n vertices
    for length in range(max(ell + 1, dist), min(ell + slack, g.n - 1) + 1):
        pins = Embedding(((0, y), (length, z)))
        out = brute_force_embed(g, gen_path(length + 1), pins, budget=budget - nodes)
        nodes += out.nodes_explored
        if out.status == "found":
            return tuple(h for _, h in out.embedding.mapping), True, nodes
        if out.status == "budget_exhausted":
            return None, False, nodes
    return None, True, nodes


# ---------------------------------------------------------------------------
# Greedy machinery shared by the constructive procedures


def _certify_placed(g: Graph, t: Tree, phi: dict, oracle_nodes: int = 0) -> EmbedOutcome:
    """The found outcome for a constructive map phi.  Each of the t.n tree
    vertices is placed once, so the work reported is t.n placements plus the
    oracle nodes spent; a partial or non-injective phi is a bug, not bad input."""
    if len(phi) != t.n or len(set(phi.values())) != t.n:
        raise InternalInvariantError("constructive map is partial or not injective")
    return _certify_found(g, t, Embedding.from_dict(phi), t.n + oracle_nodes)


def _greedy_subtree(
    g: Graph,
    t: Tree,
    members: frozenset,
    root_t: int,
    phi: dict,
    used: set,
    pool: frozenset | Callable[[int], frozenset],
    stage: str,
) -> None:
    """Extend phi over `members` BFS-out from root_t (already placed).

    Each vertex w lands on the smallest unused neighbour of its parent's image
    inside its pool: `pool` itself, or `pool(w)` when pools differ per vertex.
    Raises EmbedNotFound on a dead end.
    """
    pool_for = pool if callable(pool) else lambda _: pool
    queue = [root_t]
    for v in queue:  # the list grows while it is walked
        for w in t.neighbors(v):
            if w not in members or w in phi:
                continue
            inside = pool_for(w)
            img = next((h for h in g.neighbors(phi[v]) if h not in used and h in inside), None)
            if img is None:
                raise EmbedNotFound(stage, f"no host available for tree vertex {w}")
            phi[w] = img
            used.add(img)
            queue.append(w)


def _place_forests(g: Graph, t: Tree, x: int, r: int, parts) -> dict:
    """Put r on x, then grow each (members, pool, stage) part from r in turn."""
    phi, used = {r: x}, {x}
    for members, pool, stage in parts:
        _greedy_subtree(g, t, members, r, phi, used, pool, stage)
    return phi


def _min_degree_without(g: Graph, x: int) -> int:
    """Minimum degree of g - x (0 when g - x is empty), read off the degree
    classes from the lowest: a vertex v != x of the lowest class that has
    one, of degree d, keeps degree d in g - x, or d - 1 when it is adjacent
    to x, and every vertex of a higher class keeps degree at least d."""
    for cls in reversed(g.degree_classes()[0]):
        others = cls & ~(1 << x)
        if others:
            d = g.degree((others & -others).bit_length() - 1)
            return d - 1 if others & g.masks()[x] else d
    return 0


def greedy_embed(g: Graph, t: Tree, x: int, root: Optional[int] = None) -> EmbedOutcome:
    """Embed a rooted tree with its root at x by plain BFS greed.

    Requires min degree of g - x at least the tree's edge count and
    deg(x) >= max_degree(t); under those the greedy placement never sticks.
    """
    r = root if root is not None else t.root
    if r is None:
        raise PreconditionViolated("tree must carry a root (or pass root=...)")
    if not (0 <= x < g.n):
        raise PreconditionViolated("x out of range")
    k = t.k
    if _min_degree_without(g, x) < k:
        raise PreconditionViolated(f"need min degree {k} in g - x")
    if g.degree(x) < t.max_degree():
        raise PreconditionViolated("apex degree below the tree's max degree")
    everything = frozenset(range(g.n))
    phi = _place_forests(g, t, x, r, [(frozenset(range(t.n)), everything, "greedy")])
    return _certify_placed(g, t, phi)


def apex_split_embed(g: Graph, x: int, c1, c2, t: Tree) -> EmbedOutcome:
    """Root the tree at a balanced separator placed on x, then push the two
    forest halves into the two candidate vertex pools."""
    s1 = as_vertex_set(c1, g.n)
    s2 = as_vertex_set(c2, g.n)
    if s1.as_set() & s2.as_set() or x in s1 or x in s2:
        raise PreconditionViolated("pools must be disjoint and avoid x")
    k, dmax = t.k, t.max_degree()
    floor = (2 * k) // 3 - 1
    for s in (s1, s2):
        if g.min_degree_within(s.members) < floor:
            raise PreconditionViolated(f"pool min degree below floor(2k/3)-1 = {floor}")
        if g.deg_within(x, s.as_set()) < dmax:
            raise PreconditionViolated("x lacks max_degree(t) neighbours in a pool")
    split = split_two_forests(t)
    r = split.pivot
    parts = [
        (f.as_set() | {r}, s.as_set(), "apex_split") for f, s in ((split.f1, s1), (split.f2, s2))
    ]
    return _certify_placed(g, t, _place_forests(g, t, x, r, parts))


def apex_three_split_embed(g: Graph, x: int, c1, c2, c3, t: Tree) -> EmbedOutcome:
    """Three-pool variant: two forest parts rooted at x, the third (a single
    component) enters its pool through a neighbour of x."""
    pools = [as_vertex_set(c, g.n) for c in (c1, c2, c3)]
    for i in range(3):
        for j in range(i + 1, 3):
            if pools[i].as_set() & pools[j].as_set():
                raise PreconditionViolated("pools overlap")
        if x in pools[i]:
            raise PreconditionViolated("pools must avoid x")
    k, dmax = t.k, t.max_degree()
    need = -(-k // 2) + 2
    for p in pools:
        if g.min_degree_within(p.members) < need:
            raise PreconditionViolated(f"pool min degree below ceil(k/2)+2 = {need}")
    for p in pools[:2]:
        if g.deg_within(x, p.as_set()) < dmax:
            raise PreconditionViolated("x lacks max_degree(t) neighbours in a main pool")
    if not any(h in pools[2] for h in g.neighbors(x)):
        raise PreconditionViolated("x has no neighbour in the third pool")
    split = split_three_forests(t)
    r = split.pivot
    stages = ("apex_three", "apex_three", "apex_three_f3")
    parts = [
        (f.as_set() | {r}, p.as_set(), stage)
        for f, p, stage in zip((split.f1, split.f2, split.f3), pools, stages)
    ]
    return _certify_placed(g, t, _place_forests(g, t, x, r, parts))


def bipartite_apex_embed(g: Graph, x: int, y1, y2, t: Tree) -> EmbedOutcome:
    """Embed into a bipartite host plus apex by alternating the even/odd class
    split between the two sides."""
    if not (0 <= x < g.n):
        raise PreconditionViolated("x out of range")
    s1 = as_vertex_set(y1, g.n)
    s2 = as_vertex_set(y2, g.n)
    if s1.as_set() & s2.as_set() or x in s1 or x in s2:
        raise PreconditionViolated("sides must be disjoint and avoid x")
    if s1.as_set() | s2.as_set() != frozenset(range(g.n)) - {x}:
        raise PreconditionViolated("sides must cover g - x")
    for u, v in g.edges():
        if x in (u, v):
            continue
        if (u in s1) == (v in s1):
            raise PreconditionViolated(f"edge ({u},{v}) does not cross the bipartition")
    k, dmax = t.k, t.max_degree()
    if k <= 6 * dmax:
        raise PreconditionViolated("needs k > 6*max_degree(t)")
    threshold = (Fraction(2, 3) - Fraction(1, 6 * dmax)) * k
    if _min_degree_without(g, x) < threshold:
        raise PreconditionViolated("min degree of g - x below (2/3 - 1/(6*max_degree))k")
    for s in (s1, s2):
        if g.deg_within(x, s.as_set()) < dmax:
            raise PreconditionViolated("x lacks max_degree(t) neighbours in a side")
    eo = even_odd_split(t)
    r = eo.root
    depth = t.rooted(r).depth
    sides = (s1.as_set(), s2.as_set())
    # a vertex of a class-j component lies on side j at odd depth, else on the other
    pool_of = {}
    for j, class_j in enumerate((eo.class1, eo.class2)):
        for ci in class_j:
            for w in eo.components[ci]:
                pool_of[w] = sides[j] if depth[w] % 2 else sides[1 - j]
    phi = _place_forests(
        g, t, x, r, [(frozenset(range(t.n)), pool_of.__getitem__, "bipartite_apex")]
    )
    # class discipline is structural; re-check it rather than trusting the pools
    if any(phi[w] not in pool for w, pool in pool_of.items()):
        raise InternalInvariantError("parity discipline violated")
    return _certify_placed(g, t, phi)


# ---------------------------------------------------------------------------
# Embedding via an escape path


def embed_via_path(
    g: Graph,
    x: int,
    a_set,
    b1_set,
    b2_set,
    a: int,
    b: int,
    t: Tree,
) -> EmbedOutcome:
    """Embed by routing the heavy branch along a path through pool A and
    escaping over the bridge edge ab into pool B2.

    When the components of T - separator can be regrouped into two directly
    embeddable forests the procedure short-circuits to the two-pool apex
    split.  Otherwise it walks the heavy path, reserves connector vertices,
    requests a path of admissible length inside A from `path_in_range`, and
    embeds branch by branch.  Raises EmbedNotFound with the failing stage;
    that is never a proof of non-containment.  A path search that spends
    DEFAULT_ORACLE_BUDGET gives "budget_exhausted"; a found outcome counts
    its oracle nodes.
    """
    eps = ESCAPE_PATH_EPS
    A = as_vertex_set(a_set, g.n)
    B1 = as_vertex_set(b1_set, g.n)
    B2 = as_vertex_set(b2_set, g.n)
    k, dmax = t.k, t.max_degree()
    if A.as_set() & B1.as_set() or A.as_set() & B2.as_set():
        raise PreconditionViolated("A must be disjoint from B1 and B2")
    if x in A or x in B1 or x in B2 or x in (a, b):
        raise PreconditionViolated("x must avoid the pools and the bridge")
    # the path through A and the forests in B1 and B2 may use any of their
    # vertices, so a bridge end inside the other side's pools could be placed twice
    if b in A or a in B1 or a in B2:
        raise PreconditionViolated("bridge ab must have a outside B1 and B2 and b outside A")
    if not g.has_edge(a, b):
        raise PreconditionViolated("bridge ab must be an edge")
    threshold = (Fraction(2, 3) - eps) * k
    for s in (A, B1, B2):
        if g.min_degree_within(s.members) < threshold:
            raise PreconditionViolated("pool min degree below (2/3 - eps)k")
    if g.deg_within(x, A.as_set()) < dmax:
        raise PreconditionViolated("x lacks neighbours in A")
    if g.deg_within(x, B1.as_set()) < dmax:
        raise PreconditionViolated("x lacks neighbours in B1")
    if g.deg_within(a, A.as_set()) < 2 * dmax:
        raise PreconditionViolated("a is not in the 2*max_degree periphery of A")
    if g.deg_within(b, B2.as_set()) < 2 * dmax:
        raise PreconditionViolated("b is not in the 2*max_degree periphery of B2")

    r = balanced_separator_vertex(t)
    rv = t.rooted(r)
    comps = sorted(rv.components_without(r), key=lambda c: (-len(c), c))

    # splittable short-circuit: direct degree feasibility of a two-pool split
    degA = g.min_degree_within(A.members)
    degB1 = g.min_degree_within(B1.members)
    sizes = [len(c) for c in comps]
    pick = _subset_with_sum(sizes, k - degB1, degA)
    if pick is not None:
        f1 = frozenset(v for i in pick for v in comps[i]) | {r}
        f2 = (frozenset(range(t.n)) - f1) | {r}
        parts = [(f1, A.as_set(), "split_A"), (f2, B1.as_set(), "split_B1")]
        return _certify_placed(g, t, _place_forests(g, t, x, r, parts))

    if len(comps) < 2:
        raise EmbedNotFound("structure", "separator left a single component")
    s1 = set(comps[0])

    # heavy path: always descend into the largest remaining subtree
    p_path = [r]
    nxt = next(w for w in t.neighbors(r) if w in s1)
    p_path.append(nxt)
    while rv.children[p_path[-1]]:
        p_path.append(
            max(rv.children[p_path[-1]], key=lambda c: (rv.subtree_size[c], -c))
        )
    sub_sz = [rv.subtree_size[v] for v in p_path]
    deep = [i for i in range(1, len(p_path)) if 6 * sub_sz[i] > k]
    if not deep:
        raise EmbedNotFound("structure", "heavy branch never exceeds k/6")
    ell = max(deep)

    # reserved connector vertices
    nx_a = [h for h in g.neighbors(x) if h in A and h != a]
    if len(nx_a) < 2:
        raise EmbedNotFound("reserve", "x needs two spare neighbours in A")
    y, y_prime = nx_a[0], nx_a[1]
    y_b = [h for h in g.neighbors(x) if h in B1 and h != b][:dmax]
    z_a = [h for h in g.neighbors(a) if h in A and h not in (y, y_prime)][: dmax + 1]
    z_b = [h for h in g.neighbors(b) if h in B2 and h not in y_b][:dmax]
    if len(y_b) < dmax or len(z_a) < dmax + 1 or len(z_b) < dmax:
        raise EmbedNotFound("reserve", "not enough connector vertices")
    a_prime = z_a[0]
    a_pool = (A.as_set() - set(z_a) - {a, y}) | {a_prime, y_prime}

    hi_len = min(ell + ESCAPE_PATH_SLACK, len(p_path) - 1 - 3)
    if hi_len < ell + 1:
        raise EmbedNotFound("tree_path", "heavy path too short for the length window")
    sub_a, map_a = g.induced(a_pool)
    inv_a = {ov: i for i, ov in enumerate(map_a)}
    found_path, complete, path_nodes = path_in_range(
        sub_a, inv_a[y_prime], inv_a[a_prime], ell, hi_len - ell, DEFAULT_ORACLE_BUDGET
    )
    if not complete:
        return EmbedOutcome("budget_exhausted", None, path_nodes)
    if found_path is None:
        raise EmbedNotFound("host_path", "no admissible path inside A")
    host_path = [map_a[i] for i in found_path]
    L = len(host_path) - 1

    # the proof's running-room invariant: what S1 sends into A stays small
    if Fraction(len(s1) - sub_sz[L + 3]) > (Fraction(1, 3) - 3 * eps) * k:
        raise EmbedNotFound(
            "budget",
            "heavy-branch load into A exceeds (1/3 - 3*eps)k",
        )

    phi = {r: x, p_path[L + 2]: a, p_path[L + 3]: b}
    phi.update(zip(p_path[1:], host_path))
    used = set(phi.values())

    # r and every heavy-path vertex are placed before any branch grows, and a
    # growth stops at placed vertices, so each one below, given the whole
    # vertex set, stays inside its own branch: the side subtrees of a path
    # vertex, the subtree below p_path[L + 3], or S2 below u2
    whole = frozenset(range(t.n))
    pool_a_inner = a_pool - set(host_path)
    for i in range(1, L + 2):
        _greedy_subtree(g, t, whole, p_path[i], phi, used, pool_a_inner, "branches_A")
    a_minus_y = A.as_set() - {y}  # y stays reserved as the entry point for S2
    _greedy_subtree(g, t, whole, p_path[L + 2], phi, used, a_minus_y, "branch_a")

    pool_b2 = (B2.as_set() - set(y_b)) | {b}
    _greedy_subtree(g, t, whole, p_path[L + 3], phi, used, pool_b2, "tail_B2")

    s2 = set(comps[1])
    u2 = next(w for w in t.neighbors(r) if w in s2)
    if y in used:
        raise EmbedNotFound("s2", "reserved neighbour y was consumed")
    phi[u2] = y
    used.add(y)
    _greedy_subtree(g, t, whole, u2, phi, used, A.as_set(), "s2_A")
    # the components of T - r beyond S1 and S2 are all that is left unplaced
    _greedy_subtree(g, t, whole, r, phi, used, B1.as_set(), "rest_B1")
    return _certify_placed(g, t, phi, path_nodes)


# ---------------------------------------------------------------------------
# Matching-forest embedding


def matching_forest_embed(
    g: Graph,
    host_core,
    portals: list,
    t: Tree,
) -> EmbedOutcome:
    """Embed via a matching/tree/forest edge partition of t.

    The central tree lands in the core with its matched endpoints pinned onto
    portal core-endpoints (backtracking over the portal assignment, each
    placement delegated to the pinned oracle); matching edges map onto portal
    edges; each forest component is greedily grown inside its own external
    pool from the portal's far endpoint.

    portals: list of ((core_vertex, far_vertex), external_pool) entries where
    the pair is a host edge and far_vertex lies in the pool.

    Reports "budget_exhausted" once the placements spend DEFAULT_ORACLE_BUDGET nodes.
    """
    core = as_vertex_set(host_core, g.n)
    k = t.k
    need_out = -(-k // 2)
    parsed = []
    seen_pool: set = set()
    for (u, w), pool in portals:
        pv = as_vertex_set(pool, g.n)
        if u not in core or w in core:
            raise PreconditionViolated("portal must run from the core outward")
        if not g.has_edge(u, w):
            raise PreconditionViolated(f"portal ({u},{w}) is not an edge")
        if w not in pv:
            raise PreconditionViolated("portal far endpoint must lie in its pool")
        if pv.as_set() & core.as_set():
            raise PreconditionViolated("external pool intersects the core")
        if pv.as_set() & seen_pool:
            raise PreconditionViolated("external pools overlap")
        seen_pool |= pv.as_set()
        if g.min_degree_within(pv.members) < need_out:
            raise PreconditionViolated("external pool min degree below ceil(k/2)")
        parsed.append(((u, w), pv))
    if g.min_degree_within(core.members) < need_out:
        raise PreconditionViolated("core min degree below ceil(k/2)")
    msf = msf_decomposition(t)
    mu = len(msf.matching)
    if len(parsed) < mu:
        raise PreconditionViolated(f"need at least {mu} portals, got {len(parsed)}")

    core_graph, core_map = g.induced(core.members)
    core_inv = {ov: i for i, ov in enumerate(core_map)}
    s_verts = list(msf.s_vertices)
    s_idx = {v: i for i, v in enumerate(s_verts)}
    s_edges = [
        (s_idx[u], s_idx[v]) for u, v in t.edges if u in s_idx and v in s_idx
    ]
    s_tree = Tree(len(s_verts), s_edges)
    matched = sorted(msf.matching)

    budget = DEFAULT_ORACLE_BUDGET
    nodes_total = 0
    for assignment in permutations(range(len(parsed)), mu):
        pins = Embedding.from_dict(
            {
                s_idx[matched[q][0]]: core_inv[parsed[assignment[q]][0][0]]
                for q in range(mu)
            }
        )
        out = brute_force_embed(core_graph, s_tree, pins, budget=budget - nodes_total)
        nodes_total += out.nodes_explored
        if out.status == "budget_exhausted" or nodes_total >= budget:
            return EmbedOutcome("budget_exhausted", None, nodes_total)
        if out.status != "found":
            continue
        phi = {s_verts[i]: core_map[h] for i, h in out.embedding.mapping}
        used = set(phi.values())
        try:
            for q in range(mu):
                (_, w), pv = parsed[assignment[q]]
                f_end = matched[q][1]
                phi[f_end] = w
                used.add(w)
                comp = next(c for c in msf.f_components if f_end in c)
                _greedy_subtree(g, t, frozenset(comp), f_end, phi, used, pv.as_set(), "forest")
        except EmbedNotFound:
            continue
        return _certify_placed(g, t, phi, nodes_total)
    raise EmbedNotFound("s_placement", "no portal assignment admits the central tree")
