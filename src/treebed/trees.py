"""Trees and the splitting procedures used to break them into embeddable pieces.

Every decomposition returns a record that re-checks its certified bounds on
construction, so a successful return *is* the certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import log
from typing import Iterable, Optional, Sequence

from .errors import InternalInvariantError, PreconditionViolated
from .graph import VertexSet


class Tree:
    """Connected acyclic graph on vertices 0..n-1, optionally rooted.

    Besides the neighbour tuples, a tree keeps one derived value: the
    oracle's pin-free search plan, built on the first `search_plan` call.
    """

    __slots__ = ("n", "edges", "root", "_adj", "_plan")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], root: Optional[int] = None):
        es = [(int(u), int(v)) for u, v in edges]
        es = sorted([(u, v) if u < v else (v, u) for u, v in es])
        for u, v in es:
            if u == v or u < 0 or v >= n:  # u < v after normalising
                raise PreconditionViolated(f"bad tree edge ({u},{v})")
        if root is not None and not (0 <= root < n):
            raise PreconditionViolated(f"root {root} out of range")
        self._link(n, tuple(es), root, PreconditionViolated)

    @classmethod
    def _from_sorted_edges(cls, n: int, edges: Sequence[tuple[int, int]], root: int) -> "Tree":
        """The tree on 0..n-1 with these edges, for callers whose edges are
        int pairs (u, v), 0 <= u < v < n, in ascending order by construction
        (a decoded Pruefer code, a path).  It skips the conversion, sorting
        and range checks, but still counts the edges and walks them, so a
        builder bug that loses or repeats an edge is an internal failure."""
        t = cls.__new__(cls)
        t._link(n, tuple(edges), root, InternalInvariantError)
        return t

    def _link(self, n: int, es: tuple[tuple[int, int], ...], root: Optional[int], error) -> None:
        """Set the fields from sorted, normalised, in-range edges; raise
        `error` unless they are n - 1 edges that connect all n vertices."""
        if len(es) != max(n - 1, 0):
            raise error(f"tree on {n} vertices needs {n - 1} edges, got {len(es)}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        # es is sorted, so no list needs sorting: each gets its smaller
        # neighbours ascending (edges (w, v), w < v), then its larger ones
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = es
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self.root = root
        self._plan: Optional[tuple[tuple[int, ...], ...]] = None
        if n > 0:
            seen = [False] * n
            seen[0] = True
            reached = [0]
            for v in reached:  # the list grows while it is walked
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        reached.append(w)
            if len(reached) != n:
                raise error("edge list is not connected (not a tree)")

    # -- accessors -----------------------------------------------------------

    @property
    def k(self) -> int:
        """Edge count; trees are conventionally sized by it."""
        return max(self.n - 1, 0)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, one per vertex."""
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def rooted(self, r: int) -> "RootedView":
        """The tree rooted at r.  Asked again for the same tree object and
        root, it returns the view it built last, so no view may be changed."""
        global _last_view
        last = _last_view
        if last is None or last.tree is not self or last.root != r:
            last = _last_view = RootedView(self, r)
        return last

    def search_plan(self, pin_map: dict) -> Sequence[Sequence[int]]:
        """The oracle's (order, parent_pos, tdeg, nchild, symprev) for these
        pins (see `_search_plan`; n >= 1).  The pin-free plan is built once
        and kept; a plan with pins is built afresh on every call."""
        if pin_map:
            return _search_plan(self, pin_map)
        if self._plan is None:
            self._plan = _search_plan(self, pin_map)
        return self._plan

    def with_root(self, r: Optional[int]) -> "Tree":
        return Tree(self.n, self.edges, root=r)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, root={self.root})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: sorted edge list, compact separators."""
        payload = {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "root": self.root,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Tree":
        try:
            data = json.loads(text)
            return cls(int(data["n"]), [tuple(e) for e in data["edges"]], data.get("root"))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise PreconditionViolated(f"bad tree JSON: {exc!r}") from exc


class RootedView:
    """Parent, children, depth and subtree sizes of a tree rooted at a chosen
    vertex, with `order` its BFS order.  The tree layer's one source of these
    facts and of the components of T - v."""

    __slots__ = ("tree", "root", "parent", "children", "subtree_size", "depth", "order")

    def __init__(self, tree: Tree, root: int):
        if not (0 <= root < tree.n):
            raise PreconditionViolated(f"root {root} out of range")
        self.tree = tree
        self.root = root
        n, adj = tree.n, tree.adjacency
        parent = [-1] * n
        depth = [0] * n
        children: list[tuple[int, ...]] = [()] * n
        order = [root]
        for v in order:  # the list grows while it is walked
            p, d, start = parent[v], depth[v] + 1, len(order)
            for w in adj[v]:
                if w != p:
                    parent[w] = v
                    depth[w] = d
                    order.append(w)
            children[v] = tuple(order[start:])
        size = [1] * n
        for v in order[:0:-1]:  # leaves first, the root left out
            size[parent[v]] += size[v]
        self.parent = tuple(parent)
        self.children = tuple(children)
        self.subtree_size = tuple(size)
        self.depth = tuple(depth)
        self.order = tuple(order)
        if size[root] != n:
            raise InternalInvariantError("subtree sizes inconsistent")

    def subtree_vertices(self, v: int) -> tuple[int, ...]:
        children, out, stack = self.children, [], [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(children[u])
        return tuple(sorted(out))

    def components_without(self, v: int) -> list[tuple[int, ...]]:
        """Components of T - v, each sorted, ordered by least vertex: the
        subtrees of v's children, and the rest when v is not the root."""
        comps = [self.subtree_vertices(c) for c in self.children[v]]
        if v != self.root:
            below = {v}.union(*comps)
            comps.append(tuple(u for u in range(self.tree.n) if u not in below))
        comps.sort()
        return comps


# The view Tree.rooted built last.  A split pass asks for root 0 six times
# per tree, and each record asks again for the view its procedure just built
# to re-check its bounds on, so one slot saves most rebuilds; it holds a
# single view, not one per live tree, and the view refers only to its tree,
# so it makes no cycle.
# Tree.rooted reads it once per call, so threads that share it may rebuild a
# view but never get one of another tree or root.
_last_view: Optional[RootedView] = None


def _search_plan(t: Tree, pin_map: dict) -> tuple[tuple[int, ...], ...]:
    """The oracle's placement order and per-position tables for t (n >= 1).

    The root is the least pinned vertex, else the first of maximum degree.
    A BFS from it finds the children; AHU codes, interned bottom-up in
    reversed BFS order, are equal exactly on isomorphic rooted subtrees.  A
    second BFS takes each vertex's children by (code, id) and emits
    (order, parent_pos, tdeg, nchild, symprev), where symprev is the position
    of the previous pin-free sibling with the same code (-1 if there is none,
    and always -1 for a vertex whose subtree holds a pin).
    """
    n = t.n
    nbrs = t.adjacency
    deg = list(map(len, nbrs))
    root = min(pin_map) if pin_map else deg.index(max(deg))
    parent = [-1] * n
    kids: list = [()] * n
    bfs = [root]
    for v in bfs:  # the list grows while it is walked
        p = parent[v]
        first = len(bfs)
        for w in nbrs[v]:
            if w != p:
                parent[w] = v
                bfs.append(w)
        if len(bfs) > first:
            kids[v] = bfs[first:]
    code = [0] * n
    code_of = code.__getitem__
    intern = {(): 0}  # the last BFS vertex is a leaf, so leaves get code 0
    for v in reversed(bfs):
        if kids[v]:
            kids[v].sort(key=code_of)
            code[v] = intern.setdefault(tuple(map(code_of, kids[v])), len(intern))
    holds_pin = [False] * n
    for v in pin_map:
        while v >= 0 and not holds_pin[v]:
            holds_pin[v] = True
            v = parent[v]
    order, parent_pos, symprev = [root], [-1], [-1]
    for pos, v in enumerate(order):
        last = -1
        for c in kids[v]:
            parent_pos.append(pos)
            if holds_pin[c]:
                symprev.append(-1)
            else:
                symprev.append(last if last >= 0 and code[order[last]] == code[c] else -1)
                last = len(order)
            order.append(c)
    tdeg = map(deg.__getitem__, order)
    nchild = map(len, map(kids.__getitem__, order))
    return tuple(order), tuple(parent_pos), tuple(tdeg), tuple(nchild), tuple(symprev)


# ---------------------------------------------------------------------------
# Small helpers


def even_odd_sets(t: Tree, v: int) -> tuple[VertexSet, VertexSet]:
    """Vertices at even (excluding v) and odd distance from v."""
    if not (0 <= v < t.n):
        raise PreconditionViolated("vertex out of range")
    rv = t.rooted(v)
    even = [u for u in range(t.n) if u != v and rv.depth[u] % 2 == 0]
    odd = [u for u in range(t.n) if rv.depth[u] % 2 == 1]
    return VertexSet(even, t.n), VertexSet(odd, t.n)


def bipartition_classes(t: Tree) -> tuple[VertexSet, VertexSet]:
    """The unique 2-colouring; both classes hold at least k/max_degree vertices."""
    if t.n == 0:
        return VertexSet((), 0), VertexSet((), 0)
    even, c1 = even_odd_sets(t, 0)
    c0 = VertexSet((0, *even), t.n)
    dmax = t.max_degree()
    if dmax:
        floor = Fraction(t.k, dmax)
        if len(c0) < floor or len(c1) < floor:
            raise InternalInvariantError("bipartition class fell below k/max_degree")
    return c0, c1


def balanced_separator_vertex(t: Tree) -> int:
    """A vertex whose removal leaves components of at most n/2 vertices.

    Found by walking from vertex 0 toward the heaviest component; ties break
    toward the smaller id so results are reproducible.
    """
    if t.n < 1:
        raise PreconditionViolated("empty tree")
    return _separator(t.rooted(0))


def _separator(rv: RootedView) -> int:
    """balanced_separator_vertex's walk, on the view of the tree rooted at 0."""
    if rv.root != 0:
        raise InternalInvariantError("the separator walk starts from vertex 0")
    n, size = rv.tree.n, rv.subtree_size
    v = 0
    while True:
        heaviest = None
        for c in rv.children[v]:
            if 2 * size[c] > n and (heaviest is None or size[c] > size[heaviest]):
                heaviest = c
        if heaviest is None:
            # parent-side component is fine too: its size is n - subtree_size(v)
            if v != 0 and 2 * (n - size[v]) > n:
                raise InternalInvariantError("separator walk overshot")
            return v
        v = heaviest


# ---------------------------------------------------------------------------
# Sum partitions


def _check_sum_partition_input(a: list[int], ell: int) -> None:
    if ell < 1:
        raise PreconditionViolated("ell must be positive")
    if any(x < 0 for x in a):
        raise PreconditionViolated("sequence entries must be nonnegative")
    half = -(-ell // 2)
    if any(x > half for x in a):
        raise PreconditionViolated(f"entry exceeds ceil(ell/2) = {half}")
    if sum(a) > ell:
        raise PreconditionViolated(f"sum {sum(a)} exceeds ell = {ell}")


def _subset_with_sum(
    a: list[int], lo: int, hi: int, skip: int = -1
) -> Optional[tuple[int, ...]]:
    """Indices of a subset of a whose sum is the least reachable value in
    [lo, hi], never using index skip; None when no subset sum lies there.

    reach[i] is the bitset of sums reachable with a[:i], cut at hi, so the
    cost is O(len(a) * hi) bit operations.  The subset is rebuilt backwards:
    item i is taken exactly when the remaining sum is unreachable without it.
    """
    lo = max(lo, 0)
    if hi < lo:
        return None
    window = (1 << (hi + 1)) - 1
    reach = [1]
    for i, x in enumerate(a):
        r = reach[-1]
        reach.append(r if i == skip else (r | r << x) & window)
    hits = reach[-1] >> lo
    if not hits:
        return None
    s = lo + (hits & -hits).bit_length() - 1
    picked = []
    for i in range(len(a) - 1, -1, -1):
        if not reach[i] >> s & 1:
            picked.append(i)
            s -= a[i]
    return tuple(reversed(picked))


def sum_partition_two(a: list[int], ell: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index partition {J1, J2} with sum(J2) <= sum(J1) <= floor(2*ell/3).

    Exact: J1 starts as the subset with the least sum in
    [sum(a) - floor(2*ell/3), floor(2*ell/3)], and the sides swap when J2 is
    heavier.  Entries may be zero.  Needs ell >= 2 whenever the sequence sums
    to something positive: with ell = 1 the only admissible nonzero sequence
    is [1], and no split can keep the larger side at floor(2/3) = 0.  Raises
    PreconditionViolated when no split exists.
    """
    a = [int(x) for x in a]
    _check_sum_partition_input(a, ell)
    total = sum(a)
    if total > 0 and ell < 2:
        raise PreconditionViolated("ell must be at least 2 for a nonzero sequence")
    cap = (2 * ell) // 3
    j1 = _subset_with_sum(a, total - cap, cap)
    if j1 is None:
        raise PreconditionViolated("no admissible two-part split exists")
    s1 = set(j1)
    j2 = tuple(i for i in range(len(a)) if i not in s1)
    sum1 = sum(a[i] for i in j1)
    sum2 = total - sum1
    if sum2 > sum1:
        j1, j2 = j2, j1
        sum1, sum2 = sum2, sum1
    if not (sum2 <= sum1 <= cap):
        raise InternalInvariantError("two-part split certificate failed")
    return j1, j2


def sum_partition_three(
    a: list[int], ell: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index partition {I1, I2, I3} with sums descending, all <= ceil(ell/2), |I3| <= 1.

    Exact: I3 is empty or one item a_i, tried empty first and then by
    (-a_i, i).  The other R = sum(a) - a_i must split into two sides of
    at least a_i and at most ceil(ell/2) each, so one side's sum lies in
    [max(a_i, R - cap), min(cap, R - a_i)].  On tied sums the part with
    fewer items goes last.  Raises PreconditionViolated when no split exists.
    """
    a = [int(x) for x in a]
    _check_sum_partition_input(a, ell)
    cap = -(-ell // 2)
    m = len(a)
    total = sum(a)
    for solo in [-1] + sorted(range(m), key=lambda i: (-a[i], i)):
        low = a[solo] if solo >= 0 else 0
        rest = total - low
        i1 = _subset_with_sum(a, max(low, rest - cap), min(cap, rest - low), skip=solo)
        if i1 is not None:
            break
    else:
        raise PreconditionViolated("no admissible three-part split exists")
    i3 = [solo] if solo >= 0 else []
    s1 = set(i1)
    parts = [list(i1), [i for i in range(m) if i not in s1 and i != solo], i3]
    parts.sort(key=lambda p: (-sum(a[i] for i in p), -len(p), p))
    if len(parts[2]) > 1 or sum(a[i] for i in parts[0]) > cap:
        raise InternalInvariantError("three-part split certificate failed")
    return tuple(parts[0]), tuple(parts[1]), tuple(parts[2])


# ---------------------------------------------------------------------------
# Forest splits around a separator vertex


def _check_forests(rv: RootedView, pivot: int, parts: Sequence[Iterable[int]]) -> None:
    """Raise unless the parts partition T - pivot and each is a union of its
    components, that is, every edge away from pivot has both ends in one part."""
    label = [-1] * rv.tree.n
    label[pivot] = len(parts)
    for i, part in enumerate(parts):
        for v in part:
            if label[v] != -1:
                raise InternalInvariantError("forests do not partition T - pivot")
            label[v] = i
    if -1 in label:
        raise InternalInvariantError("forests do not partition T - pivot")
    for v, p in enumerate(rv.parent):
        if p >= 0 and label[v] != label[p] and v != pivot and p != pivot:
            raise InternalInvariantError("a forest breaks a component of T - pivot")


@dataclass(frozen=True)
class TwoForestSplit:
    """T - pivot grouped into two forests with k/2 <= |f1| <= floor(2k/3)."""

    tree: Tree
    pivot: int
    f1: VertexSet
    f2: VertexSet

    def __post_init__(self):
        k, size = self.tree.k, len(self.f1)
        _check_forests(self.tree.rooted(0), self.pivot, [self.f1, self.f2])
        if not (k <= 2 * size and size <= (2 * k) // 3):
            raise InternalInvariantError(f"|f1| = {size} outside [k/2, floor(2k/3)]")


@dataclass(frozen=True)
class ThreeForestSplit:
    """T - pivot grouped into three forests, each <= ceil(k/2), third a single component."""

    tree: Tree
    pivot: int
    f1: VertexSet
    f2: VertexSet
    f3: VertexSet

    def __post_init__(self):
        view = self.tree.rooted(0)
        parts = [self.f1, self.f2, self.f3]
        _check_forests(view, self.pivot, parts)
        cap = -(-self.tree.k // 2)
        if any(len(s) > cap for s in parts):
            raise InternalInvariantError("a three-forest part exceeds ceil(k/2)")
        # a component of T - pivot has one vertex whose parent lies outside it
        pivot, parent = self.pivot, view.parent
        tops = sum(1 for v in self.f3 if parent[v] == pivot or parent[v] < 0)
        if self.f3 and tops != 1:
            raise InternalInvariantError("f3 must be empty or a single component")


def split_two_forests(t: Tree) -> TwoForestSplit:
    """Group the components of T - separator into two forests of balanced size.

    Needs n >= 3: a single-edge tree leaves one orphan vertex that cannot
    satisfy |f1| <= floor(2/3).
    """
    if t.n < 3:
        raise PreconditionViolated("two-forest split needs at least 3 vertices")
    rv = t.rooted(0)
    pivot = _separator(rv)
    comps = rv.components_without(pivot)
    sizes = [len(c) for c in comps]
    j1, j2 = sum_partition_two(sizes, t.k)
    f1 = [v for i in j1 for v in comps[i]]
    f2 = [v for i in j2 for v in comps[i]]
    return TwoForestSplit(t, pivot, VertexSet(f1, t.n), VertexSet(f2, t.n))


def split_three_forests(t: Tree) -> ThreeForestSplit:
    """Group the components of T - separator into three small forests."""
    if t.n < 2:
        raise PreconditionViolated("need at least 2 vertices")
    rv = t.rooted(0)
    pivot = _separator(rv)
    comps = rv.components_without(pivot)
    sizes = [len(c) for c in comps]
    i1, i2, i3 = sum_partition_three(sizes, t.k)
    fs = [
        VertexSet([v for i in idx for v in comps[i]], t.n)
        for idx in (i1, i2, i3)
    ]
    return ThreeForestSplit(t, pivot, fs[0], fs[1], fs[2])


# ---------------------------------------------------------------------------
# Subtree splitting at a threshold, and the chain decomposition built on it


@dataclass(frozen=True)
class SubtreePiece:
    """A subtree given by its vertices and edges (kept separate so single-vertex
    pieces remain representable)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.vertices)


def _edges_by_owner(
    rv: RootedView, owner: Sequence[int], count: int
) -> list[tuple[tuple[int, int], ...]]:
    """The tree's edges dealt into `count` tuples in one pass, keeping their
    order and the tree's own tuple objects: the edge from x to its parent
    goes to tuple owner[x]."""
    parent, lists = rv.parent, [[] for _ in range(count)]
    for e in rv.tree.edges:
        u, w = e
        lists[owner[w] if parent[w] == u else owner[u]].append(e)
    return list(map(tuple, lists))


def _shave(
    rooted: RootedView, size: Sequence[int], live: Sequence[bool], lo: int
) -> tuple[list[int], int]:
    """Split-off subtree of the live part of a rooted tree, which must hold the
    root and every parent of a live vertex; size[x] counts the live vertices
    under x.  Descend to a deepest vertex u whose live children all weigh below
    `lo`, then absorb live child subtrees of u until the total (with u, the
    shared vertex) reaches lo.  Returns (absorbed vertices, u).
    """
    u = rooted.root
    while True:
        nxt = None
        for c in rooted.children[u]:
            if live[c] and size[c] >= lo:
                nxt = c
                break
        if nxt is None:
            break
        u = nxt
    if size[u] < lo:
        raise InternalInvariantError("shave threshold exceeds the whole tree")
    taken: list[int] = []
    for c in rooted.children[u]:
        if 1 + len(taken) >= lo:
            break
        if live[c]:
            stack = [c]
            while stack:
                x = stack.pop()
                taken.append(x)
                stack.extend(y for y in rooted.children[x] if live[y])
    if 1 + len(taken) < lo:
        raise InternalInvariantError("absorbing all children missed the threshold")
    return taken, u


def subtree_split(t: Tree, v: int, m: int) -> tuple[SubtreePiece, SubtreePiece]:
    """Two subtrees sharing one vertex: S1 containing v, and S2 with m..3m vertices."""
    if m < 1:
        raise PreconditionViolated("m must be positive")
    if 3 * m > t.n:
        raise PreconditionViolated("need m <= n/3")
    if not (0 <= v < t.n):
        raise PreconditionViolated("v out of range")
    rooted = t.rooted(v)
    taken, shared = _shave(rooted, rooted.subtree_size, [True] * t.n, m)
    s2_verts = frozenset(taken) | {shared}
    if not (m <= len(s2_verts) <= 3 * m):
        raise InternalInvariantError("shaved subtree missed [m, 3m]")
    s1_verts = (set(range(t.n)) - s2_verts) | {shared}
    # S2 has the edges from the taken vertices to their parents, S1 the rest
    owner = [0] * t.n
    for x in taken:
        owner[x] = 1
    e1, e2 = _edges_by_owner(rooted, owner, 2)
    s1 = SubtreePiece(tuple(sorted(s1_verts)), e1)
    s2 = SubtreePiece(tuple(sorted(s2_verts)), e2)
    if v not in s1.vertices:
        raise InternalInvariantError("v escaped the kept side")
    if set(s1.edges) & set(s2.edges) or len(s1.edges) + len(s2.edges) != t.k:
        raise InternalInvariantError("edge sets fail to partition E(T)")
    if len(set(s1.vertices) & set(s2.vertices)) != 1:
        raise InternalInvariantError("pieces share more than one vertex")
    return s1, s2


@dataclass(frozen=True)
class ChainSplit:
    """A core subtree of exact size m plus at most log_{3/2} n hanging subtrees,
    each meeting the core in exactly one vertex."""

    tree: Tree
    s0: SubtreePiece
    others: tuple[SubtreePiece, ...]
    attach_points: tuple[int, ...]

    def __post_init__(self):
        t = self.tree
        all_edges = sorted(self.s0.edges + tuple(e for p in self.others for e in p.edges))
        if tuple(all_edges) != t.edges:
            raise InternalInvariantError("chain pieces fail to partition E(T)")
        if len(self.others) != len(self.attach_points):
            raise InternalInvariantError("attach point per hanging subtree required")
        s0v = set(self.s0.vertices)
        for piece, ap in zip(self.others, self.attach_points):
            inter = s0v & set(piece.vertices)
            if inter != {ap}:
                raise InternalInvariantError("hanging subtree must meet the core exactly once")
        if t.n >= 2 and len(self.others) > log(t.n) / log(1.5):
            raise InternalInvariantError("hanging subtree count exceeded log_{3/2} n")


def chain_split(t: Tree, m: int) -> ChainSplit:
    """Carve T down to a core of exactly m vertices by repeatedly shaving off
    subtrees, then merge the shavings into connected hanging pieces.

    Every round shaves whole child subtrees off the core's tree rooted at its
    least vertex.  That root is never shaved, so the core keeps vertex 0 as
    its root together with every parent of a core vertex, and it is the live
    part of the one view of T rooted at 0: live flags and live subtree sizes
    (lowered along the shared vertex's ancestor path) stand for each round's
    core.  A shaved vertex joins the piece of its nearest live ancestor, the
    piece's attach point, through the edge to its parent.
    """
    if not (1 <= m <= t.n):
        raise PreconditionViolated("need 1 <= m <= n")
    rooted = t.rooted(0)
    parent = rooted.parent
    live = [True] * t.n
    size = list(rooted.subtree_size)
    core_size = t.n
    rounds = 0
    while core_size > m:
        rounds += 1
        if rounds > 4 * t.n:
            raise InternalInvariantError("chain split failed to converge")
        d = core_size - m
        taken, shared = _shave(rooted, size, live, max(2, d // 2 + 1))
        for x in taken:
            live[x] = False
        core_size -= len(taken)
        while shared >= 0:
            size[shared] -= len(taken)
            shared = parent[shared]
    hang = list(range(t.n))  # nearest live ancestor (itself when live)
    groups: dict[int, list[int]] = {}
    for x in rooted.order:
        if not live[x]:
            hang[x] = hang[parent[x]]
            groups.setdefault(hang[x], []).append(x)
    hanging = sorted(groups.items(), key=lambda g: min(g[0], *g[1]))
    owner = [0] * t.n  # 0 for the core, i for the i-th hanging piece
    for i, (_, xs) in enumerate(hanging, 1):
        for x in xs:
            owner[x] = i
    core_edges, *piece_edges = _edges_by_owner(rooted, owner, len(hanging) + 1)
    s0 = SubtreePiece(tuple(v for v in range(t.n) if live[v]), core_edges)
    if len(s0) != m:
        raise InternalInvariantError("core size drifted from m")
    pieces = tuple(
        SubtreePiece(tuple(sorted(xs + [ap])), es) for (ap, xs), es in zip(hanging, piece_edges)
    )
    return ChainSplit(t, s0, pieces, tuple(ap for ap, _ in hanging))


# ---------------------------------------------------------------------------
# Even/odd component classes


@dataclass(frozen=True)
class EvenOddSplit:
    """Components of T - root split into two classes balancing even/odd counts.

    For each class j the quantity
        sum over components in the class of |even-distance vertices|
      + sum over the other components of |odd-distance vertices|
    stays at most (2/3 - 1/(3*max_degree)) * n + 1/2.
    """

    tree: Tree
    root: int
    components: tuple[tuple[int, ...], ...]
    class1: tuple[int, ...]
    class2: tuple[int, ...]
    even_counts: tuple[int, ...]
    odd_counts: tuple[int, ...]

    def bound(self) -> Fraction:
        d = self.tree.max_degree()
        return (Fraction(2, 3) - Fraction(1, 3 * d)) * self.tree.n + Fraction(1, 2)

    def class_load(self, j: int) -> int:
        inside = set(self.class1 if j == 1 else self.class2)
        load = 0
        for i in range(len(self.components)):
            load += self.even_counts[i] if i in inside else self.odd_counts[i]
        return load

    def __post_init__(self):
        view = self.tree.rooted(0)
        comps, root = self.components, self.root
        if sorted(self.class1 + self.class2) != list(range(len(comps))):
            raise InternalInvariantError("classes do not partition the components")
        _check_components_without(view, root, comps)
        # dist(root, v) and depth(root) + depth(v) have the same parity
        for i, comp in enumerate(comps):
            od = sum((view.depth[v] - view.depth[root]) % 2 for v in comp)
            if len(comp) - od != self.even_counts[i] or od != self.odd_counts[i]:
                raise InternalInvariantError("even/odd counts drifted")
        # bound() times 6 * max_degree, in ints
        d = self.tree.max_degree()
        limit = (4 * d - 2) * self.tree.n + 3 * d
        for j in (1, 2):
            if 6 * d * self.class_load(j) > limit:
                raise InternalInvariantError(f"class {j} load exceeds the certified bound")


def _check_components_without(rv: RootedView, root: int, comps: Sequence[Sequence[int]]) -> None:
    """Raise unless comps is the list rv.components_without(root) gives: one
    nonempty sorted tuple per neighbour of root, ordered by least vertex, that
    together partition T - root into unions of its components.  With as many
    tuples as components, each tuple is one component."""
    n, firsts = rv.tree.n, [c[0] for c in comps if c]
    if (
        len(firsts) != len(comps)
        or len(comps) != rv.tree.degree(root)
        or firsts != sorted(firsts)
        or not all(list(c) == sorted(c) and c[0] >= 0 and c[-1] < n for c in comps)
    ):
        raise InternalInvariantError("component list mismatch")
    _check_forests(rv, root, comps)


def even_odd_split(t: Tree) -> EvenOddSplit:
    """Pick a root and class assignment balancing even/odd vertex counts.

    The root comes from a fixed-point walk: repeatedly step to the neighbour
    whose hanging component has the largest even/odd imbalance (ties toward
    the smaller id) until the walk bounces between two vertices, then keep
    the endpoint whose own edge imbalance is the smaller of the pair.
    The imbalance sequence over the root's neighbours is split two ways and
    the lighter halves are assigned per class.

    All imbalances come from one view rooted at 0.  In a tree dist(u, y) and
    depth(u) + depth(y) have the same parity, so counted from u the
    imbalance of a vertex set is |sum over it of (-1)^depth|.  With
    s[x] that sum over the subtree of x, the component of T - u holding the
    neighbour w has imbalance |s[w]| when w is a child of u, and
    |s[0] - s[u]| when w is u's parent.
    """
    if t.n < 2:
        raise PreconditionViolated("need at least 2 vertices")
    rv = t.rooted(0)
    s = [1 - 2 * (d % 2) for d in rv.depth]
    for x in reversed(rv.order[1:]):
        s[rv.parent[x]] += s[x]

    def imbalance(u: int, w: int) -> int:
        """|even - odd| counted from u over the component of T-u holding w."""
        return abs(s[w]) if rv.parent[w] == u else abs(s[0] - s[u])

    def best_neighbor(u: int) -> int:
        return max(t.neighbors(u), key=lambda w: (imbalance(u, w), -w))

    v_prev = 0
    v_cur = best_neighbor(v_prev)
    for _ in range(2 * t.n + 2):
        v_next = best_neighbor(v_cur)
        if v_next == v_prev:
            break
        v_prev, v_cur = v_cur, v_next
    else:
        raise InternalInvariantError("fixed-point walk failed to converge")
    u, v = v_prev, v_cur
    if imbalance(u, v) > imbalance(v, u):
        u, v = v, u
    root = u

    comps = rv.components_without(root)
    even_counts = []
    odd_counts = []
    diffs = []
    bigger_even = []
    for comp in comps:
        ev = sum(1 for x in comp if (rv.depth[x] - rv.depth[root]) % 2 == 0)
        od = len(comp) - ev
        even_counts.append(ev)
        odd_counts.append(od)
        diffs.append(abs(ev - od))
        bigger_even.append(ev >= od)
    ell = 1 + sum(diffs)
    d1, d2 = sum_partition_two(diffs, ell)
    in_d1 = set(d1)
    class1 = tuple(sorted(i for i in range(len(comps)) if (i in in_d1) == bigger_even[i]))
    class2 = tuple(sorted(set(range(len(comps))) - set(class1)))
    return EvenOddSplit(
        t,
        root,
        tuple(comps),
        class1,
        class2,
        tuple(even_counts),
        tuple(odd_counts),
    )


# ---------------------------------------------------------------------------
# Matching / subtree / forest decomposition


@dataclass(frozen=True)
class MSFDecomposition:
    """Edge partition of T into a matching, a central tree S, and an outer forest F.

    Always certified: S/F disjoint (P1), S a subtree, matching crosses S to F
    (P2), matched S-endpoints share a bipartition class (P5), their spanning
    subtree in S is small (P6), F-components stay under ceil(k/2), and the
    three edge sets partition E(T).  The |S| <= ceil(k/2) half of P3 is asymptotic and only
    asserted from k = `s_bound_min_k` = 8 * max_degree**(4 * max_degree + 1)
    on; below it the measured size is recorded.
    """

    tree: Tree
    root: int
    matching: tuple[tuple[int, int], ...]  # (s_end, f_end) pairs
    s_vertices: tuple[int, ...]
    f_components: tuple[tuple[int, ...], ...]
    s_bound_min_k: int
    s_size: int = field(init=False, default=0)
    s_bound_checked: bool = field(init=False, default=False)

    def __post_init__(self):
        view = self.tree.rooted(self.root)
        t, n, k, parent = self.tree, self.tree.n, self.tree.k, view.parent
        side = [0] * n  # 1 on S, 2 on F
        for vs, label in [(self.s_vertices, 1)] + [(c, 2) for c in self.f_components]:
            if vs and (min(vs) < 0 or max(vs) >= n):
                raise InternalInvariantError("S and F vertices must cover T")
            for v in vs:
                if side[v] == 3 - label:
                    raise InternalInvariantError("P1: S and F overlap")
                side[v] = label
        if 0 in side:
            raise InternalInvariantError("S and F vertices must cover T")
        for s_end, f_end in self.matching:
            if not (0 <= s_end < n and 0 <= f_end < n) or (side[s_end], side[f_end]) != (1, 2):
                raise InternalInvariantError("P2: matching edge endpoints misplaced")
            if parent[s_end] != f_end and parent[f_end] != s_end:
                raise InternalInvariantError("matching pair is not a tree edge")
        if len({v for e in self.matching for v in e}) != 2 * len(self.matching):
            raise InternalInvariantError("matching repeats a vertex")
        cap = -(-k // 2)
        for comp in self.f_components:
            if len(comp) > cap:
                raise InternalInvariantError("P3: an F-component exceeds ceil(k/2)")
        # one pass over the edges to parents: S is a subtree when exactly one
        # S vertex has its parent outside S, and as each matching pair is a
        # distinct S-F tree edge, the matching, the S-S and the F-F edges
        # partition E(T) when every S-F tree edge is a matching pair
        tops = crossing = 0
        for v, p in enumerate(parent):
            if p < 0:
                tops += side[v] == 1
            elif side[v] != side[p]:
                crossing += 1
                tops += side[v] == 1
        if tops != 1:
            raise InternalInvariantError("S is not a subtree")
        matched_s = [e[0] for e in self.matching]
        parities = {view.depth[v] % 2 for v in matched_s}
        if len(parities) > 1:
            raise InternalInvariantError("P5: matched S-endpoints span both classes")
        dmax = t.max_degree()
        if matched_s:
            span = _steiner_size(view, matched_s)
            if span > dmax ** (4 * dmax + 1):
                raise InternalInvariantError("P6: spanning subtree of matched points too large")
        if crossing != len(self.matching):
            raise InternalInvariantError("edge sets fail to partition E(T)")
        s_size = side.count(1)
        object.__setattr__(self, "s_size", s_size)
        if k >= self.s_bound_min_k:
            if s_size > cap:
                raise InternalInvariantError("P3: |S| exceeds ceil(k/2) above the size threshold")
            object.__setattr__(self, "s_bound_checked", True)


def _steiner_size(rv: RootedView, terminals: list[int]) -> int:
    """Vertex count of the least subtree holding the (nonempty) terminals: one
    vertex plus each edge to a parent whose lower side holds some, not all."""
    held = [0] * rv.tree.n
    for v in terminals:
        held[v] = 1
    total, span = sum(held), 1
    for v in reversed(rv.order[1:]):
        if 0 < held[v] < total:
            span += 1
        held[rv.parent[v]] += held[v]
    return span


def msf_decomposition(t: Tree) -> MSFDecomposition:
    """Partition E(T) into matching + central tree + outer forest.

    Root at a balanced separator; on even depth layers 2..4*max_degree pick,
    for every non-leaf vertex not already swallowed by an earlier pick, its
    escape child (largest subtree, ties to the smaller id), and cut the edge
    to it.  The cut subtrees form F, the cut edges the matching, the rest S.

    The layers are visited ancestors-first, so a vertex is either in the
    shadow of an earlier pick, whose escape subtree then already holds its
    own, or its escape subtree meets no earlier one: shadow subtrees nest or
    are disjoint, and no vertex is walked twice.
    """
    if t.n < 2:
        raise PreconditionViolated("need at least 2 vertices")
    dmax = t.max_degree()
    r = _separator(t.rooted(0))
    rv = t.rooted(r)
    shadow: set[int] = set()
    picks = {}  # matched S-vertex -> (escape child, its subtree)
    for v in rv.order:
        depth = rv.depth[v]
        if depth > 4 * dmax:
            break
        if depth < 2 or depth % 2 or v in shadow or not rv.children[v]:
            continue
        ev = max(rv.children[v], key=lambda c: (rv.subtree_size[c], -c))
        comp = rv.subtree_vertices(ev)
        shadow.update(comp)
        picks[v] = (ev, comp)
    matching = tuple((v, picks[v][0]) for v in sorted(picks))
    return MSFDecomposition(
        t,
        r,
        matching,
        tuple(v for v in range(t.n) if v not in shadow),
        tuple(picks[v][1] for v in sorted(picks)),
        8 * dmax ** (4 * dmax + 1),
    )
