"""Undirected graphs and the structural primitives the rest of the package consumes.

Graphs are immutable, live on vertex ids 0..n-1, and iterate in canonical
(sorted) order so that every run of every algorithm is reproducible.
All density comparisons use exact rationals, never floats.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from . import kernel
from .errors import Disconnected, InternalInvariantError, PreconditionViolated

# Search nodes allowed to one `vertex_cover_at_most` call, read at call time
COVER_NODE_BUDGET = 10**6


class VertexSet:
    """A sorted set of vertex ids together with the size of its universe."""

    __slots__ = ("members", "universe_size", "_set")

    def __init__(self, members: Iterable[int], universe_size: int):
        ms = sorted(set(map(int, members)))
        if ms and (ms[0] < 0 or ms[-1] >= universe_size):
            raise PreconditionViolated(
                f"vertex ids {ms[0]}..{ms[-1]} outside universe 0..{universe_size - 1}"
            )
        self.members: tuple[int, ...] = tuple(ms)
        self.universe_size = universe_size
        self._set = frozenset(ms)

    def __contains__(self, v: int) -> bool:
        return v in self._set

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.members == other.members
            and self.universe_size == other.universe_size
        )

    def __hash__(self) -> int:
        return hash((self.members, self.universe_size))

    def __repr__(self) -> str:
        return f"VertexSet({list(self.members)}, universe={self.universe_size})"

    def as_set(self) -> frozenset:
        return self._set


def as_vertex_set(x, universe_size: int) -> VertexSet:
    """Coerce an iterable of ids (or a VertexSet) into a VertexSet."""
    if isinstance(x, VertexSet):
        if x.universe_size != universe_size:
            raise PreconditionViolated(
                f"vertex set universe {x.universe_size} != graph order {universe_size}"
            )
        return x
    return VertexSet(x, universe_size)


def _bits(m: int) -> tuple[int, ...]:
    """Positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _bfs_layers(masks: Sequence[int], start: int, allowed: int) -> list[int]:
    """Breadth-first layers, as masks, from the vertex set `start` within `allowed`."""
    layers = []
    frontier = start
    allowed &= ~start
    while frontier:
        layers.append(frontier)
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed
        allowed &= ~frontier
    return layers


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The stored form is one adjacency bitmask per vertex (bit w of mask v set
    iff vw is an edge) with the degrees beside it.  The neighbour tuples, the
    sorted edge list, the degree classes and the twin table are derived on
    first use, cached, and always ascending, so every view reads as if built
    from sorted edges.
    """

    __slots__ = ("n", "_masks", "_deg", "_adj", "_edges", "_classes", "_twins")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise PreconditionViolated("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise PreconditionViolated(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionViolated(f"edge ({u},{v}) outside 0..{n - 1}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._store(masks)

    @classmethod
    def _from_masks(cls, masks: Sequence[int]) -> "Graph":
        """A graph on len(masks) vertices read straight from its bitmasks.

        Unchecked: only for masks that are symmetric and loop-free by
        construction (tests/test_source_rules.py pins the callers).
        """
        g = cls.__new__(cls)
        g._store(masks)
        return g

    def _store(self, masks: Sequence[int]) -> None:
        self.n = len(masks)
        self._masks: tuple[int, ...] = tuple(masks)
        self._deg: tuple[int, ...] = tuple(map(int.bit_count, self._masks))
        self._adj: Optional[tuple[tuple[int, ...], ...]] = None
        self._edges: Optional[tuple[tuple[int, int], ...]] = None
        self._classes: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        self._twins: Optional[tuple[int, ...]] = None

    # -- basic accessors ---------------------------------------------------

    def masks(self) -> tuple[int, ...]:
        """Per-vertex adjacency bitmasks."""
        return self._masks

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples (built on first use, cached)."""
        if self._adj is None:
            self._adj = tuple(_bits(m) for m in self._masks)
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v in lexicographic order (built on first use, cached)."""
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u, m in enumerate(self._masks) for v in _bits(m >> u + 1 << u + 1)
            )
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(self._deg) // 2

    def degree(self, v: int) -> int:
        return self._deg[v]

    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def degree_classes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(classes, atleast), cached: one vertex mask per distinct degree,
        highest degree first, and atleast[d], the mask of the vertices of
        degree >= d, for d = 0..n."""
        if self._classes is None:
            by_deg = [0] * (self.n + 1)
            for v, d in enumerate(self._deg):
                by_deg[d] |= 1 << v
            atleast = tuple(accumulate(reversed(by_deg), or_))[::-1]
            self._classes = (tuple(filter(None, reversed(by_deg))), atleast)
        return self._classes

    def lower_twins(self) -> tuple[int, ...]:
        """Per vertex, the mask of its twins with smaller ids, cached.

        Twins u, v satisfy N(u) - {v} = N(v) - {u}: false twins share the
        open neighbourhood N(h), true twins the closed one N(h) | {h}.  One
        dict holds both kinds of key: an open mask never equals a closed one,
        since N(u) = N[v] puts v in N(u), hence u in N(v) within N[v] = N(u),
        a self-loop.
        """
        if self._twins is None:
            lower = []
            seen: dict[int, int] = {}
            for h, nb in enumerate(self._masks):
                bit = 1 << h
                false_twins, true_twins = seen.get(nb, 0), seen.get(nb | bit, 0)
                lower.append(false_twins | true_twins)
                seen[nb], seen[nb | bit] = false_twins | bit, true_twins | bit
            self._twins = tuple(lower)
        return self._twins

    def min_degree(self) -> int:
        return min(self._deg, default=0)

    def max_degree(self) -> int:
        return max(self._deg, default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v >= 0 and self._masks[u] >> v & 1 == 1

    def __eq__(self, other) -> bool:
        # equal masks <=> equal edge sets <=> equal edges()
        return isinstance(other, Graph) and self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self.edges()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- derived structure -------------------------------------------------

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by least vertex."""
        return [_bits(comp) for comp, _, _ in self.component_layers()]

    def component_layers(self, removed: int = 0) -> list[tuple[int, int, int]]:
        """Components of the graph minus the vertex mask `removed`, by least
        vertex, each as (mask, even BFS layers, odd BFS layers) from that vertex."""
        out = []
        left = (1 << self.n) - 1 & ~removed
        while left:
            layers = _bfs_layers(self._masks, left & -left, left)
            even = sum(layers[0::2])  # the layers are disjoint
            odd = sum(layers[1::2])
            left &= ~(even | odd)
            out.append((even | odd, even, odd))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the new->old vertex map.

        Each kept mask is compressed run by run: a maximal run of consecutive
        kept ids start..start+w-1 lands on new ids off..off+w-1.
        """
        vs = sorted(set(vertices))
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            raise PreconditionViolated(f"vertex ids {vs[0]}..{vs[-1]} outside 0..{self.n - 1}")
        runs = []  # (start, width mask, off) per maximal run
        for i, v in enumerate(vs):
            if i and v == vs[i - 1] + 1:
                start, width, off = runs[-1]
                runs[-1] = (start, width << 1 | 1, off)
            else:
                runs.append((v, 1, i))
        sub = []
        for v in vs:
            m = self._masks[v]
            c = 0
            for start, width, off in runs:
                c |= (m >> start & width) << off
            sub.append(c)
        return Graph._from_masks(sub), tuple(vs)

    def deg_within(self, v: int, members: frozenset) -> int:
        return sum(1 for w in self.neighbors(v) if w in members)

    def min_degree_within(self, members: Iterable[int]) -> int:
        ms = set(members)
        inside = sum(1 << v for v in ms)
        return min(((self._masks[v] & inside).bit_count() for v in ms), default=0)

    def bfs_dist(self, source: int) -> list[int]:
        """Distances from source, -1 for unreachable."""
        dist = [-1] * self.n
        for d, layer in enumerate(_bfs_layers(self._masks, 1 << source, (1 << self.n) - 1)):
            for v in _bits(layer):
                dist[v] = d
        return dist

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, ((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def from_edge_list_text(cls, text: str) -> "Graph":
        """Parse the "n m" / "u v" edge-list format; '#' comments and blanks ignored."""
        lines = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
        if not lines:
            raise PreconditionViolated("empty edge-list input")
        rows = []
        for line in lines:
            try:
                u, v = map(int, line.split())
            except ValueError:
                raise PreconditionViolated(f"bad line {line!r}, expected two integers") from None
            rows.append((u, v))
        (n, m), edges = rows[0], rows[1:]
        if len(edges) != m:
            raise PreconditionViolated(f"header declares {m} edges, found {len(edges)}")
        for u, v in edges:
            if not (0 <= u < v < n):
                raise PreconditionViolated(f"edge ({u}, {v}) violates 0 <= u < v < n")
        return cls(n, edges)

    def to_edge_list_text(self) -> str:
        """Canonical edge-list serialization (sorted edges, no comments)."""
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Records


@dataclass(frozen=True)
class CutWitness:
    """A vertex bipartition with its exact crossing-edge density."""

    side_a: VertexSet
    side_b: VertexSet
    crossing_edges: int
    density: Fraction

    def __post_init__(self):
        a, b = self.side_a, self.side_b
        if a.universe_size != b.universe_size:
            raise PreconditionViolated("cut sides index different universes")
        if not a.members or not b.members:
            raise PreconditionViolated("cut sides must both be nonempty")
        if a.as_set() & b.as_set():
            raise PreconditionViolated("cut sides overlap")
        if len(a) + len(b) != a.universe_size:
            raise PreconditionViolated("cut sides do not partition the vertex set")
        if self.density != Fraction(self.crossing_edges, len(a) * len(b)):
            raise PreconditionViolated("density field does not match crossing count")


@dataclass(frozen=True)
class Matching:
    """A set of edges with pairwise distinct endpoints."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v or u in seen or v in seen:
                raise PreconditionViolated("matching repeats a vertex")
            seen.add(u)
            seen.add(v)

    def __len__(self) -> int:
        return len(self.edges)

    def check_in(self, g: Graph) -> None:
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise PreconditionViolated(f"matching pair ({u},{v}) is not an edge")


@dataclass(frozen=True)
class CutDensityResult:
    """Outcome of a cut-density computation.

    `exact` is True when the witness is a minimum-density bipartition; when
    False (the search ran out of the kernel's node budget, which needs more
    than 20 vertices) its density is only an upper bound on the minimum.
    """

    witness: CutWitness
    exact: bool


@dataclass(frozen=True)
class CutDenseVerdict:
    """Answer to "is the graph rho-cut-dense?".

    A False verdict carries a violating witness and is always conclusive.
    A True verdict is conclusive only when the search finished within the
    kernel's node budget, as it always does on at most 20 vertices; when it
    ran out, the verdict means only that no cut below rho was found.
    """

    is_dense: bool
    conclusive: bool
    witness: Optional[CutWitness]


# ---------------------------------------------------------------------------
# Peripheries and neighbourhoods


def periphery(g: Graph, s, d: int) -> VertexSet:
    """Vertices with at least d neighbours inside s (all of them when d = 0)."""
    sv = as_vertex_set(s, g.n)
    if d < 0:
        raise PreconditionViolated("periphery threshold must be nonnegative")
    ms = sv.as_set()
    return VertexSet((v for v in range(g.n) if g.deg_within(v, ms) >= d), g.n)


def second_neighbourhood(g: Graph, x: int) -> VertexSet:
    """Vertices other than x sharing a common neighbour with x."""
    out = set()
    for w in g.neighbors(x):
        out.update(g.neighbors(w))
    out.discard(x)
    return VertexSet(out, g.n)


# ---------------------------------------------------------------------------
# Cut density


def _cut_witness(n: int, cross: int, amask: int) -> CutWitness:
    side_a = [v for v in range(n) if (amask >> v) & 1]
    side_b = [v for v in range(n) if not (amask >> v) & 1]
    return CutWitness(
        VertexSet(side_a, n),
        VertexSet(side_b, n),
        cross,
        Fraction(cross, len(side_a) * len(side_b)),
    )


def cut_density(g: Graph) -> CutDensityResult:
    """Minimum of e(A,B)/(|A||B|) over all bipartitions.

    The kernel's branch and bound returns the first minimum in its
    reflected-Gray order over bipartitions, flagged exact.  A search that
    runs out of the kernel's node budget (never on 20 vertices or fewer)
    returns its best cut so far, flagged exact=False: its density is an
    upper bound on the minimum.
    """
    if g.n < 2:
        raise PreconditionViolated("cut density needs at least 2 vertices")
    cross, amask, complete, _ = kernel.min_density_cut(g.masks(), g.n)
    return CutDensityResult(_cut_witness(g.n, cross, amask), exact=complete)


def is_cut_dense(g: Graph, rho: Fraction) -> CutDenseVerdict:
    """Whether no bipartition has crossing density below rho.

    Vacuously true for rho = 0 and for single-vertex graphs.  The kernel
    runs with rho as its ceiling, so it stops looking once no cut below rho
    can remain.  A dense verdict is conclusive exactly when that search
    completed within its node budget; a sparse verdict always is, since its
    witness is a real cut, and it is the minimum's first witness whenever
    the search completed.
    """
    rho = Fraction(rho)
    if rho < 0:
        raise PreconditionViolated("rho must be nonnegative")
    if rho == 0 or g.n < 2:
        return CutDenseVerdict(True, True, None)
    cross, amask, complete, _ = kernel.min_density_cut(g.masks(), g.n, rho)
    w = _cut_witness(g.n, cross, amask)
    if w.density < rho:
        return CutDenseVerdict(False, True, w)
    return CutDenseVerdict(True, complete, None)


# ---------------------------------------------------------------------------
# Vertex cover (exact branch and bound)


def vertex_cover_at_most(g: Graph, bound: int) -> tuple[Optional[VertexSet], bool, int]:
    """(cover, complete, nodes): a vertex cover of size <= bound, or None.

    Classical max-degree branching ("v in the cover" vs "N(v) in the cover")
    with an edges-over-max-degree lower bound.  The search runs on an explicit
    stack, so its depth is not bounded by the recursion limit.  nodes counts
    search nodes, the count the budget is charged in.  None with complete
    True proves that no such cover exists; None with complete False means
    COVER_NODE_BUDGET nodes ran out before either verdict.
    """
    if bound < 0:
        raise PreconditionViolated("cover bound must be nonnegative")
    if g.edge_count == 0:
        return VertexSet((), g.n), True, 0
    if bound >= g.n:
        return VertexSet(range(g.n), g.n), True, 0

    adj = g.adjacency
    deg = list(g.degrees())  # degree among the vertices not yet taken into the cover
    removed = [False] * g.n
    picked: list[int] = []
    edges_left = g.edge_count

    def take(v):
        nonlocal edges_left
        removed[v] = True
        picked.append(v)
        edges_left -= deg[v]
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1

    def give_back(v):
        nonlocal edges_left
        picked.pop()
        for w in adj[v]:
            if not removed[w]:
                deg[w] += 1
        removed[v] = False
        edges_left += deg[v]

    # One frame per open node: its pivot, its cover slots left, and the live
    # neighbours taken in branch 2 (None while branch 1 is open).  Frames are
    # undone in LIFO order, which keeps `deg` exact for every live vertex.
    stack: list[tuple[int, int, Optional[list[int]]]] = []
    budget = COVER_NODE_BUDGET
    nodes = 0
    left = bound
    while True:
        nodes += 1
        if nodes > budget:
            return None, False, nodes
        if edges_left == 0:
            return VertexSet(picked, g.n), True, nodes
        pivot = -1
        if left > 0:
            maxdeg = 0
            for v in range(g.n):
                if not removed[v] and deg[v] > maxdeg:
                    maxdeg = deg[v]
                    pivot = v
            # trivial lower bound: every cover vertex kills at most maxdeg edges
            if maxdeg * left < edges_left:
                pivot = -1
        if pivot >= 0:
            # branch 1: pivot joins the cover
            take(pivot)
            stack.append((pivot, left, None))
            left -= 1
            continue
        # no cover below this node: resume the nearest frame with a branch left
        while stack:
            pivot, left, live = stack.pop()
            if live is not None:
                for w in reversed(live):
                    give_back(w)
                continue
            give_back(pivot)
            # branch 2: pivot stays out, all its live neighbours join
            live = [w for w in adj[pivot] if not removed[w]]
            if len(live) <= left:
                for w in live:
                    take(w)
                stack.append((pivot, left, live))
                left -= len(live)
                break
        else:
            return None, True, nodes


# ---------------------------------------------------------------------------
# Bipartite matching


def _max_bipartite_matching(left: Sequence, nbrs: dict) -> dict:
    """Kuhn's augmenting-path maximum matching; returns left->right assignment.

    Each augmenting search is a depth-first search on an explicit stack, so
    a long alternating chain cannot exhaust the recursion limit.  It visits
    neighbours in the order of `nbrs`, as the recursive form of Kuhn's search
    does, and so finds the same matching.
    """
    match_l: dict = {}
    match_r: dict = {}

    def try_augment(root) -> None:
        visited = set()
        stack = [(root, iter(nbrs[root]))]
        via: list = []  # via[i] links stack[i] to stack[i + 1], or ends the path
        while stack:
            for w in stack[-1][1]:
                if w in visited:
                    continue
                visited.add(w)
                via.append(w)
                if w not in match_r:
                    for (u, _), x in zip(stack, via):
                        match_l[u] = x
                        match_r[x] = u
                    return
                stack.append((match_r[w], iter(nbrs[match_r[w]])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()

    for u in left:
        try_augment(u)
    return match_l


def bipartite_matching_lower(g: Graph, x_side, y_side) -> Matching:
    """Maximum matching between the two sides, with its guaranteed size floor.

    Requires every induced edge to cross between the sides and every y to
    have a neighbour in x_side.  The returned matching always has size at
    least |Y|/d where d is the largest y-degree over x_side; this floor is
    re-checked before returning.
    """
    xs = as_vertex_set(x_side, g.n)
    ys = as_vertex_set(y_side, g.n)
    if xs.as_set() & ys.as_set():
        raise PreconditionViolated("sides overlap")
    for side in (xs, ys):
        for u in side:
            for w in g.neighbors(u):
                if w in side:
                    raise PreconditionViolated(f"edge ({u},{w}) inside one side")
    nbrs = {x: tuple(w for w in g.neighbors(x) if w in ys) for x in xs}
    for y in ys:
        if not any(g.has_edge(x, y) for x in xs):
            raise PreconditionViolated(f"y-side vertex {y} has no neighbour in x_side")
    ml = _max_bipartite_matching(list(xs), nbrs)
    matching = Matching(tuple(sorted((x, y) for x, y in ml.items())))
    matching.check_in(g)
    d = max(len(nbrs[x]) for x in xs) if len(xs) else 0
    if d and len(matching) * d < len(ys):
        raise InternalInvariantError("matching size fell below |Y|/d; augmenting search is broken")
    return matching


# ---------------------------------------------------------------------------
# Walks, diameter, 2-colourings


def short_even_walk(g: Graph, u: int, v: int) -> Optional[tuple[int, ...]]:
    """A shortest even-length walk from u to v, or None when no even walk exists.

    BFS on the parity-layered graph (vertex, parity).  Absence means u and v
    sit in different components or in the same class of a bipartite component.
    """
    if u == v:
        raise PreconditionViolated("endpoints must differ")
    prev: dict[tuple[int, int], tuple[int, int]] = {}
    start = (u, 0)
    seen = {start}
    dq = deque([start])
    goal = (v, 0)
    while dq:
        node = dq.popleft()
        if node == goal:
            break
        w, par = node
        for z in g.neighbors(w):
            nxt = (z, par ^ 1)
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = node
                dq.append(nxt)
    if goal not in seen:
        return None
    walk = [goal]
    while walk[-1] != start:
        walk.append(prev[walk[-1]])
    return tuple(w for w, _ in reversed(walk))


def diameter(g: Graph) -> int:
    """Exact diameter via all-pairs BFS; raises Disconnected."""
    if g.n == 0:
        raise PreconditionViolated("empty graph has no diameter")
    best = 0
    for s in range(g.n):
        dist = g.bfs_dist(s)
        if any(d < 0 for d in dist):
            raise Disconnected("diameter undefined on a disconnected graph")
        best = max(best, max(dist))
    return best


def _two_sides(g: Graph, parts: list) -> Optional[tuple[VertexSet, VertexSet]]:
    """The even and odd layers of `parts` (from `component_layers`) as a
    2-colouring, or None if an edge joins two vertices on one side."""
    masks = g.masks()
    even = odd = 0
    for _, e, o in parts:
        even |= e
        odd |= o
    for side in (even, odd):
        rest = side
        while rest:  # stops at the first vertex with a neighbour on its own side
            low = rest & -rest
            if masks[low.bit_length() - 1] & side:
                return None
            rest ^= low
    return VertexSet(_bits(even), g.n), VertexSet(_bits(odd), g.n)
