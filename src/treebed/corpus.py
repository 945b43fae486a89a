"""Deterministic small-instance corpora for oracle cross-agreement runs.

Hosts are deduplicated by one isomorphism invariant.  Up to 5 vertices they
are enumerated exhaustively, and there the invariant separates every
isomorphism class of connected graphs, so the dedup is exact; for 6..8
vertices a seeded sample of random and named hosts is deduplicated by the
same invariant, which is strong but not perfect there.  Guest
trees are enumerated completely up to isomorphism via leaf augmentation
with centroid-rooted canonical codes.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph
from .trees import Tree
from .generators import gen_complete_bipartite, gen_two_cliques_apex


def _iso_invariant(g: Graph) -> tuple:
    """Cheap isomorphism invariant: refined degree profiles plus distance data."""
    degs = g.degrees()
    nbr_profiles = tuple(
        sorted(tuple(sorted(degs[w] for w in g.neighbors(v))) for v in range(g.n))
    )
    dists = []
    for v in range(g.n):
        d = g.bfs_dist(v)
        dists.append(tuple(sorted(x for x in d if x >= 0)))
    tri = [
        sum(1 for w1, w2 in combinations(g.neighbors(v), 2) if g.has_edge(w1, w2))
        for v in range(g.n)
    ]
    return (g.n, g.edge_count, tuple(sorted(degs)), nbr_profiles, tuple(sorted(dists)), tuple(sorted(tri)))


def connected_hosts_up_to_5() -> list[Graph]:
    """Every connected graph on at most 5 vertices, one per isomorphism class."""
    out: list[Graph] = []
    seen: set = set()
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, edges)
            if not g.is_connected():
                continue
            key = _iso_invariant(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def sampled_hosts_6_to_8(seed: int) -> list[Graph]:
    """Seeded connected hosts on 6..8 vertices: named families plus up to 40
    ER samples per order, from at most 1,600 draws, deduplicated by the
    invariant (sampling 'up to isomorphism')."""
    rng = random.Random(repr(("corpus-hosts", seed)))
    out: list[Graph] = []
    seen: set = set()

    def keep(g: Graph) -> None:
        if not g.is_connected():
            return
        key = _iso_invariant(g)
        if key not in seen:
            seen.add(key)
            out.append(g)

    for n in (6, 7, 8):
        keep(Graph.complete(n))
        keep(Graph(n, ((i, i + 1) for i in range(n - 1))))
        keep(Graph(n, [(i, (i + 1) % n) for i in range(n)]))
        keep(Graph(n, ((0, i) for i in range(1, n))))
        for m in range(1, n // 2 + 1):
            keep(gen_complete_bipartite(m, n - m))
        tries = 0
        target = len(out) + 40
        while len(out) < target and tries < 1600:
            tries += 1
            p = rng.choice((0.25, 0.4, 0.55, 0.7, 0.85))
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            keep(Graph(n, edges))
    keep(gen_two_cliques_apex(6))
    return out


def host_corpus() -> list[Graph]:
    return connected_hosts_up_to_5() + sampled_hosts_6_to_8(2024)


# ---------------------------------------------------------------------------
# Complete tree enumeration


def _free_tree_code(t: Tree) -> str:
    """Canonical code: AHU string rooted at the centroid (min over both when
    the centroid is an edge).

    The centroids come from one view rooted at 0: the components of T - v
    are the subtrees of v's children and, above v, the other n - size(v)
    vertices, and v is a centroid when none of them exceeds n/2.
    """

    def rooted_code(root: int) -> str:
        rv = t.rooted(root)
        code = [""] * t.n
        for v in reversed(rv.order):
            code[v] = "(" + "".join(sorted(code[c] for c in rv.children[v])) + ")"
        return code[root]

    rv = t.rooted(0)
    size = rv.subtree_size
    centroids = [
        v
        for v in range(t.n)
        if 2 * max([t.n - size[v]] + [size[c] for c in rv.children[v]]) <= t.n
    ]
    return min(rooted_code(c) for c in centroids)


def all_trees_up_to(max_n: int) -> list[Tree]:
    """All free trees with at most max_n vertices, one per isomorphism class,
    generated by leaf augmentation."""
    levels: list[list[Tree]] = [[Tree(1, ())]]
    for n in range(2, max_n + 1):
        seen: set = set()
        nxt: list[Tree] = []
        for t in levels[-1]:
            for v in range(t.n):
                grown = Tree(t.n + 1, list(t.edges) + [(v, t.n)])
                code = _free_tree_code(grown)
                if code not in seen:
                    seen.add(code)
                    nxt.append(grown)
        levels.append(nxt)
    return [t for lvl in levels for t in lvl]
