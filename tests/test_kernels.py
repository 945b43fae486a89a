"""The search kernels: the oracle's twin cut, exact cuts against an
independent enumerator, and hosts wider than a machine word."""

import hashlib
import random
from fractions import Fraction

from treebed import kernel
from treebed.checks import _min_cut_reference
from treebed.embed import _lower_twins, brute_force_embed
from treebed.generators import (
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_path,
    gen_random_connected_graph,
    gen_random_tree,
    gen_two_cliques_apex,
)
from treebed.graph import Graph


def _embed_inputs(seed):
    """Kernel arguments for one seed; every other host is twin-rich."""
    rng = random.Random(seed)
    if seed % 2:
        g = rng.choice(
            (
                gen_complete_bipartite(rng.randrange(1, 4), rng.randrange(2, 7)),
                gen_two_cliques_apex(rng.choice((6, 9))),
                gen_clique_chain_apex(rng.randrange(6, 11), rng.randrange(1, 4)),
                Graph.complete(rng.randrange(3, 9)),
            )
        )
    else:
        g = gen_random_connected_graph(rng.randrange(3, 14), rng.randrange(0, 12), seed)
    t = gen_random_tree(rng.randrange(2, min(g.n, 9) + 1), 4, seed + 1)
    root = max(range(t.n), key=lambda v: (t.degree(v), -v))
    rv = t.rooted(root)
    order = list(rv.order)
    pos = {v: i for i, v in enumerate(order)}
    parent_pos = [-1] + [pos[rv.parent[v]] for v in order[1:]]
    full = (1 << g.n) - 1
    allowed = [full] * t.n
    tdeg = [t.degree(v) for v in order]
    nchild = [len(rv.children[v]) for v in order]
    symprev = [-1] * t.n
    host_deg = g.degrees()
    host_order = sorted(range(g.n), key=lambda h: (-host_deg[h], h))
    lower_twins = _lower_twins(g.masks(), set())
    budget = rng.choice((10, 1000, 10**6))
    return (
        g.masks(), host_deg, host_order, parent_pos, allowed, tdeg, nchild, symprev, lower_twins,
        budget,
    )


def test_twin_cut_keeps_verdicts():
    twins_seen = 0
    for seed in range(120):
        args = _embed_inputs(seed)
        lower_twins = args[8]
        twins_seen += any(lower_twins)
        cut = kernel.solve_embed(*args)
        full = kernel.solve_embed(*args[:8], [0] * len(lower_twins), args[9])
        if kernel.BUDGET in (cut[0], full[0]):
            continue
        # the cut never removes the first embedding in search order, so both
        # searches agree on it and the cut one visits a subset of the nodes
        assert cut[:2] == full[:2], f"seed {seed}: {cut} vs {full}"
        assert cut[2] <= full[2]
    assert twins_seen >= 60


def _cut_grid():
    """120 seeded graphs on 2..12 vertices, sparse to dense."""
    rng = random.Random(7)
    for seed in range(120):
        n = rng.randrange(2, 13)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))
        ]
        yield seed, n, edges


def test_min_cut_matches_reference():
    for seed, n, edges in _cut_grid():
        g = Graph(n, edges)
        cross, amask = kernel.min_density_cut(g.masks(), n)
        asz = amask.bit_count()
        assert amask & 1 and 0 < asz < n, f"seed {seed}: improper side {amask:b}"
        assert cross == sum((amask >> u & 1) != (amask >> v & 1) for u, v in edges)
        assert Fraction(cross, asz * (n - asz)) == _min_cut_reference(g), f"seed {seed}"


# The witness is the first minimum in Gray-code order; the density alone
# would not notice a changed scan order or tie-break.
_CUT_WITNESS_DIGEST = "073b11f3199fcf88897afb8eec1cdb7b611dde17572e4e2493300f96502f66e7"


def test_min_cut_witness_pinned():
    h = hashlib.sha256()
    for seed, n, edges in _cut_grid():
        h.update(f"{seed} {kernel.min_density_cut(Graph(n, edges).masks(), n)}\n".encode())
    for n in range(14, 21):
        rng = random.Random(n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        h.update(f"n{n} {kernel.min_density_cut(Graph(n, edges).masks(), n)}\n".encode())
    assert h.hexdigest() == _CUT_WITNESS_DIGEST


def test_oracle_handles_hosts_wider_than_64():
    # host masks are plain ints, so a 70-vertex host is searched like any other
    g = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
    out = brute_force_embed(g, gen_path(5))
    assert out.status == "found"
    star = gen_random_tree(5, 4, seed=4)
    if star.max_degree() > 2:
        assert brute_force_embed(g, star).status == "not_found"

