"""Backend equivalence: the compiled kernel must replay the pure one exactly,
including node counts and tie-breaking."""

import random

import pytest

from treebed import _kernel_py, kernel
from treebed.embed import _lower_twins, brute_force_embed
from treebed.generators import (
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_random_connected_graph,
    gen_random_tree,
    gen_two_cliques_apex,
)
from treebed.graph import Graph

try:
    from treebed import _kernel_c
except ImportError:
    _kernel_c = None

needs_c = pytest.mark.skipif(_kernel_c is None, reason="compiled kernel not built")


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
        cut = _kernel_py.solve_embed(*args)
        full = _kernel_py.solve_embed(*args[:8], [0] * len(lower_twins), args[9])
        if _kernel_py.BUDGET in (cut[0], full[0]):
            continue
        # the cut never removes the first embedding in search order, so both
        # searches agree on it and the cut one visits a subset of the nodes
        assert cut[:2] == full[:2], f"seed {seed}: {cut} vs {full}"
        assert cut[2] <= full[2]
    assert twins_seen >= 60


@needs_c
def test_solve_embed_backends_identical():
    for seed in range(120):
        args = _embed_inputs(seed)
        py = _kernel_py.solve_embed(*args)
        cc = _kernel_c.solve_embed(*args)
        assert py == cc, f"seed {seed}: {py} vs {cc}"


@needs_c
def test_min_cut_backends_identical():
    rng = random.Random(7)
    for seed in range(120):
        n = rng.randrange(2, 13)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))
        ]
        g = Graph(n, edges)
        assert _kernel_py.min_density_cut(g.masks(), n) == _kernel_c.min_density_cut(g.masks(), n)


def test_selector_handles_oversized_hosts():
    # hosts beyond 64 vertices must silently route to the pure backend
    from treebed.generators import gen_path

    g = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
    out = brute_force_embed(g, gen_path(5))
    assert out.status == "found"
    star = gen_random_tree(5, 4, seed=4)
    if star.max_degree() > 2:
        assert brute_force_embed(g, star).status == "not_found"


def test_backend_reported():
    assert kernel.BACKEND in ("c", "python")
