"""Embedder tests: validator, greedy and structured procedures, the oracle."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed.embed import (
    Embedding,
    apex_split_embed,
    apex_three_split_embed,
    bipartite_apex_embed,
    brute_force_embed,
    embed_via_path,
    greedy_embed,
    matching_forest_embed,
    validate,
)
from treebed import checks, lab
from treebed.corpus import all_trees_up_to, host_corpus
from treebed.errors import PreconditionViolated
from treebed.generators import (
    gen_caterpillar,
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_path,
    gen_random_graph_min_degree,
    gen_random_tree,
    gen_spider,
    gen_three_branch_tree,
    gen_two_cliques_apex,
    gen_two_cliques_apex_grown,
)
from treebed.graph import Graph, VertexSet, bipartition
from treebed.trees import Tree

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_validate_examples():
    t = gen_path(4)
    emb = Embedding.from_dict({0: 0, 1: 1, 2: 2, 3: 3})
    ok, why = validate(C4, t, emb)
    assert ok and why is None
    with pytest.raises(PreconditionViolated):
        Embedding.from_dict({0: 0, 1: 0})  # injectivity fails at construction
    bad_edges = Embedding.from_dict({0: 0, 1: 2, 2: 1, 3: 3})
    ok, why = validate(C4, t, bad_edges)
    assert not ok and "non-edge" in why
    with pytest.raises(PreconditionViolated):
        validate(C4, t, Embedding.from_dict({0: 0}))  # partial map rejected
    for off_tree in ({0: 0, 1: 1, 2: 2, 4: 3}, {-1: 3, 0: 0, 1: 1, 2: 2}):
        with pytest.raises(PreconditionViolated, match="total"):
            validate(C4, t, Embedding.from_dict(off_tree))


@pytest.mark.parametrize(
    "mapping, error",
    [
        (((0, 1), (0, 1)), "mapped twice"),  # checked before injectivity
        (((0, 1), (0, 2)), "mapped twice"),
        (((0, 1), (1, 1)), "not injective"),
        (((1, 0), (0, 1)), "must be sorted"),
    ],
)
def test_embedding_rejects_malformed_mappings(mapping, error):
    with pytest.raises(PreconditionViolated, match=error):
        Embedding(mapping)


def test_greedy_examples():
    out = greedy_embed(Graph.complete(5), gen_path(4).with_root(0), x=2)
    assert out.status == "found" and out.embedding.as_dict()[0] == 2
    star = Tree(4, [(0, 1), (0, 2), (0, 3)], root=0)
    g = Graph.complete(5)
    out = greedy_embed(g, star, x=0)
    assert out.status == "found"
    path_host = Graph(5, [(i, i + 1) for i in range(4)])
    with pytest.raises(PreconditionViolated):
        greedy_embed(path_host, star, x=0)  # deg(x) < max_degree(t)


def test_oracle_trivial_examples():
    k = 6
    t = gen_three_branch_tree(k)
    assert brute_force_embed(Graph.complete(k + 1), t).status == "found"
    cyc = Graph(k + 1, [(i, (i + 1) % (k + 1)) for i in range(k + 1)])
    assert brute_force_embed(cyc, gen_path(k + 1)).status == "found"


def test_oracle_fig1_exhaustive():
    out = brute_force_embed(gen_two_cliques_apex(6), gen_three_branch_tree(6))
    assert out.status == "not_found"


def test_oracle_pins():
    g = gen_two_cliques_apex_grown(6)
    t = gen_three_branch_tree(6)
    apex = g.n - 1
    out = brute_force_embed(g, t, pins=Embedding.from_dict({0: apex}))
    assert out.status == "found" and out.embedding.as_dict()[0] == apex
    # pinning the center inside a clique makes it impossible
    out2 = brute_force_embed(gen_two_cliques_apex(6), t, pins=Embedding.from_dict({0: 0}))
    assert out2.status == "not_found"
    with pytest.raises(PreconditionViolated):
        brute_force_embed(g, t, pins=Embedding.from_dict({0: 99}))


def test_oracle_budget_semantics():
    g = gen_two_cliques_apex(12)
    t = gen_three_branch_tree(12)
    out = brute_force_embed(g, t, budget=50)
    assert out.status == "budget_exhausted" and out.embedding is None
    assert out.nodes_explored >= 50


def test_apex_split_examples():
    g = gen_two_cliques_apex_grown(6)  # two K4 blocks + apex
    apex = g.n - 1
    c1 = VertexSet(range(0, 4), g.n)
    c2 = VertexSet(range(4, 8), g.n)
    t = gen_three_branch_tree(6)
    out = apex_split_embed(g, apex, c1, c2, t)
    assert out.status == "found"
    out = apex_split_embed(g, apex, c1, c2, gen_path(7))
    assert out.status == "found"
    weak = Graph(9, [(i, j) for i in range(4) for j in range(i + 1, 4) if (i, j) != (0, 1)]
                 + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
                 + [(v, 8) for v in range(8)])
    with pytest.raises(PreconditionViolated):
        apex_split_embed(weak, 8, VertexSet(range(0, 4), 9), VertexSet(range(4, 8), 9), t)


def _three_pool_host(block: int):
    edges = []
    for b in range(3):
        base = b * block
        edges.extend((base + i, base + j) for i in range(block) for j in range(i + 1, block))
    x = 3 * block
    for b in range(3):
        edges.extend((x, b * block + i) for i in range(3))
    return Graph(x + 1, edges), x


def test_apex_three_split_examples():
    g, x = _three_pool_host(6)
    pools = [VertexSet(range(b * 6, (b + 1) * 6), g.n) for b in range(3)]
    t = gen_three_branch_tree(6)
    out = apex_three_split_embed(g, x, pools[0], pools[1], pools[2], t)
    assert out.status == "found"
    out = apex_three_split_embed(g, x, pools[0], pools[1], pools[2], gen_path(7))
    assert out.status == "found"  # empty third forest leaves pool 3 unused
    # no neighbour in the third pool
    g2 = Graph(g.n, [e for e in g.edges() if not (e[1] == x and e[0] in pools[2])])
    with pytest.raises(PreconditionViolated):
        apex_three_split_embed(g2, x, pools[0], pools[1], pools[2], t)


def _bipartite_apex_host():
    kb = gen_complete_bipartite(10, 10)
    apex = 20
    edges = list(kb.edges()) + [(0, apex), (1, apex), (10, apex), (11, apex)]
    g = Graph(21, edges)
    return g, apex, VertexSet(range(0, 10), 21), VertexSet(range(10, 20), 21)


def test_bipartite_apex_examples():
    g, apex, y1, y2 = _bipartite_apex_host()
    out = bipartite_apex_embed(g, apex, y1, y2, gen_path(14))  # k = 13 > 6*2
    assert out.status == "found"
    cat = gen_caterpillar(10, 3, seed=1)  # k = 12 = 6*2: fails the k > 6*max_deg gate
    with pytest.raises(PreconditionViolated):
        bipartite_apex_embed(g, apex, y1, y2, cat)
    odd = Graph(g.n, list(g.edges()) + [(0, 1)])
    with pytest.raises(PreconditionViolated):
        bipartite_apex_embed(odd, apex, y1, y2, gen_path(14))


def test_bipartite_apex_class_discipline():
    g, apex, y1, y2 = _bipartite_apex_host()
    t = gen_random_tree(14, 2, seed=9)
    out = bipartite_apex_embed(g, apex, y1, y2, t)
    assert out.status == "found"  # parity discipline asserted inside the op


def _escape_path_host():
    blocks = []
    edges = []
    for b in range(3):
        base = b * 10
        blocks.append(list(range(base, base + 10)))
        edges.extend((base + i, base + j) for i in range(10) for j in range(i + 1, 10))
    x = 30
    edges.extend((x, v) for v in blocks[0][:4])
    edges.extend((x, v) for v in blocks[1][:4])
    a, b_vert = blocks[0][-1], blocks[2][0]
    edges.append((a, b_vert))
    g = Graph(31, edges)
    return g, x, blocks, a, b_vert


def test_embed_via_path_splittable_fallback():
    g, x, blocks, a, b_vert = _escape_path_host()
    t = gen_spider(9, 3)  # k = 12, components of size 4 regroup directly
    out = embed_via_path(
        g, x, VertexSet(blocks[0], g.n), VertexSet(blocks[1], g.n),
        VertexSet(blocks[2], g.n), a, b_vert, t,
    )
    assert out.status == "found"


def test_embed_via_path_path_stage():
    g, x, blocks, a, b_vert = _escape_path_host()
    # k = 12 spider with three legs of 4: single heavy branch per leg;
    # spread so the split window cannot be hit and the path stage engages
    t = Tree(13, [(0, 1), (1, 2), (2, 3), (3, 4),
                  (0, 5), (5, 6), (6, 7), (7, 8),
                  (0, 9), (9, 10), (10, 11), (11, 12)])
    out = embed_via_path(
        g, x, VertexSet(blocks[0], g.n), VertexSet(blocks[1], g.n),
        VertexSet(blocks[2], g.n), a, b_vert, t, slack=8,
    )
    assert out.status == "found"


def test_embed_via_path_star_window():
    # K_{1,30} leaves 30 singleton components around its centre; choosing
    # those in the degree window is a subset-sum question, not 2^30 subsets
    A, B1, B2 = range(0, 62), range(62, 124), range(124, 186)
    x = 186
    edges = [(u, v) for blk in (A, B1, B2) for u in blk for v in blk if u < v]
    edges += [(x, v) for v in A] + [(x, v) for v in B1]
    a, b_vert = A[-1], B2[0]
    edges.append((a, b_vert))
    g = Graph(187, edges)
    star = Tree(31, [(0, i) for i in range(1, 31)])
    out = embed_via_path(
        g, x, VertexSet(A, g.n), VertexSet(B1, g.n), VertexSet(B2, g.n), a, b_vert, star,
    )
    assert out.status == "found"


def test_embed_via_path_missing_bridge():
    g, x, blocks, a, b_vert = _escape_path_host()
    g2 = Graph(g.n, [e for e in g.edges() if e != tuple(sorted((a, b_vert)))])
    with pytest.raises(PreconditionViolated):
        embed_via_path(
            g2, x, VertexSet(blocks[0], g2.n), VertexSet(blocks[1], g2.n),
            VertexSet(blocks[2], g2.n), a, b_vert, gen_spider(9, 3),
        )


def _matching_forest_host():
    core = list(range(14))
    edges = [(i, j) for i in range(14) for j in range(i + 1, 14)]
    pools = []
    nxt = 14
    for p in range(3):
        blk = list(range(nxt, nxt + 8))
        pools.append(blk)
        edges.extend((blk[i], blk[j]) for i in range(8) for j in range(i + 1, 8))
        edges.append((p, blk[0]))
        nxt += 8
    g = Graph(nxt, edges)
    portals = [((p, pools[p][0]), VertexSet(pools[p], g.n)) for p in range(3)]
    return g, VertexSet(core, g.n), portals


def test_matching_forest_examples():
    g, core, portals = _matching_forest_host()
    t = gen_caterpillar(9, 4, seed=5)  # max degree 3, k = 12
    out = matching_forest_embed(g, core, portals, t)
    assert out.status == "found"
    # an empty matching reduces to placing the whole tree in the core
    small = gen_three_branch_tree(6)
    out = matching_forest_embed(g, core, portals, small)
    assert out.status == "found"


def test_matching_forest_needs_enough_portals():
    g, core, portals = _matching_forest_host()
    t = gen_path(13)  # k = 12 path decomposes with a 2-edge matching
    from treebed.trees import msf_decomposition

    mu = len(msf_decomposition(t).matching)
    assert mu >= 1
    with pytest.raises(PreconditionViolated):
        matching_forest_embed(g, core, portals[: mu - 1], t)


def test_outcome_invariants():
    with pytest.raises(PreconditionViolated):
        from treebed.embed import EmbedOutcome

        EmbedOutcome("found", None, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_greedy_always_embeds_under_preconditions(seed, k):
    t = gen_random_tree(k + 1, 4, seed).with_root(0)
    g = gen_random_graph_min_degree(k + 4, k + 1, seed)
    x = seed % g.n
    if g.degree(x) < t.max_degree():
        return
    out = greedy_embed(g, t, x)
    assert out.status == "found"


# Golden digest of the oracle's (status, mapping, nodes_explored).  The
# search order decides which embedding is found first and how many nodes it
# takes, so any change to the root, the BFS order, the sibling order, the
# symmetry cuts or the host order moves this digest.  It covers every tree on
# at most 8 vertices against the stored small hosts and the twin-rich
# families, unpinned and with one pin, plus 300 seeded `2k3` sweep instances.
_ORACLE_DIGEST = "69ce3b1435e5085acd6fadfcac7975b156b472eadeae551741dacdeed4ad8803"


def _oracle_digest_pairs():
    hosts = host_corpus() + [
        gen_complete_bipartite(2, 3),
        gen_complete_bipartite(3, 4),
        gen_two_cliques_apex(6),
        gen_two_cliques_apex(9),
        gen_clique_chain_apex(8, 2),
        gen_clique_chain_apex(10, 2),
        Graph.complete(6),
        Graph.complete(8),
    ]
    i = 0
    for g in hosts:
        for t in all_trees_up_to(8):
            yield g, t, None
            if t.n <= g.n:
                yield g, t, Embedding.from_dict({i % t.n: 7 * i % g.n})
            i += 1
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(10, 11, 12), tree_max_degree=4, trials=300, seed=4242
    )
    for idx in range(cfg.trials):
        k = cfg.k_values[idx % 3]
        trial_seed = cfg.seed * 1_000_003 + idx
        rng = random.Random(repr(("trial", cfg.seed, idx)))
        g = lab._host_for_trial(cfg, k, trial_seed, rng)
        yield g, gen_random_tree(k + 1, cfg.tree_max_degree, trial_seed), None


def test_oracle_outcomes_pinned():
    h = hashlib.sha256()
    count = 0
    for g, t, pins in _oracle_digest_pairs():
        out = brute_force_embed(g, t, pins=pins)
        mapping = out.embedding.mapping if out.embedding is not None else None
        h.update(repr((out.status, mapping, out.nodes_explored)).encode())
        count += 1
    assert count > 13000
    assert h.hexdigest() == _ORACLE_DIGEST


def _reference_attempts(g, t):
    """pipeline_attempts' calls as it made them by copying G - x with
    `induced` and reading `components()` and `bipartition()` off the copy."""
    if g.n == 0 or t.n == 0:
        return []
    x = g.degree_order()[0]
    root = max(range(t.n), key=lambda v: (t.degree(v), -v))
    out = [("greedy", x, root)]
    if g.n > 1:
        sub, back = g.induced(v for v in range(g.n) if v != x)
        comps = sorted(sub.components(), key=len, reverse=True)
        sets = [VertexSet([back[i] for i in comp], g.n) for comp in comps[:3]]
        if len(comps) >= 2:
            out.append(("apex_split", x, *sets[:2]))
        if len(comps) >= 3:
            out.append(("apex_three_split", x, *sets))
        parts = bipartition(sub)
        if parts is not None:
            sides = [VertexSet([back[i] for i in p], g.n) for p in parts]
            out.append(("bipartite_apex", x, *sides))
    return out


def test_pipeline_attempts_match_induced_reference(monkeypatch):
    # each embedder is replaced by a recorder of the host sets it is given
    monkeypatch.setattr(checks, "greedy_embed", lambda g, t, x, root: ("greedy", x, root))
    monkeypatch.setattr(
        checks, "apex_split_embed", lambda g, x, c1, c2, t: ("apex_split", x, c1, c2)
    )
    monkeypatch.setattr(
        checks,
        "apex_three_split_embed",
        lambda g, x, c1, c2, c3, t: ("apex_three_split", x, c1, c2, c3),
    )
    monkeypatch.setattr(
        checks, "bipartite_apex_embed", lambda g, x, y1, y2, t: ("bipartite_apex", x, y1, y2)
    )
    hosts = host_corpus()[::4] + [
        Graph(0, []),
        Graph(1, []),
        gen_complete_bipartite(1, 5),
        gen_complete_bipartite(3, 4),
        gen_two_cliques_apex(9),
        gen_clique_chain_apex(10, 2),
        _three_pool_host(4)[0],
        _bipartite_apex_host()[0],
        Graph(70, [(0, v) for v in range(1, 70)] + [(v, v + 1) for v in range(1, 69, 3)]),
    ]
    names = set()
    for g in hosts:
        for t in (Tree(0, []), gen_path(1), gen_path(4), gen_three_branch_tree(6)):
            got = [(name, attempt()) for name, attempt in checks.pipeline_attempts(g, t)]
            assert all(name == call[0] for name, call in got)
            assert [call for _, call in got] == _reference_attempts(g, t)
            names.update(name for name, _ in got)
    assert names == {"greedy", "apex_split", "apex_three_split", "bipartite_apex"}
