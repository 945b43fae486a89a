"""Embedder tests: validator, greedy and structured procedures, the oracle."""

import __future__
import hashlib
import inspect
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
from treebed import checks, embed, lab
from treebed.corpus import all_trees_up_to, host_corpus
from treebed.errors import EmbedNotFound, InternalInvariantError, PreconditionViolated
from treebed.generators import (
    gen_bipartite_apex_host,
    gen_branches_tree,
    gen_caterpillar,
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_escape_path_host,
    gen_matching_forest_host,
    gen_path,
    gen_random_graph_min_degree,
    gen_random_tree,
    gen_spider,
    gen_three_branch_tree,
    gen_three_pool_host,
    gen_two_cliques_apex,
    gen_two_cliques_apex_grown,
)
from treebed.graph import Graph, VertexSet, _two_sides
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
        # with several faults the first in that order is reported
        (((1, 5), (1, 5), (0, 5)), "mapped twice"),  # also not injective, not sorted
        (((2, 7), (2, 8), (0, 1)), "mapped twice"),  # also not sorted
        (((1, 5), (0, 5)), "not injective"),  # also not sorted
        (((0, 4), (2, 4), (1, 3)), "not injective"),
        (((0, 1), (2, 3), (1, 2)), "must be sorted"),
    ],
)
def test_embedding_rejects_malformed_mappings(mapping, error):
    with pytest.raises(PreconditionViolated, match=error):
        Embedding(mapping)


def test_min_degree_without_matches_a_scan():
    rng = random.Random(77)
    for i in range(2000):
        n = rng.randrange(0, 14)
        p = rng.choice((0.1, 0.4, 0.8))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for x in range(n):
            want = min((g.degree(v) - g.has_edge(x, v) for v in range(n) if v != x), default=0)
            assert embed._min_degree_without(g, x) == want, (i, g.edges(), x)


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


def test_apex_three_split_examples():
    g, roles = gen_three_pool_host(6)
    t = gen_three_branch_tree(6)
    out = apex_three_split_embed(g, t=t, **roles)
    assert out.status == "found"
    out = apex_three_split_embed(g, t=gen_path(7), **roles)
    assert out.status == "found"  # empty third forest leaves pool 3 unused
    g7, roles7 = gen_three_pool_host(7)
    assert apex_three_split_embed(g7, t=gen_path(9), **roles7).status == "found"
    # no neighbour in the third pool
    x, c3 = roles["x"], roles["c3"]
    g2 = Graph(g.n, [e for e in g.edges() if not (e[1] == x and e[0] in c3)])
    with pytest.raises(PreconditionViolated):
        apex_three_split_embed(g2, t=t, **roles)


def test_bipartite_apex_examples():
    g, roles = gen_bipartite_apex_host()
    out = bipartite_apex_embed(g, t=gen_path(14), **roles)  # k = 13 > 6*2
    assert out.status == "found"
    cat = gen_caterpillar(10, 3, seed=1)  # k = 12 = 6*2: fails the k > 6*max_deg gate
    with pytest.raises(PreconditionViolated):
        bipartite_apex_embed(g, t=cat, **roles)
    odd = Graph(g.n, list(g.edges()) + [(0, 1)])
    with pytest.raises(PreconditionViolated):
        bipartite_apex_embed(odd, t=gen_path(14), **roles)
    # an apex outside 0..n-1 is refused before any mask is read
    for x in (-1, g.n):
        with pytest.raises(PreconditionViolated, match="x out of range"):
            bipartite_apex_embed(g, t=gen_path(14), **dict(roles, x=x))


def test_bipartite_apex_class_discipline():
    g, roles = gen_bipartite_apex_host()
    out = bipartite_apex_embed(g, t=gen_random_tree(14, 2, seed=9), **roles)
    assert out.status == "found"  # parity discipline asserted inside the op


def test_embed_via_path_splittable_fallback():
    g, roles = gen_escape_path_host(10, 4)
    t = gen_spider(9, 3)  # k = 12, components of size 4 regroup directly
    assert embed_via_path(g, t=t, **roles).status == "found"


def test_embed_via_path_path_stage(monkeypatch):
    # three branches of 16 in 32-vertex cliques: no regrouping lands in the
    # two-pool window [17, 31], so the heavy branch is routed along a path
    # through A; an empty length window (no slack) is a failure only that
    # stage reports
    g, roles = gen_escape_path_host(32, 3)
    t = gen_branches_tree((16, 16, 16))
    monkeypatch.setattr(embed, "ESCAPE_PATH_SLACK", 8)
    assert embed_via_path(g, t=t, **roles).status == "found"
    monkeypatch.setattr(embed, "ESCAPE_PATH_SLACK", 0)
    with pytest.raises(EmbedNotFound) as exc:
        embed_via_path(g, t=t, **roles)
    assert exc.value.stage == "tree_path"


def test_embed_via_path_bridge_end_inside_a_is_a_precondition():
    # b moved into A, adjacent to a and to six B2 vertices: the path through A
    # may use b, which is also the bridge's image, so every choice of b must
    # be refused up front rather than caught as a non-injective placement
    g, roles = gen_escape_path_host(32, 3)
    B2 = roles["b2_set"]
    t = gen_branches_tree((16, 16, 16))
    for inside in roles["a_set"].members:
        if inside == roles["a"]:
            continue
        h = Graph(g.n, list(g.edges()) + [(inside, w) for w in B2.members[:6]])
        with pytest.raises(PreconditionViolated):
            embed_via_path(h, t=t, **dict(roles, b=inside))
    # and the other end: a inside B1 or B2
    for inside in (roles["b1_set"].members[-1], B2.members[-1]):
        with pytest.raises(PreconditionViolated):
            embed_via_path(g, t=t, **dict(roles, a=inside))


def test_embed_via_path_star_window():
    # K_{1,30} leaves 30 singleton components around its centre; choosing
    # those in the degree window is a subset-sum question, not 2^30 subsets
    g, roles = gen_escape_path_host(62, 62)
    star = Tree(31, [(0, i) for i in range(1, 31)])
    assert embed_via_path(g, t=star, **roles).status == "found"


def test_embed_via_path_missing_bridge():
    g, roles = gen_escape_path_host(10, 4)
    g2 = Graph(g.n, [e for e in g.edges() if e != (roles["a"], roles["b"])])
    with pytest.raises(PreconditionViolated):
        embed_via_path(g2, t=gen_spider(9, 3), **roles)


def test_matching_forest_examples():
    g, roles = gen_matching_forest_host()
    t = gen_caterpillar(9, 4, seed=5)  # max degree 3, k = 12
    assert matching_forest_embed(g, t=t, **roles).status == "found"
    # an empty matching reduces to placing the whole tree in the core
    assert matching_forest_embed(g, t=gen_three_branch_tree(6), **roles).status == "found"


def test_spent_portal_budget_is_inconclusive(monkeypatch):
    # a spent portal budget is reported as a spent budget, not as a failed
    # embedding, so the structured-embedder check counts it inconclusive; the
    # check's other two runs spend the same budget, in their own searches
    monkeypatch.setattr(embed, "DEFAULT_ORACLE_BUDGET", 5)
    g, roles = gen_matching_forest_host()
    out = matching_forest_embed(g, t=gen_caterpillar(9, 4, seed=5), **roles)
    assert out.status == "budget_exhausted" and out.embedding is None
    res = checks.check_structured_embedders()
    assert (res.runs, res.failures, res.inconclusive) == (3, 0, 3)


def test_spent_escape_path_budget_is_inconclusive(monkeypatch):
    # the path through A is an oracle search under DEFAULT_ORACLE_BUDGET; a
    # spent one is a spent budget, not a failed `host_path` stage
    monkeypatch.setattr(embed, "DEFAULT_ORACLE_BUDGET", 3)
    g, roles = gen_escape_path_host(32, 3)
    out = embed_via_path(g, t=gen_three_branch_tree(48), **roles)
    assert (out.status, out.embedding, out.nodes_explored) == ("budget_exhausted", None, 4)
    res = checks.check_structured_embedders()
    assert (res.runs, res.failures, res.inconclusive) == (3, 0, 3)


def test_default_oracle_budget_is_read_when_the_search_starts(monkeypatch):
    # the oracle's default budget, and the budget None of verify_extremal and
    # check_oracle_agreement, are the constant as it reads when the search starts
    monkeypatch.setattr(embed, "DEFAULT_ORACLE_BUDGET", 3)
    g, roles = gen_escape_path_host(10, 4)
    t = gen_spider(9, 3)
    # the spider takes the two-pool short-circuit, which runs no oracle search
    assert embed_via_path(g, t=t, **roles).status == "found"
    out = brute_force_embed(g, t)
    assert (out.status, out.embedding) == ("budget_exhausted", None)
    assert out.nodes_explored > 3
    # so the structured-embedder check's cross-check of that found is inconclusive
    res = checks.check_structured_embedders()
    assert (res.runs, res.failures, res.inconclusive) == (3, 0, 3)
    assert not lab.verify_extremal(6).complete
    assert checks.check_oracle_agreement([g], [t], None).inconclusive == 1
    assert checks.check_oracle_agreement([g], [t], 10**6).inconclusive == 0


def test_matching_forest_needs_enough_portals():
    g, roles = gen_matching_forest_host()
    t = gen_path(13)  # k = 12 path decomposes with a 2-edge matching
    from treebed.trees import msf_decomposition

    mu = len(msf_decomposition(t).matching)
    assert mu >= 1
    with pytest.raises(PreconditionViolated):
        matching_forest_embed(g, t=t, **dict(roles, portals=roles["portals"][: mu - 1]))


def _with(name, value, call):
    """call() with the module constant embed.<name> set to value meanwhile."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, name, value)
        return call()


def _constructive_cases():
    """(embedder, call) pairs that reach all six constructive embedders."""
    trees = all_trees_up_to(8) + [gen_random_tree(n, 3, seed=n) for n in range(9, 15)]
    # the pipeline's own host sets: stored hosts and the hand-built ones
    hosts = host_corpus() + [
        gen_two_cliques_apex_grown(6),
        gen_two_cliques_apex_grown(9),
        gen_three_pool_host(4)[0],
        gen_three_pool_host(6)[0],
        gen_bipartite_apex_host()[0],
    ]
    for g in hosts:
        for t in trees:
            if t.n <= g.n:
                yield from checks.pipeline_attempts(g, t)
    # check_greedy_total's instances, the degree-gated ones included
    rng = random.Random(repr(("greedy", 0)))
    for i in range(200):
        k = rng.randrange(1, 9)
        t = gen_random_tree(k + 1, rng.randrange(2, 5), 23 * i).with_root(0)
        n = rng.randrange(k + 2, k + 9)
        g = gen_random_graph_min_degree(n, k + 1, 29 * i)
        yield "greedy", lambda g=g, t=t, x=rng.randrange(n): greedy_embed(g, t, x)
    for k in (6, 9):
        g = gen_two_cliques_apex_grown(k)
        size = 2 * k // 3
        c1, c2 = VertexSet(range(size), g.n), VertexSet(range(size, 2 * size), g.n)
        for t in trees:
            yield "apex_split", lambda g=g, c1=c1, c2=c2, t=t: apex_split_embed(
                g, g.n - 1, c1, c2, t
            )
    for block in (4, 6):
        g, roles = gen_three_pool_host(block)
        for t in trees:
            yield "apex_three_split", lambda g=g, r=roles, t=t: apex_three_split_embed(
                g, t=t, **r
            )
    g, roles = gen_bipartite_apex_host()
    for n in range(14, 21):
        for t in (gen_path(n), gen_random_tree(n, 2, seed=n), gen_random_tree(n, 3, seed=n)):
            yield "bipartite_apex", lambda g=g, r=roles, t=t: bipartite_apex_embed(g, t=t, **r)
    g, roles = gen_escape_path_host(10, 4)
    escape_trees = [gen_spider(9, 3), gen_spider(12, 4), gen_branches_tree((4, 4, 4)), gen_path(13)]
    for t in escape_trees + [gen_random_tree(n, 3, seed=n) for n in range(9, 15)]:
        for slack in (8, 64):
            yield "embed_via_path", lambda g=g, r=roles, t=t, s=slack: _with(
                "ESCAPE_PATH_SLACK", s, lambda: embed_via_path(g, t=t, **r)
            )
    for x_degree in (3, 6):
        g, roles = gen_escape_path_host(32, x_degree)
        for lengths in ((16, 16, 16), (15, 16, 17), (12, 12, 12, 12), (16, 16, 8, 8)):
            t = gen_branches_tree(lengths)
            for slack in (0, 1, 8):
                yield "embed_via_path", lambda g=g, r=roles, t=t, s=slack: _with(
                    "ESCAPE_PATH_SLACK", s, lambda: embed_via_path(g, t=t, **r)
                )
    g, roles = gen_matching_forest_host()
    mf_trees = [gen_caterpillar(9, 4, seed=5), gen_three_branch_tree(6), gen_path(13)]
    for t in mf_trees + [gen_random_tree(n, 3, seed=n) for n in range(9, 15)]:
        for budget in (5, 2_000_000):
            yield "matching_forest", lambda g=g, r=roles, t=t, b=budget: _with(
                "DEFAULT_ORACLE_BUDGET", b, lambda: matching_forest_embed(g, t=t, **r)
            )


# Golden digest of every constructive embedder's outcomes on
# `_constructive_cases`: (status, mapping, nodes_explored) for a found
# outcome, (status, nodes_explored) for a spent node budget, the exception
# type and EmbedNotFound's stage for a failure.  Message texts are left
# out, so rewording an error does not move it.
_CONSTRUCTIVE_DIGEST = "ca00e548c38b001aa0bc9de3ca777be8ace77dc4cb91242d7534abd624fb7696"


def test_constructive_outcomes_pinned():
    h = hashlib.sha256()
    found: dict = {}
    for name, attempt in _constructive_cases():
        try:
            out = attempt()
        except (PreconditionViolated, EmbedNotFound) as exc:
            h.update(repr((name, type(exc).__name__, getattr(exc, "stage", None))).encode())
            continue
        if out.status == "budget_exhausted":
            h.update(repr((name, out.status, out.nodes_explored)).encode())
            continue
        found[name] = found.get(name, 0) + 1
        h.update(repr((name, out.status, out.embedding.mapping, out.nodes_explored)).encode())
    assert set(found) == {
        "greedy", "apex_split", "apex_three_split", "bipartite_apex", "embed_via_path",
        "matching_forest",
    }
    assert h.hexdigest() == _CONSTRUCTIVE_DIGEST, found


def test_placement_that_forgets_its_used_set_is_an_internal_error(monkeypatch):
    # a mutant placement loop that never records the host vertices it takes,
    # so tree vertices can share an image: every found outcome it breaks must
    # surface as InternalInvariantError, never as an unmet precondition
    found = []
    for name, attempt in _constructive_cases():
        try:
            attempt()
        except (PreconditionViolated, EmbedNotFound):
            continue
        found.append((name, attempt))
    source = inspect.getsource(embed._greedy_subtree)
    assert source.count("used.add(img)") == 1
    namespace = dict(vars(embed))
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace("used.add(img)", "pass"), "<mutant>", "exec", flags), namespace)
    monkeypatch.setattr(embed, "_greedy_subtree", namespace["_greedy_subtree"])
    broken = {}
    for name, attempt in found:
        try:
            attempt()
        except InternalInvariantError:
            broken[name] = broken.get(name, 0) + 1
    assert set(broken) == {name for name, _ in found}, broken


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


# Golden digests of the oracle's (status, mapping, nodes_explored).  The
# search order decides which embedding is found first and how many nodes it
# takes, so any change to the root, the BFS order, the sibling order, the
# symmetry cuts or the host order moves them.  The fixed part covers every
# tree on at most 8 vertices against the stored small hosts and the twin-rich
# families, unpinned and with one pin; the seeded part covers 300 `2k3` sweep
# instances, built as `lab.run_trial` builds them, so it also moves when the
# sweep's corpus does.
_ORACLE_FIXED_DIGEST = "8bfaf7028ca899946203433720329846c90898122aa76f9a6530b16bf8cf4296"
_ORACLE_SWEEP_DIGEST = "0ce11c66ac69064f8f4a918b696b42e0ddb9b336fa867006636344a7453f6619"


def _oracle_fixed_pairs():
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


def _oracle_sweep_pairs():
    cfg = lab.ExperimentConfig(
        conjecture="2k3", k_values=(10, 11, 12), tree_max_degree=4, trials=300, seed=4242
    )
    for idx in range(cfg.trials):
        _, _, g, t = lab.trial_instance(cfg, idx)
        yield g, t, None


def _oracle_digest(pairs) -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for g, t, pins in pairs:
        out = brute_force_embed(g, t, pins=pins)
        mapping = out.embedding.mapping if out.embedding is not None else None
        h.update(repr((out.status, mapping, out.nodes_explored)).encode())
        count += 1
    return h.hexdigest(), count


def test_oracle_outcomes_pinned():
    digest, count = _oracle_digest(_oracle_fixed_pairs())
    assert count > 13000
    assert digest == _ORACLE_FIXED_DIGEST


def test_oracle_sweep_outcomes_pinned():
    assert _oracle_digest(_oracle_sweep_pairs()) == (_ORACLE_SWEEP_DIGEST, 300)


def _reference_attempts(g, t):
    """pipeline_attempts' calls as it made them by copying G - x with
    `induced` and reading `components()` and the 2-colouring off the copy."""
    if g.n == 0 or t.n == 0:
        return []
    x = max(range(g.n), key=lambda v: (g.degree(v), -v))
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
        parts = _two_sides(sub, sub.component_layers())
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
        gen_three_pool_host(4)[0],
        gen_bipartite_apex_host()[0],
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
