"""Oracle soundness against a deliberately naive reference embedder.

The production oracle prunes by degree and child counts and cuts symmetric
sibling branches and host twins; this reference does none of that, so
verdict agreement over the complete small corpus independently certifies
those cuts.  The corpus hosts rarely contain twins, so the twin cut is also
checked on twin-rich hosts: the extremal families, complete graphs, and
corpus hosts given a true and a false twin of one vertex.
"""

import random
from itertools import combinations, permutations

import pytest

from treebed.corpus import (
    all_trees_up_to,
    connected_hosts_up_to_5,
    host_corpus,
    sampled_hosts_6_to_8,
)
from treebed.embed import Embedding, _host_twins, brute_force_embed
from treebed.generators import (
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_random_tree,
    gen_two_cliques_apex,
    gen_two_cliques_apex_grown,
)
from treebed.graph import Graph
from treebed.trees import Tree, _search_plan


def _naive_embeds(g: Graph, t: Tree, pins: dict | None = None) -> bool:
    """Plain backtracking: BFS order by vertex id, every unused neighbour tried."""
    pins = pins or {}
    if t.n > g.n:
        return False
    root = min(pins) if pins else 0
    rv = t.rooted(root)
    order = list(rv.order)
    parent = [None if v == root else rv.parent[v] for v in order]

    img: dict[int, int] = {}
    used = set()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        if parent[i] is None:
            cands = range(g.n)
        else:
            cands = g.neighbors(img[parent[i]])
        for h in cands:
            if h in used:
                continue
            if v in pins and pins[v] != h:
                continue
            img[v] = h
            used.add(h)
            if place(i + 1):
                return True
            used.discard(h)
            del img[v]
        return False

    return place(0)


def test_oracle_agrees_with_naive_reference():
    hosts = [g for g in connected_hosts_up_to_5()]
    hosts += [g for g in sampled_hosts_6_to_8(seed=2024) if g.n <= 7][:40]
    trees = [t for t in all_trees_up_to(7)]
    pairs = 0
    for g in hosts:
        for t in trees:
            if t.n > g.n:
                continue
            pairs += 1
            out = brute_force_embed(g, t)
            want = _naive_embeds(g, t)
            assert out.status in ("found", "not_found")
            got = out.status == "found"
            assert got == want, (
                f"oracle {'found' if got else 'not_found'} but reference says "
                f"{'embeddable' if want else 'impossible'} "
                f"(host n={g.n} m={g.edge_count}, tree n={t.n})"
            )
    assert pairs > 700


def test_oracle_agrees_with_naive_reference_under_pins():
    hosts = [g for g in connected_hosts_up_to_5() if g.n >= 3]
    trees = [t for t in all_trees_up_to(5) if t.n >= 2]
    checked = 0
    for g in hosts:
        for t in trees:
            if t.n > g.n:
                continue
            for tv in range(t.n):
                for hv in range(g.n):
                    pins = {tv: hv}
                    out = brute_force_embed(g, t, pins=Embedding.from_dict(pins))
                    want = _naive_embeds(g, t, pins)
                    assert (out.status == "found") == want, (
                        f"pin {tv}->{hv} disagreement on host n={g.n} m={g.edge_count}, "
                        f"tree n={t.n}"
                    )
                    checked += 1
    assert checked > 2000


def _lower_twins(adj: list[int], pinned: set) -> list[int]:
    """The twin table built afresh for one call: per host vertex, the mask of
    its twins with smaller ids, 0 if pinned, with pinned vertices left out of
    every class.  False twins share the open neighbourhood adj[h], true twins
    the closed one adj[h] | 1 << h, and one dict holds both kinds of key."""
    lower = [0] * len(adj)
    seen: dict[int, int] = {}
    for h, nb in enumerate(adj):
        if h in pinned:
            continue
        bit = 1 << h
        false_twins, true_twins = seen.get(nb, 0), seen.get(nb | bit, 0)
        lower[h] = false_twins | true_twins
        seen[nb], seen[nb | bit] = false_twins | bit, true_twins | bit
    return lower


def _with_twin(g: Graph, v: int, true_twin: bool) -> Graph:
    """g plus a vertex g.n copying v's neighbourhood (and adjacent to v if true)."""
    nbrs = list(g.neighbors(v)) + ([v] if true_twin else [])
    return Graph(g.n + 1, list(g.edges()) + [(w, g.n) for w in nbrs])


def _twin_rich_hosts() -> list[Graph]:
    hosts = [
        gen_complete_bipartite(1, 4),
        gen_complete_bipartite(2, 3),
        gen_complete_bipartite(2, 4),
        gen_complete_bipartite(3, 3),
        gen_two_cliques_apex(6),
        gen_two_cliques_apex_grown(6),
        gen_clique_chain_apex(8, 2),
        gen_clique_chain_apex(10, 2),
        Graph.complete(5),
        Graph.complete(7),
    ]
    for g in hosts:
        assert any(_lower_twins(g.masks(), set())), "host without twins"
    return hosts


def _check(g: Graph, t: Tree, pins: dict) -> None:
    out = brute_force_embed(g, t, pins=Embedding.from_dict(pins) if pins else None)
    want = _naive_embeds(g, t, pins)
    assert out.status in ("found", "not_found")
    assert (out.status == "found") == want, (
        f"pins {pins} disagreement on host n={g.n} edges={g.edges()}, tree {t.edges}"
    )


def test_lower_twins_classes():
    # K_{2,3}: {0,1} and {2,3,4} are false twins; K_3: all true twins
    assert list(_host_twins(gen_complete_bipartite(2, 3), ())) == [0, 1, 0, 4, 12]
    assert list(_host_twins(Graph.complete(3), ())) == [0, 1, 3]
    # pinned vertices leave their class; the rest stay twins
    assert list(_host_twins(gen_complete_bipartite(2, 3), (3,))) == [0, 1, 0, 0, 4]
    # the path on 4 vertices has none
    assert list(_host_twins(Graph(4, [(0, 1), (1, 2), (2, 3)]), ())) == [0] * 4


def _random_hosts():
    """The seeded hosts of `_reference_cases` in tests/test_graph.py: empty
    graphs, masks wider than 64 bits, and random graphs of every density."""
    rng = random.Random(90210)
    yield Graph(0, [])
    yield Graph(1, [])
    yield Graph(5, [])
    yield Graph(70, [(u, v) for u, v in combinations(range(60), 2) if rng.random() < 0.08])
    yield Graph(70, [(i, i + 1) for i in range(0, 68, 2)])
    for _ in range(40):
        n = rng.randrange(2, 24)
        p = rng.choice((0.1, 0.3, 0.6, 0.9))
        yield Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def test_cached_twin_table_with_pins_masked_matches_the_per_call_table():
    rng = random.Random(22)
    hosts = host_corpus() + _twin_rich_hosts() + list(_random_hosts())
    with_twins = pairs = 0
    for g in hosts:
        adj = g.masks()
        table = g.lower_twins()
        assert list(table) == _lower_twins(adj, set()) and g.lower_twins() is table
        with_twins += any(table)
        for h in range(g.n):
            assert list(_host_twins(g, (h,))) == _lower_twins(adj, {h}), (g.edges(), h)
        for _ in range(20 if g.n >= 2 else 0):
            pins = rng.sample(range(g.n), 2)
            assert list(_host_twins(g, pins)) == _lower_twins(adj, set(pins)), (g.edges(), pins)
            pairs += 1
    assert with_twins >= 15 and pairs >= 1500


def test_twin_cut_agrees_with_naive_reference():
    hosts = _twin_rich_hosts()
    corpus = connected_hosts_up_to_5()
    corpus += [g for g in sampled_hosts_6_to_8(seed=2024) if g.n <= 7][:40]
    for g in corpus:
        for true_twin in (True, False):
            hosts.append(_with_twin(g, 0, true_twin))
    trees = all_trees_up_to(7)
    pairs = 0
    for g in hosts:
        for t in trees:
            if t.n <= g.n:
                _check(g, t, {})
                pairs += 1
    assert pairs > 2800


def test_twin_cut_agrees_with_naive_reference_under_one_pin():
    trees = all_trees_up_to(7)
    checked = 0
    for g in _twin_rich_hosts():
        for t in trees:
            if t.n > g.n:
                continue
            for tv in range(t.n):
                for hv in range(g.n):
                    _check(g, t, {tv: hv})
                    checked += 1
    assert checked > 6500


def test_twin_cut_agrees_with_naive_reference_under_two_pins():
    # every pin pair, so pins land inside twin classes and split them
    hosts = [
        gen_complete_bipartite(2, 3),
        gen_two_cliques_apex(6),
        gen_clique_chain_apex(8, 2),
        Graph.complete(5),
    ]
    trees = [t for t in all_trees_up_to(5) if t.n >= 2]
    checked = 0
    for g in hosts:
        for t in trees:
            if t.n > g.n:
                continue
            for tv1, tv2 in combinations(range(t.n), 2):
                for hv1, hv2 in permutations(range(g.n), 2):
                    if tv2 in t.neighbors(tv1) and not g.has_edge(hv1, hv2):
                        continue  # the oracle rejects such pins as a precondition
                    _check(g, t, {tv1: hv1, tv2: hv2})
                    checked += 1
    assert checked > 4500


def _reference_plan(t: Tree, pin_map: dict) -> tuple[list[int], ...]:
    """The oracle's search plan built the long way: a RootedView, AHU codes
    interned over its reversed BFS order, and a position dict."""
    root = min(pin_map) if pin_map else max(range(t.n), key=lambda v: (t.degree(v), -v))
    rv = t.rooted(root)
    intern: dict[tuple, int] = {}
    code = [0] * t.n
    for v in reversed(rv.order):
        code[v] = intern.setdefault(tuple(sorted(code[c] for c in rv.children[v])), len(intern))
    contains_pin = [False] * t.n
    for v in reversed(rv.order):
        contains_pin[v] = v in pin_map or any(contains_pin[c] for c in rv.children[v])
    order, pos_of, parent_pos, symprev = [root], {root: 0}, [-1], [-1]
    for v in order:
        prev_free: dict[int, int] = {}
        for c in sorted(rv.children[v], key=lambda c: (code[c], c)):
            pos_of[c] = len(order)
            order.append(c)
            parent_pos.append(pos_of[v])
            if contains_pin[c]:
                symprev.append(-1)
            else:
                symprev.append(prev_free.get(code[c], -1))
                prev_free[code[c]] = pos_of[c]
    tdeg = [t.degree(v) for v in order]
    nchild = [len(rv.children[v]) for v in order]
    return order, parent_pos, tdeg, nchild, symprev


def test_search_plan_matches_rooted_view_reference():
    checked = 0
    for t in all_trees_up_to(10):
        pin_maps = [{}] + [{tv: 0} for tv in range(t.n)]
        if t.n <= 8:  # a second pin below the root marks whole sibling subtrees
            pin_maps += [{a: 0, b: 1} for a, b in combinations(range(t.n), 2)]
        for pin_map in pin_maps:
            assert _search_plan(t, pin_map) == _as_tuples(_reference_plan(t, pin_map)), (
                t.edges, pin_map
            )
            checked += 1
    assert checked > 3000


def _as_tuples(plan) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, plan))


def _plan_trees() -> list[Tree]:
    rng = random.Random(21)
    trees = all_trees_up_to(10)
    for seed in range(3000):
        trees.append(gen_random_tree(rng.randrange(1, 41), rng.randrange(2, 7), seed))
    return trees


def test_cached_search_plan_matches_fresh_plans():
    for t in _plan_trees():
        if t.n == 0:
            continue
        plan = t.search_plan({})
        assert plan == _as_tuples(_search_plan(t, {})) == _as_tuples(_reference_plan(t, {}))
        assert t.search_plan({}) is plan  # built once per tree


def test_pinned_plans_are_never_served_from_the_cache():
    moved = 0
    for t in _plan_trees()[::10]:
        if t.n == 0:
            continue
        free = t.search_plan({})
        for tv in range(t.n):
            pin_map = {tv: 0}
            got = t.search_plan(pin_map)
            assert _as_tuples(got) == _as_tuples(_reference_plan(t, pin_map)), (t.edges, tv)
            moved += _as_tuples(got) != free
        assert t.search_plan({}) is free  # the pinned calls left the cache alone
    assert moved > 1000
