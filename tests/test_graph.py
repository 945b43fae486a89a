"""Graph-core tests: peripheries, cuts, covers, matchings, walks, paths."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed import graph
from treebed.corpus import host_corpus
from treebed.errors import Disconnected, PreconditionViolated
from treebed.generators import gen_random_connected_graph, gen_random_graph_min_degree
from treebed.graph import (
    Graph,
    VertexSet,
    _two_sides,
    bipartite_matching_lower,
    bipartition,
    cut_density,
    diameter,
    is_cut_dense,
    path_in_range,
    periphery,
    second_neighbourhood,
    short_even_walk,
    vertex_cover_at_most,
)

P3 = Graph(3, [(0, 1), (1, 2)])
K4 = Graph.complete(4)
C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
C7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
# two disjoint K11: a zero-density cut on more than 20 vertices
TWO_K11 = Graph(22, list(combinations(range(11), 2)) + list(combinations(range(11, 22), 2)))


def test_graph_validation():
    with pytest.raises(PreconditionViolated):
        Graph(3, [(0, 0)])
    with pytest.raises(PreconditionViolated):
        Graph(3, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0)])  # duplicate edges collapse
    assert g.edge_count == 1


def test_edge_list_roundtrip():
    text = "# comment\n3 2\n0 1\n\n1 2  # trailing\n"
    g = Graph.from_edge_list_text(text)
    assert g == P3
    assert Graph.from_edge_list_text(g.to_edge_list_text()) == g
    with pytest.raises(PreconditionViolated):
        Graph.from_edge_list_text("3 1\n1 0\n")  # u < v required


def test_periphery_examples():
    assert periphery(P3, VertexSet([1], 3), 1).members == (0, 2)
    assert periphery(K4, VertexSet([0, 1], 4), 2).members == (2, 3)
    assert periphery(K4, VertexSet([0, 1], 4), 0).members == (0, 1, 2, 3)


def test_second_neighbourhood_examples():
    assert second_neighbourhood(P3, 0).members == (2,)
    assert second_neighbourhood(K4, 0).members == (1, 2, 3)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert second_neighbourhood(star, 0).members == ()


def test_cut_density_examples():
    assert cut_density(K4).witness.density == 1
    res = cut_density(TWO_TRIANGLES)
    assert res.witness.density == 0
    assert set(res.witness.side_a.members) in ({0, 1, 2}, {3, 4, 5})
    # derived by enumerating all three bipartitions of the path
    w = cut_density(P3).witness
    assert w.density == Fraction(1, 2)
    assert w.side_a.members == (0,) and w.side_b.members == (1, 2)


def test_cut_density_cap_and_modes():
    # no order cap: K25 is exact, as its root bound already equals the
    # density of A = {0}
    h = cut_density(Graph.complete(25))
    assert h.exact and h.witness.density == 1 and h.witness.side_a.members == (0,)


def test_cut_density_method_follows_the_order():
    # one exact search at every order, 20 vertices or more
    k20 = cut_density(Graph.complete(20))
    assert k20.exact and k20.witness.density == 1
    # above 20 vertices too, and the zero cut of TWO_K11 is a whole clique
    k21 = cut_density(Graph.complete(21))
    assert k21.exact and k21.witness.density == 1
    res = cut_density(TWO_K11)
    assert res.exact and res.witness.density == 0
    assert set(res.witness.side_a.members) in (set(range(11)), set(range(11, 22)))


def test_is_cut_dense():
    assert is_cut_dense(TWO_TRIANGLES, 0).is_dense  # every graph is 0-cut-dense
    v = is_cut_dense(TWO_TRIANGLES, Fraction(1, 10))
    assert not v.is_dense and v.conclusive and v.witness.crossing_edges == 0
    assert is_cut_dense(Graph.complete(6), 1).is_dense
    # above 20 vertices a sparse verdict is conclusive
    hv = is_cut_dense(TWO_K11, Fraction(1, 10))
    assert not hv.is_dense and hv.conclusive and hv.witness.crossing_edges == 0
    # and so is a dense one, whose search finished within its budget
    hv2 = is_cut_dense(Graph.complete(25), Fraction(1, 2))
    assert hv2.is_dense and hv2.conclusive and hv2.witness is None


def test_is_cut_dense_conclusive_above_20_vertices():
    # with rho as its ceiling the search finishes on each of these dense
    # graphs, so their dense verdicts are conclusive
    for n in (21, 30, 45):
        g = gen_random_connected_graph(n, n * (n - 1) // 4, seed=n)
        v = is_cut_dense(g, Fraction(1, 100))
        assert v.is_dense and v.conclusive and v.witness is None
    assert is_cut_dense(Graph.complete(20), Fraction(1, 2)).conclusive


def test_vertex_cover_examples():
    star5 = Graph(6, [(0, i) for i in range(1, 6)])
    assert vertex_cover_at_most(star5, 1).members == (0,)
    # derived by brute force over all subsets of C5
    for size in range(3):
        assert not any(
            all(u in s or v in s for u, v in C5.edges())
            for s in map(set, combinations(range(5), size))
        )
    assert vertex_cover_at_most(C5, 2) is None
    got = vertex_cover_at_most(C5, 3)
    assert got is not None and len(got) <= 3
    assert all(u in got or v in got for u, v in C5.edges())
    assert vertex_cover_at_most(Graph(3, []), 0).members == ()


def test_vertex_cover_deep_search_is_iterative():
    # a 1,500-edge perfect matching with bound 1,500 takes one endpoint per
    # edge, 1,500 nodes deep: past the default recursion limit
    n = 3000
    g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    assert n // 2 > sys.getrecursionlimit()
    got = vertex_cover_at_most(g, n // 2)
    assert got is not None and got.members == tuple(range(0, n, 2))
    assert vertex_cover_at_most(g, n // 2 - 1) is None


def test_vertex_cover_budget(monkeypatch):
    from treebed.errors import SearchBudgetExceeded

    # K10 needs 9 cover vertices; bound 8 is infeasible but the edge-count
    # lower bound cannot prune it at the root, so the search must branch
    monkeypatch.setattr(graph, "COVER_NODE_BUDGET", 5)
    with pytest.raises(SearchBudgetExceeded):
        vertex_cover_at_most(Graph.complete(10), 8)


def test_bipartite_matching_examples():
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert len(bipartite_matching_lower(k33, VertexSet([0, 1, 2], 6), VertexSet([3, 4, 5], 6))) == 3
    fan = Graph(4, [(0, 1), (0, 2), (0, 3)])
    m = bipartite_matching_lower(fan, VertexSet([0], 4), VertexSet([1, 2, 3], 4))
    assert len(m) == 1  # 1 >= 3/3
    g = Graph(6, [(0, 2), (0, 3), (1, 4), (1, 5)])
    m = bipartite_matching_lower(g, VertexSet([0, 1], 6), VertexSet([2, 3, 4, 5], 6))
    assert len(m) == 2  # derived: no matching can exceed |X| = 2, and 2 = |Y|/d


def test_bipartite_matching_long_augmenting_chain():
    # x_u ~ y_{u-1}, y_u: each new x first tries y_{u-1} and walks the whole
    # chain back to x_0 before it finds y_u free, 2000 levels deep
    n = 2000
    xs, ys = range(n), range(n, 2 * n)
    g = Graph(2 * n, [(u, n + u) for u in xs] + [(u, n + u - 1) for u in xs if u])
    m = bipartite_matching_lower(g, VertexSet(xs, g.n), VertexSet(ys, g.n))
    assert m.edges == tuple((u, n + u) for u in xs)


def test_bipartite_matching_preconditions():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionViolated):
        bipartite_matching_lower(g, VertexSet([0, 1], 4), VertexSet([2, 3], 4))
    g2 = Graph(3, [(0, 1)])
    with pytest.raises(PreconditionViolated):
        bipartite_matching_lower(g2, VertexSet([0], 3), VertexSet([1, 2], 3))


def test_short_even_walk_examples():
    assert short_even_walk(P3, 0, 2) == (0, 1, 2)
    walk = short_even_walk(C5, 0, 1)
    assert walk is not None and (len(walk) - 1) == 4  # derived: parity BFS
    k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert short_even_walk(k22, 0, 2) is None
    with pytest.raises(PreconditionViolated):
        short_even_walk(P3, 1, 1)


def test_diameter_examples():
    assert diameter(Graph.complete(5)) == 1
    assert diameter(C6) == 3
    assert (3 * 6) // (2 + 1) - 1 == 5  # the bound C6 must respect
    p5 = Graph(5, [(i, i + 1) for i in range(4)])
    assert diameter(p5) == 4
    with pytest.raises(Disconnected):
        diameter(TWO_TRIANGLES)


def test_bipartition_examples():
    parts = bipartition(C6)
    assert parts is not None
    a, b = parts
    assert len(a) == len(b) == 3
    assert all((u in a) != (v in a) for u, v in C6.edges())
    assert bipartition(C5) is None
    e3 = Graph(3, [])
    assert bipartition(e3) == (VertexSet([0, 1, 2], 3), VertexSet([], 3))


def test_path_in_range_examples():
    r = path_in_range(Graph.complete(6), 0, 5, 2, 3)
    assert r.path is not None and 3 <= len(r.path) - 1 <= 5
    # C7, adjacent endpoints: only lengths 1 and 6 exist (derived)
    r = path_in_range(C7, 0, 1, 5, 1)
    assert r.path is not None and len(r.path) - 1 == 6
    r = path_in_range(C7, 0, 1, 2, 1)
    assert r.path is None and r.conclusive


def test_path_search_budget_spent_only_on_admissible_steps(monkeypatch):
    # 0-6-5-4-3-2-1 places exactly 7 vertices; entering z = 1 early, where
    # it cannot close a 6-edge path, must not spend the budget
    monkeypatch.setattr(graph, "PATH_NODE_BUDGET", 7)
    r = path_in_range(C7, 0, 1, 5, 1)
    assert r.path == (0, 6, 5, 4, 3, 2, 1) and r.conclusive
    monkeypatch.setattr(graph, "PATH_NODE_BUDGET", 6)
    r = path_in_range(C7, 0, 1, 5, 1)
    assert r.path is None and not r.conclusive


def test_path_search_deeper_than_recursion_limit():
    assert sys.getrecursionlimit() < 2000
    c3000 = Graph(3000, [(i, (i + 1) % 3000) for i in range(3000)])
    for z in (2000, 1000):  # reached the long way round on either side
        r = path_in_range(c3000, 0, z, 1999, 1)
        assert r.path is not None and len(r.path) - 1 == 2000 and r.conclusive


def test_path_in_range_distance_proof():
    p9 = Graph(9, [(i, i + 1) for i in range(8)])
    r = path_in_range(p9, 0, 8, 2, 3)  # distance 8 > 5: provably absent
    assert r.path is None and r.conclusive


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 12), st.integers(0, 4))
def test_periphery_monotone_property(seed, n, d):
    g = gen_random_connected_graph(n, seed % (2 * n), seed)
    s = VertexSet([v for v in range(n) if (seed >> v) & 1], n)
    hi = periphery(g, s, d + 1).as_set()
    lo = periphery(g, s, d).as_set()
    assert hi <= lo


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_cut_witness_is_minimal_property(seed, n):
    g = gen_random_connected_graph(n, seed % (n + 3), seed)
    w = cut_density(g).witness
    amask = sum(1 << v for v in w.side_a.members)
    for sub in range(1, 1 << (n - 1)):
        mask = (sub << 1) | 1
        if mask == (1 << n) - 1:
            continue
        cross = sum(1 for u, v in g.edges() if (mask >> u & 1) != (mask >> v & 1))
        asz = bin(mask).count("1")
        assert w.density <= Fraction(cross, asz * (n - asz))


# ---------------------------------------------------------------------------
# The bitmask representation against a reference kept as sorted sets


def _reference(n, edges):
    """Every accessor's expected value, from neighbour sets and plain BFS."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    colour, comps, odd = [-1] * n, [], False
    for s in range(n):
        if colour[s] >= 0:
            continue
        colour[s], comp, queue = 0, [s], [s]
        for v in queue:
            for w in sorted(nbrs[v]):
                if colour[w] < 0:
                    colour[w] = colour[v] ^ 1
                    comp.append(w)
                    queue.append(w)
                odd = odd or colour[w] == colour[v]
        comps.append(tuple(sorted(comp)))
    return {
        "adjacency": tuple(tuple(sorted(s)) for s in nbrs),
        "edges": tuple(sorted((u, v) for u in range(n) for v in nbrs[u] if u < v)),
        "degrees": tuple(len(s) for s in nbrs),
        "components": comps,
        "bipartition": None if odd else tuple(
            VertexSet([v for v in range(n) if colour[v] == c], n) for c in (0, 1)
        ),
        "masks": tuple(sum(1 << w for w in s) for s in nbrs),
    }


def _assert_matches_reference(g, n, edges):
    ref = _reference(n, edges)
    assert g.n == n
    assert g.adjacency == ref["adjacency"]
    assert all(g.neighbors(v) == ref["adjacency"][v] for v in range(n))
    assert g.edges() == ref["edges"] and g.edge_count == len(ref["edges"])
    assert g.degrees() == ref["degrees"]
    assert [g.degree(v) for v in range(n)] == list(ref["degrees"])
    assert g.min_degree() == min(ref["degrees"], default=0)
    assert g.max_degree() == max(ref["degrees"], default=0)
    assert g.degree_order() == tuple(sorted(range(n), key=lambda v: (-ref["degrees"][v], v)))
    assert g.masks() == ref["masks"]
    assert all(
        g.has_edge(u, v) == (v in ref["adjacency"][u]) for u in range(n) for v in range(-1, n + 2)
    )
    assert g.components() == ref["components"]
    assert g.is_connected() == (len(ref["components"]) <= 1)
    assert bipartition(g) == ref["bipartition"]
    text = g.to_edge_list_text()
    assert text == "".join(f"{u} {v}\n" for u, v in [(n, len(ref["edges"])), *ref["edges"]])
    assert Graph.from_edge_list_text(text) == g
    from_masks = Graph._from_masks(list(ref["masks"]))
    assert from_masks == g and hash(from_masks) == hash(g) == hash((n, ref["edges"]))


def _reference_cases():
    rng = random.Random(90210)
    yield 0, []
    yield 1, []
    yield 5, []
    # 70 vertices: masks wider than 64 bits; vertices 60..69 stay isolated
    yield 70, [(u, v) for u, v in combinations(range(60), 2) if rng.random() < 0.08]
    yield 70, [(i, i + 1) for i in range(0, 68, 2)]  # a matching: bipartite, many components
    for _ in range(40):
        n = rng.randrange(2, 24)
        p = rng.choice((0.1, 0.3, 0.6, 0.9))
        yield n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]


def test_representation_matches_sorted_set_reference():
    rng = random.Random(5)
    for n, edges in _reference_cases():
        # edges in any order and orientation, with repeats, build the same graph
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        shuffled += shuffled[: len(shuffled) // 3]
        rng.shuffle(shuffled)
        g = Graph(n, shuffled)
        _assert_matches_reference(g, n, edges)
        for _ in range(6):
            keep = sorted(v for v in range(n) if rng.random() < rng.choice((0.3, 0.7, 0.95)))
            sub, back = g.induced(reversed(keep))
            assert back == tuple(keep)
            idx = {v: i for i, v in enumerate(keep)}
            sub_edges = [(idx[u], idx[v]) for u, v in edges if u in idx and v in idx]
            _assert_matches_reference(sub, len(keep), sub_edges)


def test_degree_classes_match_sorted_order():
    rng = random.Random(31)
    cases = [Graph(0, []), Graph(1, []), Graph(6, [(0, 1), (1, 2)]), Graph(70, [(3, 65)])]
    cases += host_corpus()
    cases += [
        gen_random_connected_graph(rng.randrange(2, 30), rng.randrange(0, 40), s) for s in range(40)
    ]
    cases += [Graph(n, edges) for n, edges in _reference_cases()]
    for g in cases:
        deg = g.degrees()
        classes, atleast = g.degree_classes()
        bits = [v for c in classes for v in range(g.n) if c >> v & 1]
        assert bits == sorted(range(g.n), key=lambda v: (-deg[v], v))
        assert classes == tuple(
            sum(1 << v for v in range(g.n) if deg[v] == d) for d in sorted(set(deg), reverse=True)
        )
        assert len(atleast) == g.n + 1
        for d, mask in enumerate(atleast):
            assert mask == sum(1 << v for v in range(g.n) if deg[v] >= d)


def test_induced_rejects_ids_outside_the_graph():
    with pytest.raises(PreconditionViolated):
        P3.induced([0, 3])
    with pytest.raises(PreconditionViolated):
        P3.induced([-1, 0])


def _is_symmetric_and_loop_free(g):
    masks = g.masks()
    return all(
        m >> g.n == 0
        and not m >> v & 1
        and all(masks[w] >> v & 1 for w in range(g.n) if m >> w & 1)
        for v, m in enumerate(masks)
    )


def test_mask_built_graphs_are_symmetric_and_loop_free(monkeypatch):
    # Graph._from_masks skips validation; record every graph it builds, with
    # its caller, while each of its callers runs
    from treebed import lab
    from treebed.decompose import refine_cut_dense

    built = []
    inner = Graph._from_masks.__func__

    def recording(cls, masks):
        g = inner(cls, masks)
        built.append((sys._getframe(1).f_code.co_name, g))
        return g

    monkeypatch.setattr(Graph, "_from_masks", classmethod(recording))
    for n, delta in [(1, 0), (8, 3), (16, 7), (30, 12), (70, 5)]:
        for seed in range(4):
            gen_random_graph_min_degree(n, delta, seed)
    lab.run_sweep(
        lab.ExperimentConfig(
            conjecture="2k3", k_values=(10, 11, 12), tree_max_degree=4, trials=40, seed=3
        )
    )
    blocks = list(combinations(range(6), 2)) + list(combinations(range(8, 14), 2))
    g = Graph(14, blocks + [(5, 6), (6, 7), (7, 8)])
    res = refine_cut_dense(
        g, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 2, rho=Fraction(1, 10), relax_delta=True
    )
    assert res.log and res.removed_vertices
    callers = {name for name, _ in built}
    assert callers == {
        "gen_random_graph_min_degree", "_host_for_trial", "induced", "refine_cut_dense"
    }
    assert all(_is_symmetric_and_loop_free(g) for _, g in built)


# ---------------------------------------------------------------------------
# Components of g minus a vertex set, walked on masks


def _minus_reference(g, removed):
    """Components and 2-colouring of g minus `removed` by copying the rest with
    `induced` and mapping `components()` and `bipartition()` back."""
    sub, back = g.induced(v for v in range(g.n) if not removed >> v & 1)
    comps = [sum(1 << back[i] for i in comp) for comp in sub.components()]
    parts = bipartition(sub)
    if parts is None:
        return comps, None
    return comps, tuple(VertexSet([back[i] for i in p], g.n) for p in parts)


def _minus_cases():
    for n, edges in _reference_cases():
        yield Graph(n, edges)
    hub = [(0, v) for v in range(1, 70)]
    yield Graph(70, hub + [(v, v + 1) for v in range(1, 69)])  # G - 0 is a path
    yield Graph(70, hub + [(v, v + 1) for v in range(1, 69, 2)])  # G - 0 is 35 edges
    yield Graph(70, hub + list(combinations(range(1, 8), 2)) + [(8, 9), (9, 10), (8, 10)])
    yield Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (1, 3), (4, 5)])
    yield C5
    yield C7


def test_component_layers_match_induced_reference():
    rng = random.Random(8)
    counts, two_colourable = set(), set()
    for g in _minus_cases():
        removals = [0] + [1 << x for x in range(g.n)]
        removals += [rng.getrandbits(g.n) for _ in range(3)]
        for removed in removals:
            parts = g.component_layers(removed)
            comps, sides = _minus_reference(g, removed)
            assert [comp for comp, _, _ in parts] == comps
            for comp, even, odd in parts:
                # disjoint layers, the least vertex on the even side
                assert even | odd == comp and not even & odd and even & -even == comp & -comp
            assert _two_sides(g, parts) == sides
            counts.add(min(len(comps), 3))
            two_colourable.add(sides is not None)
    assert counts == {0, 1, 2, 3} and two_colourable == {True, False}
