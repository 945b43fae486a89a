"""Graph-core tests: peripheries, cuts, covers, matchings, walks, paths."""

import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed.errors import Disconnected, ExactCapExceeded, PreconditionViolated
from treebed.generators import gen_random_connected_graph, gen_random_graph_min_degree
from treebed.graph import (
    Graph,
    VertexSet,
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
    big = Graph.complete(25)
    with pytest.raises(ExactCapExceeded):
        cut_density(big, exact_cap=20)
    h = cut_density(big, mode="heuristic")
    assert not h.exact and h.witness.density >= 1  # upper bound can only exceed truth


def test_is_cut_dense():
    assert is_cut_dense(TWO_TRIANGLES, 0).is_dense  # every graph is 0-cut-dense
    v = is_cut_dense(TWO_TRIANGLES, Fraction(1, 10))
    assert not v.is_dense and v.conclusive and v.witness.crossing_edges == 0
    assert is_cut_dense(Graph.complete(6), 1).is_dense
    # heuristic: a False is conclusive, a True is not
    hv = is_cut_dense(TWO_TRIANGLES, Fraction(1, 10), mode="heuristic")
    assert not hv.is_dense and hv.conclusive
    hv2 = is_cut_dense(Graph.complete(6), Fraction(1, 2), mode="heuristic")
    assert hv2.is_dense and not hv2.conclusive


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


def test_vertex_cover_budget():
    from treebed.errors import SearchBudgetExceeded

    # K10 needs 9 cover vertices; bound 8 is infeasible but the edge-count
    # lower bound cannot prune it at the root, so the search must branch
    with pytest.raises(SearchBudgetExceeded):
        vertex_cover_at_most(Graph.complete(10), 8, budget=5)


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
    r = path_in_range(Graph.complete(6), 0, 5, 2, 3, seed=0)
    assert r.path is not None and 3 <= len(r.path) - 1 <= 5
    # C7, adjacent endpoints: only lengths 1 and 6 exist (derived)
    r = path_in_range(C7, 0, 1, 5, 1, seed=0)
    assert r.path is not None and len(r.path) - 1 == 6
    r = path_in_range(C7, 0, 1, 2, 1, seed=0)
    assert r.path is None and r.conclusive


def test_path_search_budget_spent_only_on_admissible_steps():
    # 0-6-5-4-3-2-1 places exactly 7 vertices; entering z = 1 early, where
    # it cannot close a 6-edge path, must not spend the budget
    r = path_in_range(C7, 0, 1, 5, 1, seed=0, dfs_budget=7)
    assert r.path == (0, 6, 5, 4, 3, 2, 1) and r.conclusive
    r = path_in_range(C7, 0, 1, 5, 1, seed=0, dfs_budget=6)
    assert r.path is None and not r.conclusive


def test_path_search_deeper_than_recursion_limit():
    assert sys.getrecursionlimit() < 2000
    c3000 = Graph(3000, [(i, (i + 1) % 3000) for i in range(3000)])
    for z in (2000, 1000):  # reached the long way round on either side
        r = path_in_range(c3000, 0, z, 1999, 1, seed=0)
        assert r.path is not None and len(r.path) - 1 == 2000 and r.conclusive


def test_path_in_range_distance_proof():
    p9 = Graph(9, [(i, i + 1) for i in range(8)])
    r = path_in_range(p9, 0, 8, 2, 3, seed=0)  # distance 8 > 5: provably absent
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
