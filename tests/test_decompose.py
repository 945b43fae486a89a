"""Decomposition tests: richness, refinement, classification, rich decomposition."""

from fractions import Fraction
from itertools import combinations

import pytest

from treebed import checks, kernel
from treebed.decompose import (
    RichParams,
    classify_components,
    is_rich,
    is_rich_on_refined,
    refine_cut_dense,
    rho_preset,
    rich_decompose,
)
from treebed.errors import OverlappingComponents, PreconditionViolated
from treebed.generators import gen_random_graph_min_degree, gen_two_cliques_apex
from treebed.graph import Graph, VertexSet


def _clique_edges(vs):
    return [(u, v) for u, v in combinations(vs, 2)]


def test_is_rich_examples():
    k60 = Graph.complete(60)
    p = RichParams(Fraction(1, 2), Fraction(0), 100)
    rep = is_rich(k60, VertexSet(range(60), 60), p)
    assert rep.rich and rep.min_degree == 59
    two = Graph(120, _clique_edges(range(60)) + _clique_edges(range(60, 120)))
    rep = is_rich(two, VertexSet(range(120), 120), RichParams(Fraction(1, 2), Fraction(1, 10), 100))
    assert not rep.rich and not rep.cut_dense_ok  # zero cut found, conclusive
    k40 = Graph.complete(40)
    rep = is_rich(k40, VertexSet(range(40), 40), RichParams(Fraction(1, 2), Fraction(0), 100))
    assert not rep.rich and not rep.min_degree_ok


def test_rich_params_stay_exact():
    # a float threshold is refused up front, not deep inside the decomposition
    for c, rho in ((0.6, Fraction(1, 30)), (Fraction(1, 2), 0.1)):
        with pytest.raises(PreconditionViolated):
            RichParams(c, rho, 6)
    # an int converts, so derived thresholds such as eps = c/2 stay rational
    p = RichParams(1, 0, 6)
    assert (p.c, p.rho) == (1, 0) and type(p.c) is type(p.rho) is Fraction
    assert type(p.c / 2) is Fraction
    g = gen_two_cliques_apex(9)
    assert rich_decompose(g, 6, p) == rich_decompose(g, 6, RichParams(Fraction(1), Fraction(0), 6))


def test_refine_bridge_example():
    edges = _clique_edges(range(8)) + _clique_edges(range(8, 16)) + [(0, 8)]
    g = Graph(16, edges)
    res = refine_cut_dense(
        g, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 7,
        rho=Fraction(1, 50), relax_delta=True,
    )
    assert len(res.log) == 1 and res.log[0].crossing_edges_removed == 1
    assert res.removed_vertices == ()
    comps = res.graph.components()
    assert sorted(len(c) for c in comps) == [8, 8]
    assert res.certified_exact


def test_refine_already_dense():
    res = refine_cut_dense(Graph.complete(12), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2000), 12)
    assert not res.log and res.graph.n == 12


def test_refine_low_degree_middle():
    # two K6 blocks joined by a 2-vertex path: the middle drops out
    edges = _clique_edges(range(6)) + _clique_edges(range(8, 14))
    edges += [(5, 6), (6, 7), (7, 8)]
    g = Graph(14, edges)
    res = refine_cut_dense(
        g, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 2,
        rho=Fraction(1, 10), relax_delta=True,
    )
    assert set(res.removed_vertices) >= {6, 7}
    assert sorted(len(c) for c in res.graph.components()) == [6, 6]


def test_refine_preconditions():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated):
        refine_cut_dense(g, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 10)
    with pytest.raises(PreconditionViolated):
        refine_cut_dense(Graph.complete(6), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 5)


@pytest.mark.parametrize(
    "a, eps, delta, k",
    [(0, Fraction(1, 4), Fraction(1, 2000), 4), (Fraction(1, 2), -1, Fraction(1, 2000), 4),
     (Fraction(1, 2), Fraction(1, 4), 0, 4), (Fraction(1, 2), Fraction(1, 4), -1, 4),
     (Fraction(1, 2), Fraction(1, 4), Fraction(1, 2000), 0)],
    ids=["a-zero", "eps-negative", "delta-zero", "delta-negative", "k-zero"],
)
def test_refine_refuses_a_nonpositive_parameter(a, eps, delta, k):
    # each would otherwise pass the degree and order checks, or fail them
    # for the wrong reason (k = 0 read as "graph order above 100k"), and a
    # negative delta ended as an internal invariant failure
    with pytest.raises(PreconditionViolated, match="need a, eps, delta > 0 and k >= 1"):
        refine_cut_dense(Graph.complete(8), a, eps, delta, k, relax_delta=True)


def test_rho_presets():
    assert rho_preset(Fraction(1, 10)) == Fraction(1, 2_000_000)


def test_classify_two_cliques_apex():
    g = gen_two_cliques_apex(6)
    c1 = VertexSet(range(0, 3), g.n)
    c2 = VertexSet(range(3, 6), g.n)
    rep = classify_components(g, [c1, c2], s=2, t=2)
    assert 6 in rep.split_vertices  # the apex is 2-split
    assert rep.closed == (True, True)  # periphery beyond each clique is just the apex
    aff = rep.affinities[6]
    assert aff.residual_degree == 0 and aff.best_count == 3 and aff.second_count == 3
    whole = classify_components(g, [VertexSet(range(g.n), g.n)], s=2, t=2)
    assert all(a.residual_degree == 0 for a in whole.affinities)
    empty = classify_components(g, [], s=2, t=2)
    assert all(a.residual_degree == g.degree(a.vertex) for a in empty.affinities)
    with pytest.raises(OverlappingComponents):
        classify_components(g, [c1, c1], s=2, t=2)
    for s, t in ((-1, 2), (2, -1)):  # refused even with no component to take a periphery of
        with pytest.raises(PreconditionViolated, match="nonnegative"):
            classify_components(g, [], s=s, t=t)


def test_rich_decompose_two_cliques():
    edges = _clique_edges(range(20)) + _clique_edges(range(20, 40))
    g = Graph(40, edges)
    rd = rich_decompose(g, 20, RichParams(Fraction(1, 2), Fraction(0), 20))
    assert sorted(len(c) for c in rd.components) == [20, 20]
    assert len(rd.uncovered) == 0 and rd.coverage == 1
    sparse = gen_random_graph_min_degree(12, 2, seed=5)
    rd = rich_decompose(sparse, 30, RichParams(Fraction(1, 2), Fraction(0), 30))
    assert not rd.components and len(rd.uncovered) == 12


def test_rich_decompose_apex_host():
    # the tight host at k=60: with rho below the apex cut density (1/40) the
    # whole graph is genuinely rich and stays together; a larger rho severs
    # the cheaper clique side
    g = gen_two_cliques_apex(60)
    rd = rich_decompose(g, 60, RichParams(Fraction(1, 2), Fraction(1, 100), 60))
    assert [len(c) for c in rd.components] == [g.n]
    rd2 = rich_decompose(g, 60, RichParams(Fraction(1, 2), Fraction(1, 30), 60))
    assert len(rd2.components) == 2
    assert sorted(len(c) for c in rd2.components) == [39, 40]
    assert len(rd2.uncovered) == 0


def test_rich_decompose_reports_use_original_ids():
    for i in range(60):
        g, _, _, _, k, rho = checks.refine_instance(0, i)
        rd = rich_decompose(g, k, RichParams(Fraction(1, 2), rho, k))
        assert len(rd.reports) == len(rd.components)
        for comp, rep in zip(rd.components, rd.reports):
            assert rep.subgraph == comp
            assert rep.cover is None or rep.cover.as_set() <= comp.as_set()


def test_rich_on_refined_reuses_the_last_pass_verdicts():
    # is_rich_on_refined takes the cut verdict from refine's last pass instead
    # of cutting again; a fresh is_rich on the same component must agree
    cases = [checks.refine_instance(0, i) for i in range(40)]
    cases.append((gen_two_cliques_apex(60), Fraction(1, 2), Fraction(1, 8), Fraction(1, 4), 60,
                  Fraction(1, 30)))
    for g, a, eps, delta, k, rho in cases:
        try:
            refined = refine_cut_dense(g, a, eps, delta, k, rho=rho, relax_delta=True)
        except PreconditionViolated:
            continue
        p = RichParams(Fraction(1, 2), rho, k)
        for rcomp in refined.graph.components():
            orig = tuple(refined.vertices[i] for i in rcomp)
            rep = is_rich_on_refined(refined, rcomp, orig, g.n, p)
            fresh = is_rich(refined.graph, rcomp, p)
            assert (rep.cut_dense_ok, rep.cut_dense_conclusive, rep.cut_witness) == (
                fresh.cut_dense_ok, fresh.cut_dense_conclusive, fresh.cut_witness
            )
    with pytest.raises(PreconditionViolated):
        is_rich_on_refined(refined, rcomp, orig, g.n, RichParams(Fraction(1, 2), rho / 2, k))


def test_apex_host_pieces_are_certified():
    # every piece of the k = 60 apex host has more than 20 vertices, and the
    # search with rho as its ceiling finishes on each, so all are certified
    g = gen_two_cliques_apex(60)
    for rho in (Fraction(1, 100), Fraction(1, 30)):
        rd = rich_decompose(g, 60, RichParams(Fraction(1, 2), rho, 60))
        assert rd.reports
        for rep in rd.reports:
            assert rep.rich and rep.cut_dense_conclusive and rep.conclusive
    res = refine_cut_dense(g, Fraction(1, 2), Fraction(1, 8), Fraction(1, 4), 60,
                           rho=Fraction(1, 30), relax_delta=True)
    assert len(res.log) == 1 and res.certified_exact and res.inconclusive == ()
    small = refine_cut_dense(Graph.complete(20), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2000), 20)
    assert small.certified_exact


def test_refine_records_inconclusive_components(monkeypatch):
    # with a one-node budget the K6 search still completes (its root bound is
    # the density of A = {0}), but the K_{3,3} search does not: only K_{3,3}
    # is recorded, and only its rich report is inconclusive
    k33 = [(u, v) for u in range(6, 9) for v in range(9, 12)]
    g = Graph(12, _clique_edges(range(6)) + k33)
    monkeypatch.setattr(kernel, "CUT_NODE_BUDGET", 1)
    rho = Fraction(1, 100)
    refined = refine_cut_dense(g, Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 4, rho=rho,
                               relax_delta=True)
    assert not refined.log and refined.vertices == tuple(range(12))
    assert refined.inconclusive == (tuple(range(6, 12)),) and not refined.certified_exact
    p = RichParams(Fraction(1, 2), rho, 4)
    conclusive = [
        is_rich_on_refined(refined, rcomp, rcomp, 12, p).cut_dense_conclusive
        for rcomp in refined.graph.components()
    ]
    assert conclusive == [True, False]
