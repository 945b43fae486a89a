"""Decomposition tests: richness, refinement, classification, matchings."""

from fractions import Fraction
from itertools import combinations

import pytest

from treebed import checks, kernel
from treebed.decompose import (
    RichParams,
    classify_components,
    external_internal_classify,
    intersection_property_report,
    is_rich,
    is_rich_on_refined,
    refine_cut_dense,
    rho_preset,
    rich_decompose,
    x_peripheral_matching,
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


def test_intersection_properties():
    # two rich components: L1 holds vacuously (needs three)
    g = gen_two_cliques_apex(60)
    half = (g.n - 1) // 2
    c1 = VertexSet(range(0, half), g.n)
    c2 = VertexSet(range(half, g.n - 1), g.n)
    rep = intersection_property_report(g, [c1, c2], delta_t=3, eps=Fraction(1, 8), k=60)
    assert rep.l1_holds
    # three disjoint K7 blocks plus one vertex seeing 3 in each: an L1 witness
    edges = []
    for b in range(3):
        edges += _clique_edges(range(b * 7, b * 7 + 7))
    x = 21
    for b in range(3):
        edges += [(x, b * 7 + i) for i in range(3)]
    g2 = Graph(22, edges)
    comps = [VertexSet(range(b * 7, b * 7 + 7), g2.n) for b in range(3)]
    rep = intersection_property_report(g2, comps, delta_t=3, eps=Fraction(1, 8), k=8)
    assert not rep.l1_holds
    assert rep.l1_witnesses[0].vertices == (x,)
    empty = intersection_property_report(g2, [], delta_t=3, eps=Fraction(1, 8), k=8)
    assert empty.l1_holds and empty.l2_holds and empty.l3_holds


def test_external_internal_and_matching():
    edges = _clique_edges(range(5)) + _clique_edges(range(5, 10))
    edges += [(10, 0), (10, 5)]
    base = 11
    outer = []
    for anchor in (1, 2, 6):
        vs = list(range(base, base + 4))
        outer.append(vs)
        edges += _clique_edges(vs)
        edges += [(anchor, v) for v in vs]
        base += 4
    g = Graph(base, edges)
    comps = [VertexSet(range(0, 5), g.n), VertexSet(range(5, 10), g.n)]
    comps += [VertexSet(o, g.n) for o in outer]
    ext, internal = external_internal_classify(g, 10, comps, eta_k=4)
    assert set(ext.members) == {1, 2, 6}
    two_only = external_internal_classify(g, 10, comps[:2], eta_k=4)
    assert two_only[0].members == ()  # no third component, nothing external
    isolated_x = external_internal_classify(Graph(3, []), 0, [], eta_k=1)
    assert isolated_x == (VertexSet([], 3), VertexSet([], 3))
    pm = x_peripheral_matching(g, 10, comps, eta_k=4)
    assert 1 <= len(pm.matching) <= 2
    for w, j in pm.assignment:
        assert g.deg_within(w, comps[j].as_set()) >= 4
    pm_empty = x_peripheral_matching(g, 10, comps[:2], eta_k=4)
    assert len(pm_empty.matching) == 0


def test_l1_witness_feeds_the_embedder():
    # contrapositive wiring: an L1 witness is exactly an apex for the
    # three-pool embedding, which must then produce the tree
    from treebed.embed import apex_three_split_embed
    from treebed.generators import gen_path

    edges = []
    for b in range(3):
        edges += _clique_edges(range(b * 7, b * 7 + 7))
    x = 21
    for b in range(3):
        edges += [(x, b * 7 + i) for i in range(3)]
    g = Graph(22, edges)
    comps = [VertexSet(range(b * 7, b * 7 + 7), g.n) for b in range(3)]
    rep = intersection_property_report(g, comps, delta_t=3, eps=Fraction(1, 8), k=8)
    assert rep.l1_witnesses
    wit = rep.l1_witnesses[0]
    i, j, ell = wit.components
    out = apex_three_split_embed(
        g, wit.vertices[0], comps[i], comps[j], comps[ell], gen_path(9)
    )
    assert out.status == "found"


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
