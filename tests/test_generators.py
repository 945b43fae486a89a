"""Generator tests: degree profiles recomputed, determinism, the `gen` families,
and golden digests that pin the seeded random corpora."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import eq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed import cli, generators
from treebed.embed import brute_force_embed
from treebed.errors import Infeasible, PreconditionViolated
from treebed.generators import (
    _REJECTION_ROUNDS,
    gen_bipartite_apex_host,
    gen_bps_alpha_host,
    gen_branches_tree,
    gen_caterpillar,
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_escape_path_host,
    gen_matching_forest_host,
    gen_path,
    gen_random_connected_graph,
    gen_random_graph_min_degree,
    gen_random_tree,
    gen_spider,
    gen_three_branch_tree,
    gen_three_pool_host,
    gen_two_cliques_apex,
    gen_two_cliques_apex_grown,
)
from treebed.graph import Graph, VertexSet


def test_two_cliques_apex_profiles():
    g = gen_two_cliques_apex(6)
    assert g.n == 7 and g.min_degree() == 3 and g.max_degree() == 6
    g = gen_two_cliques_apex(9)
    assert g.n == 11 and g.min_degree() == 5 and g.max_degree() == 10
    g = gen_two_cliques_apex(3)  # boundary: two K1 plus apex is a path
    assert g.n == 3 and g.min_degree() == 1 and g.max_degree() == 2
    with pytest.raises(PreconditionViolated):
        gen_two_cliques_apex(7)
    grown = gen_two_cliques_apex_grown(6)
    assert grown.min_degree() == 4  # floor(2k/3)


def test_three_branch_tree():
    t = gen_three_branch_tree(6)
    assert t.n == 7 and t.degree(0) == 3
    t = gen_three_branch_tree(9)
    assert t.n == 10
    t = gen_three_branch_tree(3)
    assert t.n == 4 and t.max_degree() == 3  # the claw
    with pytest.raises(PreconditionViolated):
        gen_three_branch_tree(8)


def test_branches_tree():
    t = gen_branches_tree((3, 1, 2))
    assert t.n == 7 and t.root == 0 and t.degree(0) == 3
    assert t.edges == ((0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (5, 6))
    assert gen_branches_tree((16, 16, 16)) == gen_three_branch_tree(48)
    for lengths in ((), (3, 0)):
        with pytest.raises(PreconditionViolated):
            gen_branches_tree(lengths)


# Each structured host at the parameters the package and its tests use: the
# builder, its arguments, the order of each vertex pool (a portal's pool is
# named by its index), and the pools the apex x may see.
_ESCAPE_POOLS = ("a_set", "b1_set", "b2_set")
_STRUCTURED_HOSTS = [
    *(
        (gen_escape_path_host, (size, x_degree), dict.fromkeys(_ESCAPE_POOLS, size), _ESCAPE_POOLS[:2])
        for size, x_degree in ((10, 4), (32, 3), (32, 6), (62, 62))
    ),
    *(
        (gen_three_pool_host, (block,), dict.fromkeys(("c1", "c2", "c3"), block), ("c1", "c2", "c3"))
        for block in (4, 6)
    ),
    (gen_bipartite_apex_host, (), {"y1": 10, "y2": 10}, ("y1", "y2")),
    (gen_matching_forest_host, (), {"host_core": 14, 0: 8, 1: 8, 2: 8}, ()),
]


@pytest.mark.parametrize(
    "build, args, orders, x_pools",
    _STRUCTURED_HOSTS,
    ids=[f"{case[0].__name__}{case[1]}" for case in _STRUCTURED_HOSTS],
)
def test_structured_host_roles(build, args, orders, x_pools):
    g, roles = build(*args)
    pools = {name: s for name, s in roles.items() if isinstance(s, VertexSet)}
    pools.update(enumerate(pool for _, pool in roles.get("portals", ())))
    assert {name: len(s) for name, s in pools.items()} == orders
    members = [v for s in pools.values() for v in s]
    assert len(set(members)) == len(members)  # the pools are disjoint
    assert g.n == len(members) + ("x" in roles)
    if build is gen_bipartite_apex_host:
        # the classes of K_{10,10}: each independent, fully joined to the other
        y1, y2 = roles["y1"], roles["y2"]
        assert not any(g.has_edge(u, v) for s in (y1, y2) for u, v in combinations(s, 2))
        assert all(g.has_edge(u, v) for u in y1 for v in y2)
    else:
        assert all(g.has_edge(u, v) for s in pools.values() for u, v in combinations(s, 2))
    if "x" in roles:
        assert set(g.neighbors(roles["x"])) <= {v for name in x_pools for v in pools[name]}
    if build is gen_escape_path_host:
        A, B1, B2 = (roles[name] for name in _ESCAPE_POOLS)
        a, b = roles["a"], roles["b"]
        assert a in A and b in B2
        assert [(u, v) for u in (*A, *B1) for v in B2 if g.has_edge(u, v)] == [(a, b)]
        assert g.degree(roles["x"]) == 2 * args[1]
    for (c, p), pool in roles.get("portals", ()):
        assert c in roles["host_core"] and p in pool and g.has_edge(c, p)


def test_structured_hosts_refuse_bad_parameters():
    for args in ((0, 0), (4, 5), (4, -1)):
        with pytest.raises(PreconditionViolated):
            gen_escape_path_host(*args)
    with pytest.raises(PreconditionViolated):
        gen_three_pool_host(2)


def test_spider():
    t = gen_spider(10, 5)
    assert t.n == 16 and t.k == 15  # root + 5 mids + 10 leaves
    t = gen_spider(6, 3)
    assert t.n == 10
    t = gen_spider(6, 1)  # a broom
    assert t.degree(1) == 7
    with pytest.raises(PreconditionViolated):
        gen_spider(10, 4)


def test_bps_alpha_host():
    g, apex = gen_bps_alpha_host(10, Fraction(1, 5))
    assert g.degree(apex) == 16  # parts 6 and 8 per block
    g, apex = gen_bps_alpha_host(15, Fraction(1, 5))
    assert g.degree(apex) == 24  # parts 9 and 12
    with pytest.raises(PreconditionViolated):
        gen_bps_alpha_host(10, Fraction(1, 3))


def test_clique_chain_apex():
    g = gen_clique_chain_apex(6, 3)
    assert g.n == 7 and g.degree(6) == 3  # three K2 blocks + apex
    g = gen_clique_chain_apex(8, 2)
    assert g.n == 7  # two K3 blocks + apex
    g = gen_clique_chain_apex(6, 1)
    assert g.degree(g.n - 1) == 1
    # companion check: the long path never fits, no matter how many blocks
    g = gen_clique_chain_apex(6, 3)
    out = brute_force_embed(g, gen_path(7))
    assert out.status == "not_found"


def test_complete_bipartite():
    g = gen_complete_bipartite(2, 5)
    assert g.n == 7 and g.edge_count == 10
    assert gen_complete_bipartite(3, 3).edge_count == 9
    assert gen_complete_bipartite(1, 4).max_degree() == 4


def test_random_generators_deterministic():
    assert gen_path(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    t1 = gen_random_tree(50, 3, seed=1)
    t2 = gen_random_tree(50, 3, seed=1)
    assert t1.edges == t2.edges and t1.max_degree() <= 3
    g1 = gen_random_graph_min_degree(20, 8, seed=7)
    g2 = gen_random_graph_min_degree(20, 8, seed=7)
    assert g1 == g2
    assert min(len(g1.neighbors(v)) for v in range(20)) >= 8  # recounted
    c1 = gen_caterpillar(6, 4, seed=3)
    assert c1.edges == gen_caterpillar(6, 4, seed=3).edges


def test_random_generators_draw_from_a_callers_stream():
    # an int seed seeds the generator's own stream; a caller's random.Random
    # seeded the same way gives the same object, and is advanced by the draws
    for n, d, seed in ((1, 1, 0), (2, 1, 0), (12, 4, 3), (40, 3, 5), (200, 3, 11)):
        rng = random.Random(repr(("tree", n, d, seed)))
        assert gen_random_tree(n, d, rng) == gen_random_tree(n, d, seed)
    rng = random.Random(repr(("graph", 20, 8, 7)))
    assert gen_random_graph_min_degree(20, 8, rng) == gen_random_graph_min_degree(20, 8, 7)
    shared = random.Random(1)
    assert gen_random_tree(30, 3, shared) != gen_random_tree(30, 3, shared)


def test_random_tree_degree_bound_tight():
    # a tight bound on a large tree rejects every uniform code in stage 1, so
    # the tree comes from the exact stage
    t = gen_random_tree(200, 3, seed=11)
    assert t.n == 200 and t.max_degree() <= 3
    with pytest.raises(Infeasible):
        gen_random_tree(10, 1, seed=0)


@pytest.mark.parametrize("max_deg", [2, 3])
def test_random_tree_large_tight_bound_is_total(max_deg):
    t = gen_random_tree(5000, max_deg, seed=1)
    assert t.n == 5000 and len(t.edges) == 4999 and t.max_degree() <= max_deg


def _pruefer_code(t) -> tuple:
    """The Pruefer code of a tree: remove the smallest leaf n - 2 times, each
    time writing down its neighbour."""
    nbrs = [set(t.neighbors(v)) for v in range(t.n)]
    code = []
    for _ in range(t.n - 2):
        leaf = min(v for v in range(t.n) if len(nbrs[v]) == 1)
        (v,) = nbrs[leaf]
        code.append(v)
        nbrs[v].discard(leaf)
        nbrs[leaf].clear()
    return tuple(code)


@pytest.mark.parametrize("n, max_deg, draws", [(6, 3, 11_700), (6, 2, 3_600)])
def test_random_tree_exact_stage_is_uniform(monkeypatch, n, max_deg, draws):
    # every Pruefer code whose symbols each appear at most max_deg - 1 times
    # is one labelled tree with max degree <= max_deg, and the exact stage
    # alone must hit each equally often: 1,170 trees for (6, 3), 360 paths
    # for (6, 2), about 10 draws each
    trees = [c for c in product(range(n), repeat=n - 2) if max(Counter(c).values()) < max_deg]
    assert len(trees) == {3: 1170, 2: 360}[max_deg]
    monkeypatch.setattr(generators, "_REJECTION_ROUNDS", 0)
    seen = Counter(_pruefer_code(gen_random_tree(n, max_deg, s)) for s in range(draws))
    assert set(seen) <= set(trees)
    expected = draws / len(trees)
    chi2 = sum((seen[c] - expected) ** 2 / expected for c in trees)
    df = len(trees) - 1
    # about five standard deviations, (2 df) ** 0.5, above the mean df
    assert chi2 < df + 5 * (2 * df) ** 0.5


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(3, 255), st.integers(256, 700)),
    st.integers(1, 20),
    st.integers(0, 3),
    st.integers(0, 2**32),
)
def test_stage_one_accepts_what_the_sorted_test_accepts(n, cap, extra, seed):
    # stage 1 reads byte codes below n = 256 and lists of ints from there on
    # (see _accepter).  Symbols used `per` times each, up to cap + 1, and up
    # to three entries then set to one symbol land on both sides of the bound
    rng = random.Random(seed)
    per, perm = rng.randint(1, cap + 1), rng.sample(range(n), n)
    code = [perm[i // per] for i in range(n - 2)]
    hit = rng.randrange(n)
    for i in rng.sample(range(n - 2), min(extra, n - 2)):
        code[i] = hit
    rng.shuffle(code)
    code = bytes(code) if n < 256 else code
    s = sorted(code)  # a symbol used more than cap times gives s[i] == s[i + cap]
    assert generators._within_cap(code, n, cap) == (not any(map(eq, s, s[cap:])))


# Each `gen` family: its --param items and its builder, called with the seed
# (None for a family that reads none).
_GEN_CASES = [
    ("two_cliques_apex", ["k=6"], lambda s: gen_two_cliques_apex(6)),
    ("two_cliques_apex_grown", ["k=9"], lambda s: gen_two_cliques_apex_grown(9)),
    ("bps_alpha_host", ["k=12", "alpha=1/5"], lambda s: gen_bps_alpha_host(12, Fraction(1, 5))[0]),
    ("clique_chain_apex", ["k=10", "d=3"], lambda s: gen_clique_chain_apex(10, 3)),
    ("complete_bipartite", ["m=3", "n=4"], lambda s: gen_complete_bipartite(3, 4)),
    ("complete", ["n=5"], lambda s: Graph.complete(5)),
    ("random_min_degree", ["n=12", "delta=4"], lambda s: gen_random_graph_min_degree(12, 4, s)),
    ("random_connected", ["n=9", "extra_edges=5"], lambda s: gen_random_connected_graph(9, 5, s)),
    ("three_branch", ["k=9"], lambda s: gen_three_branch_tree(9)),
    ("spider", ["k=6", "ell=3"], lambda s: gen_spider(6, 3)),
    ("path", ["n=5"], lambda s: gen_path(5)),
    ("caterpillar", ["spine=6", "legs=4"], lambda s: gen_caterpillar(6, 4, s)),
    ("random_tree", ["n=9", "max_deg=3"], lambda s: gen_random_tree(9, 3, s)),
]
_SEEDED_FAMILIES = {"random_min_degree", "random_connected", "caterpillar", "random_tree"}


@pytest.mark.parametrize("family, params, build", _GEN_CASES, ids=[c[0] for c in _GEN_CASES])
def test_gen_writes_its_builders_output(tmp_path, family, params, build):
    # `treebed gen` writes the builder's own serialization, at two seeds for
    # a seeded family; the cases cover every family
    assert {c[0] for c in _GEN_CASES} == set(cli._FAMILIES)
    out = tmp_path / "out"
    argv = ["gen", family, *(x for p in params for x in ("--param", p)), "--out", str(out)]
    for seed in (0, 1) if family in _SEEDED_FAMILIES else (None,):
        assert cli.main(argv if seed is None else [*argv, "--seed", str(seed)]) == 0
        obj = build(seed)
        want = obj.to_edge_list_text() if isinstance(obj, Graph) else obj.to_json() + "\n"
        assert out.read_text() == want


# Golden digests of the seeded corpora.  A seeded generator must give the same
# object for the same (params, seed) across releases, so these change only with
# a deliberate, recorded corpus change.  gen_random_tree's first stage
# reproduces the stream of CPython's randrange (one 32-bit Mersenne Twister
# output per try, top n.bit_length() bits, retried while >= n); the
# n = 255/256/257 sizes sit on both sides of the 8-bit boundary.  Round count 0
# pins the exact stage alone (a cap of 13 or more, here d = n - 1 from n = 15,
# has no exact stage and stays with rejection); the default pins the corpus.
_TREE_NS = (*range(1, 61), 100, 199, 200, 255, 256, 257, 300)
_TREE_DIGESTS = {
    0: "481e718b5b133c182a30900cffc0f5a50173edb2bf0944d418b4307cdbe9df9b",
    _REJECTION_ROUNDS: "605670f20c32748e3d1347ac6d9a731451f7f9026b2e2c6f19fc62d39572c736",
}
_GRAPH_DIGEST = "c5e22bae949b56aa7179dd4483327b732511dc128bfcc609f73ef98ede1534c3"


@pytest.mark.parametrize("rounds", sorted(_TREE_DIGESTS))
def test_random_tree_corpus_pinned(monkeypatch, rounds):
    monkeypatch.setattr(generators, "_REJECTION_ROUNDS", rounds)
    h = hashlib.sha256()
    for n in _TREE_NS:
        for d in sorted({1, 2, 3, 4, 5, 8, n - 1}):
            for seed in range(4):
                try:
                    out = gen_random_tree(n, d, seed).edges
                except Infeasible:
                    out = "Infeasible"
                h.update(f"{n} {d} {seed} {out}\n".encode())
    assert h.hexdigest() == _TREE_DIGESTS[rounds]


def test_random_graph_corpora_pinned():
    h = hashlib.sha256()
    for n in range(1, 21):
        for seed in range(3):
            for extra in (0, 3, 10):
                g = gen_random_connected_graph(n, extra, seed)
                h.update(f"connected {n} {extra} {seed} {g.edges()}\n".encode())
            for delta in (0, 1, 2, 3, 5, 8):
                if delta < n:
                    g = gen_random_graph_min_degree(n, delta, seed)
                    h.update(f"min_degree {n} {delta} {seed} {g.edges()}\n".encode())
    assert h.hexdigest() == _GRAPH_DIGEST
