"""The search kernels: the oracle's twin cut, exact cuts against the naive
Gray-code scan and an independent enumerator, and hosts wider than a
machine word."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from treebed import kernel
from treebed.checks import _min_cut_reference
from treebed.embed import _host_twins, brute_force_embed
from treebed.generators import (
    gen_clique_chain_apex,
    gen_complete_bipartite,
    gen_path,
    gen_random_connected_graph,
    gen_random_tree,
    gen_two_cliques_apex,
)
from treebed.graph import Graph, cut_density, is_cut_dense


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
    lower_twins = g.lower_twins()
    budget = rng.choice((10, 1000, 10**6))
    return (
        g.masks(), *g.degree_classes(), parent_pos, allowed, tdeg, nchild, symprev, lower_twins,
        budget,
    )


def _scan_reference(adj, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, budget):
    """The oracle kernel as a linear scan: at every position, walk all host
    vertices in degree order and test each one for every prune in turn."""
    m = len(parent_pos)
    n = len(adj)
    host_deg = [a.bit_count() for a in adj]
    host_order = sorted(range(n), key=lambda h: (-host_deg[h], h))
    if m == 0:
        return [], True, 0
    img = [-1] * m
    used = 0
    ptr = [0] * m
    nodes = 0
    i = 0
    while True:
        p = parent_pos[i]
        if p < 0:
            mask = allowed[i] & ~used
        else:
            mask = adj[img[p]] & allowed[i] & ~used
        sp = symprev[i]
        floor = img[sp] if sp >= 0 else -1
        placed = False
        j = ptr[i]
        while j < n:
            h = host_order[j]
            j += 1
            if not (mask >> h) & 1 or host_deg[h] < tdeg[i] or h <= floor:
                continue
            if lower_twins[h] & ~used:
                continue
            if ((adj[h] & ~used) & ~(1 << h)).bit_count() < nchild[i]:
                continue
            nodes += 1
            if nodes > budget:
                return None, False, nodes
            img[i] = h
            used |= 1 << h
            ptr[i] = j
            placed = True
            break
        if placed:
            i += 1
            if i == m:
                return img, True, nodes
            ptr[i] = 0
        else:
            if i == 0:
                return None, True, nodes
            i -= 1
            used &= ~(1 << img[i])
            img[i] = -1


def _sibling_floors(parent_pos, nchild):
    """symprev for a tree given by parent positions: each position names the
    last earlier sibling whose rooted subtree is isomorphic to its own."""
    m = len(parent_pos)
    kids = [[] for _ in range(m)]
    for i in range(1, m):
        kids[parent_pos[i]].append(i)
    code = [()] * m
    for i in reversed(range(m)):
        code[i] = tuple(sorted(code[c] for c in kids[i]))
    symprev = [-1] * m
    for sibs in kids:
        for a, i in enumerate(sibs):
            same = [j for j in sibs[:a] if code[j] == code[i]]
            symprev[i] = same[-1] if same else -1
    assert [len(k) for k in kids] == list(nchild)
    return symprev


def test_class_walk_matches_the_scan():
    twins_seen = floors_seen = pins_found = 0
    for seed in range(120):
        adj, classes, atleast, parent_pos, allowed, tdeg, nchild, symprev, lower_twins, _ = (
            _embed_inputs(seed)
        )
        m, n = len(parent_pos), len(adj)
        rng = random.Random(seed)
        pos, h = rng.randrange(m), rng.randrange(n)
        pinned = list(allowed)
        pinned[pos] = 1 << h
        no_twins = [0] * n
        cases = [
            (allowed, symprev, lower_twins),
            (allowed, symprev, no_twins),
            (pinned, symprev, _host_twins(Graph._from_masks(adj), (h,))),
        ]
        if not any(lower_twins):
            floors = _sibling_floors(parent_pos, nchild)
            floors_seen += any(f >= 0 for f in floors)
            cases.append((allowed, floors, no_twins))
        twins_seen += any(lower_twins)
        for budget in (10, 1000, 10**6):
            for allow, sym, twins in cases:
                got = kernel.solve_embed(
                    adj, classes, atleast, parent_pos, allow, tdeg, nchild, sym, twins, budget
                )
                want = _scan_reference(adj, parent_pos, allow, tdeg, nchild, sym, twins, budget)
                assert got == want, f"seed {seed}, budget {budget}: {got} vs {want}"
                pins_found += allow is pinned and got[0] is not None
    assert twins_seen >= 60 and floors_seen >= 10 and pins_found >= 10


def test_twin_cut_keeps_verdicts():
    twins_seen = 0
    for seed in range(120):
        args = _embed_inputs(seed)
        lower_twins = args[8]
        twins_seen += any(lower_twins)
        cut = kernel.solve_embed(*args)
        full = kernel.solve_embed(*args[:8], [0] * len(lower_twins), args[9])
        if not (cut[1] and full[1]):
            continue
        # the cut never removes the first embedding in search order, so both
        # searches agree on it and the cut one visits a subset of the nodes
        assert cut[:2] == full[:2], f"seed {seed}: {cut} vs {full}"
        assert cut[2] <= full[2]
    assert twins_seen >= 60


def _gray_scan(adj, n):
    """Naive reference for `kernel.min_density_cut`: every bipartition with
    vertex 0 in A, in reflected-Gray order, keeping the first minimum.

    Gray step g flips vertex (g & -g).bit_length(), and the crossing count
    moves by +-(deg v - 2|N(v) & A|) per flip, so each step costs one
    popcount.
    """
    deg = [a.bit_count() for a in adj]
    amask = 1
    asz = 1
    cross = deg[0]
    best_cross = cross
    best_den = n - 1
    best_amask = amask
    # The flips of steps 1 .. 2^low - 1 repeat in every block of 2^low steps;
    # only the block's first step, g = j * 2^low, flips a higher vertex.
    low = min(n - 1, 10)
    ruler = [(g & -g).bit_length() for g in range(1, 1 << low)]
    for j in range(1 << (n - 1 - low)):
        for v in [(j & -j).bit_length() + low] + ruler if j else ruler:
            bit = 1 << v
            d = deg[v] - 2 * (adj[v] & amask).bit_count()
            amask ^= bit
            if amask & bit:
                cross += d
                asz += 1
            else:
                cross -= d
                asz -= 1
            # den is 0 only with every vertex in A; the test is then false
            den = asz * (n - asz)
            if cross * best_den < best_cross * den:
                best_cross = cross
                best_den = den
                best_amask = amask
    return best_cross, best_amask


def _random_cut_inputs():
    """2,000 seeded graphs on 2..14 vertices, edge probability 0 to 1."""
    rng = random.Random(2024)
    for seed in range(2000):
        n = rng.randrange(2, 15)
        p = rng.choice((0.0, 1.0, rng.random()))
        yield seed, n, [e for e in combinations(range(n), 2) if rng.random() < p]


def _cut_families(n):
    """Tie-heavy and extreme graphs on n vertices, each under a name."""
    every = list(combinations(range(n), 2))
    yield "complete", every
    yield "complete minus 0-1", every[1:]
    yield "complete minus edge at n-1", [e for e in every if e != (n - 2, n - 1)]
    yield "empty", []
    yield "star at 0", [(0, v) for v in range(1, n)]
    yield "star at n-1", [(v, n - 1) for v in range(n - 1)]
    h = n // 2
    yield "two cliques and a bridge", list(combinations(range(h), 2)) + list(
        combinations(range(h, n), 2)
    ) + [(h - 1, h)]
    # the isolated vertex's one-vertex side ties the minimum at 0, but the
    # first minimum in Gray order is the first clique: a kernel that started
    # its incumbent from the sparsest one-vertex side would return the wrong one
    yield "two cliques and an isolated vertex", list(combinations(range(h), 2)) + list(
        combinations(range(h, n - 1), 2)
    )
    for a in sorted({n // 3, h} - {0, 1}):
        yield f"K_{a},{n - a}", [(u, v) for u in range(a) for v in range(a, n)]
    # with even/odd parts most balanced cuts tie at the minimum, so the bound
    # prunes little: the kernel's slowest family (0.35–0.55 s at n = 20)
    if n <= 14:
        yield "K_n/2,n/2 interleaved", [(u, v) for u, v in every if (u - v) % 2]


def _check_ceilings(adj, n, label):
    """The kernel against the scan with no ceiling, with the minimum as the
    ceiling (a tie: nothing is below it, so any proper cut of density at
    least the minimum may come back), and with a ceiling just above it (the
    scan's witness)."""
    best = _gray_scan(adj, n)
    assert kernel.min_density_cut(adj, n)[:3] == (*best, True), label
    cross, amask = best
    low = Fraction(cross, amask.bit_count() * (n - amask.bit_count()))
    c, a, complete, _ = kernel.min_density_cut(adj, n, low)
    asz = a.bit_count()
    assert complete and a & 1 and 0 < asz < n, f"{label}, rho = minimum"
    assert c == sum((adj[v] & ~a).bit_count() for v in range(n) if a >> v & 1), label
    assert Fraction(c, asz * (n - asz)) >= low, f"{label}, rho = minimum"
    above = low + Fraction(1, 10**9)
    assert kernel.min_density_cut(adj, n, above)[:3] == (*best, True), f"{label}, rho above"


def test_min_cut_matches_gray_scan_on_random_graphs():
    for seed, n, edges in _random_cut_inputs():
        _check_ceilings(Graph(n, edges).masks(), n, f"seed {seed}")


def test_min_cut_matches_gray_scan_on_families():
    for n in list(range(2, 15)) + [20]:
        for name, edges in _cut_families(n):
            adj = Graph(n, edges).masks()
            got = kernel.min_density_cut(adj, n)[:3]
            assert got == (*_gray_scan(adj, n), True), f"{name}, n = {n}"


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(2, 11))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


# Densities on at most 11 vertices have denominators s(n - s) <= 30, so
# distinct ones differ by more than this.
_EPS = Fraction(1, 10**6)


@settings(max_examples=300, deadline=None)
@given(_small_graphs(), st.sampled_from(("min", "below min", "above min", "rho1", "above rho1")))
def test_min_cut_ceiling_corners(graph, where):
    """The kernel against the scan with the ceiling on each side of the
    minimum and of rho1: where the keep test switches between the incumbent
    and the ceiling, and between dropping and keeping a tie."""
    n, edges = graph
    adj = Graph(n, edges).masks()
    cross, amask = _gray_scan(adj, n)
    low = Fraction(cross, amask.bit_count() * (n - amask.bit_count()))
    rho1 = Fraction(min(a.bit_count() for a in adj), n - 1)
    rho = {
        "min": low,
        "below min": max(low - _EPS, Fraction(0)),
        "above min": low + _EPS,
        "rho1": rho1,
        "above rho1": rho1 + _EPS,
    }[where]
    c, a, complete, _ = kernel.min_density_cut(adj, n, rho)
    assert complete
    if low < rho:
        # a cut below the ceiling exists, so the scan's witness comes back
        assert (c, a) == (cross, amask)
    else:
        # none does: any real proper cut proves it
        asz = a.bit_count()
        assert a & 1 and 0 < asz < n
        assert c == sum((adj[v] & ~a).bit_count() for v in range(n) if a >> v & 1)


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


def test_ceiled_min_cut_matches_gray_scan_on_the_grid():
    for seed, n, edges in _cut_grid():
        _check_ceilings(Graph(n, edges).masks(), n, f"grid seed {seed}")


def test_min_cut_matches_reference():
    for seed, n, edges in _cut_grid():
        g = Graph(n, edges)
        cross, amask, complete, _ = kernel.min_density_cut(g.masks(), n)
        assert complete, f"seed {seed}"
        asz = amask.bit_count()
        assert amask & 1 and 0 < asz < n, f"seed {seed}: improper side {amask:b}"
        assert cross == sum((amask >> u & 1) != (amask >> v & 1) for u, v in edges)
        assert Fraction(cross, asz * (n - asz)) == _min_cut_reference(g), f"seed {seed}"


def test_cut_budget_overrun_returns_the_incumbent(monkeypatch):
    # two K4s on the even and the odd vertices: the zero cut is not the first
    # leaf, so small budgets stop with A = {0} or a better cut still open
    g = Graph(8, [(u, v) for u, v in combinations(range(8), 2) if (u - v) % 2 == 0])
    adj = g.masks()
    full = kernel.min_density_cut(adj, 8)
    assert full[2] and cut_density(g).exact
    rho = Fraction(1, 10)
    seen = set()
    for budget in range(64):
        monkeypatch.setattr(kernel, "CUT_NODE_BUDGET", budget)
        cross, amask, complete, pops = kernel.min_density_cut(adj, 8, rho)
        if budget == 0:
            assert (cross, amask, complete) == (adj[0].bit_count(), 1, False)
        if complete:
            break
        assert pops == budget
        asz = amask.bit_count()
        assert amask & 1 and 0 < asz < 8
        assert cross == sum((adj[v] & ~amask).bit_count() for v in range(8) if amask >> v & 1)
        assert not cut_density(g).exact
        verdict = is_cut_dense(g, rho)
        if Fraction(cross, asz * (8 - asz)) < rho:
            # an incumbent below rho is a real sparse cut: conclusive
            assert not verdict.is_dense and verdict.conclusive
            assert verdict.witness.crossing_edges == cross
            seen.add("sparse")
        else:
            assert verdict.is_dense and not verdict.conclusive and verdict.witness is None
            seen.add("dense")
    else:
        raise AssertionError("the search never completed")
    assert seen == {"sparse", "dense"}
    assert (cross, amask) == full[:2]
    # the returned pops are the least budget under which the search completes
    for budget, complete in ((full[3] - 1, False), (full[3], True)):
        monkeypatch.setattr(kernel, "CUT_NODE_BUDGET", budget)
        assert kernel.min_density_cut(adj, 8)[2:] == (complete, budget)
    # the K6 search is its root alone, so the budget counts pops exactly
    for budget, complete in ((0, False), (1, True)):
        monkeypatch.setattr(kernel, "CUT_NODE_BUDGET", budget)
        assert kernel.min_density_cut(Graph.complete(6).masks(), 6)[2] is complete


# The witness is the first minimum in Gray-code order; the density alone
# would not notice a changed scan order or tie-break.
_CUT_WITNESS_DIGEST = "073b11f3199fcf88897afb8eec1cdb7b611dde17572e4e2493300f96502f66e7"


def test_min_cut_witness_pinned():
    h = hashlib.sha256()
    for seed, n, edges in _cut_grid():
        h.update(f"{seed} {kernel.min_density_cut(Graph(n, edges).masks(), n)[:2]}\n".encode())
    for n in range(14, 21):
        rng = random.Random(n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        h.update(f"n{n} {kernel.min_density_cut(Graph(n, edges).masks(), n)[:2]}\n".encode())
    assert h.hexdigest() == _CUT_WITNESS_DIGEST


# The pops of every graph of the witness pin.  A change to the bound, the
# keep test or the child order moves some count even when the witnesses
# stay put, and a cheaper pop must leave every count as it is.
_CUT_POPS_DIGEST = "f03037d0dd1f46046aa1048260d573e3c84551d90c7abc89bbcc7475f82ea892"


def test_min_cut_pops_pinned():
    counts = []
    for seed, n, edges in _cut_grid():
        counts.append((seed, kernel.min_density_cut(Graph(n, edges).masks(), n)[3]))
    for n in range(14, 21):
        rng = random.Random(n)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        counts.append((f"n{n}", kernel.min_density_cut(Graph(n, edges).masks(), n)[3]))
    assert [c for _, c in counts[-7:]] == [47, 177, 147, 481, 291, 1985, 1525]
    assert sum(c for _, c in counts) == 7325
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == _CUT_POPS_DIGEST


def _large_hosts():
    """40 seeded hosts on 21..60 vertices: connected ones of several
    densities, and sparse G(n, p) ones, most of them disconnected.  Hosts 3,
    5 and 23 (54, 54 and 56 vertices) use up the full budget at rho = 1/30."""
    rng = random.Random(11)
    for i in range(40):
        n = rng.randrange(21, 61)
        if i % 2:
            yield gen_random_connected_graph(n, rng.randrange(0, 3 * n), i)
        else:
            p = rng.choice((0.02, 0.05, 0.3))
            yield Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


# Budget-truncated searches on the large hosts: an incomplete result is the
# incumbent after exactly 1,024 pops, so the visiting order, the bound and
# the keep test are all pinned, not only the complete searches' witnesses.
_LARGE_HOST_CUT_DIGEST = "25f15288e934734341894155c3d096db3ee07a771053d2c76801282d6bb32bfd"


def test_large_host_cuts_pinned(monkeypatch):
    monkeypatch.setattr(kernel, "CUT_NODE_BUDGET", 1024)
    h = hashlib.sha256()
    incomplete = [0, 0]
    for i, g in enumerate(_large_hosts()):
        for j, rho in enumerate((Fraction(1, 30), None)):
            out = kernel.min_density_cut(g.masks(), g.n, rho)[:3]
            incomplete[j] += not out[2]
            h.update(f"{i} {rho} {out}\n".encode())
    assert incomplete == [13, 26]
    assert h.hexdigest() == _LARGE_HOST_CUT_DIGEST


def test_oracle_handles_hosts_wider_than_64():
    # host masks are plain ints, so a 70-vertex host is searched like any other
    g = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
    out = brute_force_embed(g, gen_path(5))
    assert out.status == "found"
    star = gen_random_tree(5, 4, seed=4)
    if star.max_degree() > 2:
        assert brute_force_embed(g, star).status == "not_found"

