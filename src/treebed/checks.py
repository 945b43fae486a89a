"""Invariant runners: the quantified properties each module promises.

Each runner draws seeded instances, re-verifies the promised property with
independent recomputation where the contract calls for one, and returns a
CheckResult.  A seeded runner's default `count` is its stated scale: the
`props` CLI command runs it there unless `--trials` caps it, and the
acceptance tests call these at their stated scales.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import log

from .embed import (
    apex_split_embed,
    apex_three_split_embed,
    bipartite_apex_embed,
    brute_force_embed,
    embed_via_path,
    greedy_embed,
    matching_forest_embed,
    validate,
)
from .errors import EmbedNotFound, PreconditionViolated
from .generators import (
    gen_caterpillar,
    gen_path,
    gen_random_graph_min_degree,
    gen_random_connected_graph,
    gen_random_tree,
    gen_spider,
    gen_three_branch_tree,
)
from .graph import (
    Graph,
    VertexSet,
    _bits,
    _two_sides,
    bipartite_matching_lower,
    cut_density,
    diameter,
    path_in_range,
    periphery,
    short_even_walk,
)
from .decompose import RichParams, classify_components, is_rich, refine_cut_dense
from .trees import (
    Tree,
    balanced_separator_vertex,
    bipartition_classes,
    chain_split,
    even_odd_split,
    msf_decomposition,
    split_three_forests,
    split_two_forests,
    sum_partition_three,
    sum_partition_two,
)


@dataclass
class CheckResult:
    name: str
    runs: int = 0
    failures: int = 0
    notes: list[str] = field(default_factory=list)
    seconds: float = field(default=0.0, compare=False)  # wall time, set by timed_check

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, msg: str) -> None:
        self.failures += 1
        if len(self.notes) < 12:
            self.notes.append(msg)


# ---------------------------------------------------------------------------
# graph invariants


def check_periphery_monotonic(seed: int = 0, count: int = 200) -> CheckResult:
    res = CheckResult("periphery: antitone in the threshold")
    rng = random.Random(repr(("periph", seed)))
    for i in range(count):
        g = gen_random_connected_graph(rng.randrange(2, 14), rng.randrange(0, 12), seed * 997 + i)
        s = VertexSet([v for v in range(g.n) if rng.random() < 0.5], g.n)
        res.runs += 1
        prev = None
        for d in range(0, 5):
            cur = periphery(g, s, d).as_set()
            if prev is not None and not cur <= prev:
                res.fail(f"instance {i}: periphery grew from d={d - 1} to d={d}")
            prev = cur
        sub = [v for v in range(g.n) if rng.random() < 0.6]
        if sub:
            ms = frozenset(sub)
            dmin = min(g.deg_within(v, ms) for v in sub)
            if not ms <= periphery(g, VertexSet(sub, g.n), dmin).as_set():
                res.fail(f"instance {i}: induced subgraph escaped its own periphery")
    return res


def _min_cut_reference(g: Graph) -> Fraction:
    """Independent exact enumerator: straight subset order, crossings from scratch."""
    best = None
    n = g.n
    for sub in range(1 << (n - 1)):
        amask = (sub << 1) | 1
        if amask == (1 << n) - 1:
            continue
        aset = [v for v in range(n) if amask >> v & 1]
        cross = sum(1 for u, v in g.edges() if (amask >> u & 1) != (amask >> v & 1))
        dens = Fraction(cross, len(aset) * (n - len(aset)))
        if best is None or dens < best:
            best = dens
    return best


def check_cut_density_cross(seed: int = 0, count: int = 60) -> CheckResult:
    res = CheckResult("cut density: kernel agrees with an independent enumerator")
    rng = random.Random(repr(("cutx", seed)))
    for i in range(count):
        n = rng.randrange(2, 11)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.choice((0.3, 0.6))
        ]
        g = Graph(n, edges)
        res.runs += 1
        got = cut_density(g).witness.density
        want = _min_cut_reference(g)
        if got != want:
            res.fail(f"instance {i}: kernel {got} != reference {want}")
    return res


def check_matching_bound(seed: int = 0, count: int = 1000) -> CheckResult:
    res = CheckResult("bipartite matching: size at least |Y|/d")
    rng = random.Random(repr(("match", seed)))
    for i in range(count):
        nx = rng.randrange(1, 8)
        ny = rng.randrange(1, 10)
        edges = set()
        for y in range(ny):
            edges.add((rng.randrange(nx), nx + y))
        for x in range(nx):
            for y in range(ny):
                if rng.random() < 0.3:
                    edges.add((x, nx + y))
        g = Graph(nx + ny, edges)
        xs = VertexSet(range(nx), g.n)
        ys = VertexSet(range(nx, nx + ny), g.n)
        res.runs += 1
        m = bipartite_matching_lower(g, xs, ys)
        d = max(g.degree(x) for x in range(nx))
        if len(m) * d < ny:
            res.fail(f"instance {i}: matching {len(m)} below {ny}/{d}")
    return res


def check_even_walk_bound(seed: int = 0, count: int = 500) -> CheckResult:
    res = CheckResult("even walk: length below 4/alpha when min degree >= alpha*n")
    rng = random.Random(repr(("walk", seed)))
    alphas = (Fraction(3, 10), Fraction(1, 2))
    for i in range(count):
        alpha = alphas[i % 2]
        n = rng.randrange(8, 26)
        delta = -(-(alpha.numerator * n) // alpha.denominator)
        g = gen_random_graph_min_degree(n, delta, seed * 31 + i)
        u, v = rng.sample(range(n), 2)
        res.runs += 1
        walk = short_even_walk(g, u, v)
        if walk is None:
            continue
        if (len(walk) - 1) >= Fraction(4, 1) / alpha:
            res.fail(f"instance {i}: even walk of length {len(walk) - 1} >= 4/alpha")
        if (len(walk) - 1) % 2:
            res.fail(f"instance {i}: walk length is odd")
    return res


def check_diameter_bound(seed: int = 0, count: int = 500) -> CheckResult:
    res = CheckResult("diameter: at most floor(3n/(delta+1)) - 1 when delta >= 2")
    rng = random.Random(repr(("diam", seed)))
    for i in range(count):
        n = rng.randrange(4, 30)
        delta = rng.randrange(2, max(3, n // 2))
        g = gen_random_graph_min_degree(n, delta, seed * 101 + i)
        if not g.is_connected():
            continue
        res.runs += 1
        d = diameter(g)
        if d > (3 * n) // (g.min_degree() + 1) - 1:
            res.fail(f"instance {i}: diameter {d} breaks the bound")
    return res


def check_path_in_range(seed: int = 0, count: int = 150) -> CheckResult:
    res = CheckResult("path_in_range: returned paths simple, connecting, in window")
    rng = random.Random(repr(("pir", seed)))
    for i in range(count):
        n = rng.randrange(6, 20)
        g = gen_random_connected_graph(n, rng.randrange(n, 3 * n), seed * 7 + i)
        y, z = rng.sample(range(n), 2)
        ell = rng.randrange(0, max(1, n // 2))
        slack = rng.randrange(1, 6)
        res.runs += 1
        got = path_in_range(g, y, z, ell, slack)
        if got.path is not None:
            p = got.path
            if p[0] != y or p[-1] != z or len(set(p)) != len(p):
                res.fail(f"instance {i}: malformed path")
            if not (ell + 1 <= len(p) - 1 <= ell + slack):
                res.fail(f"instance {i}: length {len(p) - 1} outside window")
            if not all(g.has_edge(a, b) for a, b in zip(p, p[1:])):
                res.fail(f"instance {i}: non-edge used")
    return res


# ---------------------------------------------------------------------------
# tree-splitting invariants


def _components_without(t: Tree, removed: int) -> list[frozenset]:
    """The components of T - removed, by a search of the check's own."""
    seen = {removed}
    comps = []
    for s in range(t.n):
        if s in seen:
            continue
        comp = set()
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.add(v)
            for w in t.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def _recheck_components(t: Tree, pivot: int, parts: list[frozenset]) -> bool:
    """Re-derive the components of T - pivot from scratch and confirm each part
    is a union of whole components."""
    comps = _components_without(t, pivot)
    for part in parts:
        for comp in comps:
            if part & comp and not comp <= part:
                return False
    total = frozenset().union(*parts) if parts else frozenset()
    return total == frozenset(range(t.n)) - {pivot}


def check_tree_splitting(seed: int = 0, count: int = 1000) -> CheckResult:
    res = CheckResult("tree splits: separator/two/three/chain/even-odd/classes")
    rng = random.Random(repr(("split", seed)))
    for i in range(count):
        n = rng.randrange(3, 201)
        dmax = rng.randrange(2, 6)
        t = gen_random_tree(n, dmax, seed * 13 + i)
        k = t.k
        res.runs += 1
        try:
            sep = balanced_separator_vertex(t)
            if any(2 * len(c) > n for c in _components_without(t, sep)):
                res.fail(f"instance {i}: separator left a heavy component")

            two = split_two_forests(t)
            if not _recheck_components(t, two.pivot, [two.f1.as_set(), two.f2.as_set()]):
                res.fail(f"instance {i}: two-forest parts break components")
            if not (Fraction(k, 2) <= len(two.f1) <= (2 * k) // 3):
                res.fail(f"instance {i}: |F1| out of bounds")

            three = split_three_forests(t)
            cap = -(-k // 2)
            if max(len(three.f1), len(three.f2), len(three.f3)) > cap:
                res.fail(f"instance {i}: three-forest part above ceil(k/2)")

            m = rng.randrange(1, n + 1)
            cs = chain_split(t, m)
            if len(cs.s0) != m:
                res.fail(f"instance {i}: chain core size {len(cs.s0)} != {m}")
            if len(cs.others) > log(n) / log(1.5):
                res.fail(f"instance {i}: chain piece count above log_1.5 n")
            edge_multiset = sorted(cs.s0.edges + tuple(e for p in cs.others for e in p.edges))
            if tuple(edge_multiset) != t.edges:
                res.fail(f"instance {i}: chain edge partition broken")

            eo = even_odd_split(t)
            b = eo.bound()
            if eo.class_load(1) > b or eo.class_load(2) > b:
                res.fail(f"instance {i}: even/odd class load above bound")

            c0, c1 = bipartition_classes(t)
            if min(len(c0), len(c1)) < Fraction(k, t.max_degree()):
                res.fail(f"instance {i}: bipartition class below k/max_degree")
        except Exception as exc:  # noqa: BLE001 - any crash is a failed run
            res.fail(f"instance {i}: raised {type(exc).__name__}: {exc}")
    return res


def check_even_odd_exhaustive(seed: int = 0, count: int = 150) -> CheckResult:
    res = CheckResult("even/odd split: feasible against exhaustive enumeration")
    rng = random.Random(repr(("eo", seed)))
    for i in range(count):
        n = rng.randrange(2, 15)
        t = gen_random_tree(n, rng.randrange(2, 6), seed * 17 + i)
        res.runs += 1
        eo = even_odd_split(t)
        bound = eo.bound()
        ours = max(eo.class_load(1), eo.class_load(2))
        best = None
        for r in range(n):
            rv = t.rooted(r)
            comps = []
            for w in t.neighbors(r):
                od = sum(rv.depth[x] % 2 for x in rv.subtree_vertices(w))
                comps.append((rv.subtree_size[w] - od, od))
            mm = len(comps)
            for pick in range(1 << mm):
                load1 = sum(comps[j][0] if pick >> j & 1 else comps[j][1] for j in range(mm))
                load2 = sum(comps[j][1] if pick >> j & 1 else comps[j][0] for j in range(mm))
                worst = max(load1, load2)
                if best is None or worst < best:
                    best = worst
        if ours < best:
            res.fail(f"instance {i}: reported load beats the exhaustive optimum")
        if ours > bound:
            res.fail(f"instance {i}: reported load above the certified bound")
    return res


def check_msf(seed: int = 0, count: int = 1000) -> CheckResult:
    res = CheckResult("matching/tree/forest decomposition: P1 P2 P5 P6 + edge partition")
    rng = random.Random(repr(("msf", seed)))
    for i in range(count):
        n = rng.randrange(2, 201)
        t = gen_random_tree(n, rng.randrange(2, 5), seed * 19 + i)
        res.runs += 1
        try:
            d = msf_decomposition(t)
        except Exception as exc:  # noqa: BLE001
            res.fail(f"instance {i}: raised {type(exc).__name__}: {exc}")
            continue
        # the record certifies on construction; re-check partition independently
        m_edges = {tuple(sorted(e)) for e in d.matching}
        sset, fset = set(d.s_vertices), {v for c in d.f_components for v in c}
        s_edges = {e for e in t.edges if e[0] in sset and e[1] in sset}
        f_edges = {e for e in t.edges if e[0] in fset and e[1] in fset}
        if sorted(m_edges | s_edges | f_edges) != list(t.edges):
            res.fail(f"instance {i}: edge partition broken")
        if len(m_edges) + len(s_edges) + len(f_edges) != t.k:
            res.fail(f"instance {i}: edge sets overlap")
    return res


def check_msf_p3_paths(seed: int = 0, count: int = 100) -> CheckResult:
    res = CheckResult("degree-2 trees with k >= 4096: central tree within ceil(k/2)")
    rng = random.Random(repr(("msfp3", seed)))
    for i in range(count):
        k = rng.randrange(4096, 6000)
        t = gen_path(k + 1)
        res.runs += 1
        d = msf_decomposition(t)
        if not d.s_bound_checked:
            res.fail(f"instance {i}: size threshold not engaged at k={k}")
        if d.s_size > -(-k // 2):
            res.fail(f"instance {i}: |S| = {d.s_size} above ceil(k/2)")
    return res


def _two_part_feasible(a: list[int], ell: int) -> bool:
    cap = (2 * ell) // 3
    total = sum(a)
    for pick in range(1 << len(a)):
        s1 = sum(a[i] for i in range(len(a)) if pick >> i & 1)
        if max(s1, total - s1) <= cap:
            return True
    return False


def check_sum_partition_exhaustive() -> CheckResult:
    """Every ell <= 12 against all multisets of at most 8 entries in 1..4,
    and against every ordering of those with at most 5 entries."""
    res = CheckResult("sum partitions: exhaustive small-range verification")
    from itertools import combinations_with_replacement, permutations as perms

    def try_pair(a: list[int], ell: int) -> None:
        half = -(-ell // 2)
        if any(x > half for x in a) or sum(a) > ell:
            return
        res.runs += 1
        # two-part: ell >= 2 required for nonzero sums, and then always feasible
        if sum(a) > 0 and ell < 2:
            try:
                sum_partition_two(a, ell)
                res.fail(f"two-part accepted the infeasible corner {a}, ell={ell}")
            except PreconditionViolated:
                pass
        else:
            try:
                j1, j2 = sum_partition_two(a, ell)
            except Exception as exc:  # noqa: BLE001
                res.fail(f"two-part failed on {a}, ell={ell}: {exc}")
                return
            s1 = sum(a[i] for i in j1)
            s2 = sum(a[i] for i in j2)
            if sorted(j1 + j2) != list(range(len(a))) or not (s2 <= s1 <= (2 * ell) // 3):
                res.fail(f"two-part returned a bad split on {a}, ell={ell}")
            if not _two_part_feasible(a, ell):
                res.fail(f"two-part solved an instance the brute force calls infeasible")
        try:
            i1, i2, i3 = sum_partition_three(a, ell)
        except Exception as exc:  # noqa: BLE001
            res.fail(f"three-part failed on {a}, ell={ell}: {exc}")
            return
        sums = [sum(a[i] for i in part) for part in (i1, i2, i3)]
        if sorted(i1 + i2 + i3) != list(range(len(a))):
            res.fail(f"three-part is not a partition on {a}, ell={ell}")
        if not (sums[2] <= sums[1] <= sums[0] <= -(-ell // 2)) or len(i3) > 1:
            res.fail(f"three-part returned a bad split on {a}, ell={ell}")

    for ell in range(1, 13):
        for m in range(0, 9):
            for combo in combinations_with_replacement(range(1, 5), m):
                try_pair(list(combo), ell)
    # every ordering for short sequences: index bookkeeping must not care
    for ell in range(1, 13):
        for m in range(1, 6):
            for combo in combinations_with_replacement(range(1, 5), m):
                for arrangement in set(perms(combo)):
                    try_pair(list(arrangement), ell)
    return res


# ---------------------------------------------------------------------------
# embedder invariants


def check_greedy_total(seed: int = 0, count: int = 1000) -> CheckResult:
    res = CheckResult("greedy embedding: total under its degree preconditions")
    rng = random.Random(repr(("greedy", seed)))
    for i in range(count):
        k = rng.randrange(1, 9)
        t = gen_random_tree(k + 1, rng.randrange(2, 5), seed * 23 + i).with_root(0)
        n = rng.randrange(k + 2, k + 9)
        g = gen_random_graph_min_degree(n, k + 1, seed * 29 + i)
        x = rng.randrange(n)
        if g.degree(x) < t.max_degree():
            continue
        res.runs += 1
        try:
            out = greedy_embed(g, t, x)
        except (PreconditionViolated, EmbedNotFound) as exc:
            res.fail(f"instance {i}: greedy raised {type(exc).__name__}")
            continue
        if out.status != "found":
            res.fail(f"instance {i}: status {out.status}")
    return res


def pipeline_attempts(g: Graph, t: Tree):
    """Specialized-embedder attempts derivable from a bare (host, tree) pair.

    Yields (name, callable); callables raise PreconditionViolated when the
    instance does not fit their contract.
    """
    if g.n == 0 or t.n == 0:
        return
    x = g.degrees().index(g.max_degree())  # the first vertex of maximum degree
    deg = list(map(len, t.adjacency))
    root = deg.index(max(deg))  # the first vertex of maximum degree
    yield "greedy", lambda: greedy_embed(g, t, x, root=root)

    parts = g.component_layers(1 << x)  # the components of g - x
    if len(parts) >= 2:
        biggest = sorted(parts, key=lambda p: p[0].bit_count(), reverse=True)[:3]
        cs = [VertexSet(_bits(comp), g.n) for comp, _, _ in biggest]
        yield "apex_split", lambda: apex_split_embed(g, x, cs[0], cs[1], t)
        if len(cs) == 3:
            yield "apex_three_split", lambda: apex_three_split_embed(g, x, cs[0], cs[1], cs[2], t)
    sides = _two_sides(g, parts) if parts else None
    if sides is not None:
        yield "bipartite_apex", lambda: bipartite_apex_embed(g, x, sides[0], sides[1], t)


def cross_check_pair(g: Graph, t: Tree, budget: int = 10**7) -> list[str]:
    """Run every applicable specialized embedder against the oracle verdict.

    Returns discrepancy descriptions (empty = clean).  A specialized run
    whose preconditions held while the exhaustive oracle proves
    non-containment is a discrepancy even if the specialized procedure bailed
    out.  A specialized "found" needs no second look: every one has passed
    validation before it returns, or raised InternalInvariantError.
    """
    problems = []
    oracle = brute_force_embed(g, t, budget=budget)
    for name, attempt in pipeline_attempts(g, t):
        try:
            attempt()
        except PreconditionViolated:
            continue
        except EmbedNotFound:
            pass
        if oracle.status == "not_found":
            problems.append(f"{name}: preconditions held but oracle proves non-containment")
    return problems


def check_oracle_agreement(hosts, trees, budget: int = 10**7) -> CheckResult:
    res = CheckResult("oracle cross-agreement over the stored corpus")
    for g in hosts:
        for t in trees:
            if t.n > g.n:
                continue
            res.runs += 1
            for msg in cross_check_pair(g, t, budget=budget):
                res.fail(f"host(n={g.n},m={g.edge_count}) tree(n={t.n}): {msg}")
    return res


def _escape_path_host(size: int, x_degree: int) -> tuple[Graph, dict]:
    """Three disjoint cliques A, B1, B2 of `size` vertices, x adjacent to
    x_degree vertices of A and of B1, and a bridge a-b from A into B2; with
    `embed_via_path`'s keyword arguments for them."""
    A, B1, B2 = (list(range(b * size, (b + 1) * size)) for b in range(3))
    x = 3 * size
    edges = [e for blk in (A, B1, B2) for e in combinations(blk, 2)]
    edges += [(x, v) for v in A[:x_degree] + B1[:x_degree]]
    a, b = A[-1], B2[0]
    g = Graph(x + 1, edges + [(a, b)])
    pools = dict(a_set=VertexSet(A, g.n), b1_set=VertexSet(B1, g.n), b2_set=VertexSet(B2, g.n))
    return g, dict(x=x, a=a, b=b, **pools)


def structured_embedder_instances() -> list[tuple[str, Graph, Tree, object]]:
    """Hand-built hosts exercising the path-escape and matching-forest embedders."""
    out = []

    # escape-path instances.  The spider's three legs of four regroup into the
    # two pools, so the embedder takes its two-pool short-circuit; no
    # regrouping of three 16-vertex branches lands in the window [17, 31] of
    # 32-vertex cliques, so it routes the heavy branch along a path through A
    for size, x_degree, t in ((10, 4, gen_spider(9, 3)), (32, 3, gen_three_branch_tree(48))):
        g, args = _escape_path_host(size, x_degree)
        out.append(("embed_via_path", g, t, args))

    # matching-forest instance: K14 core with pendant K8 blocks behind portals
    core = list(range(14))
    edges = [(u, v) for u, v in combinations(core, 2)]
    pools = []
    nxt = 14
    for p in range(3):
        blk = list(range(nxt, nxt + 8))
        pools.append(blk)
        edges.extend((u, v) for u, v in combinations(blk, 2))
        edges.append((p, blk[0]))
        nxt += 8
    g2 = Graph(nxt, edges)
    t2 = gen_caterpillar(9, 4, seed=5)
    portals = [((p, pools[p][0]), VertexSet(pools[p], g2.n)) for p in range(3)]
    out.append(("matching_forest", g2, t2, {"host_core": VertexSet(core, g2.n), "portals": portals}))
    return out


def check_structured_embedders(budget: int = 10**7) -> CheckResult:
    res = CheckResult("escape-path and matching-forest embedders on structured hosts")
    for name, g, t, args in structured_embedder_instances():
        res.runs += 1
        try:
            if name == "embed_via_path":
                out = embed_via_path(g, t=t, **args)
            else:
                out = matching_forest_embed(g, t=t, **args)
        except (PreconditionViolated, EmbedNotFound) as exc:
            res.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        ok, why = validate(g, t, out.embedding)
        if not ok:
            res.fail(f"{name}: invalid embedding ({why})")
        oracle = brute_force_embed(g, t, budget=budget)
        if oracle.status == "not_found":
            res.fail(f"{name}: oracle contradicts the constructive embedding")
    return res


# ---------------------------------------------------------------------------
# decomposition invariants


def refine_instance(seed: int, i: int):
    """Seeded refinement instances on at most 18 vertices, mixing bridged
    cliques, disconnected clusters, and low-degree middles."""
    rng = random.Random(repr(("refine", seed, i)))
    variant = i % 3
    if variant == 0:
        s1 = rng.randrange(5, 9)
        s2 = rng.randrange(5, 10 - max(0, s1 - 8))
        edges = [(u, v) for u, v in combinations(range(s1), 2)]
        edges += [(s1 + u, s1 + v) for u, v in combinations(range(s2), 2)]
        bridges = rng.randrange(1, 3)
        for bidx in range(bridges):
            edges.append((bidx % s1, s1 + (bidx % s2)))
        g = Graph(s1 + s2, edges)
        k = min(s1, s2) - 1
        rho = Fraction(1, 40)
    elif variant == 1:
        sizes = [rng.randrange(4, 7) for _ in range(rng.randrange(2, 4))]
        sizes = sizes[: max(1, 18 // max(sizes))]
        edges = []
        base = 0
        for s in sizes:
            edges.extend((base + u, base + v) for u, v in combinations(range(s), 2))
            base += s
        g = Graph(base, edges)
        k = min(sizes) - 1
        rho = Fraction(1, 100)
    else:
        s = rng.randrange(5, 8)
        mid = rng.randrange(2, 4)
        edges = [(u, v) for u, v in combinations(range(s), 2)]
        edges += [(s + mid + u, s + mid + v) for u, v in combinations(range(s), 2)]
        chain = [s - 1] + [s + j for j in range(mid)] + [s + mid]
        edges += list(zip(chain, chain[1:]))
        g = Graph(2 * s + mid, edges)
        k = 2
        rho = Fraction(1, 12)
    a = Fraction(1, 2)
    eps = Fraction(g.min_degree(), k) - a if Fraction(g.min_degree(), k) > a else Fraction(1, 100)
    eps = min(eps, Fraction(1, 2))
    delta = Fraction(1, 4)
    return g, a, eps, delta, k, rho


def check_refine_contract(seed: int = 0, count: int = 100) -> CheckResult:
    res = CheckResult("cut-dense refinement: certification, deletions, degree floor")
    for i in range(count):
        g, a, eps, delta, k, rho = refine_instance(seed, i)
        if g.min_degree() < (a + eps) * k:
            continue
        res.runs += 1
        try:
            out = refine_cut_dense(g, a, eps, delta, k, rho=rho, relax_delta=True)
        except Exception as exc:  # noqa: BLE001
            res.fail(f"instance {i}: raised {type(exc).__name__}: {exc}")
            continue
        for comp in out.graph.components():
            if len(comp) < 2:
                continue
            sub, _ = out.graph.induced(comp)
            wit = cut_density(sub).witness
            if wit.density < rho:
                res.fail(f"instance {i}: final component below rho")
        if len(out.removed_vertices) > 200 * delta * g.n:
            res.fail(f"instance {i}: removed too many vertices")
        if out.graph.n and out.graph.min_degree() < (a + eps - 400 * delta) * k:
            res.fail(f"instance {i}: min degree fell below the floor")
    return res


def _independent_rich(g: Graph, members: tuple[int, ...], p: RichParams) -> bool:
    sub, _ = g.induced(members)
    if sub.min_degree() < p.c * p.k:
        return False
    bound = min(3 * p.k, sub.n)
    covered = False
    for size in range(0, bound + 1):
        if covered:
            break
        for pick in combinations(range(sub.n), size):
            ps = set(pick)
            if all(u in ps or v in ps for u, v in sub.edges()):
                covered = True
                break
    if not covered:
        return False
    if sub.n >= 2 and p.rho > 0 and _min_cut_reference(sub) < p.rho:
        return False
    return len(members) < 100 * p.k


def check_rich_independent(seed: int = 0, count: int = 200) -> CheckResult:
    res = CheckResult("richness: agrees with an independent re-implementation")
    rng = random.Random(repr(("rich", seed)))
    for i in range(count):
        n = rng.randrange(3, 11)
        g = gen_random_connected_graph(n, rng.randrange(0, 2 * n), seed * 41 + i)
        hsize = rng.randrange(2, n + 1)
        h = tuple(sorted(rng.sample(range(n), hsize)))
        k = rng.randrange(1, 5)
        p = RichParams(Fraction(rng.randrange(0, 3), 4), Fraction(rng.randrange(0, 3), 8), k)
        res.runs += 1
        rep = is_rich(g, VertexSet(h, g.n), p)
        want = _independent_rich(g, h, p)
        if rep.rich != want:
            res.fail(f"instance {i}: is_rich {rep.rich} != reference {want}")
        # rho monotonicity: raising rho can only destroy richness
        p_hi = RichParams(p.c, p.rho + Fraction(1, 8), p.k)
        rep_hi = is_rich(g, VertexSet(h, g.n), p_hi)
        if rep_hi.rich and not rep.rich:
            res.fail(f"instance {i}: richness appeared when rho grew")
    return res


def check_classify_accounting(seed: int = 0, count: int = 150) -> CheckResult:
    res = CheckResult("classification: residual degrees account exactly")
    rng = random.Random(repr(("classify", seed)))
    for i in range(count):
        n = rng.randrange(4, 16)
        g = gen_random_connected_graph(n, rng.randrange(0, 2 * n), seed * 43 + i)
        pool = list(range(n))
        rng.shuffle(pool)
        cut1 = rng.randrange(0, n + 1)
        cut2 = rng.randrange(cut1, n + 1)
        comps = [sorted(pool[:cut1]), sorted(pool[cut1:cut2])]
        comps = [c for c in comps if c]
        res.runs += 1
        rep = classify_components(g, [VertexSet(c, n) for c in comps], s=2, t=2)
        for aff in rep.affinities:
            lhs = aff.residual_degree + aff.best_count + aff.second_count
            if lhs != g.degree(aff.vertex):
                res.fail(f"instance {i}: accounting broke at vertex {aff.vertex}")
    return res


ALL_CHECKS = {
    "periphery_monotonic": check_periphery_monotonic,
    "cut_density_cross": check_cut_density_cross,
    "matching_bound": check_matching_bound,
    "even_walk_bound": check_even_walk_bound,
    "diameter_bound": check_diameter_bound,
    "path_in_range": check_path_in_range,
    "tree_splitting": check_tree_splitting,
    "even_odd_exhaustive": check_even_odd_exhaustive,
    "msf": check_msf,
    "msf_p3_paths": check_msf_p3_paths,
    "sum_partition_exhaustive": check_sum_partition_exhaustive,
    "greedy_total": check_greedy_total,
    "structured_embedders": check_structured_embedders,
    "refine_contract": check_refine_contract,
    "rich_independent": check_rich_independent,
    "classify_accounting": check_classify_accounting,
}
