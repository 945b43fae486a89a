"""Tree-toolkit tests: splitting procedures and their certified records."""

import dataclasses
import hashlib
import random
from fractions import Fraction
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed.corpus import _free_tree_code, all_trees_up_to
from treebed.errors import InternalInvariantError, PreconditionViolated
from treebed.generators import gen_path, gen_random_tree, gen_spider, gen_three_branch_tree
from treebed.graph import VertexSet
from treebed.trees import (
    MSFDecomposition,
    RootedView,
    ThreeForestSplit,
    Tree,
    TwoForestSplit,
    _steiner_size,
    _subset_with_sum,
    balanced_separator_vertex,
    bipartition_classes,
    chain_split,
    even_odd_sets,
    even_odd_split,
    msf_decomposition,
    split_three_forests,
    split_two_forests,
    subtree_split,
    sum_partition_three,
    sum_partition_two,
)

STAR4 = Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
STAR6 = Tree(7, [(0, i) for i in range(1, 7)])
FIG1 = gen_three_branch_tree(6)


def test_tree_validation():
    with pytest.raises(PreconditionViolated):
        Tree(3, [(0, 1)])  # too few edges
    with pytest.raises(PreconditionViolated):
        Tree(4, [(0, 1), (0, 1), (2, 3)])  # duplicate edge leaves it disconnected
    with pytest.raises(PreconditionViolated):
        Tree(3, [(0, 1), (0, 1)])


def test_tree_json_roundtrip():
    t = gen_spider(6, 3)
    assert Tree.from_json(t.to_json()) == t
    assert Tree.from_json(t.to_json()).root == t.root


def test_even_odd_sets_examples():
    ev, od = even_odd_sets(STAR4, 0)
    assert ev.members == () and od.members == (1, 2, 3, 4)
    p5 = gen_path(5)
    ev, od = even_odd_sets(p5, 0)
    assert ev.members == (2, 4) and od.members == (1, 3)
    assert even_odd_sets(Tree(1, []), 0) == (ev.__class__([], 1), ev.__class__([], 1))


def test_bipartition_classes_examples():
    c0, c1 = bipartition_classes(Tree(4, [(0, 1), (0, 2), (0, 3)]))
    assert sorted((len(c0), len(c1))) == [1, 3]  # 1 >= k/max_degree = 1
    c0, c1 = bipartition_classes(gen_path(7))
    assert sorted((len(c0), len(c1))) == [3, 4]
    spider = gen_spider(6, 3)  # center + 3 mids + 6 leaves: classes 7 and 3
    c0, c1 = bipartition_classes(spider)
    assert min(len(c0), len(c1)) >= Fraction(spider.k, spider.max_degree())


def test_separator_examples():
    assert balanced_separator_vertex(gen_path(5)) == 2
    assert balanced_separator_vertex(STAR6) == 0
    assert balanced_separator_vertex(FIG1) == 0  # the degree-3 center
    assert balanced_separator_vertex(Tree(1, [])) == 0


def test_sum_partition_two_examples():
    j1, j2 = sum_partition_two([3, 3], 6)
    assert {len(j1), len(j2)} == {1}
    j1, j2 = sum_partition_two([2, 2, 2], 6)
    assert sum(2 for _ in j1) == 4 and sum(2 for _ in j2) == 2
    j1, j2 = sum_partition_two([3, 2, 1], 6)
    s1 = sum([3, 2, 1][i] for i in j1)
    assert 3 <= s1 <= 4
    with pytest.raises(PreconditionViolated):
        sum_partition_two([4, 1], 6)  # entry above ceil(ell/2)
    with pytest.raises(PreconditionViolated):
        sum_partition_two([1], 1)  # the infeasible nonzero corner needs ell >= 2


def test_sum_partition_three_examples():
    i1, i2, i3 = sum_partition_three([2, 2, 2], 6)
    assert [sum([2, 2, 2][i] for i in p) for p in (i1, i2, i3)] == [2, 2, 2]
    i1, i2, i3 = sum_partition_three([3, 3], 6)
    assert len(i3) == 0 and sum(len(p) for p in (i1, i2, i3)) == 2
    i1, i2, i3 = sum_partition_three([3, 2, 1], 6)
    sums = [sum([3, 2, 1][i] for i in p) for p in (i1, i2, i3)]
    assert sums[2] <= sums[1] <= sums[0] <= 3 and len(i3) <= 1
    assert sum_partition_three([1], 1) == ((0,), (), ())


def _subset_sums(a):
    """Sum of every index subset of a, by bitmask."""
    sums = [0] * (1 << len(a))
    for mask in range(1, 1 << len(a)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + a[low.bit_length() - 1]
    return sums


def test_subset_with_sum_against_brute_force():
    rng = random.Random(11)
    for _ in range(600):
        d = rng.randrange(0, 13)
        a = [rng.randrange(0, 9) for _ in range(d)]
        lo, hi = rng.randrange(-3, 40), rng.randrange(-3, 40)
        skip = rng.randrange(-1, d) if d else -1
        sums = _subset_sums(a)
        allowed = [m for m in range(1 << d) if skip < 0 or not m >> skip & 1]
        in_window = [sums[m] for m in allowed if lo <= sums[m] <= hi]
        got = _subset_with_sum(a, lo, hi, skip)
        if not in_window:
            assert got is None
            continue
        assert got is not None and list(got) == sorted(set(got)) and skip not in got
        assert sum(a[i] for i in got) == min(in_window)
    assert _subset_with_sum([3, 5], 1, 2) is None  # empty window between sums
    assert _subset_with_sum([3, 5], 4, 3) is None  # hi < lo
    assert _subset_with_sum([3, 5], -4, 6) == ()  # the empty subset is least
    assert _subset_with_sum([3, 5], 5, 8, skip=1) is None


def _two_part_feasible(a, ell):
    total, cap = sum(a), (2 * ell) // 3
    return any(max(s, total - s) <= cap for s in _subset_sums(a))


def _three_part_feasible(a, ell):
    """The three-part contract by enumeration: after sorting by (-sum, -size)
    the last part holds at most one item, and no part exceeds ceil(ell/2)."""
    m, cap = len(a), -(-ell // 2)
    for solo in [None] + list(range(m)):
        rest = [i for i in range(m) if i != solo]
        third = [] if solo is None else [solo]
        for mask in range(1 << len(rest)):
            p1 = [i for j, i in enumerate(rest) if mask >> j & 1]
            p2 = [i for j, i in enumerate(rest) if not mask >> j & 1]
            parts = sorted(
                ([sum(a[i] for i in p), p] for p in (p1, p2, third)),
                key=lambda sp: (-sp[0], -len(sp[1]), sp[1]),
            )
            if len(parts[2][1]) <= 1 and parts[0][0] <= cap:
                return True
    return False


def _check_two(a, ell, j1, j2):
    s1, s2 = sum(a[i] for i in j1), sum(a[i] for i in j2)
    assert sorted(j1 + j2) == list(range(len(a)))
    assert s2 <= s1 <= (2 * ell) // 3


def _check_three(a, ell, parts):
    sums = [sum(a[i] for i in p) for p in parts]
    assert sorted(i for p in parts for i in p) == list(range(len(a)))
    assert sums[2] <= sums[1] <= sums[0] <= -(-ell // 2) and len(parts[2]) <= 1


def test_sum_partitions_against_brute_force():
    # [3, 3, 7, 11]: only I3 = {3} works; with I3 = {7} the sides 3+3 and 11
    # fit the cap, but the lighter side falls below a_i = 7
    cases = [([3, 3, 7, 11], 24)]
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randrange(0, 13)
        ell = rng.randrange(1, 25)
        half = -(-ell // 2)
        a = [rng.randrange(0, half + 1) for _ in range(m)]
        while sum(a) > ell:
            a[rng.randrange(m)] //= 2
        cases.append((a, ell))
    for a, ell in cases:
        if _two_part_feasible(a, ell):
            _check_two(a, ell, *sum_partition_two(a, ell))
        else:
            with pytest.raises(PreconditionViolated):
                sum_partition_two(a, ell)
        if _three_part_feasible(a, ell):
            _check_three(a, ell, sum_partition_three(a, ell))
        else:
            with pytest.raises(PreconditionViolated):
                sum_partition_three(a, ell)


@pytest.mark.parametrize("m", [25, 60, 300])
def test_sum_partitions_beyond_small_sizes(m):
    rng = random.Random(m)
    shapes = [
        [rng.randrange(0, 6) for _ in range(m)],
        [1] * m,
        [m - 1] + [1] * (m - 1),  # one item at ceil(ell/2) when ell = sum(a)
    ]
    for a in shapes:
        for ell in (sum(a), sum(a) + 7):
            if ell < 2 or max(a) > -(-ell // 2):
                continue
            _check_two(a, ell, *sum_partition_two(a, ell))
            _check_three(a, ell, sum_partition_three(a, ell))


def test_split_two_forests_examples():
    s = split_two_forests(FIG1)
    assert s.pivot == 0 and (len(s.f1), len(s.f2)) == (4, 2)
    s = split_two_forests(gen_path(7))
    assert (len(s.f1), len(s.f2)) == (3, 3)
    s = split_two_forests(STAR6)
    assert (len(s.f1), len(s.f2)) == (4, 2)
    with pytest.raises(PreconditionViolated):
        split_two_forests(Tree(2, [(0, 1)]))


def test_split_three_forests_examples():
    s = split_three_forests(FIG1)
    assert sorted(map(len, (s.f1, s.f2, s.f3))) == [2, 2, 2]
    s = split_three_forests(gen_path(7))
    assert sorted(map(len, (s.f1, s.f2, s.f3))) == [0, 3, 3]
    # the star admits several feasible groupings; the record certifies the
    # bounds (parts within ceil(k/2), f3 empty or one whole component)
    s = split_three_forests(STAR6)
    assert len(s.f1) + len(s.f2) + len(s.f3) == 6
    assert max(map(len, (s.f1, s.f2, s.f3))) <= 3


def test_subtree_split_examples():
    p9 = gen_path(9)
    s1, s2 = subtree_split(p9, 0, 3)
    assert 3 <= len(s2) <= 9
    assert 0 in s1.vertices
    assert len(set(s1.vertices) & set(s2.vertices)) == 1
    assert sorted(s1.edges + s2.edges) == list(p9.edges)
    star8 = Tree(9, [(0, i) for i in range(1, 9)])
    s1, s2 = subtree_split(star8, 0, 3)
    assert 0 in s2.vertices  # the split-off part keeps the shared center
    assert 3 <= len(s2) <= 9
    s1, s2 = subtree_split(p9, 0, 3)  # m = floor(n/3) boundary
    assert 3 <= len(s2) <= 9
    with pytest.raises(PreconditionViolated):
        subtree_split(p9, 0, 4)


def test_chain_split_examples():
    p9 = gen_path(9)
    cs = chain_split(p9, 3)
    assert len(cs.s0) == 3 and len(cs.others) <= log(9) / log(1.5)
    cs = chain_split(p9, 9)
    assert len(cs.s0) == 9 and not cs.others
    spider = gen_three_branch_tree(6)
    cs = chain_split(spider, 4)
    assert len(cs.s0) == 4
    for piece, ap in zip(cs.others, cs.attach_points):
        assert set(piece.vertices) & set(cs.s0.vertices) == {ap}


def test_even_odd_split_examples():
    eo = even_odd_split(Tree(2, [(0, 1)]))
    assert eo.bound() == Fraction(7, 6)
    assert max(eo.class_load(1), eo.class_load(2)) <= eo.bound()
    eo = even_odd_split(STAR6)
    assert eo.root == 0
    assert max(eo.class_load(1), eo.class_load(2)) <= (Fraction(2, 3) - Fraction(1, 18)) * 7 + Fraction(1, 2)
    # exhaustive cross-check on P5: the returned pair is feasible
    eo = even_odd_split(gen_path(5))
    assert max(eo.class_load(1), eo.class_load(2)) <= eo.bound()


def test_msf_examples():
    d = msf_decomposition(FIG1)
    assert d.matching == () and d.f_components == () and len(d.s_vertices) == 7
    pn = gen_path(41)
    d = msf_decomposition(pn)
    assert d.matching
    rooted = pn.rooted(d.root)
    for s_end, _ in d.matching:
        assert rooted.depth[s_end] == 2
    full = Tree(2**6 - 1, [((i - 1) // 2, i) for i in range(1, 2**6 - 1)])
    d = msf_decomposition(full)
    assert d.matching  # complete binary tree yields a nonempty matching


def test_msf_s_bound_threshold():
    t = gen_path(5000)
    d = msf_decomposition(t)
    assert d.s_bound_checked and d.s_size <= -(-t.k // 2)
    t2 = gen_path(30)
    d2 = msf_decomposition(t2)
    assert not d2.s_bound_checked  # below the large-k threshold: measured only


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 60), st.integers(2, 5))
def test_split_records_certify(seed, n, dmax):
    t = gen_random_tree(n, dmax, seed)
    split_two_forests(t)
    split_three_forests(t)
    even_odd_split(t)
    msf_decomposition(t)


def test_records_check_only_a_view_of_their_own_tree():
    t = gen_random_tree(30, 3, 1)
    twin = Tree(t.n, t.edges)  # equal to t, but not t
    for rec in (split_two_forests(t), split_three_forests(t), even_odd_split(t), msf_decomposition(t)):
        root = rec.root if isinstance(rec, MSFDecomposition) else 0
        args = [getattr(rec, f.name) for f in dataclasses.fields(rec) if f.init]
        assert type(rec)(*args, t.rooted(root)) == rec
        for view in (twin.rooted(root), t.rooted((root + 1) % t.n)):
            with pytest.raises(InternalInvariantError, match="view of another tree or root"):
                type(rec)(*args, view)


def test_records_reject_broken_forests_and_a_split_s():
    # STAR6 - 0 is six singletons; f3 = {5, 6} holds two of them
    rv = STAR6.rooted(0)
    vs = [VertexSet(p, 7) for p in ((1, 2, 3), (4,), (5, 6))]
    with pytest.raises(InternalInvariantError, match="single component"):
        ThreeForestSplit(STAR6, 0, *vs, rv)
    # on the path 0-..-6 with pivot 3, moving 1 away from 0 and 2 breaks {0, 1, 2}
    p7 = gen_path(7)
    with pytest.raises(InternalInvariantError, match="breaks a component"):
        TwoForestSplit(p7, 3, VertexSet((0, 2, 4), 7), VertexSet((1, 5, 6), 7), p7.rooted(0))
    for f2 in ((2, 4, 5), (4, 5), (3, 5, 6)):  # overlapping, short, holding the pivot
        with pytest.raises(InternalInvariantError, match="do not partition"):
            TwoForestSplit(p7, 3, VertexSet((0, 1, 2), 7), VertexSet(f2, 7), p7.rooted(0))
    # S = {0, 1} + {5, 6} with F = {2, 3, 4} between them: every other bound holds
    with pytest.raises(InternalInvariantError, match="S is not a subtree"):
        MSFDecomposition(
            p7, 0, ((1, 2), (5, 4)), (0, 1, 5, 6), ((2, 3, 4),), ((1, 2), (5, 4)), 100, p7.rooted(0)
        )


def test_steiner_size_matches_leaf_stripping():
    for t in all_trees_up_to(7):
        for terminals in range(1, 1 << t.n):
            term = [v for v in range(t.n) if terminals >> v & 1]
            alive = set(range(t.n))
            while True:
                leaves = [
                    v for v in alive if v not in term and sum(w in alive for w in t.neighbors(v)) <= 1
                ]
                if not leaves:
                    break
                alive -= set(leaves)
            for root in {0, t.n - 1}:
                assert _steiner_size(t.rooted(root), term) == len(alive)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 40))
def test_chain_split_property(seed, n):
    t = gen_random_tree(n, 5, seed)
    m = seed % n + 1
    cs = chain_split(t, m)
    assert len(cs.s0) == m
    edge_multiset = sorted(cs.s0.edges + tuple(e for p in cs.others for e in p.edges))
    assert tuple(edge_multiset) == t.edges


# Golden digests of the splitting outputs and of the free-tree codes.  The
# splits are deterministic functions of the tree, so a change of any root,
# class, core, piece or code is a deliberate, recorded change.
_SPLIT_DIGEST = "cdd483d7d11b1a9f3f3167d26357ef5ff54682c86e017f470263ca6df7d2ffdd"
_TREE_CODE_DIGEST = "f7bcc1d0b412562764270483fbe740ea96090cc48507950c99a4f6f0a1731078"


def _digest_trees():
    for n in (*range(2, 61), 100, 200):
        for d in range(2, 7):
            for seed in range(3):
                yield f"{n} {d} {seed}", gen_random_tree(n, d, seed)
    for n in (4097, 5000):
        yield f"path {n}", gen_path(n)


def test_split_outputs_pinned():
    h = hashlib.sha256()
    for label, t in _digest_trees():
        n = t.n
        eo = even_odd_split(t)
        h.update(
            f"{label} eo {eo.root} {eo.components} {eo.class1} {eo.class2} "
            f"{eo.even_counts} {eo.odd_counts}\n".encode()
        )
        for m in sorted({1, -(-n // 3), -(-n // 2), n}):
            cs = chain_split(t, m)
            pieces = [(p.vertices, p.edges) for p in cs.others]
            h.update(
                f"{label} chain {m} {cs.s0.vertices} {cs.s0.edges} {pieces} "
                f"{cs.attach_points}\n".encode()
            )
        if n >= 3:
            for v in (0, n - 1):
                s1, s2 = subtree_split(t, v, n // 3)
                h.update(
                    f"{label} subtree {v} {s1.vertices} {s1.edges} {s2.vertices} "
                    f"{s2.edges}\n".encode()
                )
        d = msf_decomposition(t)
        h.update(f"{label} msf {d.root} {d.matching} {d.s_vertices} {d.f_components}\n".encode())
    assert h.hexdigest() == _SPLIT_DIGEST


_SEPARATOR_SPLIT_DIGEST = "fffc8cb3345b24a7470e5ad70f557627e726e1c154c19082d1d28c814e0b442d"


def test_separator_splits_and_classes_pinned():
    h = hashlib.sha256()
    for label, t in _digest_trees():
        n = t.n
        h.update(f"{label} sep {balanced_separator_vertex(t)}\n".encode())
        if n >= 3:
            two = split_two_forests(t)
            h.update(f"{label} two {two.pivot} {two.f1.members} {two.f2.members}\n".encode())
        three = split_three_forests(t)
        h.update(
            f"{label} three {three.pivot} {three.f1.members} {three.f2.members} "
            f"{three.f3.members}\n".encode()
        )
        c0, c1 = bipartition_classes(t)
        h.update(f"{label} classes {c0.members} {c1.members}\n".encode())
        for v in (0, n - 1):
            ev, od = even_odd_sets(t, v)
            h.update(f"{label} even_odd {v} {ev.members} {od.members}\n".encode())
    assert h.hexdigest() == _SEPARATOR_SPLIT_DIGEST


def _plain_walk(t, root):
    """Parent, depth and children of t rooted at root, by a stack walk that
    shares no code with RootedView."""
    parent, depth, children = {root: -1}, {root: 0}, {v: [] for v in range(t.n)}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in t.neighbors(v):
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                children[v].append(w)
                stack.append(w)
    return parent, depth, {v: sorted(cs) for v, cs in children.items()}


def _plain_components(t, removed):
    """Components of t - removed as sorted tuples, ordered by least vertex."""
    comps, seen = [], {removed}
    for s in range(t.n):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in t.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def test_rooted_view_matches_a_plain_walk():
    for t in all_trees_up_to(9):
        for root in range(t.n):
            rv = t.rooted(root)
            parent, depth, children = _plain_walk(t, root)
            assert rv.tree is t and rv.root == root
            assert sorted(rv.order) == list(range(t.n)) and rv.order[0] == root
            assert [depth[v] for v in rv.order] == sorted(depth.values())
            for v in range(t.n):
                below = [u for u in range(t.n) if u == v or _is_below(parent, u, v)]
                assert rv.parent[v] == parent[v]
                assert rv.depth[v] == depth[v]
                assert sorted(rv.children[v]) == children[v]
                assert rv.subtree_size[v] == len(below)
                assert rv.subtree_vertices(v) == tuple(below)
                assert rv.components_without(v) == _plain_components(t, v)


def test_rooted_returns_the_last_view_of_the_same_tree_object():
    t = gen_random_tree(30, 3, 1)
    twin = Tree(t.n, t.edges)  # equal to t, but not t
    rv = t.rooted(0)
    assert t.rooted(0) is rv
    tv = twin.rooted(0)  # keyed by identity: the twin gets a view of its own
    assert tv is not rv and tv.tree is twin and rv.tree is t
    rec = split_two_forests(t)
    args = [getattr(rec, f.name) for f in dataclasses.fields(rec) if f.init]
    with pytest.raises(InternalInvariantError, match="view of another tree or root"):
        TwoForestSplit(*args, twin.rooted(0))
    assert TwoForestSplit(*args, t.rooted(0)) == rec


def test_interleaved_rooted_calls_match_fresh_views():
    a, b = gen_random_tree(40, 4, 2), gen_random_tree(40, 4, 3)
    twin = Tree(a.n, a.edges)
    rng = random.Random(5)
    last = None  # (tree, root, view) of the previous call
    for _ in range(300):
        t, r = rng.choice((a, b, twin)), rng.randrange(3)  # few roots, so repeats occur
        rv, fresh = t.rooted(r), RootedView(t, r)
        assert rv.tree is t
        for name in RootedView.__slots__:
            assert getattr(rv, name) == getattr(fresh, name), name
        if last is not None:
            assert (rv is last[2]) == (t is last[0] and r == last[1])
        last = (t, r, rv)


def test_a_split_pass_roots_each_tree_at_most_twice(monkeypatch):
    # the five procedures rooting at 0 share one view; msf_decomposition adds
    # the view at its separator
    built = []
    init = RootedView.__init__

    def counting_init(self, tree, root):
        built.append((tree, root))
        init(self, tree, root)

    monkeypatch.setattr(RootedView, "__init__", counting_init)
    for seed in range(40):
        t = gen_random_tree(3 + seed * 4, 2 + seed % 4, seed)
        built.clear()
        balanced_separator_vertex(t)
        split_two_forests(t)
        split_three_forests(t)
        chain_split(t, 1 + seed % t.n)
        even_odd_split(t)
        d = msf_decomposition(t)
        assert [r for _, r in built] == ([0] if d.root == 0 else [0, d.root])
        assert all(tree is t for tree, _ in built)


def _is_below(parent, u, v):
    while u != -1:
        u = parent[u]
        if u == v:
            return True
    return False


def test_free_tree_codes_pinned():
    h = hashlib.sha256()
    for t in all_trees_up_to(10):
        h.update(f"{t.n} {t.edges} {_free_tree_code(t)}\n".encode())
    assert h.hexdigest() == _TREE_CODE_DIGEST
