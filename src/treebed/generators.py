"""Generators: extremal host families, named tree families, and seeded random corpora.

Every asserted degree profile is recomputed from the built adjacency rather
than trusted from the construction; identical (family, params, seed) always
yields an identical object.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from math import factorial, gcd
from operator import eq
from typing import Optional, Sequence

from .errors import Infeasible, InternalInvariantError, PreconditionViolated
from .graph import Graph, _bits
from .trees import Tree


@dataclass(frozen=True)
class FamilySpec:
    """A reproducible recipe: family id plus its parameters (and seed if random)."""

    family: str
    params: dict = field(default_factory=dict)
    seed: Optional[int] = None


def _assert_profile(g: Graph, min_deg: int, max_deg: int) -> None:
    if g.min_degree() != min_deg or g.max_degree() != max_deg:
        raise InternalInvariantError(
            f"degree profile drifted: got ({g.min_degree()},{g.max_degree()}),"
            f" wanted ({min_deg},{max_deg})"
        )


# ---------------------------------------------------------------------------
# Extremal hosts


def _two_cliques_apex(k: int, size: int) -> Graph:
    """Two disjoint cliques on `size` vertices plus one vertex adjacent to all
    of them; k must be a positive multiple of 3."""
    if k < 3 or k % 3:
        raise PreconditionViolated("k must be a positive multiple of 3")
    edges = [
        (base + i, base + j) for base in (0, size) for i in range(size) for j in range(i + 1, size)
    ]
    apex = 2 * size
    edges.extend((v, apex) for v in range(apex))
    return Graph(apex + 1, edges)


def gen_two_cliques_apex(k: int) -> Graph:
    """Two disjoint cliques on 2k/3 - 1 vertices plus one universal vertex.

    The tight host for the 2k/3 minimum-degree threshold: min degree lands on
    2k/3 - 1, max degree on 4k/3 - 2 (both re-counted).
    """
    g = _two_cliques_apex(k, 2 * k // 3 - 1)
    _assert_profile(g, 2 * k // 3 - 1, 4 * k // 3 - 2)
    return g


def gen_two_cliques_apex_grown(k: int) -> Graph:
    """The same host with one extra vertex in each clique, lifting min degree
    to exactly floor(2k/3); the threshold's other side."""
    g = _two_cliques_apex(k, 2 * k // 3)
    _assert_profile(g, 2 * k // 3, 4 * k // 3)
    return g


def gen_three_branch_tree(k: int) -> Tree:
    """A degree-3 center with three path branches of k/3 vertices each."""
    if k < 3 or k % 3:
        raise PreconditionViolated("k must be a positive multiple of 3")
    b = k // 3
    edges = []
    nxt = 1
    for _ in range(3):
        prev = 0
        for _ in range(b):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    t = Tree(k + 1, edges, root=0)
    if t.degree(0) != 3 or t.max_degree() != 3:
        raise InternalInvariantError("three-branch tree degree profile drifted")
    return t


def gen_spider(k: int, ell: int) -> Tree:
    """Depth-2 spider: a root with ell children, each having k/ell children.

    Carries ell + k edges in total (the root-to-child edges come on top of
    the k grandchild edges); the constructor reports the true count rather
    than reinterpreting k.
    """
    if ell < 1 or k < 1 or k % ell:
        raise PreconditionViolated("need ell >= 1 dividing k")
    per = k // ell
    edges = []
    nxt = 1
    for _ in range(ell):
        mid = nxt
        nxt += 1
        edges.append((0, mid))
        for _ in range(per):
            edges.append((mid, nxt))
            nxt += 1
    t = Tree(1 + ell + k, edges, root=0)
    want = max(ell, per + 1)
    if t.max_degree() != want or t.k != ell + k:
        raise InternalInvariantError("spider shape drifted")
    return t


def gen_bps_alpha_host(k: int, alpha: Fraction) -> tuple[Graph, int]:
    """Two complete bipartite blocks plus an apex seeing both larger classes.

    Block parts have ceil((1+alpha)k/2) and ceil((1-alpha)k) vertices (the
    second is the larger one for alpha < 1/3); the apex is adjacent to every
    vertex of both larger classes.  Returns (graph, apex id).
    """
    alpha = Fraction(alpha)
    if not (0 < alpha < Fraction(1, 3)):
        raise PreconditionViolated("alpha must lie strictly between 0 and 1/3")
    small = -(-((1 + alpha) * k) // 2)
    big = -(-((1 - alpha) * k) // 1)
    small, big = int(small), int(big)
    edges = []
    offset = 0
    big_classes = []
    for _ in range(2):
        smalls = list(range(offset, offset + small))
        bigs = list(range(offset + small, offset + small + big))
        big_classes.extend(bigs)
        edges.extend((s, b) for s in smalls for b in bigs)
        offset += small + big
    apex = offset
    edges.extend((v, apex) for v in big_classes)
    g = Graph(offset + 1, edges)
    if g.degree(apex) != 2 * big:
        raise InternalInvariantError("apex degree drifted")
    # small-class vertices see the whole big class; big-class ones add the apex
    if g.min_degree() != min(big, small + 1) or g.max_degree() != 2 * big:
        raise InternalInvariantError("block degree profile drifted")
    return g, apex


def gen_clique_chain_apex(k: int, d: int) -> Graph:
    """d disjoint cliques on floor(k/2)-1 vertices, plus an apex with exactly
    one neighbour per clique.  Long paths cannot thread through it."""
    if k < 4 or d < 1:
        raise PreconditionViolated("need k >= 4 and d >= 1")
    size = k // 2 - 1
    edges = []
    for c in range(d):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                edges.append((base + i, base + j))
    apex = d * size
    edges.extend((c * size, apex) for c in range(d))
    g = Graph(d * size + 1, edges)
    if g.degree(apex) != d:
        raise InternalInvariantError("apex degree drifted")
    return g


def gen_complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise PreconditionViolated("both sides must be nonempty")
    return Graph(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def gen_path(n: int) -> Tree:
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    return Tree._from_sorted_edges(n, [(i, i + 1) for i in range(n - 1)], 0)


# ---------------------------------------------------------------------------
# Seeded random corpora


# _TOP_BITS[k] maps a word's top byte to the word's top k bits (k <= 8)
_TOP_BITS = tuple(bytes(b >> (8 - k) for b in range(256)) for k in range(9))
# uniform-code rounds before the exact stage; a bound that rejects this many
# codes in a row is tight, and the exact stage is the cheaper one there
_REJECTION_ROUNDS = 8


def _stream(seed, *key) -> random.Random:
    """The caller's stream when `seed` is a random.Random, drawn from in
    place; otherwise a new one seeded by the generator's key and `seed`."""
    return seed if isinstance(seed, random.Random) else random.Random(repr((*key, seed)))


def _words(raw: bytes) -> tuple[int, ...]:
    """The 32-bit words of a getrandbits(...).to_bytes(..., "little") buffer."""
    return struct.unpack(f"<{len(raw) // 4}I", raw)


@lru_cache(maxsize=256)
def _accepter(bound: int, cum: Optional[tuple[int, ...]] = None):
    """A map from a getrandbits(32 * W).to_bytes(4 * W, "little") buffer to the
    values CPython's randrange(bound) takes from it: the top bound.bit_length()
    bits of each 32-bit Mersenne Twister output, lowest word first, retried
    while >= bound.  Given cumulative integer weights `cum` ending at bound,
    each value v becomes the i with cum[i - 1] <= v < cum[i], a weighted draw."""
    k = bound.bit_length()
    if k <= 8:
        # the top byte of each little-endian word holds the k bits; translate
        # deletes the rejected bytes and maps the kept ones in one C pass
        table = _TOP_BITS[k] if cum is None else bytes(bisect(cum, v) for v in _TOP_BITS[k])
        reject = bytes(range(bound << (8 - k), 256))
        return lambda raw: raw[3::4].translate(table, reject)
    if cum is None:
        return lambda raw: [v for w in _words(raw) if (v := w >> (32 - k)) < bound]
    return lambda raw: [bisect(cum, v) for w in _words(raw) if (v := w >> (32 - k)) < bound]


@lru_cache(maxsize=1024)
def _multiplicity_law(n: int, cap: int):
    """Integer weights w[c] proportional to lam**c / c! on c = 0..cap < 13, a
    truncated Poisson(lam) law.  n draws conditioned on summing to n - 2 have
    one law whatever lam is, so lam = p/q only sets how often they do: q is
    the first (small weights draw fastest) whose p puts the expected sum within
    one standard deviation of n - 2, unless the weights outgrow 32 bits first.
    """
    m, law = n - 2, None
    for q in count(1):
        def at(p: int):  # the weights for lam = p/q, and their sums of c**j * w[c], j = 0, 1, 2
            w = [q**cap * factorial(cap)]
            for c in range(1, cap + 1):
                w.append(w[-1] * p // (q * c))
            return w, *(sum(c**j * x for c, x in enumerate(w)) for j in range(3))

        # the expected sum, n * s1 / s0, is below m at lam = lo/q, not at hi/q
        # (for cap >= 2 the mean is above 1 at lam = 2)
        lo, hi = 0, q * (n if cap == 1 else 2)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            _, s0, s1, _ = at(mid)
            lo, hi = (mid, hi) if n * s1 < m * s0 else (lo, mid)
        for p in filter(None, (lo, hi)):
            w, s0, s1, s2 = at(p)
            g = gcd(*w)
            if sum(w) // g >> 32:
                return law
            law = tuple(x // g for x in w)
            if (n * s1 - m * s0) ** 2 <= n * (s2 * s0 - s1 * s1):
                return law


def _pruefer_edges(n: int, code: Sequence[int]) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, in ascending order, of the tree on 0..n-1
    (n >= 2) whose Pruefer code is `code`.  Each step joins the least leaf
    to the next symbol.  The least leaf is found by a pointer that only moves
    up: a symbol that becomes a leaf below the pointer is the least leaf at
    once, and every other leaf is found by the pointer, so the decode is
    linear."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    ptr = degree.index(1)
    leaf = ptr
    edges = []
    for v in code:
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    # n - 1 is never the least leaf while another leaf is left
    edges.append((leaf, n - 1))
    edges.sort()
    return edges


def gen_random_tree(n: int, max_deg: int, seed: int | random.Random) -> Tree:
    """Seeded random tree, exactly uniform over the labelled trees on 0..n-1
    with max degree <= max_deg.

    Vertex v appears degree(v) - 1 times in a tree's Pruefer code, so this
    draws a uniform code whose symbols each appear at most max_deg - 1 times.
    Stage 1 tries up to _REJECTION_ROUNDS uniform codes, drawn in bulk as
    repeated rng.randrange(n) calls would (see _accepter), and keeps the first
    within the bound.  Stage 2, on the same stream, draws the multiplicities
    of n - 1 symbols i.i.d. from a truncated Poisson law (_multiplicity_law),
    gives the last symbol the rest r of n - 2 with probability w[r] / max(w),
    and retries otherwise: the kept multiplicities are multinomial under the
    bound.  It shuffles and decodes that multiset.  Both stages are uniform
    on the bounded codes, so their mixture is too.

    `seed` is an int, which seeds the generator's own stream, or a caller's
    random.Random, which the draws advance.
    """
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    if n >= 3 and max_deg < 2:
        raise Infeasible("a tree on 3+ vertices needs max degree >= 2")
    if n == 2 and max_deg < 1:
        raise Infeasible("an edge needs degree 1")
    rng = _stream(seed, "tree", n, max_deg)
    if n == 1:
        return Tree._from_sorted_edges(1, (), 0)
    if n == 2:
        return Tree._from_sorted_edges(2, ((0, 1),), 0)

    def decode(code: Sequence[int]) -> Tree:
        t = Tree._from_sorted_edges(n, _pruefer_edges(n, code), 0)
        if t.max_degree() > max_deg:
            raise InternalInvariantError("degree bound slipped through decoding")
        return t

    m = n - 2
    # outputs per getrandbits call; at least half are accepted, so one call
    # usually covers a round
    batch = 2 * m + 16

    def draw(accepted, size: int, left):  # the next `size` accepted values, and the rest
        while len(left) < size:
            left += accepted(rng.getrandbits(32 * batch).to_bytes(4 * batch, "little"))
        return left[:size], left[size:]

    cap = min(max_deg - 1, m)
    accepted = _accepter(n)
    left = accepted(b"")  # empty, of the type the accepter returns
    # from cap 13 on, a uniform code breaks the bound with probability below
    # n / 13!, and stage 2's weights would not fit in 32 bits (13! > 2**32)
    for _ in range(_REJECTION_ROUNDS) if cap < 13 else count():
        code, left = draw(accepted, m, left)
        # in sorted order, a symbol used more than cap times gives s[i] == s[i + cap]
        s = sorted(code)
        if not any(map(eq, s, s[cap:])):
            return decode(code)
    w = _multiplicity_law(n, cap)
    accepted = _accepter(sum(w), tuple(accumulate(w)))
    left = accepted(b"")
    while True:
        counts, left = draw(accepted, n - 1, left)
        r = m - sum(counts)
        if 0 <= r <= cap and rng.randrange(max(w)) < w[r]:
            break
    code = [v for v, c in enumerate(counts) for _ in range(c)] + [n - 1] * r
    rng.shuffle(code)
    return decode(code)


def gen_caterpillar(spine: int, legs: int, seed: int) -> Tree:
    """A path of `spine` vertices with `legs` extra leaves attached at random
    (seeded) spine positions."""
    if spine < 1 or legs < 0:
        raise PreconditionViolated("need spine >= 1 and legs >= 0")
    rng = random.Random(repr(("caterpillar", spine, legs, seed)))
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for _ in range(legs):
        at = rng.randrange(spine)
        edges.append((at, nxt))
        nxt += 1
    return Tree(spine + legs, edges, root=0)


def gen_random_graph_min_degree(n: int, delta: int, seed: int | random.Random) -> Graph:
    """Erdos-Renyi base repaired up to minimum degree delta (seeded).

    The base has edge probability 1.1 (delta + 1) / (n - 1), capped at 1.
    While some vertex sits below delta, it gets joined to a uniformly random
    non-neighbour.  The resulting minimum degree is re-counted and asserted.
    `seed` is an int or a caller's random.Random, as for gen_random_tree.
    """
    if delta < 0 or n < 1:
        raise PreconditionViolated("need n >= 1 and delta >= 0")
    if delta >= n:
        raise Infeasible("min degree must be below n")
    rng = _stream(seed, "graph", n, delta)
    p = min(1.0, (delta + 1) / max(n - 1, 1) * 1.1)
    draw = rng.random
    masks = [0] * n
    for u in range(n):
        bit = 1 << u
        for v in range(u + 1, n):
            if draw() < p:
                masks[u] |= 1 << v
                masks[v] |= bit
    full = (1 << n) - 1
    for v in range(n):
        while masks[v].bit_count() < delta:
            # the non-neighbours of v in ascending order
            cands = _bits(full & ~masks[v] & ~(1 << v))
            w = cands[rng.randrange(len(cands))]
            masks[v] |= 1 << w
            masks[w] |= 1 << v
    g = Graph._from_masks(masks)
    if g.min_degree() < delta:
        raise InternalInvariantError("degree repair fell short")
    return g


def gen_random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random tree skeleton plus `extra_edges` uniformly random chords (seeded)."""
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    rng = random.Random(repr(("connected", n, extra_edges, seed)))
    skeleton = gen_random_tree(n, max(n - 1, 1), seed)
    adj = [set(skeleton.neighbors(v)) for v in range(n)]
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if v not in adj[u]
    ]
    rng.shuffle(non_edges)
    for u, v in non_edges[:extra_edges]:
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, ((u, v) for u in range(n) for v in adj[u] if u < v))


# ---------------------------------------------------------------------------
# FamilySpec dispatch (CLI entry point)


class _Params(dict):
    """A family's key=value parameters: integers, except the fraction `alpha`.
    Reading one that is missing or malformed is a usage error."""

    def __init__(self, family: str, params: dict):
        super().__init__(params)
        self.family = family

    def __getitem__(self, key: str):
        if key not in self:
            raise PreconditionViolated(f"family {self.family!r} needs the parameter {key}=...")
        val = dict.__getitem__(self, key)
        if key == "alpha":
            try:
                return Fraction(val)
            except (TypeError, ValueError, ZeroDivisionError):
                raise PreconditionViolated(f"alpha={val!r} is not a fraction like 1/5") from None
        if not isinstance(val, int):
            raise PreconditionViolated(f"parameter {key}={val!r} is not an integer")
        return val

    def get(self, key: str, default=None):
        return self[key] if key in self else default


# Each family: (whether it reads a seed, builder).  A seed given to a family
# that reads none is refused rather than ignored.
_GRAPH_FAMILIES = {
    "two_cliques_apex": (False, lambda p, s: gen_two_cliques_apex(p["k"])),
    "two_cliques_apex_grown": (False, lambda p, s: gen_two_cliques_apex_grown(p["k"])),
    "bps_alpha_host": (False, lambda p, s: gen_bps_alpha_host(p["k"], p["alpha"])[0]),
    "clique_chain_apex": (False, lambda p, s: gen_clique_chain_apex(p["k"], p["d"])),
    "complete_bipartite": (False, lambda p, s: gen_complete_bipartite(p["m"], p["n"])),
    "complete": (False, lambda p, s: Graph.complete(p["n"])),
    "random_min_degree": (
        True,
        lambda p, s: gen_random_graph_min_degree(p["n"], p["delta"], s or 0),
    ),
    "random_connected": (
        True,
        lambda p, s: gen_random_connected_graph(p["n"], p.get("extra_edges", 0), s or 0),
    ),
}

_TREE_FAMILIES = {
    "three_branch": (False, lambda p, s: gen_three_branch_tree(p["k"])),
    "spider": (False, lambda p, s: gen_spider(p["k"], p["ell"])),
    "path": (False, lambda p, s: gen_path(p["n"])),
    "caterpillar": (True, lambda p, s: gen_caterpillar(p["spine"], p["legs"], s or 0)),
    "random_tree": (True, lambda p, s: gen_random_tree(p["n"], p["max_deg"], s or 0)),
}


def _build(kind: str, families: dict, spec: FamilySpec):
    if spec.family not in families:
        raise PreconditionViolated(f"unknown {kind} family {spec.family!r}")
    seeded, build = families[spec.family]
    if spec.seed is not None and not seeded:
        raise PreconditionViolated(f"{kind} family {spec.family!r} reads no seed")
    return build(_Params(spec.family, spec.params), spec.seed)


def build_graph(spec: FamilySpec) -> Graph:
    return _build("graph", _GRAPH_FAMILIES, spec)


def build_tree(spec: FamilySpec) -> Tree:
    return _build("tree", _TREE_FAMILIES, spec)


GRAPH_FAMILY_NAMES = tuple(sorted(_GRAPH_FAMILIES))
TREE_FAMILY_NAMES = tuple(sorted(_TREE_FAMILIES))
