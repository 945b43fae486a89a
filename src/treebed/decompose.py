"""Rich-subgraph machinery: richness checks, cut-dense refinement, periphery
classifications, and the collection-level reports the embedding harness consumes.

Everything here is analysis over immutable graphs; reports carry evidence
(witnesses, logs) so downstream consumers never need to re-derive it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InternalInvariantError,
    OverlappingComponents,
    PreconditionViolated,
    SearchBudgetExceeded,
)
from .graph import (
    CutDenseVerdict,
    CutWitness,
    Graph,
    Matching,
    VertexSet,
    as_vertex_set,
    is_cut_dense,
    periphery,
    second_neighbourhood,
    vertex_cover_at_most,
    _max_bipartite_matching,
)

def rho_preset(delta: Fraction) -> Fraction:
    """delta^2/20000, the rho of the refinement analysis inside one run."""
    delta = Fraction(delta)
    return delta * delta / 20_000


@dataclass(frozen=True)
class RichParams:
    """Richness thresholds: min degree c*k, cover 3k, rho-cut-dense, order < 100k."""

    c: Fraction
    rho: Fraction
    k: int

    def __post_init__(self):
        # thresholds stay exact: an int becomes a Fraction, a float is refused
        for name in ("c", "rho"):
            val = getattr(self, name)
            if not isinstance(val, (int, Fraction)):
                raise PreconditionViolated(f"{name} must be an int or a Fraction, got {val!r}")
            object.__setattr__(self, name, Fraction(val))
        if self.c < 0 or self.rho < 0 or self.k < 1:
            raise PreconditionViolated("need c, rho >= 0 and k >= 1")


@dataclass(frozen=True)
class RichReport:
    """Evidence for each of the four richness checks on one candidate subgraph.

    `cut_witness` (when present) is expressed in subgraph-local vertex ids;
    `subgraph.members[i]` recovers the original id of its vertex i.
    """

    params: RichParams
    subgraph: VertexSet
    min_degree_ok: bool
    min_degree: int
    cover_ok: Optional[bool]  # None when the cover search ran out of budget
    cover: Optional[VertexSet]
    cover_budget_exceeded: bool
    cut_dense_ok: bool
    cut_dense_conclusive: bool
    cut_witness: Optional[CutWitness]
    size_ok: bool

    @property
    def rich(self) -> bool:
        return bool(self.min_degree_ok and self.cover_ok and self.cut_dense_ok and self.size_ok)

    @property
    def conclusive(self) -> bool:
        return self.cover_ok is not None and (self.cut_dense_conclusive or not self.cut_dense_ok)


def is_rich(
    g: Graph,
    h,
    p: RichParams,
    cut_verdict: Optional[CutDenseVerdict] = None,
) -> RichReport:
    """Check the four richness conditions of the induced subgraph on h.

    `cut_verdict`, when given, is the subgraph's `is_cut_dense` verdict at
    p.rho, already known to the caller; it is used instead of a new cut.
    """
    hv = as_vertex_set(h, g.n)
    if not hv.members:
        raise PreconditionViolated("candidate subgraph must be nonempty")
    sub, _ = g.induced(hv.members)
    mind = sub.min_degree()
    min_ok = mind >= p.c * p.k
    cover_budget_exceeded = False
    cover: Optional[VertexSet] = None
    cover_ok: Optional[bool]
    try:
        got = vertex_cover_at_most(sub, 3 * p.k)
        cover_ok = got is not None
        if got is not None:
            cover = VertexSet([hv.members[i] for i in got.members], g.n)
    except SearchBudgetExceeded:
        cover_ok = None
        cover_budget_exceeded = True
    verdict = cut_verdict if cut_verdict is not None else is_cut_dense(sub, p.rho)
    # witness indices are subgraph-local; subgraph.members maps them back
    witness = verdict.witness
    size_ok = len(hv) < 100 * p.k
    return RichReport(
        params=p,
        subgraph=hv,
        min_degree_ok=min_ok,
        min_degree=mind,
        cover_ok=cover_ok,
        cover=cover,
        cover_budget_exceeded=cover_budget_exceeded,
        cut_dense_ok=verdict.is_dense,
        cut_dense_conclusive=verdict.conclusive,
        cut_witness=witness,
        size_ok=size_ok,
    )


# ---------------------------------------------------------------------------
# Cut-dense refinement


@dataclass(frozen=True)
class RefineStep:
    iteration: int
    component: tuple[int, ...]
    cut_density: Fraction
    crossing_edges_removed: int
    degree_threshold: Fraction
    vertices_removed: tuple[int, ...]


@dataclass(frozen=True)
class RefineResult:
    """Outcome of the iterative cut-dense refinement.

    `graph` lives on relabelled ids; `vertices[i]` is the original id of its
    vertex i.  The paper-style quantitative postconditions (deletion count,
    min-degree floor) are checked against the log on construction whenever the
    rho/delta preset relation holds; with an overridden rho only the direct
    certification of the final components applies.  `inconclusive` lists,
    in `graph`'s ids, the final components whose dense verdict came from a
    cut search that ran out of its node budget.
    """

    original: Graph
    graph: Graph
    vertices: tuple[int, ...]
    removed_vertices: tuple[int, ...]
    log: tuple[RefineStep, ...]
    rho: Fraction
    inconclusive: tuple[tuple[int, ...], ...]

    @property
    def certified_exact(self) -> bool:
        return not self.inconclusive


def refine_cut_dense(
    g: Graph,
    a: Fraction,
    eps: Fraction,
    delta: Fraction,
    k: int,
    rho: Optional[Fraction] = None,
    relax_delta: bool = False,
) -> RefineResult:
    """Delete sparse cuts and degree-dropped vertices until every component is
    rho-cut-dense.

    Loop: while some component admits a bipartition of density below rho,
    delete its crossing edges, then delete the vertices whose degree fell
    under (a + eps - (2i-1)*delta)*k at iteration i.  With the default
    rho = delta^2/20000 the result is guaranteed to lose at most
    200*delta*|g| vertices and keep min degree (a + eps - 400*delta)*k; both
    are asserted.  An explicit rho skips those two assertions (the final
    certification still holds) and is the practical choice at small scale.
    The loop's last pass, which finds no sparse cut, is the final
    certification; `certified_exact` is True when all of its verdicts were
    conclusive, that is when no cut search ran out of its node budget (none
    does on components of at most 20 vertices).  A pass cuts only the
    components that no earlier pass found dense.
    """
    a, eps, delta = Fraction(a), Fraction(eps), Fraction(delta)
    preset = rho is None
    if preset:
        rho = rho_preset(delta)
    rho = Fraction(rho)
    if g.min_degree() < (a + eps) * k:
        raise PreconditionViolated("min degree below (a + eps)k")
    if g.n > 100 * k:
        raise PreconditionViolated("graph order above 100k")
    if delta >= eps / 400 and not relax_delta:
        raise PreconditionViolated("delta must stay below eps/400 (or pass relax_delta=True)")

    # cur keeps the original ids; deleted vertices stay as isolated points
    cur = g
    present = set(range(g.n))
    removed_all: list[int] = []
    log: list[RefineStep] = []
    # a pass edits only its offender's component, so a component found dense
    # in an earlier pass is unchanged; this maps it to its verdict's conclusive
    dense: dict[tuple[int, ...], bool] = {}
    i = 0
    while True:
        offender = None
        for comp in cur.components():
            if len(comp) < 2 or comp in dense:
                continue
            verdict = is_cut_dense(cur.induced(comp)[0], rho)
            if not verdict.is_dense:
                offender = (comp, verdict.witness)
                break
            dense[comp] = verdict.conclusive
        if offender is None:
            break
        i += 1
        comp, witness = offender
        # delete the crossing edges, then the vertices left below the threshold
        side_a = sum(1 << comp[j] for j in witness.side_a)
        side_b = sum(1 << v for v in comp) & ~side_a
        masks = list(cur.masks())
        across = sum((masks[v] & side_b).bit_count() for v in comp if side_a >> v & 1)
        for v in comp:
            masks[v] &= ~(side_b if side_a >> v & 1 else side_a)
        threshold = (a + eps - (2 * i - 1) * delta) * k
        dropped = tuple(v for v in comp if masks[v].bit_count() < threshold)
        gone = sum(1 << v for v in dropped)
        cur = Graph._from_masks([0 if gone >> v & 1 else m & ~gone for v, m in enumerate(masks)])
        present -= set(dropped)
        removed_all.extend(dropped)
        log.append(
            RefineStep(
                iteration=i,
                component=comp,
                cut_density=witness.density,
                crossing_edges_removed=across,
                degree_threshold=threshold,
                vertices_removed=dropped,
            )
        )
        if i > 2 * g.n + 2:
            raise InternalInvariantError("refinement failed to terminate")

    # dense now holds every component of cur with 2 or more vertices, and
    # deleted vertices are isolated in cur, so its verdicts are those of
    # final's components
    final, kept = cur.induced(present)
    index = {v: i for i, v in enumerate(kept)}
    inconclusive = sorted(tuple(index[v] for v in comp) for comp, ok in dense.items() if not ok)
    if preset:
        if len(removed_all) > 200 * delta * g.n:
            raise InternalInvariantError("refinement deleted more than 200*delta*|g| vertices")
        floor = (a + eps - 400 * delta) * k
        if final.n and final.min_degree() < floor:
            raise InternalInvariantError("refined min degree fell below (a+eps-400*delta)k")
    return RefineResult(
        original=g,
        graph=final,
        vertices=kept,
        removed_vertices=tuple(sorted(removed_all)),
        log=tuple(log),
        rho=rho,
        inconclusive=tuple(inconclusive),
    )


# ---------------------------------------------------------------------------
# Collection-level classification


@dataclass(frozen=True)
class VertexAffinity:
    """For one vertex: its two best components by neighbour count, and the rest."""

    vertex: int
    best: Optional[int]
    second: Optional[int]
    best_count: int
    second_count: int
    residual_degree: int


@dataclass(frozen=True)
class CollectionReport:
    """Collection-level classification at split threshold s and closure threshold t.

    Maximal-coverage optimality of the collection itself is NOT asserted
    anywhere; it is unverifiable.
    """

    components: tuple[VertexSet, ...]
    s: int
    t: int
    split_vertices: VertexSet
    closed: tuple[bool, ...]
    peripheries_t: tuple[VertexSet, ...]
    affinities: tuple[VertexAffinity, ...]


def _disjoint_vertex_sets(comps: Sequence, n: int) -> list[VertexSet]:
    """The components as VertexSets of an n-vertex graph; they must not overlap."""
    cvs = [as_vertex_set(c, n) for c in comps]
    union: set = set()
    for c in cvs:
        if c.as_set() & union:
            raise OverlappingComponents("components overlap")
        union |= c.as_set()
    return cvs


def classify_components(g: Graph, comps: Sequence, s: int, t: int) -> CollectionReport:
    """Peripheries, closed/open status, split vertices and per-vertex affinities."""
    cvs = _disjoint_vertex_sets(comps, g.n)
    periph_s = [periphery(g, c, s).as_set() for c in cvs]
    periph_t = [periphery(g, c, t) for c in cvs]
    split = set()
    for v in range(g.n):
        hits = sum(1 for ps in periph_s if v in ps)
        if hits >= 2:
            split.add(v)
    closed = tuple(
        len(pt.as_set() - c.as_set()) < t for pt, c in zip(periph_t, cvs)
    )
    affinities = []
    for v in range(g.n):
        counts = [(g.deg_within(v, c.as_set()), -i) for i, c in enumerate(cvs)]
        ranked = sorted(counts, reverse=True)
        best = second = None
        bc = sc = 0
        if ranked:
            bc, bi = ranked[0][0], -ranked[0][1]
            best = bi
        if len(ranked) > 1:
            sc, si = ranked[1][0], -ranked[1][1]
            second = si
        residual = g.degree(v) - bc - sc
        affinities.append(
            VertexAffinity(v, best, second, bc, sc, residual)
        )
        if residual + bc + sc != g.degree(v):
            raise InternalInvariantError("affinity accounting broke")
    return CollectionReport(
        components=tuple(cvs),
        s=s,
        t=t,
        split_vertices=VertexSet(split, g.n),
        closed=closed,
        peripheries_t=tuple(periph_t),
        affinities=tuple(affinities),
    )


@dataclass(frozen=True)
class IntersectionWitness:
    property_name: str  # "L1" | "L2" | "L3"
    vertices: tuple[int, ...]
    components: tuple[int, ...]


@dataclass(frozen=True)
class IntersectionReport:
    """Violations of the three periphery-intersection exclusions, with witnesses.

    Each witness is an embed opportunity: the harness hands it to the matching
    constructive embedder, which must then produce the tree.
    """

    delta_t: int
    eps: Fraction
    k: int
    l1_witnesses: tuple[IntersectionWitness, ...]
    l2_witnesses: tuple[IntersectionWitness, ...]
    l3_witnesses: tuple[IntersectionWitness, ...]
    rich_reports: tuple[RichReport, ...]

    @property
    def l1_holds(self) -> bool:
        return not self.l1_witnesses

    @property
    def l2_holds(self) -> bool:
        return not self.l2_witnesses

    @property
    def l3_holds(self) -> bool:
        return not self.l3_witnesses


def intersection_property_report(
    g: Graph,
    comps: Sequence,
    delta_t: int,
    eps: Fraction,
    k: int,
) -> IntersectionReport:
    """Check the three exclusion properties of component peripheries.

    L1: no vertex sits in the Delta-periphery of two components and the
        1-periphery of a third.
    L2: no vertex neighbours the 2*Delta-periphery of 2*Delta components.
    L3: the eps*k peripheries of two components overlap in < eps*k vertices.

    Components must be (1/2 + eps, 0, k)-rich; that is re-checked here.
    """
    eps = Fraction(eps)
    cvs = _disjoint_vertex_sets(comps, g.n)
    p = RichParams(Fraction(1, 2) + eps, Fraction(0), k)
    reports = tuple(is_rich(g, c, p) for c in cvs)
    for rep in reports:
        if not rep.rich:
            raise PreconditionViolated("every component must be (1/2+eps, 0, k)-rich")
    m = len(cvs)
    pd = [periphery(g, c, delta_t).as_set() for c in cvs]
    p1 = [periphery(g, c, 1).as_set() for c in cvs]
    p2d = [periphery(g, c, 2 * delta_t).as_set() for c in cvs]
    l1 = []
    for i in range(m):
        for j in range(i + 1, m):
            both = pd[i] & pd[j]
            if not both:
                continue
            for ell in range(m):
                if ell in (i, j):
                    continue
                hits = sorted(both & p1[ell])
                if hits:
                    l1.append(IntersectionWitness("L1", (hits[0],), (i, j, ell)))
    # L2 via counting: how many 2Delta-peripheries does each vertex neighbour?
    l2 = []
    if delta_t >= 1:
        touch = [
            frozenset(
                v for v in range(g.n) if any(w in p2d_i for w in g.neighbors(v))
            )
            for p2d_i in p2d
        ]
        for v in range(g.n):
            idx = tuple(i for i in range(m) if v in touch[i])
            if len(idx) >= 2 * delta_t:
                l2.append(IntersectionWitness("L2", (v,), idx[: 2 * delta_t]))
    l3 = []
    ek = eps * k
    pek = [periphery(g, c, _ceil_frac(ek)).as_set() for c in cvs]
    for i in range(m):
        for j in range(i + 1, m):
            inter = sorted(pek[i] & pek[j])
            if len(inter) >= ek:
                l3.append(IntersectionWitness("L3", tuple(inter), (i, j)))
    return IntersectionReport(
        delta_t=delta_t,
        eps=eps,
        k=k,
        l1_witnesses=tuple(l1),
        l2_witnesses=tuple(l2),
        l3_witnesses=tuple(l3),
        rich_reports=reports,
    )


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


# ---------------------------------------------------------------------------
# External/internal split and the apex-peripheral matching


def external_internal_classify(
    g: Graph, x: int, comps: Sequence, eta_k
) -> tuple[VertexSet, VertexSet]:
    """Partition the second neighbourhood of x: external vertices sit in the
    eta_k-periphery of some component beyond the designated first two."""
    cvs = _disjoint_vertex_sets(comps, g.n)
    n2 = second_neighbourhood(g, x)
    ext = []
    for z in n2:
        if any(g.deg_within(z, cvs[j].as_set()) >= eta_k for j in range(2, len(cvs))):
            ext.append(z)
    ext_set = set(ext)
    internal = [z for z in n2 if z not in ext_set]
    return VertexSet(ext, g.n), VertexSet(internal, g.n)


@dataclass(frozen=True)
class PeripheralMatching:
    """Matching between N(x) and external second neighbours, plus the injective
    assignment of matched externals to components whose periphery holds them."""

    matching: Matching
    assignment: tuple[tuple[int, int], ...]  # (external vertex, component index)


def x_peripheral_matching(g: Graph, x: int, comps: Sequence, eta_k) -> PeripheralMatching:
    """Two-stage construction: externals are first matched injectively to
    component indices (>= 2) via their periphery membership, the survivors are
    then matched to neighbours of x along host edges."""
    cvs = [as_vertex_set(c, g.n) for c in comps]
    ext, _ = external_internal_classify(g, x, comps, eta_k)
    live_idx = [
        j
        for j in range(2, len(cvs))
        if any(g.deg_within(z, cvs[j].as_set()) >= eta_k for z in ext)
    ]
    nbrs_stage1 = {
        z: tuple(
            j for j in live_idx if g.deg_within(z, cvs[j].as_set()) >= eta_k
        )
        for z in ext
    }
    ml = _max_bipartite_matching(list(ext), nbrs_stage1)
    comp_of = dict(ml)
    w_side = sorted(comp_of)
    nx = frozenset(g.neighbors(x))
    x_side = sorted(nx - set(w_side))
    nbrs_stage2 = {
        y: tuple(w for w in g.neighbors(y) if w in set(w_side)) for y in x_side
    }
    m2 = _max_bipartite_matching(x_side, nbrs_stage2)
    pairs = sorted((y, w) for y, w in m2.items())
    assignment = tuple(sorted((w, comp_of[w]) for _, w in pairs))
    for w, j in assignment:
        if g.deg_within(w, cvs[j].as_set()) < eta_k:
            raise InternalInvariantError("matched external lost its periphery membership")
    js = [j for _, j in assignment]
    if len(set(js)) != len(js):
        raise InternalInvariantError("component assignment is not injective")
    return PeripheralMatching(Matching(tuple(pairs)), assignment)


# ---------------------------------------------------------------------------
# Heuristic rich decomposition


@dataclass(frozen=True)
class RichDecomposition:
    components: tuple[VertexSet, ...]
    reports: tuple[RichReport, ...]
    uncovered: VertexSet
    coverage: Fraction


def rich_decompose(g: Graph, k: int, p: RichParams) -> RichDecomposition:
    """Heuristic pipeline: components -> low-degree peel -> cut-dense refine
    -> richness filter.

    Only the final filter is a guarantee: every returned set passed the
    richness checks, and it is certified rich exactly when its report is
    conclusive (its cut-density verdict is inconclusive only when the
    refinement's cut search on that piece ran out of its node budget, which
    needs more than 20 vertices).  Coverage is reported, never
    promised; an empty result is an inconclusive outcome, not evidence about
    containment.
    """
    eps = max(p.c / 2, Fraction(1, 100))
    delta = eps / 401
    accepted: list[VertexSet] = []
    reports: list[RichReport] = []
    for comp in g.components():
        live = list(comp)
        # peel vertices under c*k within the candidate until stable
        while live:
            lv = frozenset(live)
            weak = [v for v in live if g.deg_within(v, lv) < p.c * p.k]
            if not weak:
                break
            live = [v for v in live if v not in set(weak)]
        if not live:
            continue
        sub, back = g.induced(live)
        floor_ck = _ceil_frac(p.c * p.k)
        a_param = Fraction(floor_ck, k) - eps if Fraction(floor_ck, k) > eps else Fraction(0)
        try:
            refined = refine_cut_dense(
                sub,
                a_param,
                eps,
                delta,
                k,
                rho=p.rho,
                relax_delta=delta >= eps / 400,
            )
        except PreconditionViolated:
            continue
        for rcomp in refined.graph.components():
            orig = tuple(back[refined.vertices[i]] for i in rcomp)
            rep = is_rich_on_refined(refined, rcomp, orig, g.n, p)
            if rep.rich:
                accepted.append(rep.subgraph)
                reports.append(rep)
    covered = set()
    for c in accepted:
        covered |= c.as_set()
    uncovered = VertexSet((v for v in range(g.n) if v not in covered), g.n)
    coverage = Fraction(len(covered), g.n) if g.n else Fraction(1)
    return RichDecomposition(tuple(accepted), tuple(reports), uncovered, coverage)


def is_rich_on_refined(
    refined: RefineResult,
    rcomp: tuple[int, ...],
    orig: tuple[int, ...],
    n: int,
    p: RichParams,
) -> RichReport:
    """Richness check on a refined component (edge deletions already applied).

    `orig[i]` is the original id of `rcomp[i]`, in increasing order, out of a
    graph on n vertices.  The refinement must have run at p.rho, so that its
    last pass already decided the component's cut density.  The report's
    subgraph and cover carry original ids; its cut witness stays local to
    `subgraph.members`.
    """
    if refined.rho != p.rho:
        raise PreconditionViolated("the refinement ran at another rho than p.rho")
    sub, _ = refined.graph.induced(rcomp)
    # refine's last pass found every final component rho-cut-dense, and it
    # records the ones whose verdict was inconclusive
    verdict = CutDenseVerdict(True, rcomp not in refined.inconclusive, None)
    rep = is_rich(sub, VertexSet(range(sub.n), sub.n), p, cut_verdict=verdict)
    cover = None if rep.cover is None else VertexSet((orig[i] for i in rep.cover), n)
    return replace(rep, subgraph=VertexSet(orig, n), cover=cover)
