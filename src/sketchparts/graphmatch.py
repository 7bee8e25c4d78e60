"""Attribute graphs over part instances and random-walk graph matching.

A label map becomes one global node (part-type histogram, foreground
fraction) plus a local node per connected part instance, each carrying its
part id, area, angular extent seen from the image centre, and normalized
centroid. Boundary-adjacent instances get polar relative-position edges;
every local node also anchors to the global node through its absolute
polar position. Matching two graphs is a quadratic assignment relaxed as a
reweighted random walk on the candidate-correspondence affinity matrix,
with Sinkhorn-bistochastic reweighting, under two hard constraints:
global matches only global, and locals match only within the same part id.

`rrwm_match_all` runs many walks in lockstep over one concatenated vector,
so re-ranking a list costs a few array passes per iteration instead of a
few per walk. Sinkhorn groups are numbered apart across problems, so one
bincount normalizes them all; per-problem maxima come from a reduceat; a
walk leaves the lockstep once it converges and is no longer computed. The
results are bit-identical to walking each problem alone: each `A @ x` and
each normalizing total is still taken per problem, because a shared
summation (add.reduceat) adds in another order and moves the last bits.
`rrwm_match` is the same solver on a batch of one.

Gallery graphs are built once per map: `graph_of` keeps a map's graph on
the (immutable) LabelMap itself, so re-ranking one gallery for many queries
builds each candidate's graph on first use only (the `rerank` CLI reads
each gallery map once for all its queries). The query graph is built
fresh, since a query is used once. Kept graphs are shared; treat them as
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from numbers import Integral

import numpy as np

from .errors import ContractViolation
from .imaging import label_components

GLOBAL = -1  # node index of the global node in correspondence pairs

MIN_AREA_FRACTION = 1e-3  # instances below 0.1% of the foreground are noise


@dataclass(frozen=True)
class LocalNode:
    part_id: int
    area: int
    area_fraction: float  # of the non-background area
    subtended: float  # angular extent from the image centre, radians
    centroid: tuple  # (row, col) normalized to [0, 1)


@dataclass(frozen=True)
class AttributeGraph:
    histogram: dict  # part id -> instance count
    area_fraction: float  # foreground pixels / all pixels
    nodes: tuple
    edges: dict  # (i, j) -> (r, theta), stored in both directions
    anchors: dict  # i -> (r, theta) relative to the image centre


def _angular_extent(rows, cols, cy, cx):
    angles = np.sort(np.arctan2(rows - cy, cols - cx))
    if angles.size <= 1:
        return 0.0
    gaps = np.diff(angles)
    wrap = 2 * math.pi - (angles[-1] - angles[0])
    return float(2 * math.pi - max(gaps.max(), wrap))


def build_graph(lm):
    h, w = lm.labels.shape
    comps, comp_map = label_components(lm)
    foreground = int((lm.labels != 0).sum())
    if foreground == 0:
        return AttributeGraph({}, 0.0, (), {}, {})

    kept = np.array([c.area >= MIN_AREA_FRACTION * foreground for c in comps])
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    nodes = []
    for c in compress(comps, kept):
        nodes.append(
            LocalNode(
                part_id=c.part_id,
                area=c.area,
                area_fraction=c.area / foreground,
                subtended=_angular_extent(c.pixels[:, 0], c.pixels[:, 1], cy, cx),
                centroid=(c.centroid[0] / h, c.centroid[1] / w),
            )
        )

    histogram = {}
    for n in nodes:
        histogram[n.part_id] = histogram.get(n.part_id, 0) + 1

    # adjacency: any 4-neighbouring pixel pair from two kept components.
    # Pairs are gathered row-pass first, each pass in scan order; the first
    # occurrence of an unordered pair decides which direction gets atan2 and
    # which the wrapped reverse, and edges enter the dict in that order.
    kept_at = np.where(kept, np.cumsum(kept) - 1, -1)
    lab = comp_map
    ka, kb = [], []
    for a, b in ((lab[:, :-1], lab[:, 1:]), (lab[:-1, :], lab[1:, :])):
        touching = (a >= 0) & (b >= 0) & (a != b)
        ka.append(kept_at[a[touching]])
        kb.append(kept_at[b[touching]])
    ka, kb = np.concatenate(ka), np.concatenate(kb)
    both = (ka >= 0) & (kb >= 0)
    ka, kb = ka[both], kb[both]
    _, first = np.unique(
        np.minimum(ka, kb) * len(nodes) + np.maximum(ka, kb), return_index=True
    )
    first.sort()
    edges = {}
    for i, j in zip(ka[first].tolist(), kb[first].tolist()):
        dy = nodes[j].centroid[0] - nodes[i].centroid[0]
        dx = nodes[j].centroid[1] - nodes[i].centroid[1]
        r = math.hypot(dy, dx)
        theta = math.atan2(dy, dx)
        edges[(i, j)] = (r, theta)
        edges[(j, i)] = (r, _wrap_angle(theta + math.pi))

    anchors = {}
    for i, n in enumerate(nodes):
        dy = n.centroid[0] - 0.5
        dx = n.centroid[1] - 0.5
        anchors[i] = (math.hypot(dy, dx), math.atan2(dy, dx))

    return AttributeGraph(histogram, foreground / (h * w), tuple(nodes), edges, anchors)


def graph_of(lm):
    """build_graph(lm), built on the map's first use and kept on the map.

    A LabelMap is immutable, so its graph stays valid for as long as the
    map lives and dies with it. Two threads may both build it on first
    use; either equal graph is kept.
    """
    if lm._graph is None:
        lm._graph = build_graph(lm)
    return lm._graph


def _wrap_angle(t):
    return math.atan2(math.sin(t), math.cos(t))


def _angle_dist(a, b):
    return abs(_wrap_angle(a - b))


@dataclass(frozen=True)
class MatchSigmas:
    subtended: float = 0.5
    centroid: float = 0.25
    radius: float = 0.25
    theta: float = 0.5


@dataclass
class Affinity:
    candidates: list  # (query node index, candidate node index); GLOBAL pairs first
    matrix: np.ndarray
    query: AttributeGraph
    cand: AttributeGraph


def _hist_similarity(ha, hb):
    keys = set(ha) | set(hb)
    if not keys:
        return 1.0
    lo = sum(min(ha.get(k, 0), hb.get(k, 0)) for k in keys)
    hi = sum(max(ha.get(k, 0), hb.get(k, 0)) for k in keys)
    return lo / hi if hi else 1.0


def build_affinity(q, c, sigmas=MatchSigmas()):
    """Constrained candidate list plus its affinity matrix.

    Unary terms sit on the diagonal: closeness in angular extent and
    centroid, weighted by the geometric mean of the two instance areas
    (fractions, so everything stays in [0, 1]). Off-diagonal terms compare
    the polar edge attributes of correspondence pairs whose edge exists in
    both graphs; local-global anchor edges take part with the same formula.
    """
    candidates = [(GLOBAL, GLOBAL)]
    for i, nq in enumerate(q.nodes):
        for a, nc in enumerate(c.nodes):
            if nq.part_id == nc.part_id:
                candidates.append((i, a))
    m = len(candidates)
    A = np.zeros((m, m))

    for idx, (i, a) in enumerate(candidates):
        if i == GLOBAL:
            A[idx, idx] = _hist_similarity(q.histogram, c.histogram) * math.sqrt(
                q.area_fraction * c.area_fraction
            )
        else:
            nq, nc = q.nodes[i], c.nodes[a]
            d_ext = abs(nq.subtended - nc.subtended)
            d_cen = math.hypot(
                nq.centroid[0] - nc.centroid[0], nq.centroid[1] - nc.centroid[1]
            )
            A[idx, idx] = math.exp(
                -d_ext / sigmas.subtended - d_cen / sigmas.centroid
            ) * math.sqrt(nq.area_fraction * nc.area_fraction)

    def edge_between(graph, i, j):
        if i == GLOBAL:
            return graph.anchors.get(j)
        if j == GLOBAL:
            return graph.anchors.get(i)
        return graph.edges.get((i, j))

    for m1, (i, a) in enumerate(candidates):
        for m2 in range(m1 + 1, m):
            j, b = candidates[m2]
            if i == j or a == b:
                continue  # one-to-one conflicts never reinforce each other
            eq = edge_between(q, i, j)
            ec = edge_between(c, a, b)
            if eq is None or ec is None:
                continue
            val = math.exp(
                -abs(eq[0] - ec[0]) / sigmas.radius - _angle_dist(eq[1], ec[1]) / sigmas.theta
            )
            A[m1, m2] = A[m2, m1] = val
    return Affinity(candidates, A, q, c)


@dataclass
class MatchResult:
    pairs: dict  # query node index (GLOBAL for the global node) -> candidate index
    score: float
    converged: bool
    relaxed: np.ndarray  # final walk distribution over candidates


def _group_ids(problem, node):
    """Dense ids for (problem, node) pairs, so groups never span problems."""
    return np.unique(problem * (node.max() + 2) + node + 1, return_inverse=True)[1]


def rrwm_match_all(
    affinities, alpha=0.2, beta=30.0, sinkhorn_iterations=10, max_iterations=300, tol=1e-8
):
    """Reweighted random walk over each affinity matrix, in lockstep, then
    greedy one-to-one discretization; one MatchResult per affinity, in
    order. Sinkhorn normalizes one row group per query node and one column
    group per candidate node (the global pair gets its own row and column).
    A walk stops when it converges or its total is not positive. Never
    emits a pair outside the candidate list, so the matching constraints
    hold by construction."""
    if not affinities:
        return []
    if any(not aff.candidates for aff in affinities):
        raise ContractViolation("empty candidate list")
    n = len(affinities)
    sizes = np.array([len(aff.candidates) for aff in affinities], dtype=np.intp)
    pairs = np.array([pair for aff in affinities for pair in aff.candidates]).reshape(-1, 2)
    problem = np.repeat(np.arange(n), sizes)
    rows = _group_ids(problem, pairs[:, 0])
    cols = _group_ids(problem, pairs[:, 1])

    x = np.repeat(1.0 / sizes, sizes)
    live = np.arange(n)
    relaxed = [None] * n
    converged = [False] * n
    for _ in range(max_iterations):
        if not live.size:
            break
        ends = np.cumsum(sizes[live])
        starts = ends - sizes[live]
        owner = np.repeat(np.arange(live.size), sizes[live])
        walked = np.concatenate(
            [affinities[p].matrix @ x[s:e] for p, s, e in zip(live, starts, ends)]
        )
        jump = np.exp(beta * x / np.maximum.reduceat(x, starts)[owner])
        for _ in range(sinkhorn_iterations):
            jump = jump / np.bincount(rows, weights=jump)[rows]
            jump = jump / np.bincount(cols, weights=jump)[cols]
        y = alpha * walked + (1.0 - alpha) * jump
        total = np.array([y[s:e].sum() for s, e in zip(starts, ends)])
        stuck = total <= 0
        y = y / np.where(stuck, 1.0, total)[owner]
        done = ~stuck & (np.maximum.reduceat(np.abs(y - x), starts) < tol)
        leaving = stuck | done
        for k in np.flatnonzero(leaving):
            relaxed[live[k]] = (y if done[k] else x)[starts[k] : ends[k]]
            converged[live[k]] = bool(done[k])
        walking = ~leaving[owner]
        x, rows, cols = y[walking], rows[walking], cols[walking]
        live = live[~leaving]
    ends = np.cumsum(sizes[live])
    for p, s, e in zip(live, ends - sizes[live], ends):
        relaxed[p] = x[s:e]
    return [_discretize(aff, r, c) for aff, r, c in zip(affinities, relaxed, converged)]


def _discretize(affinity, x, converged):
    candidates = affinity.candidates
    order = np.argsort(-x, kind="stable")
    used_q, used_c = set(), set()
    chosen = []
    for idx in order:
        i, a = candidates[idx]
        if i in used_q or a in used_c:
            continue
        used_q.add(i)
        used_c.add(a)
        chosen.append(idx)
    indicator = np.zeros(len(candidates))
    indicator[chosen] = 1.0
    score = float(indicator @ affinity.matrix @ indicator)
    pairs = {candidates[idx][0]: candidates[idx][1] for idx in chosen}
    return MatchResult(pairs, score, converged, x)


def rrwm_match(affinity, **kwargs):
    """One affinity through rrwm_match_all."""
    return rrwm_match_all([affinity], **kwargs)[0]


def match_maps(query_lm, cand_lm, sigmas=MatchSigmas(), **kwargs):
    affinity = build_affinity(build_graph(query_lm), graph_of(cand_lm), sigmas)
    return rrwm_match(affinity, **kwargs)


def rerank(query_lm, candidates, top_t=50, sigmas=MatchSigmas()):
    """Re-order the first top_t of an initial ranking by graph similarity.

    candidates is an ordered list of (id, LabelMap), best first. Scored
    entries sort by descending match score, stable against the initial
    order; everything beyond top_t keeps its position. Candidate graphs
    come from graph_of; the query graph is built fresh.
    """
    if isinstance(top_t, bool) or not isinstance(top_t, Integral) or top_t < 0:
        raise ContractViolation(f"top_t must be an integer >= 0, got {top_t!r}")
    head = candidates[: min(top_t, len(candidates))]
    tail = candidates[len(head) :]
    qg = build_graph(query_lm)
    results = rrwm_match_all([build_affinity(qg, graph_of(lm), sigmas) for _, lm in head])
    scored = sorted(
        (-result.score, rank, cid) for rank, ((cid, _), result) in enumerate(zip(head, results))
    )
    return [cid for _, _, cid in scored] + [cid for cid, _ in tail]
