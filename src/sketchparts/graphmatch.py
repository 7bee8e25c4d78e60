"""Attribute graphs over part instances and random-walk graph matching.

A label map becomes one global node (part-type histogram, foreground
fraction) plus a local node per connected part instance, each carrying its
part id, angular extent seen from the image centre, normalized centroid
and share of the foreground. Boundary-adjacent instances get polar
relative-position edges; every local node also anchors to the global node
through its absolute polar position. Matching two graphs is a quadratic
assignment relaxed as a reweighted random walk on the candidate-
correspondence affinity matrix, with Sinkhorn-bistochastic reweighting,
under two hard constraints: global matches only global, and locals match
only within the same part id. Part ids are compared raw, with no taxonomy:
the maps of a query and a gallery item parsed by different experts pair
parts that share only an id, as a car's wheel and a bird's wing (both 2 in
the default taxonomy). The affinity bandwidths and the walk's
settings (those of Cho, Lee & Lee, ECCV 2010) are module constants; only
the walk's iteration cap is not.

A graph has one form, the arrays the matcher reads: `AttributeGraph` holds
part ids, a node-attribute matrix, the radius and angle matrices over the
local nodes plus the global node as one extra index (NaN where no edge
exists), and the part histogram. `build_graph` writes those arrays
directly, so matching reads a graph as it was built. It reads the
labeller's runs (`imaging.label_runs`), not a pixel map: areas and
centroids are sums over runs, contacts are runs abutting in a row and the
labeller's different-id overlaps of runs in adjacent rows, and only the
kept instances' pixels are rebuilt, for their angular extents.

One builder, `_affinity_problems`, builds the affinity matrices of one
query against many candidate graphs in one array pass. The candidate pairs
of every problem come from one part-id comparison, the unary and pairwise
terms are gathered from the graphs' arrays, and one scatter writes every
matrix into one flat buffer. The matrices are bit-identical to filling
each cell alone: subtraction, abs, division and sqrt run in numpy, which
rounds them as Python does, but exp, atan2, sin, cos and hypot go through
`math` on the gathered values, because numpy's vectorised versions differ
from libm in the last bit on a few percent of inputs. The histogram term
stays an exact integer min/max ratio. `build_affinity` is that builder on a
batch of one, read as an `Affinity`.

The builder sets the walk order: problems sorted by candidate count m (a
stable sort), so the problems of one size class fill one run of the
concatenated candidate vector and their matrices one C-contiguous
(b, m, m) block of the buffer, a view that the walk uses as it is. Sinkhorn
row and column group ids are arithmetic, problem * (nodes + 1) + node + 1
with the global node as 0, so groups never span problems and one bincount
normalizes them all.

One walk core runs many walks in lockstep over one concatenated vector, so
re-ranking a list costs a few array passes per iteration instead of a few
per walk: per-problem maxima come from a reduceat, and a walk leaves the
lockstep once it converges and is no longer computed. Each iteration makes
one stacked matmul and one row-wise add.reduce per size class. The results
are bit-identical to walking each problem alone, because both calls run the
same kernel on each slice as on one problem (a shared summation such as
add.reduceat adds in another order and moves the last bits). That holds
only for C-contiguous matrices, as a Fortran-ordered A @ x rounds
differently, so `Affinity` keeps its matrix in C order. The greedy
discretization runs in lockstep too: one stable lexsort orders every
walk's candidates, step t tries each problem's t-th heaviest, and the
scores come from stacked indicator products. `rerank` calls the core on
the builder's arrays and reads only the scores. `rrwm_match` is the core
on one `Affinity`, a stack of one whose groups are numbered by its own
distinct node ids, with its result wrapped in a `MatchResult`.

Gallery graphs are built once per map: `graph_of` keeps a map's graph on
the (immutable) LabelMap itself, so re-ranking one gallery for many queries
builds each candidate's graph on first use only (the `rerank` CLI reads
each gallery map once for all its queries). The query graph is built
fresh, since a query is used once. Kept graphs are shared, so a graph's
arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, check_count
from .imaging import label_runs, run_pixels

GLOBAL = -1  # node index of the global node in correspondence pairs

MIN_AREA_FRACTION = 1e-3  # instances below 0.1% of the foreground are noise
SIGMA_SUBTENDED = 0.5  # affinity bandwidth of the angular extent difference,
SIGMA_CENTROID = 0.25  # of the centroid distance,
SIGMA_RADIUS = 0.25  # of the edge length difference
SIGMA_THETA = 0.5  # and of the edge angle difference
ALPHA = 0.2  # RRWM: weight of the walk against the reweighting jump
BETA = 30.0  # RRWM: inflation of the reweighting jump
SINKHORN_ITERATIONS = 10  # RRWM: Sinkhorn rounds per iteration
TOL = 1e-8  # RRWM: a walk has converged once no entry moves by this much


@dataclass(frozen=True, eq=False)
class AttributeGraph:
    """A part graph as the arrays the affinity builder reads. Local nodes
    0..n-1 are ordered by part id; the edge matrices index the global node
    as n, so its anchor edges fill the last row and column. The arrays are
    made read-only on construction, since kept graphs are shared."""

    part: np.ndarray  # (n,) int64 part ids
    nodes: np.ndarray  # (n, 4): subtended, centroid row, centroid col, area fraction
    edges: np.ndarray  # (2, n + 1, n + 1): radius, angle; NaN where no edge exists
    hist: np.ndarray  # (k, 2) int64: part id, instance count, ascending part id
    area_fraction: float  # foreground pixels / all pixels

    def __post_init__(self):
        for a in (self.part, self.nodes, self.edges, self.hist):
            a.flags.writeable = False


def _angular_extent(rows, cols, cy, cx):
    angles = np.sort(np.arctan2(rows - cy, cols - cx))
    if angles.size <= 1:
        return 0.0
    gaps = np.diff(angles)
    wrap = 2 * math.pi - (angles[-1] - angles[0])
    return float(2 * math.pi - max(gaps.max(), wrap))


def build_graph(lm):
    """The attribute graph of label map `lm`, from the labeller's runs.

    A component's area is the sum of its run lengths and its centroid the
    sums of its pixels' rows and columns (a run's columns are an arithmetic
    series) over its area. Instances rank by (part id, centroid row,
    centroid col), ties in `label_runs`'s numbering, and those below
    MIN_AREA_FRACTION of the foreground are dropped. A kept instance's
    angular extent is measured over its pixels, rebuilt from its runs in
    scan order. Two kept instances share an edge where any of their pixels
    are 4-neighbours: two runs that abut in one row, or a different-id
    overlap of runs in adjacent rows. The row contacts come first, then the
    column contacts, each in the scan order of its first pixel (the left
    one, `end - 1`, in a row; `max(start_upper, start_lower - width)` in
    the upper row of an overlap); the first contact of an unordered pair
    (i, j) decides that i -> j gets atan2 and j -> i the wrapped reverse.
    """
    h, w = lm.labels.shape
    runs = label_runs(lm.labels)
    length = runs.end - runs.start
    row, col = np.divmod(runs.start, w)
    # per-component sums of whole numbers, exact in float64 in any order, so
    # sum / area is the bytes the mean of the pixels' coordinates gives
    size = runs.part_ids.size + 1
    area = np.bincount(runs.comp, length, size)[1:]
    sums = [np.bincount(runs.comp, v, size)[1:]
            for v in (row * length, (2 * col + length - 1) * length // 2)]
    centroids = np.column_stack(sums) / area[:, None]
    rank = np.lexsort((centroids[:, 1], centroids[:, 0], runs.part_ids))
    area, centroids = area[rank].astype(np.int64), centroids[rank]
    foreground = int(area.sum())
    kept = area >= MIN_AREA_FRACTION * foreground
    part = runs.part_ids[rank][kept].astype(np.int64)
    n = part.size
    # each run's local node, -1 for the runs of a dropped instance
    node_of = np.full(size, -1)
    node_of[rank[kept] + 1] = np.arange(n)
    node = node_of[runs.comp]

    # the kept instances' pixels, node by node, each node's in scan order
    mine = np.flatnonzero(node >= 0)
    mine = mine[np.argsort(node[mine], kind="stable")]
    rows, cols = np.divmod(run_pixels(runs, mine), w)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ends = np.cumsum(area[kept]).tolist()
    spans = zip([0, *ends[:-1]], ends)
    extent = [_angular_extent(rows[s:e], cols[s:e], cy, cx) for s, e in spans]
    nodes = np.column_stack((extent, centroids[kept] / (h, w), area[kept] / foreground))
    hist = np.column_stack(np.unique(part, return_counts=True))

    # contacts: runs abutting in one row, not across a row's end, then the
    # labeller's overlaps, each pass already in the scan order of its first
    # contact pixel
    beside = np.flatnonzero((runs.end[:-1] == runs.start[1:]) & (runs.start[1:] % w != 0))
    ka = np.concatenate((node[beside], node[runs.upper]))
    kb = np.concatenate((node[beside + 1], node[runs.lower]))
    both = (ka >= 0) & (kb >= 0)
    ka, kb = ka[both], kb[both]
    _, first = np.unique(np.minimum(ka, kb) * n + np.maximum(ka, kb), return_index=True)
    i, j = ka[first], kb[first]
    edges = np.full((2, n + 1, n + 1), np.nan)
    dy, dx = nodes[j, 1] - nodes[i, 1], nodes[j, 2] - nodes[i, 2]
    theta = _apply(math.atan2, dy, dx)
    edges[0, i, j] = edges[0, j, i] = _apply(math.hypot, dy, dx)
    edges[1, i, j] = theta
    edges[1, j, i] = _apply(_wrap_angle, theta + math.pi)
    # anchors: each local node's polar position from the image centre
    dy, dx = nodes[:, 1] - 0.5, nodes[:, 2] - 0.5
    edges[0, :n, n] = edges[0, n, :n] = _apply(math.hypot, dy, dx)
    edges[1, :n, n] = edges[1, n, :n] = _apply(math.atan2, dy, dx)
    return AttributeGraph(part, nodes, edges, hist, foreground / (h * w) if foreground else 0.0)


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


@dataclass
class Affinity:
    candidates: list  # (query node index, candidate node index); GLOBAL pairs first
    matrix: np.ndarray
    query: AttributeGraph
    cand: AttributeGraph

    def __post_init__(self):
        # C order pins the rounding of A @ x, which the walk's stacked
        # product reproduces only for C-contiguous matrices; a no-op (the same
        # array, its base kept) for the builder's views
        self.matrix = np.ascontiguousarray(self.matrix)
        m = len(self.candidates)
        if not m or self.matrix.shape != (m, m):
            raise ContractViolation(f"affinity of {m} candidates with a {self.matrix.shape} matrix")


class _Problems(NamedTuple):
    """Matching problems of one query laid out in walk order: sorted by
    candidate count m (a stable sort), so each size class fills one run of
    the concatenated candidate vector and its matrices one C-contiguous
    (b, m, m) block of one buffer."""

    order: np.ndarray  # (n,) the caller's index of the problem at each walk position
    m: np.ndarray  # (n,) candidates per problem, ascending
    cq: np.ndarray  # query node of each candidate (GLOBAL for the global pair)
    cc: np.ndarray  # candidate node of each candidate
    rows: np.ndarray  # Sinkhorn row group of each candidate, one per (problem, query node)
    cols: np.ndarray  # Sinkhorn column group, one per (problem, candidate node)
    stacks: list  # one (b, m, m) view of the buffer per size class


def _affinity_problems(q, graphs):
    """The query graph `q` against each of the (non-empty) `graphs`, in walk
    order; see build_affinity."""
    n = len(graphs)
    sizes = np.array([len(g.part) for g in graphs], dtype=np.intp)
    node_owner = np.repeat(np.arange(n), sizes)

    # candidate pairs of every problem from one part-id comparison, ordered
    # by walk position, then query node, then candidate node
    qi, k = np.nonzero(q.part[:, None] == np.concatenate([g.part for g in graphs]))
    owner = node_owner[k]
    m = np.bincount(owner, minlength=n) + 1  # candidates per problem
    order = np.argsort(m, kind="stable")
    walk_pos = np.empty(n, dtype=np.intp)
    walk_pos[order] = np.arange(n)
    by_problem = np.argsort(walk_pos[owner], kind="stable")
    qi, k, owner = qi[by_problem], k[by_problem], owner[by_problem]
    m = m[order]
    ends = np.cumsum(m)
    starts = ends - m
    total = int(ends[-1])
    problem = np.repeat(np.arange(n), m)  # walk position of each candidate
    source = order[problem]  # and the index of its graph
    local = np.ones(total, dtype=bool)
    local[starts] = False
    cq = np.full(total, GLOBAL)
    cq[local] = qi
    cc = np.full(total, GLOBAL)
    cc[local] = k - (np.cumsum(sizes) - sizes)[owner]

    # unary terms: histogram overlap on the global pairs, as the integer
    # ratio sum(min) / sum(max) over both histograms' part ids ...
    hist = np.concatenate([g.hist for g in graphs])
    hist_owner = np.repeat(np.arange(n), [len(g.hist) for g in graphs])
    shared = np.minimum(q.hist[:, 1, None], hist[:, 1]) * (q.hist[:, 0, None] == hist[:, 0])
    lo = np.bincount(hist_owner, shared.sum(axis=0), minlength=n)
    hi = q.hist[:, 1].sum() + np.bincount(hist_owner, hist[:, 1], minlength=n) - lo
    similarity = np.divide(lo, hi, out=np.ones(n), where=hi != 0)
    cand_area = np.array([g.area_fraction for g in graphs], dtype=np.float64)
    diag = np.empty(total)
    diag[starts] = (similarity * np.sqrt(q.area_fraction * cand_area))[order]
    # ... and extent and centroid closeness on the local pairs
    qv, cv = q.nodes[qi], np.concatenate([g.nodes for g in graphs])[k]
    d_ext = np.abs(qv[:, 0] - cv[:, 0])
    d_cen = _apply(math.hypot, qv[:, 1] - cv[:, 1], qv[:, 2] - cv[:, 2])
    closeness = _apply(math.exp, -d_ext / SIGMA_SUBTENDED - d_cen / SIGMA_CENTROID)
    diag[local] = closeness * np.sqrt(qv[:, 3] * cv[:, 3])

    # pairwise terms: each candidate r with every later candidate c of its
    # problem, unless the two share a query or a candidate node ...
    later = ends[problem] - np.arange(total) - 1
    r = np.repeat(np.arange(total), later)
    c = r + 1 + np.arange(r.size) - np.repeat(np.cumsum(later) - later, later)
    apart = (cq[r] != cq[c]) & (cc[r] != cc[c])
    r, c = r[apart], c[apart]
    # ... and unless either graph lacks the edge. Edge matrices index the
    # global node as n, one past the graph's local nodes.
    qnode = np.where(cq == GLOBAL, len(q.part), cq)
    eq = q.edges.reshape(2, -1)[:, qnode[r] * (len(q.part) + 1) + qnode[c]]
    side = sizes + 1
    edge_start = np.cumsum(side * side) - side * side
    cnode = np.where(cc == GLOBAL, sizes[source], cc)
    pr = source[r]
    at = edge_start[pr] + cnode[r] * side[pr] + cnode[c]
    ec = np.concatenate([g.edges.reshape(2, -1) for g in graphs], axis=1)[:, at]
    both = ~(np.isnan(eq[0]) | np.isnan(ec[0]))
    r, c, eq, ec = r[both], c[both], eq[:, both], ec[:, both]
    t = (eq[1] - ec[1]).tolist()
    wrapped = map(math.atan2, map(math.sin, t), map(math.cos, t))  # _wrap_angle
    d_theta = np.abs(np.fromiter(wrapped, np.float64, len(t)))
    pairwise = _apply(math.exp, -np.abs(eq[0] - ec[0]) / SIGMA_RADIUS - d_theta / SIGMA_THETA)

    # one scatter into one buffer holding every matrix in walk order, so a
    # size class's matrices are one block of it
    area = m * m
    matrix_start = np.cumsum(area) - area
    pos = np.arange(total) - starts[problem]
    row = matrix_start[problem] + pos * m[problem]
    buf = np.zeros(int(area.sum()))
    buf[row + pos] = diag
    buf[row[r] + pos[c]] = pairwise
    buf[row[c] + pos[r]] = pairwise
    stacks = []
    for s, e in _class_spans(m):
        o, size = int(matrix_start[s]), int(m[s])
        stacks.append(buf[o : o + (e - s) * size * size].reshape(e - s, size, size))
    # group ids by arithmetic: (problem, node) pairs numbered apart, the
    # global node as 0
    rows = problem * (len(q.part) + 1) + cq + 1
    cols = problem * (int(sizes.max()) + 1) + cc + 1
    return _Problems(order, m, cq, cc, rows, cols, stacks)


def _class_spans(m):
    """(start, end) of each run of equal candidate counts in the ascending m."""
    ends = (np.flatnonzero(np.diff(m, append=0)) + 1).tolist()
    return list(zip([0, *ends[:-1]], ends))


def _apply(fn, *columns):
    """fn over float64 arrays elementwise through Python floats, so results
    match the scalar math functions to the last bit (numpy's vectorised
    exp, arctan2 and hypot can differ from them in the last bit)."""
    return np.fromiter(map(fn, *(col.tolist() for col in columns)), np.float64, columns[0].size)


def build_affinity(q, c):
    """The constrained candidate list and affinity matrix of the query graph
    `q` against the graph `c`: `_affinity_problems` on one graph, whose
    matrix is a C-contiguous view of the builder's buffer.

    Candidates are (query node, candidate node) pairs: the global pair
    first, then every pair of local nodes with the same part id, query node
    major. Unary terms sit on the diagonal: closeness in angular extent and
    centroid, weighted by the geometric mean of the two instance areas
    (fractions, so everything stays in [0, 1]); the global pair scores the
    part-type histograms. Off-diagonal terms compare the polar edge
    attributes of correspondence pairs whose edge exists in both graphs;
    local-global anchor edges take part with the same formula. Pairs that
    share a query or a candidate node never reinforce each other.
    """
    p = _affinity_problems(q, [c])
    return Affinity(list(zip(p.cq.tolist(), p.cc.tolist())), p.stacks[0][0], q, c)


@dataclass
class MatchResult:
    pairs: dict  # query node index (GLOBAL for the global node) -> candidate index
    score: float
    converged: bool
    relaxed: np.ndarray  # final walk distribution over candidates


def _size_classes(stacks):
    """Where each non-empty (b, m, m) stack's problems sit in the walk: the
    stack, its span of the concatenated vector, its span of the problems,
    and (b, m)."""
    layout, s, k = [], 0, 0
    for stack in stacks:
        b, m = stack.shape[:2]
        if b:
            layout.append((stack, slice(s, s + b * m), slice(k, k + b), (b, m)))
            s, k = s + b * m, k + b
    return layout


def _walk(m, rows, cols, stacks, max_iterations=300):
    """Reweighted random walks in lockstep, then the greedy pick, for
    problems in walk order: `m` candidates each (ascending), Sinkhorn row
    and column groups `rows` and `cols` over the concatenated candidate
    vector, and one C-contiguous (b, m, m) matrix stack per size class.

    Returns each problem's score (an array), converged flag and relaxed
    vector, and the picked candidates of the concatenated vector in the
    order the greedy steps took them.
    """
    n = m.size
    problem = np.repeat(np.arange(n), m)
    x = np.repeat(1.0 / m, m)
    walk_rows, walk_cols = rows, cols
    live = np.arange(n)
    walking = stacks
    relaxed = [None] * n
    converged = [False] * n
    moved = True
    for _ in range(max_iterations):
        if not live.size:
            break
        if moved:
            ends = np.cumsum(m[live])
            starts = ends - m[live]
            owner = np.repeat(np.arange(live.size), m[live])
            layout = _size_classes(walking)
            walked = np.empty(x.size)
            total = np.empty(live.size)
        for stack, values, _, (b, size) in layout:
            np.matmul(stack, x[values].reshape(b, size, 1), out=walked[values].reshape(b, size, 1))
        jump = np.exp(BETA * x / np.maximum.reduceat(x, starts)[owner])
        for _ in range(SINKHORN_ITERATIONS):
            jump = jump / np.bincount(walk_rows, weights=jump)[walk_rows]
            jump = jump / np.bincount(walk_cols, weights=jump)[walk_cols]
        y = ALPHA * walked + (1.0 - ALPHA) * jump
        for _, values, probs, (b, size) in layout:
            np.add.reduce(y[values].reshape(b, size), axis=1, out=total[probs])
        stuck = total <= 0
        y = y / np.where(stuck, 1.0, total)[owner]
        done = ~stuck & (np.maximum.reduceat(np.abs(y - x), starts) < TOL)
        leaving = stuck | done
        moved = bool(leaving.any())
        if not moved:
            x = y
            continue
        for k in np.flatnonzero(leaving):
            relaxed[live[k]] = (y if done[k] else x)[starts[k] : ends[k]]
            converged[live[k]] = bool(done[k])
        staying = ~leaving
        walking = [
            stack[staying[probs]] if leaving[probs].any() else stack
            for stack, _, probs, _ in layout
        ]
        keep = staying[owner]
        x, walk_rows, walk_cols = y[keep], walk_rows[keep], walk_cols[keep]
        live = live[staying]
    ends = np.cumsum(m[live])
    for p, s, e in zip(live, ends - m[live], ends):
        relaxed[p] = x[s:e]

    # greedy one-to-one pick, every problem in lockstep: step t tries each
    # problem's t-th heaviest candidate (ties in candidate order), unless a
    # pick of an earlier step took its row or column group
    starts = np.cumsum(m) - m
    heaviest = np.lexsort((-np.concatenate(relaxed), problem))
    rank = np.arange(problem.size) - starts[problem]
    tries = heaviest[np.argsort(rank, kind="stable")]
    step_end = np.cumsum(np.bincount(rank)).tolist()
    taken = np.zeros(tries.size, dtype=bool)
    row_used = np.zeros(rows.max() + 1, dtype=bool)
    col_used = np.zeros(cols.max() + 1, dtype=bool)
    for s, e in zip([0, *step_end[:-1]], step_end):
        tried = tries[s:e]
        r, c = rows[tried], cols[tried]
        free = ~(row_used[r] | col_used[c])
        row_used[r[free]] = True
        col_used[c[free]] = True
        taken[s:e] = free
    picked = tries[taken]
    indicator = np.zeros(problem.size)
    indicator[picked] = 1.0
    score = np.empty(n)
    for stack, values, probs, (b, size) in _size_classes(stacks):
        ind = indicator[values]
        score[probs] = (ind.reshape(b, 1, size) @ stack @ ind.reshape(b, size, 1)).reshape(b)
    return score, converged, relaxed, picked


def rrwm_match(affinity, max_iterations=300):
    """Reweighted random walk over the affinity matrix, then greedy
    one-to-one discretization, as a MatchResult: the walk core on one
    problem. Sinkhorn normalizes one row group per query node and one column
    group per candidate node (the global pair gets its own row and column),
    numbered by the problem's own distinct node ids, so no array is sized by
    a node id. The walk stops when it converges, its total is not positive,
    or after max_iterations steps. Never emits a pair outside the candidate
    list, so the matching constraints hold by construction."""
    candidates = affinity.candidates
    rows, cols = (np.unique(ids, return_inverse=True)[1] for ids in np.array(candidates).T)
    m, stacks = np.array([len(candidates)]), [affinity.matrix[None]]
    score, converged, relaxed, picked = _walk(m, rows, cols, stacks, max_iterations)
    pairs = dict(map(candidates.__getitem__, picked.tolist()))
    return MatchResult(pairs, float(score[0]), converged[0], relaxed[0])


def rerank(query_lm, candidates, top_t=50):
    """Re-order the first top_t of an initial ranking by graph similarity.

    candidates is an ordered list of (id, LabelMap), best first. Scored
    entries sort by descending match score, stable against the initial
    order; everything beyond top_t keeps its position. Candidate graphs
    come from graph_of; the query graph is built fresh. The scores are
    those of rrwm_match over build_affinity for each candidate, taken
    straight from the builder's arrays by the same walk core in one batch.

    Nodes match by raw part id, so the query and the candidates should be
    maps in one branch's ids: a candidate parsed by another expert than the
    query scores by the parts that merely share an id with the query's.
    """
    check_count("top_t", top_t)
    head = candidates[: min(top_t, len(candidates))]
    tail = candidates[len(head) :]
    if not head:
        return [cid for cid, _ in tail]
    qg = build_graph(query_lm)
    p = _affinity_problems(qg, [graph_of(lm) for _, lm in head])
    score = np.empty(len(head))
    score[p.order] = _walk(p.m, p.rows, p.cols, p.stacks)[0]
    scored = sorted(zip((-score).tolist(), range(len(head)), (cid for cid, _ in head)))
    return [cid for _, _, cid in scored] + [cid for cid, _ in tail]
