import math
from collections import Counter

import numpy as np
import pytest

from sketchparts import checks, graphmatch
from sketchparts.autograd import make_rng
from sketchparts.checks import best_assignment
from sketchparts.errors import ConfigError, ContractViolation
from sketchparts.graphmatch import (
    GLOBAL,
    Affinity,
    AttributeGraph,
    MatchResult,
    build_affinity,
    build_graph,
    graph_of,
    rerank,
    rrwm_match,
)
from sketchparts.imaging import LabelMap, label_runs
from sketchparts.pipeline import part_counts
from sketchparts.taxonomy import load_taxonomy

from oracles import build_affinity_loop, build_graph_loop, label_components_loop, rrwm_match_loop


# --------------------------------------------------------------------------
# synthetic graphs with a known ground-truth correspondence


def synth_graph(rng, n_nodes, part_pool=(1, 2, 3)):
    parts = sorted(int(p) for p in rng.choice(part_pool, size=n_nodes))
    centroids = 0.15 + 0.7 * rng.random((n_nodes, 2))
    areas = rng.random(n_nodes) + 0.3
    areas = areas / areas.sum()
    subtended = [float(rng.uniform(0.1, 2.0)) for _ in range(n_nodes)]
    nodes = np.column_stack([subtended, centroids, areas])
    structure = {
        (i, j)
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < 0.5
    }
    return _assemble(np.array(parts, dtype=np.int64), nodes, structure), structure


def _assemble(part, nodes, structure):
    """A graph over `nodes` (rows of subtended, centroid row, centroid col,
    area fraction) with an edge both ways for each (i, j) in `structure`."""
    n = len(part)
    cen = nodes[:, 1:3].tolist()
    edges = np.full((2, n + 1, n + 1), np.nan)
    for i, j in structure:
        dy, dx = cen[j][0] - cen[i][0], cen[j][1] - cen[i][1]
        edges[:, i, j] = math.hypot(dy, dx), math.atan2(dy, dx)
        edges[:, j, i] = math.hypot(dy, dx), math.atan2(-dy, -dx)
    for i, (row, col) in enumerate(cen):
        edges[:, i, n] = edges[:, n, i] = (
            math.hypot(row - 0.5, col - 0.5),
            math.atan2(row - 0.5, col - 0.5),
        )
    hist = np.column_stack(np.unique(part, return_counts=True))
    area_fraction = min(0.9, sum(nodes[:, 3].tolist()) * 0.5)
    return AttributeGraph(part, nodes, edges, hist, area_fraction)


def perturb_and_permute(graph, structure, rng, eps=0.02):
    """Jittered copy with shuffled node order; returns (graph, truth map)."""
    n = len(graph.part)
    perm = list(rng.permutation(n))
    placement = {old: perm.index(old) for old in range(n)}  # old node -> its new index
    nodes = np.empty((n, 4))
    area_jitter = 2.5 * eps
    for old, (subtended, row, col, area) in enumerate(graph.nodes.tolist()):
        area = max(1e-4, area * float(rng.uniform(1 - area_jitter, 1 + area_jitter)))
        subtended = float(np.clip(subtended + rng.uniform(-eps, eps), 0, 2 * np.pi))
        row = float(np.clip(row + rng.uniform(-eps, eps), 0, 1))
        col = float(np.clip(col + rng.uniform(-eps, eps), 0, 1))
        nodes[placement[old]] = subtended, row, col, area
    new_structure = {
        tuple(sorted((placement[i], placement[j]))) for i, j in structure
    }
    return _assemble(graph.part[perm], nodes, new_structure), placement


def part_one_nodes(*centroids):
    """Part-1 nodes of one extent and area at `centroids`: (part, nodes)."""
    return np.ones(len(centroids), dtype=np.int64), np.array([(0.5, r, c, 0.33) for r, c in centroids])


def check_constraints(result, q, c):
    assert result.pairs[GLOBAL] == GLOBAL
    locals_ = {k: v for k, v in result.pairs.items() if k != GLOBAL}
    assert len(set(locals_.values())) == len(locals_)
    for i, a in locals_.items():
        assert q.part[i] == c.part[a]


def assert_same_graph(got, want):
    """Field by field, dtypes and shapes too, NaN equal to NaN."""
    for name in ("part", "nodes", "edges", "hist"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name
    assert got.area_fraction == want.area_fraction


# --------------------------------------------------------------------------


def run_pixels(runs, w):
    """Each run's (row, col) pixels, left to right."""
    return [[divmod(f, w) for f in range(s, e)] for s, e in zip(runs.start.tolist(), runs.end.tolist())]


def instances_of(lm):
    """label_runs(lm.labels) read as label_components_loop reads a map, by
    a loop over the runs: (part ids, areas, centroids, pixels, index map),
    instances ordered by (part id, centroid row, centroid col), ties in the
    labeller's numbering, each instance's pixels in scan order."""
    runs = label_runs(lm.labels)
    owned = [[] for _ in runs.part_ids]
    for k, pixels in zip(runs.comp.tolist(), run_pixels(runs, lm.width)):
        owned[k - 1].extend(pixels)
    found = []
    for pid, pixels in zip(runs.part_ids.tolist(), owned):
        rows, cols = np.array(pixels).T
        assert (lm.labels[rows, cols] == pid).all()
        found.append((pid, rows.mean().item(), cols.mean().item(), np.column_stack([rows, cols])))
    found.sort(key=lambda c: c[:3])
    index_map = np.full(lm.labels.shape, -1, dtype=np.int32)
    for i, (*_, pixels) in enumerate(found):
        index_map[pixels[:, 0], pixels[:, 1]] = i
    return (
        np.array([pid for pid, *_ in found], dtype=np.int64),
        np.array([len(pixels) for *_, pixels in found], dtype=np.intp),
        np.array([(row, col) for _, row, col, _ in found], dtype=np.float64).reshape(-1, 2),
        np.concatenate([np.zeros((0, 2), dtype=np.intp), *(pixels for *_, pixels in found)]),
        index_map,
    )


class TestBuildGraph:
    def test_single_square_part(self):
        lm = np.zeros((10, 10), dtype=np.uint8)
        lm[2:7, 2:7] = 3
        g = build_graph(LabelMap(lm))
        assert g.hist.tolist() == [[3, 1]]
        assert g.area_fraction == pytest.approx(0.25)
        assert g.part.tolist() == [3]
        assert g.nodes[0, 1:].tolist() == [0.4, 0.4, 1.0]  # centroid row, col; area fraction

    def test_nodes_rank_by_part_then_centroid(self):
        lm = np.zeros((10, 10), dtype=np.uint8)
        lm[8, 8] = 1
        lm[0, 0] = 1
        lm[4, 4] = 3
        g = build_graph(LabelMap(lm))
        assert g.part.tolist() == [1, 1, 3]
        assert (g.nodes[:, 1:3] * 10).tolist() == [[0.0, 0.0], [8.0, 8.0], [4.0, 4.0]]

    def test_background_only_graph(self):
        g = build_graph(LabelMap(np.zeros((8, 8), dtype=np.uint8)))
        assert g.part.shape == (0,) and g.nodes.shape == (0, 4) and g.hist.shape == (0, 2)
        assert g.edges.shape == (2, 1, 1) and np.isnan(g.edges).all()
        assert g.area_fraction == 0.0

    def test_tiny_component_dropped(self):
        lm = np.zeros((64, 64), dtype=np.uint8)
        lm[2:62, 2:34] = 1  # 1920 px of foreground
        lm[50, 60] = 2  # 1 px, below 0.1% of foreground
        g = build_graph(LabelMap(lm))
        assert g.part.tolist() == [1]
        assert g.hist.tolist() == [[1, 1]]

    def test_touching_parts_reciprocal_edge(self):
        lm = np.zeros((10, 10), dtype=np.uint8)
        lm[2:8, 2:5] = 1
        lm[2:8, 5:8] = 2
        g = build_graph(LabelMap(lm))
        assert len(g.nodes) == 2
        assert np.isnan(g.edges[:, :2, :2]).tolist() == [[[True, False], [False, True]]] * 2
        r01, t01 = g.edges[:, 0, 1]
        r10, t10 = g.edges[:, 1, 0]
        assert r01 == pytest.approx(r10)
        diff = abs((t01 - t10 + math.pi) % (2 * math.pi) - math.pi)
        assert diff == pytest.approx(math.pi)

    def test_separated_parts_no_edge(self):
        lm = np.zeros((10, 10), dtype=np.uint8)
        lm[1:3, 1:3] = 1
        lm[7:9, 7:9] = 2
        g = build_graph(LabelMap(lm))
        assert np.isnan(g.edges[:, :2, :2]).all()
        assert not np.isnan(g.edges[:, :2, 2]).any()  # each still anchors to the global node

    def test_subtended_angle_full_surround(self):
        lm = np.zeros((11, 11), dtype=np.uint8)
        lm[:, :] = 1  # covers the centre: extent wraps almost fully
        g = build_graph(LabelMap(lm))
        assert g.nodes[0, 0] > 5.0


class TestAffinity:
    def test_identity_diagonal_maximal(self):
        g, _ = synth_graph(make_rng(3), 4)
        aff = build_affinity(g, g)
        for k, (i, a) in enumerate(aff.candidates):
            if i == GLOBAL:
                continue
            for k2, (j, b) in enumerate(aff.candidates):
                if j == i and b != a:
                    assert aff.matrix[k, k] >= aff.matrix[k2, k2] or a != i
        # the identity pair of each node has the largest unary in its row group
        for i, n in enumerate(g.nodes):
            own = [k for k, (qi, ci) in enumerate(aff.candidates) if qi == i]
            ident = [k for k in own if aff.candidates[k][1] == i]
            best = max(own, key=lambda k: aff.matrix[k, k])
            assert aff.matrix[ident[0], ident[0]] == pytest.approx(
                aff.matrix[best, best]
            )

    def test_cross_part_pairs_absent(self):
        rng = make_rng(5)
        q, _ = synth_graph(rng, 5)
        c, _ = synth_graph(rng, 5)
        aff = build_affinity(q, c)
        for i, a in aff.candidates[1:]:
            assert q.part[i] == c.part[a]

    def test_candidate_count_bound(self):
        rng = make_rng(7)
        q, _ = synth_graph(rng, 6)
        c, _ = synth_graph(rng, 6)
        aff = build_affinity(q, c)
        bound = 1
        counts = dict(c.hist.tolist())
        for part, nq in q.hist.tolist():
            bound += nq * counts.get(part, 0)
        assert len(aff.candidates) <= bound

    def test_affinities_in_unit_interval(self):
        rng = make_rng(9)
        q, _ = synth_graph(rng, 5)
        c, _ = synth_graph(rng, 5)
        A = build_affinity(q, c).matrix
        assert (A >= 0).all() and (A <= 1.0 + 1e-12).all()


class TestRrwm:
    def test_global_only_graphs(self):
        # all-background maps carry just the global node; the match score is
        # that single pair's unary affinity
        g = build_graph(LabelMap(np.zeros((8, 8), dtype=np.uint8)))
        aff = build_affinity(g, g)
        assert aff.candidates == [(GLOBAL, GLOBAL)]
        result = rrwm_match(aff)
        assert result.pairs == {GLOBAL: GLOBAL}
        assert result.score == pytest.approx(aff.matrix[0, 0])

    def test_identity_recovered_on_identical_triangle(self):
        g = _assemble(*part_one_nodes((0.2, 0.2), (0.2, 0.8), (0.8, 0.5)), {(0, 1), (1, 2), (0, 2)})
        result = rrwm_match(build_affinity(g, g))
        for i in range(3):
            assert result.pairs[i] == i

    def test_oracle_agreement_on_perturbed_pairs(self):
        rng = make_rng(13)
        agree = 0
        trials = 40
        for _ in range(trials):
            n = int(rng.integers(2, 7))
            g, structure = synth_graph(rng, n)
            h, placement = perturb_and_permute(g, structure, rng)
            aff = build_affinity(g, h)
            result = rrwm_match(aff)
            check_constraints(result, g, h)
            oracle_pairs, _ = best_assignment(aff)
            if result.pairs == oracle_pairs:
                agree += 1
        assert agree / trials >= 0.95

    def test_oracle_refuses_unequal_node_counts_per_part(self):
        part, nodes = part_one_nodes((0.2, 0.2), (0.8, 0.5))
        aff = build_affinity(_assemble(part, nodes, set()), _assemble(part[:1], nodes[:1], set()))
        with pytest.raises(ContractViolation, match="as many query as candidate nodes"):
            best_assignment(aff)

    def test_selfcheck_rrwm_case_runs_on_array_graphs(self, monkeypatch):
        # selfcheck's graphs carry anchor edges only; the builder reads them
        # as the loop oracle does
        seen = []
        real = graphmatch.build_affinity
        monkeypatch.setattr(graphmatch, "build_affinity", lambda q, c: seen.append(q) or real(q, c))
        checks._check_rrwm(make_rng(5))
        assert len(seen) == 10
        for g in seen:
            n = len(g.part)
            assert g.nodes.shape == (n, 4) and g.edges.shape == (2, n + 1, n + 1)
            assert np.isnan(g.edges[:, :n, :n]).all() and np.isnan(g.edges[:, n, n]).all()
            dy, dx = (g.nodes[:, 1:3] - 0.5).T.tolist()
            assert g.edges[0, :n, n].tolist() == g.edges[0, n, :n].tolist() == list(
                map(math.hypot, dy, dx)
            )
            assert g.edges[1, :n, n].tolist() == list(map(math.atan2, dy, dx))
            assert_same_problems(g, [g])

    def test_permuted_candidate_same_score(self):
        rng = make_rng(17)
        g, structure = synth_graph(rng, 5)
        h, placement = perturb_and_permute(g, structure, rng, eps=0.0)
        s1 = rrwm_match(build_affinity(g, h)).score
        h2, placement2 = perturb_and_permute(g, structure, make_rng(18), eps=0.0)
        s2 = rrwm_match(build_affinity(g, h2)).score
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_deterministic(self):
        rng = make_rng(19)
        g, structure = synth_graph(rng, 5)
        h, _ = perturb_and_permute(g, structure, rng)
        a = rrwm_match(build_affinity(g, h))
        b = rrwm_match(build_affinity(g, h))
        assert a.pairs == b.pairs and a.score == b.score


def result_has(result, aff, k):
    i, a = aff.candidates[k]
    return result.pairs.get(i) == a


def random_labelmap(rng, size=24, parts=3):
    lm = np.zeros((size, size), dtype=np.uint8)
    for part in range(1, parts + 1):
        r, c = rng.integers(2, size - 8, size=2)
        h, w = rng.integers(4, 8, size=2)
        lm[r : r + h, c : c + w] = part
    return LabelMap(lm)


class TestRerank:
    def test_exact_duplicate_ranked_first(self):
        rng = make_rng(23)
        for _ in range(10):
            query = random_labelmap(rng)
            pool = [(f"c{k}", random_labelmap(rng)) for k in range(6)]
            dup_pos = int(rng.integers(0, len(pool) + 1))
            pool.insert(dup_pos, ("dup", LabelMap(query.labels.copy())))
            out = rerank(query, pool, top_t=10)
            assert out[0] == "dup"

    def test_zero_window_is_identity(self):
        rng = make_rng(29)
        query = random_labelmap(rng)
        pool = [(f"c{k}", random_labelmap(rng)) for k in range(5)]
        assert rerank(query, pool, top_t=0) == [cid for cid, _ in pool]

    def test_output_is_permutation(self):
        rng = make_rng(31)
        query = random_labelmap(rng)
        pool = [(f"c{k}", random_labelmap(rng)) for k in range(8)]
        out = rerank(query, pool, top_t=4)
        assert sorted(out) == sorted(cid for cid, _ in pool)
        assert out[4:] == [cid for cid, _ in pool[4:]]

    def test_self_match_keeps_the_global_node(self):
        rng = make_rng(37)
        a = random_labelmap(rng)
        result = rrwm_match(build_affinity(build_graph(a), graph_of(a)))
        assert result.pairs[GLOBAL] == GLOBAL
        assert result.score > 0

    @pytest.mark.parametrize("top_t", [-1, 2.5, 3.0, True, False, "5", None])
    def test_bad_top_t_rejected(self, top_t):
        rng = make_rng(39)
        pool = [(f"c{k}", random_labelmap(rng)) for k in range(3)]
        with pytest.raises(ConfigError, match=r"^top_t must be an integer >= 0, got "):
            rerank(random_labelmap(rng), pool, top_t=top_t)

    def test_numpy_integer_top_t_accepted(self):
        rng = make_rng(39)
        query = random_labelmap(rng)
        pool = [(f"c{k}", random_labelmap(rng)) for k in range(4)]
        assert rerank(query, pool, top_t=np.int64(2)) == rerank(query, pool, top_t=2)


# --------------------------------------------------------------------------
# the vectorised paths against the loop oracles, compared exactly


def patchwork(rng, h, w, ids=(1, 2, 3, 255), rects=6, specks=4):
    """Overlapping rectangles of random part ids plus single-pixel specks."""
    lm = np.zeros((h, w), dtype=np.uint8)
    for _ in range(rects):
        r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
        rh, rw = int(rng.integers(1, h // 2 + 2)), int(rng.integers(1, w // 2 + 2))
        lm[r : r + rh, c : c + rw] = rng.choice(ids)
    for _ in range(specks):
        lm[int(rng.integers(0, h)), int(rng.integers(0, w))] = rng.choice(ids)
    return LabelMap(lm)


def dropped_bridge():
    """Parts 1 and 2 a column apart, bridged by 1-pixel instances below
    MIN_AREA_FRACTION of the foreground: a part 3 alone, and a part 3 over a
    part 4; and a 1-pixel part 4 inside 1."""
    lm = np.zeros((24, 48), dtype=np.uint8)
    lm[:, :23] = 1
    lm[:, 24:] = 2
    lm[12, 23] = lm[20, 23] = 3
    lm[21, 23] = 4
    lm[5, 5] = 4
    assert 1 < graphmatch.MIN_AREA_FRACTION * np.count_nonzero(lm)
    return lm


def oracle_maps():
    """Hand-made edge cases, then random maps, square and not."""
    maps = {
        "background": np.zeros((6, 9), dtype=np.uint8),
        "one_pixel": np.pad(np.array([[7]], dtype=np.uint8), ((2, 3), (4, 1))),
        "whole_map_id_255": np.full((3, 5), 255, dtype=np.uint8),
        # part 2 sorts after part 1, so each first contact runs from node 1 to node 0
        "vertical_first_contact": np.array([[2, 2, 2], [2, 2, 2], [1, 1, 1], [1, 1, 1]]),
        "right_to_left": np.array([[2, 2, 1, 1], [2, 2, 1, 1]]),
        # the row pass meets 2|1, the later column pass 1-over-2
        "row_then_column": np.array([[0, 0, 1, 1], [2, 2, 1, 1], [2, 2, 2, 0]]),
        "border_parts": np.array(
            [[3, 3, 0, 0, 4], [0, 0, 0, 0, 4], [0, 5, 5, 0, 0], [255, 0, 0, 0, 6]]
        ),
        "one_id_many_pieces": np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]]),
        # 1 ends a row and 2 starts the next: adjacent in flat index only
        "row_end_beside_next_row_start": np.array([[0, 0, 1], [2, 0, 0], [2, 2, 1]]),
        "one_pixel_strips": np.tile([1, 2, 1, 3], (5, 2)),
        # the lower run first meets 1 at its own start, then 2
        "lower_run_under_two": np.array([[1, 1, 2, 2, 0], [0, 3, 3, 3, 3], [0, 0, 3, 0, 0]]),
        "dropped_bridge": dropped_bridge(),
    }
    out = [(name, LabelMap(np.asarray(a, dtype=np.uint8))) for name, a in maps.items()]
    rng = make_rng(41)
    for h, w in ((1, 1), (1, 9), (9, 1), (17, 40), (40, 17), (32, 32), (48, 30)):
        for k in range(3):
            out.append((f"random_{h}x{w}_{k}", patchwork(rng, h, w)))
    return out


ORACLE_MAPS = oracle_maps()


def assert_same_match(got, want):
    assert list(got.pairs.items()) == list(want.pairs.items())
    assert got.score == want.score
    assert got.converged == want.converged
    assert got.relaxed.tobytes() == want.relaxed.tobytes()


def assert_same_problems(q, graphs):
    """The builder's blocks, read back in the caller's order, and each
    build_affinity view against build_affinity_loop; every block one view
    of one buffer."""
    p = graphmatch._affinity_problems(q, graphs)
    matrices = [matrix for stack in p.stacks for matrix in stack]
    assert len(matrices) == len(graphs)
    buffer = p.stacks[0].base
    assert buffer is not None and all(stack.base is buffer for stack in p.stacks)
    ends = np.cumsum(p.m).tolist()
    for g, s, e, matrix in zip(p.order.tolist(), [0, *ends[:-1]], ends, matrices):
        want = build_affinity_loop(q, graphs[g])
        assert list(zip(p.cq[s:e].tolist(), p.cc[s:e].tolist())) == want.candidates
        assert matrix.shape == want.matrix.shape and matrix.flags.c_contiguous
        assert matrix.tobytes() == want.matrix.tobytes()
        aff = build_affinity(q, graphs[g])  # the same block, read as one Affinity
        assert aff.candidates == want.candidates and aff.matrix.tobytes() == matrix.tobytes()
        assert aff.matrix.flags.c_contiguous and aff.query is q and aff.cand is graphs[g]


def lockstep(m, cq, cc, rows, cols, stacks, cap):
    """_walk over problems in walk order, one MatchResult each, its pairs in
    the order the greedy steps took them."""
    score, converged, relaxed, picked = graphmatch._walk(m, rows, cols, stacks, cap)
    owner = np.repeat(np.arange(m.size), m)[picked]
    mine = [picked[owner == k] for k in range(m.size)]
    return [
        MatchResult(dict(zip(cq[k].tolist(), cc[k].tolist())), float(s), c, r)
        for k, s, c, r in zip(mine, score, converged, relaxed)
    ]


def walked_matches(q, graphs, cap):
    """The walk core on the builder's output, one MatchResult per graph in
    the caller's order, and the problems' candidate counts in walk order."""
    p = graphmatch._affinity_problems(q, graphs)
    walked = lockstep(p.m, p.cq, p.cc, p.rows, p.cols, p.stacks, cap)
    return [walked[k] for k in np.argsort(p.order)], p.m


class TestAgainstLoopOracles:
    @pytest.mark.parametrize("name,lm", ORACLE_MAPS, ids=[n for n, _ in ORACLE_MAPS])
    def test_label_components_exact(self, name, lm):
        got, want = instances_of(lm), label_components_loop(lm)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("name,lm", ORACLE_MAPS, ids=[n for n, _ in ORACLE_MAPS])
    def test_overlaps_are_the_vertical_contacts(self, name, lm):
        # every run pair with a pixel of the upper right above one of the
        # lower and different ids, ordered by lower run, then upper
        runs = label_runs(lm.labels)
        run_at = np.full(lm.labels.shape, -1)
        for k, pixels in enumerate(run_pixels(runs, lm.width)):
            for r, c in pixels:
                run_at[r, c] = k
        want = sorted(
            {(int(run_at[r + 1, c]), int(run_at[r, c]))
             for r in range(lm.height - 1) for c in range(lm.width)
             if 0 != lm.labels[r, c] != lm.labels[r + 1, c] != 0}
        )
        assert list(zip(runs.lower.tolist(), runs.upper.tolist())) == want

    @pytest.mark.parametrize("named", [3, 255])
    @pytest.mark.parametrize("name,lm", ORACLE_MAPS, ids=[n for n, _ in ORACLE_MAPS])
    def test_part_counts_are_label_components_per_id(self, name, lm, named):
        names = [f"part{i}" for i in range(1, named + 1)]
        tax = load_taxonomy("super s\ncat c : " + ", ".join(names) + "\n")  # ids 1..named
        per_id = Counter(label_components_loop(lm)[0].tolist())
        if max(per_id, default=0) > named:
            with pytest.raises(ContractViolation, match=f"part id {max(per_id)},"):
                part_counts(lm, tax, branch=0)
            return
        want = {names[pid - 1]: per_id[pid] for pid in sorted(per_id)}
        got = part_counts(lm, tax, branch=0)
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("name,lm", ORACLE_MAPS, ids=[n for n, _ in ORACLE_MAPS])
    def test_build_graph_exact(self, name, lm):
        assert_same_graph(build_graph(lm), build_graph_loop(lm))

    def test_lockstep_batch_exact(self):
        # every oracle map's graph as the query against all of them, and
        # perturbed synthetic pairs against those graphs: many size classes
        # per batch, every problem compared with its own loop walk
        rng = make_rng(43)
        graphs = [build_graph(lm) for _, lm in ORACLE_MAPS]
        queries = list(graphs)
        for n in (1, 2, 3, 5, 6):
            g, structure = synth_graph(rng, n)
            h, _ = perturb_and_permute(g, structure, rng, eps=0.05)
            queries.append(g)
            graphs.append(h)
        want = [[build_affinity_loop(q, c) for c in graphs] for q in queries]
        for cap in (0, 1, 4, 8, 300):
            for q, loops in zip(queries, want):
                got, _ = walked_matches(q, graphs, cap)
                assert len(got) == len(graphs)
                for r, aff in zip(got, loops):
                    assert_same_match(r, rrwm_match_loop(aff, max_iterations=cap))

    def test_size_classes_leave_on_different_iterations(self):
        # one query's batch: at a cap of 4 few walks have converged, at 8
        # most, so size classes lose walks on different iterations
        graphs = [build_graph(lm) for _, lm in ORACLE_MAPS]
        want = [build_affinity_loop(graphs[-1], c) for c in graphs]
        for cap in (0, 1, 4, 8, 300):
            got, m = walked_matches(graphs[-1], graphs, cap)
            for r, aff in zip(got, want):
                assert_same_match(r, rrwm_match_loop(aff, max_iterations=cap))
            assert len(set(m.tolist())) >= 10
            converged = [r.converged for r in got]
            if cap in (4, 8):
                assert any(converged) and not all(converged)
        # hand-built walks of one size class, stuck at step 1, converged at
        # step 2 and still walking at step 4, leave the lockstep one by one;
        # only a negative matrix gets stuck, and no builder output has one
        rng = make_rng(53)
        tied = [(GLOBAL, GLOBAL)] + [(i, a) for i in range(2) for a in range(2)]
        walk = rng.random((5, 5))
        five = {
            "stuck": Affinity(tied, np.full((5, 5), -100.0), None, None),  # total < 0 at once
            "converged": Affinity(tied, np.zeros((5, 5)), None, None),  # fixed at step 2
            "capped": Affinity(tied, walk + walk.T, None, None),  # walks past step 4
        }
        # before them single-candidate problems, stuck and converged at step
        # 1; after them a class whose walks all leave at step 2
        wide = [(GLOBAL, GLOBAL)] + [(i, a) for i in range(3) for a in range(3)]
        batch = [Affinity([(GLOBAL, GLOBAL)], np.array([[a]]), None, None) for a in (-1.0, 0.5)]
        batch += list(five.values()) + [Affinity(wide, np.zeros((10, 10)), None, None)] * 2
        m = np.array([len(aff.candidates) for aff in batch])
        problem = np.repeat(np.arange(m.size), m)
        cq, cc = np.array([pair for aff in batch for pair in aff.candidates]).T
        stacks = [np.stack([a.matrix for a in batch if len(a.candidates) == k]) for k in (1, 5, 10)]
        for cap in (0, 1, 4, 300):
            got = lockstep(m, cq, cc, problem * 4 + cq + 1, problem * 4 + cc + 1, stacks, cap)
            for r, aff in zip(got, batch):
                assert_same_match(r, rrwm_match_loop(aff, max_iterations=cap))
                assert_same_match(rrwm_match(aff, cap), rrwm_match_loop(aff, max_iterations=cap))
        capped = {k: rrwm_match(aff, 4) for k, aff in five.items()}
        uniform = np.full(5, 0.2).tobytes()
        assert not capped["stuck"].converged and capped["stuck"].relaxed.tobytes() == uniform
        assert capped["converged"].converged
        assert not rrwm_match(five["converged"], 1).converged
        assert not capped["capped"].converged and capped["capped"].relaxed.tobytes() != uniform
        assert rrwm_match(five["capped"]).converged
        # every local weight tied: the greedy pick runs in candidate order
        tied = [(GLOBAL, GLOBAL)] + [(i, a) for i in range(3) for a in range(7)]
        aff = Affinity(tied, np.zeros((22, 22)), None, None)
        for cap in (0, 1, 4, 300):
            assert_same_match(rrwm_match(aff, cap), rrwm_match_loop(aff, max_iterations=cap))

    def test_stacked_kernels_keep_the_per_slice_bits(self):
        # the size-class walk rests on these: a stacked matmul, a row-wise
        # add.reduce and a stacked indicator product round each slice as the
        # 2-D call on one C-contiguous matrix does
        rng = make_rng(59)
        for m in range(1, 41):
            for b in (1, 3):
                stack = rng.random((b, m, m)) - 0.25
                x = rng.random(b * m)
                walked = np.empty(b * m)
                np.matmul(stack, x.reshape(b, m, 1), out=walked.reshape(b, m, 1))
                total = np.empty(b)
                np.add.reduce(x.reshape(b, m), axis=1, out=total)
                ind = (rng.random((b, m)) < 0.5).astype(np.float64)
                score = (ind.reshape(b, 1, m) @ stack @ ind.reshape(b, m, 1)).reshape(b)
                for k in range(b):
                    a, v = np.ascontiguousarray(stack[k]), x[k * m : (k + 1) * m]
                    assert walked[k * m : (k + 1) * m].tobytes() == (a @ v).tobytes()
                    assert total[k] == np.add.reduce(v.copy())
                    assert score[k] == float(ind[k] @ a @ ind[k])

    def test_non_c_ordered_matrices_walk_as_their_c_copy(self):
        rng = make_rng(61)
        g, structure = synth_graph(rng, 8)
        h, _ = perturb_and_permute(g, structure, rng, eps=0.05)
        aff = build_affinity(g, h)
        m = len(aff.candidates)
        skewed = rng.random((m, m))
        fortran = Affinity(aff.candidates, np.asfortranarray(aff.matrix), g, h)
        transposed = Affinity(aff.candidates, skewed.T, g, h)
        for a in (fortran, aff, transposed):
            assert a.matrix.flags.c_contiguous
            assert_same_match(rrwm_match(a), rrwm_match_loop(a))
        assert fortran.matrix.tobytes() == aff.matrix.tobytes()
        assert np.array_equal(transposed.matrix, skewed.T)

    @pytest.mark.parametrize("name,lm", ORACLE_MAPS, ids=[n for n, _ in ORACLE_MAPS])
    def test_affinities_exact_on_map_graphs(self, name, lm):
        assert_same_problems(build_graph(lm), [build_graph(other) for _, other in ORACLE_MAPS])

    def test_affinities_exact_on_synthetic_graphs(self):
        rng = make_rng(79)
        for n in (1, 2, 3, 5, 8):
            g, structure = synth_graph(rng, n)
            h, _ = perturb_and_permute(g, structure, rng, eps=0.05)
            others = [h, g, synth_graph(rng, n + 1)[0], synth_graph(rng, 4, part_pool=(1, 9))[0]]
            assert_same_problems(g, others)

    def test_affinities_exact_on_mixed_batch(self):
        background = build_graph(LabelMap(np.zeros((6, 9), dtype=np.uint8)))
        no_edge = np.full((2, 1, 1), np.nan)
        global_only = AttributeGraph(np.zeros(0, np.int64), np.zeros((0, 4)), no_edge,
                                     np.array([[4, 2]]), 0.3)
        rng = make_rng(83)
        q, _ = synth_graph(rng, 6)
        disjoint, _ = synth_graph(rng, 4, part_pool=(7, 8))  # no part id shared with q
        # anchors only, as selfcheck builds them
        n = len(q.part)
        anchors = q.edges.copy()
        anchors[:, :n, :n] = np.nan
        anchors_only = AttributeGraph(q.part, q.nodes, anchors, q.hist, 0.5)
        # self-loops never reinforce two pairs that share a node
        loops = q.edges.copy()
        loops[:, np.arange(n), np.arange(n)] = 0.0
        looped = AttributeGraph(q.part, q.nodes, loops, q.hist, 0.4)
        maps = [build_graph(lm) for _, lm in ORACLE_MAPS[3:9]]
        batch = [background, global_only, disjoint, anchors_only, looped, q] + maps + [disjoint]
        for query in (q, looped, background, global_only, disjoint, maps[-1]):
            assert_same_problems(query, batch)
        assert_same_problems(q, [disjoint])
        assert build_affinity(q, disjoint).candidates == [(GLOBAL, GLOBAL)]

    @pytest.mark.parametrize(
        "candidates,matrix",
        [
            ([], np.zeros((0, 0))),
            ([(GLOBAL, GLOBAL), (0, 0)], np.zeros((3, 3))),
            ([(GLOBAL, GLOBAL), (0, 0)], np.zeros((2, 3))),
            ([(GLOBAL, GLOBAL)], np.zeros(1)),
            ([(GLOBAL, GLOBAL)], np.zeros((1, 1, 1))),
        ],
        ids=["empty", "too_big", "not_square", "vector", "stack"],
    )
    def test_affinity_checks_its_shape(self, candidates, matrix):
        # refused at construction with a typed error, not deep in the walk
        with pytest.raises(ContractViolation, match=f"affinity of {len(candidates)} candidates"):
            Affinity(candidates, matrix, None, None)

    def test_rerank_matches_per_candidate_loop(self):
        rng = make_rng(53)
        for _ in range(3):
            query = patchwork(rng, 24, 20)
            pool = [(f"c{k}", patchwork(rng, 24, 20)) for k in range(9)]
            pool += [(f"r{k}", random_labelmap(rng)) for k in range(3)]
            top = 10
            qg = build_graph_loop(query)
            scored = sorted(
                (-rrwm_match_loop(build_affinity_loop(qg, build_graph_loop(lm))).score, rank, cid)
                for rank, (cid, lm) in enumerate(pool[:top])
            )
            want = [cid for _, _, cid in scored] + [cid for cid, _ in pool[top:]]
            assert rerank(query, pool, top_t=top) == want

    @pytest.mark.parametrize("top_t", [0, 6, 40])
    def test_rerank_scores_are_the_loop_oracle_scores(self, monkeypatch, top_t):
        # rerank reads its scores from the walk core, never as MatchResults,
        # so catch them there; they come in walk order
        caught = []
        real_walk = graphmatch._walk

        def walk(*args, **kwargs):
            out = real_walk(*args, **kwargs)
            caught.append(out[0])
            return out

        monkeypatch.setattr(graphmatch, "_walk", walk)
        rng = make_rng(101)
        blank = LabelMap(np.zeros((24, 20), dtype=np.uint8))
        twice = patchwork(rng, 24, 20)
        pool = [(f"c{k}", patchwork(rng, 24, 20, rects=2 + k % 6)) for k in range(12)]
        # the most nodes but few candidates: 55 specks of a part no query
        # has, then one part they share, as the last node
        speckled = np.zeros((24, 20), dtype=np.uint8)
        speckled[::3, ::3] = 4
        speckled[20:, 16:] = 255
        pool[3:3] = [("blank", blank), ("twice_a", twice), ("speckled", LabelMap(speckled))]
        pool.append(("twice_b", twice))
        for query in (patchwork(rng, 24, 20, rects=8), blank):
            caught.clear()
            got = rerank(query, pool, top_t=top_t)
            head = pool[:top_t]
            if not head:
                assert got == [cid for cid, _ in pool] and not caught
                continue
            (walked,) = caught
            p = graphmatch._affinity_problems(build_graph(query), [graph_of(lm) for _, lm in head])
            score = np.empty(len(head))
            score[p.order] = walked
            qg = build_graph_loop(query)
            want = [
                rrwm_match_loop(build_affinity_loop(qg, build_graph_loop(lm))).score
                for _, lm in head
            ]
            assert score.tobytes() == np.array(want).tobytes()
            order = sorted(range(len(head)), key=lambda k: -want[k])
            assert got == [head[k][0] for k in order] + [cid for cid, _ in pool[top_t:]]
            if query is blank:
                assert set(p.m.tolist()) == {1}
            elif top_t > len(pool):
                assert len(set(p.m.tolist())) >= 4

    def test_sparse_node_ids_group_as_the_loop_oracle_groups(self, monkeypatch):
        # node ids with gaps, as a hand-built candidate list may have them:
        # the walk's groups are numbered by the problem's own distinct ids,
        # so no array is sized by an id, also when no walk step runs
        caught = []
        real_walk = graphmatch._walk

        def walk(m, rows, cols, stacks, max_iterations):
            caught.append((int(m.sum()), int(rows.max()), int(cols.max())))
            return real_walk(m, rows, cols, stacks, max_iterations)

        monkeypatch.setattr(graphmatch, "_walk", walk)
        rng = make_rng(103)
        big = 10**6
        full = [(GLOBAL, GLOBAL), (0, 17), (0, big), (17, 17), (17, big), (big, 0)]
        lists = [full, [(GLOBAL, GLOBAL), (big, big)], [(GLOBAL, GLOBAL), (0, big), (17, 17)]]
        lists += [[(GLOBAL, GLOBAL)], [(GLOBAL, GLOBAL), (17, 0), (big, big), (0, 17)]]
        batch = []
        for candidates in lists:
            a = rng.random((len(candidates), len(candidates)))
            batch.append(Affinity(candidates, a + a.T, None, None))
        batch.append(Affinity(full, np.zeros((6, 6)), None, None))  # tied: candidate order
        for cap in (0, 1, 300):
            for aff in batch:
                caught.clear()
                assert_same_match(rrwm_match(aff, cap), rrwm_match_loop(aff, max_iterations=cap))
                ((m, rows_max, cols_max),) = caught
                assert m == len(aff.candidates) and rows_max < m and cols_max < m


# --------------------------------------------------------------------------
# candidate graphs kept on their maps


KEPT_MAPS = [
    ("random", random_labelmap(make_rng(59))),
    ("patchwork", patchwork(make_rng(61), 30, 22)),
    ("background", LabelMap(np.zeros((5, 7)))),
]


class TestGraphOf:
    @pytest.mark.parametrize("name,lm", KEPT_MAPS, ids=[n for n, _ in KEPT_MAPS])
    def test_kept_graph_equals_a_fresh_build(self, name, lm):
        g = graph_of(lm)
        assert graph_of(lm) is g
        assert_same_graph(g, build_graph(lm))

    def test_rerank_builds_each_candidate_graph_once(self, monkeypatch):
        calls = []
        real = graphmatch.build_graph

        def counted(lm):
            calls.append(lm)
            return real(lm)

        monkeypatch.setattr(graphmatch, "build_graph", counted)
        rng = make_rng(67)
        pool = [(f"c{k}", patchwork(rng, 20, 16)) for k in range(50)]
        query = patchwork(rng, 20, 16)
        cold = rerank(query, pool)
        assert len(calls) == 51
        warm = rerank(query, pool)
        assert len(calls) == 52 and calls[-1] is query  # only the query graph again
        assert warm == cold
        rerank(patchwork(rng, 20, 16), pool[:10] + [("new", patchwork(rng, 20, 16))])
        assert len(calls) == 54  # the new query and the new candidate

    def test_cold_and_warm_rerank_agree_with_the_loop_oracle(self):
        rng = make_rng(71)
        pool = [(f"c{k}", patchwork(rng, 24, 20)) for k in range(12)]
        queries = [patchwork(rng, 24, 20) for _ in range(3)]
        # a fresh copy of the gallery for each query is the cold path
        cold = [rerank(q, [(cid, LabelMap(lm.labels)) for cid, lm in pool]) for q in queries]
        warm = [rerank(q, pool) for q in queries]
        assert warm == cold
        for q, got in zip(queries, warm):
            qg = build_graph_loop(q)
            scored = sorted(
                (-rrwm_match_loop(build_affinity_loop(qg, build_graph_loop(lm))).score, rank, cid)
                for rank, (cid, lm) in enumerate(pool)
            )
            assert got == [cid for _, _, cid in scored]

    def test_kept_graph_is_read_only_and_outlives_a_rerank(self):
        lm = patchwork(make_rng(89), 20, 16)
        g = graph_of(lm)
        rerank(patchwork(make_rng(97), 20, 16), [("c", lm)])
        assert graph_of(lm) is g
        for a in (g.part, g.nodes, g.edges, g.hist):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert_same_graph(g, build_graph(lm))

    def test_matching_one_pair_keeps_only_the_candidate_graph(self):
        rng = make_rng(73)
        a, b = random_labelmap(rng), random_labelmap(rng)
        rrwm_match(build_affinity(build_graph(a), graph_of(b)))
        assert a._graph is None and b._graph is graph_of(b)
