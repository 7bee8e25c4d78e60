"""Loop replicas of production code, used only by the tests.

Each function redoes one vectorized library path (convolution, its col2im
scatter, max pooling, the resampling matrix, component labelling, graph,
affinity, the RRWM walk) as plain loops, or one windowed or broadcast path
(the corpus mask primitives, rotation and rescaling, Canny's direction
and ridge test) over the whole canvas grid, or one two-lane path (pooled
routing) as the serial loop it replaced, and the tests compare the
library against it. No package code calls them, so they stay out of the
package; the oracles `selfcheck` also runs live in `sketchparts.checks`.
"""

import math

import numpy as np
from scipy import ndimage

from sketchparts.autograd import softmax
from sketchparts.imaging import CANNY_SIGMA, INK, LabelMap, Raster, _bilinear_sample, _inside
from sketchparts.imaging import crops_and_pad, mirror_v
from sketchparts.router import CROP_FRACTION, ROUTER_SIDE, forward


def conv2d_bruteforce(x, w, b, stride, dilation, pad):
    """Six-loop convolution oracle."""
    C, H, W = x.shape
    F, _, k, _ = w.shape
    xp = np.zeros((C, H + 2 * pad, W + 2 * pad), dtype=np.float64)
    xp[:, pad : pad + H, pad : pad + W] = x
    eff = dilation * (k - 1) + 1
    Ho = (H + 2 * pad - eff) // stride + 1
    Wo = (W + 2 * pad - eff) // stride + 1
    out = np.zeros((F, Ho, Wo))
    for f in range(F):
        for i in range(Ho):
            for j in range(Wo):
                acc = 0.0
                for c in range(C):
                    for u in range(k):
                        for v in range(k):
                            acc += (
                                xp[c, i * stride + u * dilation, j * stride + v * dilation]
                                * w[f, c, u, v]
                            )
                out[f, i, j] = acc + b[f]
    return out


def col2im_loop(cols, height, width, stride, dilation, pad):
    """Input gradient of a conv from its float32 tap columns cols[C,k,k,Ho,Wo]:
    every column value is added, one float32 add at a time and taps in (row,
    column) order, into the zero-padded input, which is then cropped."""
    C, k, _, Ho, Wo = cols.shape
    dxp = np.zeros((C, height + 2 * pad, width + 2 * pad), dtype=np.float32)
    for u in range(k):
        for v in range(k):
            for c in range(C):
                for i in range(Ho):
                    for j in range(Wo):
                        dxp[c, u * dilation + i * stride, v * dilation + j * stride] += cols[
                            c, u, v, i, j
                        ]
    return dxp[:, pad : pad + height, pad : pad + width]


def maxpool2d_bruteforce(x, window, stride, g):
    """Window-loop max pool of x[C,H,W] and the input gradient for output
    gradient g. Windows start every `stride` pixels until one reaches the
    bottom/right edge, and cells past the edge read as zero. The first
    maximum in scan order wins; gradients add up where windows overlap."""
    C, H, W = x.shape

    def starts(size):
        n = 1
        while (n - 1) * stride + window < size:
            n += 1
        return n

    Ho, Wo = starts(H), starts(W)
    out = np.zeros((C, Ho, Wo))
    dx = np.zeros((C, H, W))
    for c in range(C):
        for i in range(Ho):
            for j in range(Wo):
                best, at = None, None
                for u in range(window):
                    for v in range(window):
                        r, q = i * stride + u, j * stride + v
                        val = x[c, r, q] if r < H and q < W else 0.0
                        if best is None or val > best:
                            best, at = val, (r, q)
                out[c, i, j] = best
                if at[0] < H and at[1] < W:
                    dx[c, at[0], at[1]] += g[c, i, j]
    return out, dx


def _full_grid(size):
    return np.meshgrid(np.arange(size, dtype=np.float64), np.arange(size, dtype=np.float64))


def ellipse_full_grid(size, cx, cy, rx, ry, tilt=0.0, wobble=None, power=2.0):
    """corpus._ellipse evaluated on every cell of the size x size canvas."""
    jj, ii = _full_grid(size)
    dx, dy = jj - cx, ii - cy
    if tilt:
        c, s = math.cos(tilt), math.sin(tilt)
        dx, dy = c * dx + s * dy, -s * dx + c * dy
    x, y = dx / rx, dy / ry
    rho = (np.abs(x) ** power + np.abs(y) ** power) ** (1.0 / power)
    lim = 1.0
    if wobble is not None:
        amp, freq, phase = wobble
        lim = 1.0 + amp * np.sin(freq * np.arctan2(y, x) + phase)
    return rho <= lim


def capsule_full_grid(size, p0, p1, half_width):
    """corpus._capsule evaluated on every cell of the size x size canvas."""
    jj, ii = _full_grid(size)
    (x0, y0), (x1, y1) = p0, p1
    vx, vy = x1 - x0, y1 - y0
    norm2 = vx * vx + vy * vy
    if norm2 == 0:
        t = np.zeros_like(jj)
    else:
        t = np.clip(((jj - x0) * vx + (ii - y0) * vy) / norm2, 0.0, 1.0)
    dist = np.hypot(jj - (x0 + t * vx), ii - (y0 + t * vy))
    return dist <= half_width


def _resample_full_grid(x, rows, cols):
    """imaging._transform on full h x w coordinate grids, nearest labels
    looked up through a boolean mask."""
    if isinstance(x, Raster):
        vals = _bilinear_sample(x.pixels.astype(np.float64), rows, cols)
        vals[~_inside(rows, cols, x.pixels.shape)] = 0.0
        return Raster(np.where(vals >= 128.0, 255, 0).astype(np.uint8))
    h, w = x.labels.shape
    rn = np.rint(rows).astype(int)
    cn = np.rint(cols).astype(int)
    ok = (rn >= 0) & (rn < h) & (cn >= 0) & (cn < w)
    out = np.zeros_like(x.labels)
    out[ok] = x.labels[rn[ok], cn[ok]]
    return LabelMap(out)


def _centred_grid(x):
    h, w = (x.pixels if isinstance(x, Raster) else x.labels).shape
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    return ii - cy, jj - cx, cy, cx


def rotate_full_grid(x, degrees):
    """imaging.rotate with every source coordinate held in a full grid."""
    dy, dx, cy, cx = _centred_grid(x)
    theta = math.radians(degrees)
    cos, sin = math.cos(theta), math.sin(theta)
    return _resample_full_grid(x, cos * dy + sin * dx + cy, -sin * dy + cos * dx + cx)


def rescale_full_grid(x, factor):
    """imaging.rescale with every source coordinate held in a full grid."""
    dy, dx, cy, cx = _centred_grid(x)
    return _resample_full_grid(x, dy / factor + cy, dx / factor + cx)


def canny_full_grid(photo, low, high):
    """imaging.canny with the direction bins and the neighbour test taken at
    every pixel, and hysteresis keeping the ids np.unique finds under a
    strong pixel."""
    img = ndimage.gaussian_filter(photo.pixels.astype(np.float64), CANNY_SIGMA, mode="nearest")
    gx = ndimage.sobel(img, axis=1, mode="nearest")
    gy = ndimage.sobel(img, axis=0, mode="nearest")
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak == 0.0:
        return Raster(np.zeros_like(photo.pixels))
    angle = np.mod(np.arctan2(gy, gx), np.pi)
    bins = ((angle + np.pi / 8) // (np.pi / 4)).astype(int) % 4
    padded = np.pad(mag, 1, mode="constant")
    keep = np.zeros_like(mag, dtype=bool)
    h, w = mag.shape
    for b, (dr, dc) in enumerate([(0, 1), (1, 1), (1, 0), (1, -1)]):
        n1 = padded[1 - dr : 1 - dr + h, 1 - dc : 1 - dc + w]
        n2 = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        keep |= (bins == b) & (mag > n1) & (mag >= n2)
    ridge = keep & (mag > 0)
    weak = ridge & (mag >= low * peak)
    strong = ridge & (mag >= high * peak)
    if not strong.any():
        return Raster(np.zeros_like(photo.pixels))
    comp, _ = ndimage.label(weak, structure=np.ones((3, 3), dtype=bool))
    ids = np.unique(comp[strong])
    return Raster(np.where(np.isin(comp, ids[ids > 0]), INK, 0).astype(np.uint8))


def interp_matrix_loop(n_out, n_in):
    """Row loop building the mirror-symmetric bilinear resampling matrix:
    row i and its mirror row n_out-1-i get reflected weights."""
    m = np.zeros((n_out, n_in), dtype=np.float64)
    scale = n_in / n_out
    for i in range((n_out + 1) // 2):
        src = min(max((i + 0.5) * scale - 0.5, 0.0), n_in - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, n_in - 1)
        t = src - lo
        m[i, lo] += 1.0 - t
        m[i, hi] += t
        j = n_out - 1 - i
        if j != i:
            m[j, n_in - 1 - lo] += 1.0 - t
            m[j, n_in - 1 - hi] += t
    return m


def label_components_loop(lm):
    """Per-id component labelling with one whole-map scan per component:
    (components, index map) in the library's order and dtypes."""
    from scipy import ndimage

    from sketchparts.imaging import FOUR_CONN, Component

    labels = lm.labels
    found = []
    for pid in lm.ids():
        comp, n = ndimage.label(labels == pid, structure=FOUR_CONN)
        for k in range(1, n + 1):
            rows, cols = np.nonzero(comp == k)
            found.append(
                Component(
                    part_id=pid,
                    pixels=np.column_stack([rows, cols]),
                    area=rows.size,
                    centroid=(rows.mean().item(), cols.mean().item()),
                )
            )
    found.sort(key=lambda c: (c.part_id, c.centroid[0], c.centroid[1]))
    index_map = np.full(labels.shape, -1, dtype=np.int32)
    for i, c in enumerate(found):
        index_map[c.pixels[:, 0], c.pixels[:, 1]] = i
    return found, index_map


def build_graph_loop(lm):
    """Attribute graph with edges found by a loop over every touching pixel
    pair, row pass then column pass; the first pair seen for two nodes
    gives the forward direction."""
    from sketchparts.graphmatch import (
        MIN_AREA_FRACTION,
        AttributeGraph,
        LocalNode,
        _angular_extent,
        _wrap_angle,
    )

    h, w = lm.labels.shape
    comps, comp_map = label_components_loop(lm)
    foreground = int((lm.labels != 0).sum())
    if foreground == 0:
        return AttributeGraph({}, 0.0, (), {}, {})
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    kept_at = {}
    nodes = []
    for original_idx, c in enumerate(comps):
        if c.area < MIN_AREA_FRACTION * foreground:
            continue
        kept_at[original_idx] = len(nodes)
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

    edges = {}
    neighbours = [(r, c, r, c + 1) for r in range(h) for c in range(w - 1)]
    neighbours += [(r, c, r + 1, c) for r in range(h - 1) for c in range(w)]
    for r0, c0, r1, c1 in neighbours:
        ka = kept_at.get(int(comp_map[r0, c0]), -1)
        kb = kept_at.get(int(comp_map[r1, c1]), -1)
        if ka < 0 or kb < 0 or ka == kb or (ka, kb) in edges:
            continue
        dy = nodes[kb].centroid[0] - nodes[ka].centroid[0]
        dx = nodes[kb].centroid[1] - nodes[ka].centroid[1]
        r, theta = math.hypot(dy, dx), math.atan2(dy, dx)
        edges[(ka, kb)] = (r, theta)
        edges[(kb, ka)] = (r, _wrap_angle(theta + math.pi))

    anchors = {}
    for i, n in enumerate(nodes):
        dy = n.centroid[0] - 0.5
        dx = n.centroid[1] - 0.5
        anchors[i] = (math.hypot(dy, dx), math.atan2(dy, dx))
    return AttributeGraph(histogram, foreground / (h * w), tuple(nodes), edges, anchors)


def rrwm_match_loop(affinity, max_iterations=300):
    """One reweighted random walk on its own vectors, then greedy
    one-to-one discretization, as a MatchResult."""
    from sketchparts.graphmatch import ALPHA, BETA, SINKHORN_ITERATIONS, TOL, MatchResult

    candidates = affinity.candidates
    A = affinity.matrix
    m = len(candidates)
    qs = sorted({i for i, _ in candidates})
    cs = sorted({a for _, a in candidates})
    rows = np.array([qs.index(i) for i, _ in candidates])
    cols = np.array([cs.index(a) for _, a in candidates])

    x = np.full(m, 1.0 / m)
    converged = False
    for _ in range(max_iterations):
        walked = A @ x
        q = np.exp(BETA * x / x.max())
        for _ in range(SINKHORN_ITERATIONS):
            q = q / np.bincount(rows, weights=q)[rows]
            q = q / np.bincount(cols, weights=q)[cols]
        y = ALPHA * walked + (1.0 - ALPHA) * q
        total = y.sum()
        if total <= 0:
            break
        y = y / total
        if np.abs(y - x).max() < TOL:
            x = y
            converged = True
            break
        x = y

    used_q, used_c = set(), set()
    chosen = []
    for idx in np.argsort(-x, kind="stable"):
        i, a = candidates[idx]
        if i in used_q or a in used_c:
            continue
        used_q.add(i)
        used_c.add(a)
        chosen.append(idx)
    indicator = np.zeros(m)
    indicator[chosen] = 1.0
    score = float(indicator @ A @ indicator)
    return MatchResult({candidates[k][0]: candidates[k][1] for k in chosen}, score, converged, x)


def build_affinity_loop(q, c):
    """Affinity of one graph pair, one matrix cell at a time: the global
    pair first, then same-part local pairs query node major; each unordered
    candidate pair looks its edges up in the graphs' dicts."""
    from sketchparts.graphmatch import GLOBAL, Affinity
    from sketchparts.graphmatch import SIGMA_CENTROID, SIGMA_RADIUS, SIGMA_SUBTENDED, SIGMA_THETA

    def wrap(t):
        return math.atan2(math.sin(t), math.cos(t))

    def hist_similarity(ha, hb):
        keys = set(ha) | set(hb)
        if not keys:
            return 1.0
        lo = sum(min(ha.get(k, 0), hb.get(k, 0)) for k in keys)
        hi = sum(max(ha.get(k, 0), hb.get(k, 0)) for k in keys)
        return lo / hi if hi else 1.0

    def edge_between(graph, i, j):
        if i == GLOBAL:
            return graph.anchors.get(j)
        if j == GLOBAL:
            return graph.anchors.get(i)
        return graph.edges.get((i, j))

    candidates = [(GLOBAL, GLOBAL)]
    for i, nq in enumerate(q.nodes):
        for a, nc in enumerate(c.nodes):
            if nq.part_id == nc.part_id:
                candidates.append((i, a))
    m = len(candidates)
    A = np.zeros((m, m))
    for idx, (i, a) in enumerate(candidates):
        if i == GLOBAL:
            A[idx, idx] = hist_similarity(q.histogram, c.histogram) * math.sqrt(
                q.area_fraction * c.area_fraction
            )
        else:
            nq, nc = q.nodes[i], c.nodes[a]
            d_ext = abs(nq.subtended - nc.subtended)
            d_cen = math.hypot(nq.centroid[0] - nc.centroid[0], nq.centroid[1] - nc.centroid[1])
            A[idx, idx] = math.exp(
                -d_ext / SIGMA_SUBTENDED - d_cen / SIGMA_CENTROID
            ) * math.sqrt(nq.area_fraction * nc.area_fraction)
    for m1, (i, a) in enumerate(candidates):
        for m2 in range(m1 + 1, m):
            j, b = candidates[m2]
            if i == j or a == b:
                continue
            eq = edge_between(q, i, j)
            ec = edge_between(c, a, b)
            if eq is None or ec is None:
                continue
            A[m1, m2] = A[m2, m1] = math.exp(
                -abs(eq[0] - ec[0]) / SIGMA_RADIUS - abs(wrap(eq[1] - ec[1])) / SIGMA_THETA
            )
    return Affinity(candidates, A, q, c)


def classify_pooled_serial(net, sketch):
    """router.classify_pooled as one serial loop in the calling thread: each
    view and its mirror forwarded in turn, the pair's float64 probabilities
    added into the total in view order."""
    views = crops_and_pad(sketch, CROP_FRACTION, ROUTER_SIDE)
    mirrored = crops_and_pad(mirror_v(sketch), CROP_FRACTION, ROUTER_SIDE)
    total = np.zeros(net.num_classes, dtype=np.float64)
    for v, mv in zip(views, mirrored):
        pair = softmax(forward(net, v)).data.astype(np.float64) + softmax(
            forward(net, mv)
        ).data.astype(np.float64)
        total += pair
    scores = total / (2 * len(views))
    return int(scores.argmax()), scores
