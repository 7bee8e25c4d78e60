"""Loop replicas of production code, used only by the tests.

Each function redoes one vectorized library path (convolution, its col2im
scatter, max pooling, the resampling matrix, component labelling, graph,
affinity, the RRWM walk) as plain loops, or one windowed or broadcast path
(the corpus mask primitives, rotation and rescaling, Canny's direction
and ridge test) over the whole canvas grid, or one two-lane path (pooled
routing) as the serial loop it replaced, or one streamed path (the router's
mini-batch) as the single tape it replaced, or one fused op (the upsample
to a window) as the two taped ops it replaced, or one in-place path (conv
backward's channel-last dx columns and float64 bias sum, He init's weight
written by its draw, the clip's float64 squares) as the copies it
replaced, and the tests compare the library against it. No package code
calls them, so they stay out of the package; the oracles `selfcheck` also
runs live in `sketchparts.checks`.
"""

import math

import numpy as np
from scipy import ndimage

from sketchparts.augment import CLS_COMBOS, cls_variant
from sketchparts.autograd import Tape, add, backward, make_rng, scale, softmax, softmax_ce
from sketchparts.autograd import Tensor, _im2col, _interp_matrix, _record, zero_grads
from sketchparts.imaging import CANNY_SIGMA, INK, LabelMap, Raster, _bilinear_sample, _inside
from sketchparts.imaging import crops_and_pad, mirror_v
from sketchparts.optim import ParamGroup, SgdMomentum
from sketchparts.router import CROP_FRACTION, ROUTER_SIDE, forward, router_input


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


def conv2d_grads_transposed(x, w, g, spec):
    """conv2d's gradients (dx, dw, db) for output gradient g[F,Ho,Wo], with
    the dx columns from the transposed-weights GEMM, (C*k*k, Ho*Wo), copied
    channel-last before every tap's slab is added, and the bias gradient
    summed over a float64 copy of g."""
    C, H, W = x.shape
    F, _, k, _ = w.shape
    _, Ho, Wo = g.shape
    p, s, r = spec.padding, spec.stride, spec.dilation
    dt = np.result_type(x, w)
    wd = w.astype(dt, copy=False).reshape(F, C * k * k)
    gd = g.astype(dt, copy=False).reshape(F, Ho * Wo)
    xp = np.zeros((C, H + 2 * p, W + 2 * p), dtype=dt)
    xp[:, p : p + H, p : p + W] = x
    db = g.astype(np.float64).sum(axis=(1, 2))
    dw = (gd @ _im2col(xp, k, s, r, Ho, Wo).T).reshape(F, C, k, k)
    cols = (wd.T @ gd).reshape(C, k, k, Ho, Wo)
    cols = np.ascontiguousarray(cols.transpose(1, 2, 3, 4, 0))
    dxp = np.zeros((H + 2 * p, W + 2 * p, C), dtype=dt)
    for u in range(k):
        for v in range(k):
            dxp[u * r : u * r + s * Ho : s, v * r : v * r + s * Wo : s] += cols[u, v]
    return dxp[p : p + H, p : p + W].transpose(2, 0, 1), dw, db


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


def upsample_then_crop(x, factor, height, width):
    """autograd.bilinear_upsample as the two taped ops it replaced: the whole
    factor-times grid through _interp_matrix's two tensordots, then a crop
    to the top-left height x width window, whose backward zero-pads the
    gradient back to the grid in float64."""
    C, H, W = x.shape
    wy, wx = _interp_matrix(H * factor, H), _interp_matrix(W * factor, W)
    t = np.tensordot(x.data.astype(np.float64), wy, axes=([1], [1]))
    grid = Tensor(np.tensordot(t, wx, axes=([1], [1])).astype(x.dtype))

    def upsample_grad(g):
        t2 = np.tensordot(g.astype(np.float64), wy, axes=([1], [0]))
        return (np.tensordot(t2, wx, axes=([1], [0])),)

    _record(grid, (x,), upsample_grad)
    out = Tensor(grid.data[:, :height, :width])

    def crop_grad(g):
        dx = np.zeros(grid.shape, dtype=np.float64)
        dx[:, :height, :width] = g
        return (dx,)

    _record(out, (grid,), crop_grad)
    return out


def label_components_loop(lm):
    """Per-id component labelling with one whole-map scan per component:
    (part ids, areas, centroids, pixels, index map), instances ordered by
    (part id, centroid row, centroid col), each instance's pixels the next
    `area` rows, in scan order; the index map holds each pixel's instance,
    -1 on background."""
    from scipy import ndimage

    labels = lm.labels
    found = []
    for pid in lm.ids():
        comp, n = ndimage.label(labels == pid)  # the default 4-connected cross
        for k in range(1, n + 1):
            rows, cols = np.nonzero(comp == k)
            found.append((pid, rows.mean().item(), cols.mean().item(), np.column_stack([rows, cols])))
    found.sort(key=lambda c: c[:3])
    index_map = np.full(labels.shape, -1, dtype=np.int32)
    for i, (*_, pixels) in enumerate(found):
        index_map[pixels[:, 0], pixels[:, 1]] = i
    return (
        np.array([pid for pid, *_ in found], dtype=np.int64),
        np.array([len(pixels) for *_, pixels in found], dtype=np.intp),
        np.array([(row, col) for _, row, col, _ in found], dtype=np.float64).reshape(-1, 2),
        np.concatenate([np.zeros((0, 2), dtype=np.intp), *(pixels for *_, pixels in found)]),
        index_map,
    )


def build_graph_loop(lm):
    """Attribute graph with edges found by a loop over every touching pixel
    pair, row pass then column pass; the first pair seen for two nodes
    gives the forward direction. Cells are written one at a time."""
    from sketchparts.graphmatch import MIN_AREA_FRACTION, AttributeGraph, _angular_extent, _wrap_angle

    h, w = lm.labels.shape
    part_ids, areas, centroids, pixels, comp_map = label_components_loop(lm)
    foreground = int((lm.labels != 0).sum())
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    kept_at = {}
    part, nodes = [], []
    start = 0
    for original_idx, area in enumerate(areas.tolist()):
        own = pixels[start : start + area]
        start += area
        if area < MIN_AREA_FRACTION * foreground:
            continue
        kept_at[original_idx] = len(nodes)
        part.append(int(part_ids[original_idx]))
        row, col = centroids[original_idx].tolist()
        nodes.append(
            (
                _angular_extent(own[:, 0], own[:, 1], cy, cx),
                row / h,
                col / w,
                area / foreground,
            )
        )
    histogram = {}
    for pid in part:
        histogram[pid] = histogram.get(pid, 0) + 1

    n = len(nodes)
    edges = np.full((2, n + 1, n + 1), np.nan)
    neighbours = [(r, c, r, c + 1) for r in range(h) for c in range(w - 1)]
    neighbours += [(r, c, r + 1, c) for r in range(h - 1) for c in range(w)]
    for r0, c0, r1, c1 in neighbours:
        ka = kept_at.get(int(comp_map[r0, c0]), -1)
        kb = kept_at.get(int(comp_map[r1, c1]), -1)
        if ka < 0 or kb < 0 or ka == kb or not math.isnan(edges[0, ka, kb]):
            continue
        dy = nodes[kb][1] - nodes[ka][1]
        dx = nodes[kb][2] - nodes[ka][2]
        r, theta = math.hypot(dy, dx), math.atan2(dy, dx)
        edges[:, ka, kb] = r, theta
        edges[:, kb, ka] = r, _wrap_angle(theta + math.pi)

    for i, (_, row, col, _) in enumerate(nodes):
        dy, dx = row - 0.5, col - 0.5
        edges[:, i, n] = edges[:, n, i] = math.hypot(dy, dx), math.atan2(dy, dx)
    return AttributeGraph(
        np.array(part, dtype=np.int64),
        np.array(nodes, dtype=np.float64).reshape(n, 4),
        edges,
        np.array(sorted(histogram.items()), dtype=np.int64).reshape(-1, 2),
        foreground / (h * w) if foreground else 0.0,
    )


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
    candidate pair reads its edges from the graphs' cells, NaN meaning no
    edge."""
    from sketchparts.graphmatch import GLOBAL, Affinity
    from sketchparts.graphmatch import SIGMA_CENTROID, SIGMA_RADIUS, SIGMA_SUBTENDED, SIGMA_THETA

    def wrap(t):
        return math.atan2(math.sin(t), math.cos(t))

    def hist_similarity(ha, hb):
        ha, hb = dict(ha.tolist()), dict(hb.tolist())
        keys = set(ha) | set(hb)
        if not keys:
            return 1.0
        lo = sum(min(ha.get(k, 0), hb.get(k, 0)) for k in keys)
        hi = sum(max(ha.get(k, 0), hb.get(k, 0)) for k in keys)
        return lo / hi if hi else 1.0

    def edge_between(graph, i, j):
        n = len(graph.part)
        r, theta = graph.edges[:, n if i == GLOBAL else i, n if j == GLOBAL else j].tolist()
        return None if math.isnan(r) else (r, theta)

    candidates = [(GLOBAL, GLOBAL)]
    for i, pq in enumerate(q.part.tolist()):
        for a, pc in enumerate(c.part.tolist()):
            if pq == pc:
                candidates.append((i, a))
    m = len(candidates)
    A = np.zeros((m, m))
    for idx, (i, a) in enumerate(candidates):
        if i == GLOBAL:
            A[idx, idx] = hist_similarity(q.hist, c.hist) * math.sqrt(
                q.area_fraction * c.area_fraction
            )
        else:
            (sq, rq, cq, aq), (sc, rc, cc, ac) = q.nodes[i].tolist(), c.nodes[a].tolist()
            d_ext = abs(sq - sc)
            d_cen = math.hypot(rq - rc, cq - cc)
            A[idx, idx] = math.exp(-d_ext / SIGMA_SUBTENDED - d_cen / SIGMA_CENTROID) * math.sqrt(
                aq * ac
            )
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


def train_router_one_tape(net, labelled, plan):
    """training.train_router as one tape per step: every draw of the batch,
    a pick, a variant and its own dropout seed, forwarded in order on the
    same tape, the terms summed with add, scaled by 1/batch_size and
    replayed backward once."""
    rng = make_rng((plan.seed, 0xB0A7))
    opt = SgdMomentum([ParamGroup("router", net.parameters(), plan.lr)], plan.iterations)
    log = []
    for it in range(plan.iterations):
        picks = rng.integers(0, len(labelled), size=plan.batch_size)
        variants = rng.integers(0, len(CLS_COMBOS), size=plan.batch_size)
        seeds = rng.integers(0, 2**63, size=plan.batch_size)
        with Tape() as tape:
            batch_loss = None
            for pick, variant, seed in zip(picks, variants, seeds):
                sketch, label = labelled[int(pick)]
                view = router_input(cls_variant(sketch, int(variant)))
                logits = forward(net, view, rng=make_rng(int(seed)), training=True)
                term = softmax_ce(logits, label)
                batch_loss = term if batch_loss is None else add(batch_loss, term)
            loss = scale(batch_loss, 1.0 / plan.batch_size)
        backward(tape, loss)
        lr = opt.lr_factor() * opt.groups[0].lr
        opt.step()
        zero_grads([t for _, t in net.parameters()])
        log.append({"iter": it, "loss": loss.data.item(), "lr": lr})
    return log


def he_normal_astype(rng, shape, fan_in):
    """autograd.he_normal as the draw, scaled in float64, then cast to a new
    float32 array."""
    std = math.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(np.float32)


def grad_norm_upcast(params):
    """training.clip_gradients' joint L2 norm, each squared norm taken over
    an upcast float64 copy of the gradient and then its square, two
    temporaries."""
    return np.sqrt(
        sum(float((t.grad.astype(np.float64) ** 2).sum()) for t in params if t.grad is not None)
    )
