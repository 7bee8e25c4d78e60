"""Raster primitives: edge detection, morphology, geometry, components.

Rasters are 8-bit, 0 = blank paper and 255 = full ink (photos may use the
whole gray range). Label maps carry a part id per pixel, 0 = background.
Everything is written in numpy alone. Geometric resampling is explicit so
that flips commute exactly with resizing. Gaussian smoothing, Sobel and
dilation reproduce scipy.ndimage's filters byte for byte, and one run-based
labeller finds connected components as row runs (`label_runs`), read by
Canny's hysteresis, part counts and part graphs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autograd import _interp_taps
from .errors import ContractViolation

INK = 255
CANNY_SIGMA = 1.4  # Gaussian smoothing before the Sobel gradients, in pixels


def _gaussian_weights(sigma):
    """The 1-d Gaussian scipy.ndimage.gaussian_filter builds at its default
    truncate of 4, by the same expression, normalised by its sum."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


_GAUSSIAN = _gaussian_weights(CANNY_SIGMA)
_SOBEL_DIFF = np.array([-1.0, 0.0, 1.0])
_SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])


def _eight_bit(values, kind, what):
    """`values` as an array, refused with a ContractViolation unless it is
    2-d and, when not already uint8, every value is an integer in 0..255,
    so that the cast to uint8 keeps every value."""
    a = np.asarray(values)
    if a.ndim != 2:
        raise ContractViolation(f"{kind} must be 2-d, got shape {a.shape}")
    if a.dtype != np.uint8 and a.size and not 0 <= a.min() <= a.max() <= 255:
        raise ContractViolation(f"{what} must lie in 0..255, got {a.min()}..{a.max()}")
    if a.dtype.kind == "f" and (fraction := a[a != np.trunc(a)]).size:
        raise ContractViolation(f"{what} must be integers, got {fraction[0]}")
    return a


class Raster:
    """2-d uint8 image, 0 = blank, 255 = ink."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        a = _eight_bit(pixels, "raster", "pixel values")
        self.pixels = np.ascontiguousarray(a, dtype=np.uint8)

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    def __eq__(self, other):
        return isinstance(other, Raster) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"Raster({self.width}x{self.height})"


class LabelMap:
    """2-d per-pixel part ids in 0..255, 0 = background.

    Immutable: the map keeps its own read-only C-contiguous copy of the
    labels, so later writes to the caller's array cannot reach it. That is
    what lets the map carry a memo, `_graph`, which `graphmatch.graph_of`
    fills with the map's part graph on first use.
    """

    __slots__ = ("_labels", "_graph")

    def __init__(self, labels):
        a = np.array(_eight_bit(labels, "label map", "label ids"), dtype=np.uint8, order="C")
        a.flags.writeable = False
        # A view of a read-only array cannot be made writeable again.
        self._labels = a.view()
        self._graph = None

    @property
    def labels(self):
        return self._labels

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    def ids(self):
        return sorted(int(v) for v in np.unique(self.labels) if v != 0)

    def __eq__(self, other):
        return isinstance(other, LabelMap) and np.array_equal(self.labels, other.labels)

    def __repr__(self):
        return f"LabelMap({self.width}x{self.height}, ids={self.ids()})"


# ---------------------------------------------------------------------------
# edges and morphology


def _correlate1d(x, weights, axis):
    """scipy.ndimage.correlate1d(x, weights, axis, mode="nearest") of a
    float64 array, for odd-length weights symmetric or antisymmetric about
    their centre c.

    The operations and their order are those of scipy's inner loop for such
    weights, so the bytes match, signed zeros included: out = x*w[c], then
    out += (x[-j] + x[+j]) * w[c-j] (with - for antisymmetric weights) for
    j = c, ..., 1, where x[-j] and x[+j] are the pixels j steps back and
    forward along `axis`, clamped to the edge.
    """
    c = len(weights) // 2
    pair = np.subtract if weights[0] == -weights[-1] else np.add
    n = x.shape[axis]
    padded = np.take(x, np.clip(np.arange(-c, n + c), 0, n - 1), axis=axis)
    lead = (slice(None),) * axis

    def shifted(j):
        return padded[lead + (slice(c + j, c + j + n),)]

    out = x * weights[c]
    term = np.empty_like(out)
    for j in range(c, 0, -1):
        pair(shifted(-j), shifted(j), out=term)
        term *= weights[c - j]
        out += term
    return out


def _sobel(img, axis):
    """scipy.ndimage.sobel(img, axis, mode="nearest"): the derivative along
    `axis`, then the smoothing along the other axis, as its two passes."""
    return _correlate1d(_correlate1d(img, _SOBEL_DIFF, axis), _SOBEL_SMOOTH, 1 - axis)


def canny(photo, low=0.2, high=0.4):
    """Edges of a photo as an ink raster.

    Gaussian smooth by CANNY_SIGMA (scipy.ndimage.gaussian_filter's two
    passes, axis 0 first), Sobel gradients, non-maximum suppression along the
    quantized gradient direction, then hysteresis over 8-connected ridges.
    `low`/`high` are fractions of the peak gradient magnitude; at
    low = high = 0 every ridge pixel with any gradient at all is marked.
    """
    if photo.pixels.size == 0:
        raise ContractViolation("canny on an empty raster")
    if not 0 <= low <= high:
        raise ContractViolation(f"need 0 <= low <= high, got {low}/{high}")

    img = photo.pixels.astype(np.float64)
    img = _correlate1d(_correlate1d(img, _GAUSSIAN, 0), _GAUSSIAN, 1)
    gx = _sobel(img, 1)
    gy = _sobel(img, 0)
    mag = np.hypot(gx, gy)
    peak = mag.max()

    # only pixels at or above the low threshold can become edges, so the
    # direction and the neighbour test are computed at those alone
    rows, cols = np.nonzero((mag >= low * peak) & (mag > 0))
    m = mag[rows, cols]
    # quantize direction to 4 bins and compare against both neighbours;
    # strict on the first neighbour so 2-wide plateaus keep one pixel
    # rows grow downward, so theta = pi/4 steps down-right across the image
    angle = np.mod(np.arctan2(gy[rows, cols], gx[rows, cols]), np.pi)
    bins = ((angle + np.pi / 8) // (np.pi / 4)).astype(int) % 4
    dr, dc = np.array([(0, 1), (1, 1), (1, 0), (1, -1)])[bins].T
    padded = np.zeros((mag.shape[0] + 2, mag.shape[1] + 2))
    padded[1:-1, 1:-1] = mag
    n1 = padded[rows + 1 - dr, cols + 1 - dc]
    n2 = padded[rows + 1 + dr, cols + 1 + dc]
    ridge = (m > n1) & (m >= n2)

    weak = np.zeros(mag.shape, dtype=bool)
    weak[rows[ridge], cols[ridge]] = True
    strong = weak & (mag >= high * peak)
    # a weak component is kept when it holds a strong pixel: the component
    # of the run each strong pixel falls in
    runs = label_runs(weak, connectivity=8)
    held = runs.comp[np.searchsorted(runs.start, np.flatnonzero(strong), side="right") - 1]
    keep = np.zeros(runs.part_ids.size + 1, dtype=bool)
    keep[held] = True
    ink = np.zeros(weak.size, dtype=np.uint8)
    ink[run_pixels(runs, np.flatnonzero(keep[runs.comp]))] = INK
    return Raster(ink.reshape(weak.shape))


def dilate_square(r, side):
    """Morphological dilation by a side x side square element.

    scipy.ndimage.maximum_filter with blank paper beyond the edge, written
    as a max of shifted copies down the rows, then across the columns. Max
    is exact, so the order cannot change a byte.
    """
    if side < 1 or side % 2 == 0:
        raise ContractViolation(f"structuring element side must be odd and >= 1, got {side}")
    ink = r.pixels.copy()
    for view in (ink, ink.T):
        src = view.copy()
        for s in range(1, min(side // 2, len(view) - 1) + 1):
            np.maximum(view[s:], src[:-s], out=view[s:])
            np.maximum(view[:-s], src[s:], out=view[:-s])
    return Raster(ink)


# ---------------------------------------------------------------------------
# geometry


def _bilinear_sample(img, rows, cols):
    h, w = img.shape
    r = np.clip(rows, 0.0, h - 1.0)
    c = np.clip(cols, 0.0, w - 1.0)
    r0 = np.floor(r).astype(int)
    c0 = np.floor(c).astype(int)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    tr = r - r0
    tc = c - c0
    top = img[r0, c0] * (1 - tc) + img[r0, c1] * tc
    bot = img[r1, c0] * (1 - tc) + img[r1, c1] * tc
    return top * (1 - tr) + bot * tr


def _inside(rows, cols, shape):
    h, w = shape
    return (rows >= -0.5) & (rows <= h - 0.5) & (cols >= -0.5) & (cols <= w - 0.5)


def _transform(x, rows, cols):
    """Resample a Raster (bilinear, threshold 128) or LabelMap (nearest) at
    the given source coordinates, two arrays that broadcast to the output
    grid; out-of-canvas reads blank/background."""
    if isinstance(x, Raster):
        vals = _bilinear_sample(x.pixels.astype(np.float64), rows, cols)
        vals[~_inside(rows, cols, x.pixels.shape)] = 0.0
        return Raster(np.where(vals >= 128.0, INK, 0).astype(np.uint8))
    h, w = x.labels.shape
    rn = np.rint(rows).astype(int)
    cn = np.rint(cols).astype(int)
    ok = (rn >= 0) & (rn < h) & (cn >= 0) & (cn < w)
    return LabelMap(np.where(ok, x.labels[rn.clip(0, h - 1), cn.clip(0, w - 1)], 0))


def rotate(x, degrees):
    """Rotate about the image centre (counter-clockwise for positive angles)."""
    arr = x.pixels if isinstance(x, Raster) else x.labels
    h, w = arr.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(degrees)
    cos, sin = math.cos(theta), math.sin(theta)
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    dx = np.arange(w, dtype=np.float64)[None, :] - cx
    rows = cos * dy + sin * dx + cy
    cols = -sin * dy + cos * dx + cx
    return _transform(x, rows, cols)


def mirror_v(x):
    """Mirror about the vertical axis (flips columns)."""
    if isinstance(x, Raster):
        return Raster(np.fliplr(x.pixels))
    return LabelMap(np.fliplr(x.labels))


def rescale(x, factor):
    """Scale content about the centre on an unchanged canvas."""
    if factor <= 0:
        raise ContractViolation(f"scale factor must be positive, got {factor}")
    arr = x.pixels if isinstance(x, Raster) else x.labels
    h, w = arr.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows = (np.arange(h, dtype=np.float64)[:, None] - cy) / factor + cy
    cols = (np.arange(w, dtype=np.float64)[None, :] - cx) / factor + cx
    return _transform(x, rows, cols)


def view_shape(height, width, side):
    """A height x width shape scaled so its longer side is `side`, aspect kept."""
    longer = max(height, width)
    return max(1, round(side * height / longer)), max(1, round(side * width / longer))


def _axis_taps(start, length, n_src, n_out):
    """The two (index, weight) taps behind each of n_out samples of the
    window [start, start + length) of an n_src-pixel axis. A tap off the
    axis reads blank paper: weight 0 at a clamped index."""
    lo, w_lo, hi, w_hi = _interp_taps(n_out, length)
    taps = []
    for idx, weight in ((lo + start, w_lo), (hi + start, w_hi)):
        inside = (idx >= 0) & (idx < n_src)
        taps.append((np.clip(idx, 0, n_src - 1), np.where(inside, weight, 0.0)))
    return taps


def grey_view(sketch, top, left, height, width, shape):
    """The window [top, top + height) x [left, left + width) of a sketch,
    resampled bilinearly to `shape` as float32 ink density in [0, 1], not
    re-thresholded. Parts of the window off the canvas read blank.

    Every sample is the sum of two tap products, so the view of a mirrored
    window is the mirrored view bit for bit.
    """
    (r0, a0), (r1, a1) = _axis_taps(top, height, sketch.height, shape[0])
    (c0, b0), (c1, b1) = _axis_taps(left, width, sketch.width, shape[1])
    px = sketch.pixels
    rows = px[r0] * a0[:, None] + px[r1] * a1[:, None]
    out = rows[:, c0] * b0 + rows[:, c1] * b1
    return (out / INK).astype(np.float32)


def crops_and_pad(sketch, crop_fraction, side):
    """Six grey views of a sketch, each of the shape whose longer side is
    `side`: four corner crops and one centre crop (each crop_fraction of each
    side), and the sketch blank-padded so it fills crop_fraction of the view.
    Each view is resampled once from the full-resolution sketch."""
    if not 0 < crop_fraction <= 1:
        raise ContractViolation(f"crop fraction must be in (0, 1], got {crop_fraction}")
    h, w = sketch.height, sketch.width
    shape = view_shape(h, w, side)
    ch = max(1, round(crop_fraction * h))
    cw = max(1, round(crop_fraction * w))
    crops = [(0, 0), (0, w - cw), (h - ch, 0), (h - ch, w - cw), ((h - ch) // 2, (w - cw) // 2)]
    views = [grey_view(sketch, top, left, ch, cw, shape) for top, left in crops]

    margin_r = round(h * (1 - crop_fraction) / (2 * crop_fraction))
    margin_c = round(w * (1 - crop_fraction) / (2 * crop_fraction))
    views.append(
        grey_view(sketch, -margin_r, -margin_c, h + 2 * margin_r, w + 2 * margin_c, shape)
    )
    return views


# ---------------------------------------------------------------------------
# connected components


class Runs(NamedTuple):
    """A label array's inked runs, the maximal stretches of one nonzero id
    along a row, in scan order, and how they join (see label_runs)."""

    start: np.ndarray  # (r,) flat index of each run's first pixel, ascending
    end: np.ndarray  # (r,) one past each run's last pixel
    comp: np.ndarray  # (r,) int32 component of each run, 1..n as ndimage.label numbers them
    part_ids: np.ndarray  # (n,) the id component k carries at k - 1
    upper: np.ndarray  # (k,) run a row above of each different-id overlap,
    lower: np.ndarray  # (k,) and the run it overlaps, ordered by lower, then upper


def label_runs(ids, connectivity=4):
    """The labeller's pass over runs: `Runs` of a 2-d id array.

    Two pixels join when they hold the same nonzero id and share an edge
    (connectivity 4) or an edge or a corner (8). A run meets the runs of the
    row above that overlap its span, widened by a pixel each side at
    connectivity 8. Overlaps of one id join; the rest are kept as
    (upper, lower), which at connectivity 4 are all the vertical contacts
    of two components. Each round hooks the later root of every unjoined
    pair under the earlier and pointer-jumps every run to its root, so a
    component's root ends up its first run, and components are numbered in
    raster order of their first pixel, as ndimage.label numbers them.
    """
    if connectivity not in (4, 8):
        raise ContractViolation(f"connectivity must be 4 or 8, got {connectivity}")
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ContractViolation(f"ids must be 2-d, got shape {ids.shape}")
    flat = ids.ravel()
    if flat.size == 0:
        none = np.zeros(0, dtype=np.intp)
        return Runs(none, none, none.astype(np.int32), flat, none, none)
    w = ids.shape[1]
    change = np.empty(flat.size, dtype=bool)
    change[0] = True
    np.not_equal(flat[1:], flat[:-1], out=change[1:])
    change[::w] = True
    seg = np.flatnonzero(change)  # stretches of one value within a row
    run_id = flat[seg]
    inked = run_id != 0
    start, run_id = seg[inked], run_id[inked]
    end = np.append(seg[1:], flat.size)[inked]

    below = np.flatnonzero(start >= w)
    lo, hi = start[below] - w, end[below] - w  # the span a row up
    if connectivity == 8:
        row = lo - lo % w
        lo, hi = np.maximum(lo - 1, row), np.minimum(hi + 1, row + w)
    first = np.searchsorted(end, lo, side="right")
    count = np.searchsorted(start, hi) - first
    b = np.repeat(below, count)
    a = np.arange(b.size) + np.repeat(first - np.cumsum(count) + count, count)
    same = run_id[a] == run_id[b]
    upper, lower = a[~same], b[~same]
    a, b = a[same], b[same]

    parent = np.arange(start.size)
    while a.size:
        parent[b] = a  # every b is a root and a < b
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        a, b = parent[a], parent[b]
        apart = a != b
        a, b = np.minimum(a[apart], b[apart]), np.maximum(a[apart], b[apart])

    root = parent == np.arange(start.size)
    comp = np.cumsum(root, dtype=np.int32)[parent]
    return Runs(start, end, comp, run_id[root], upper, lower)


def run_pixels(runs, which):
    """Flat indices of the pixels of `runs`' runs `which`, run by run in
    that order, each run's left to right."""
    span = runs.end[which] - runs.start[which]
    skip = np.repeat(runs.start[which] - (np.cumsum(span) - span), span)
    return np.arange(skip.size) + skip
