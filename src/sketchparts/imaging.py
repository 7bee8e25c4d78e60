"""Raster primitives: edge detection, morphology, geometry, components.

Rasters are 8-bit, 0 = blank paper and 255 = full ink (photos may use the
whole gray range). Label maps carry a part id per pixel, 0 = background.
Geometric resampling is written out explicitly rather than deferred to a
library so that flips commute exactly with resizing; Gaussian smoothing,
Sobel and component labelling come from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .autograd import _interp_taps
from .errors import ContractViolation

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
INK = 255
CANNY_SIGMA = 1.4  # Gaussian smoothing before the Sobel gradients, in pixels


class Raster:
    """2-d uint8 image, 0 = blank, 255 = ink."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        a = np.asarray(pixels)
        if a.ndim != 2:
            raise ContractViolation(f"raster must be 2-d, got shape {a.shape}")
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
        a = np.asarray(labels)
        if a.ndim != 2:
            raise ContractViolation(f"label map must be 2-d, got shape {a.shape}")
        if a.dtype != np.uint8 and a.size and not 0 <= a.min() <= a.max() <= 255:
            raise ContractViolation(f"label ids must lie in 0..255, got {a.min()}..{a.max()}")
        a = np.array(a, dtype=np.uint8, order="C")
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


def canny(photo, low=0.2, high=0.4):
    """Edges of a photo as an ink raster.

    Gaussian smooth by CANNY_SIGMA, Sobel gradients, non-maximum
    suppression along the quantized gradient direction, then hysteresis.
    `low`/`high` are fractions of the peak gradient magnitude; at
    low = high = 0 every ridge pixel with any gradient at all is marked.
    """
    if photo.pixels.size == 0:
        raise ContractViolation("canny on an empty raster")
    if not 0 <= low <= high:
        raise ContractViolation(f"need 0 <= low <= high, got {low}/{high}")

    img = ndimage.gaussian_filter(photo.pixels.astype(np.float64), CANNY_SIGMA, mode="nearest")
    gx = ndimage.sobel(img, axis=1, mode="nearest")
    gy = ndimage.sobel(img, axis=0, mode="nearest")
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak == 0.0:
        return Raster(np.zeros_like(photo.pixels))

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
    padded = np.pad(mag, 1, mode="constant")
    n1 = padded[rows + 1 - dr, cols + 1 - dc]
    n2 = padded[rows + 1 + dr, cols + 1 + dc]
    ridge = (m > n1) & (m >= n2)

    weak = np.zeros(mag.shape, dtype=bool)
    weak[rows[ridge], cols[ridge]] = True
    strong = weak & (mag >= high * peak)
    if not strong.any():
        return Raster(np.zeros_like(photo.pixels))
    comp, n = ndimage.label(weak, structure=np.ones((3, 3), dtype=bool))
    # a weak component is kept when it holds a strong pixel
    keep = np.zeros(n + 1, dtype=bool)
    keep[comp[strong]] = True
    return Raster(np.where(keep[comp], INK, 0).astype(np.uint8))


def dilate_square(r, side):
    """Morphological dilation by a side x side square element."""
    if side < 1 or side % 2 == 0:
        raise ContractViolation(f"structuring element side must be odd and >= 1, got {side}")
    if side == 1:
        return Raster(r.pixels.copy())
    ink = ndimage.maximum_filter(r.pixels, size=side, mode="constant", cval=0)
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


@dataclass(frozen=True)
class Component:
    part_id: int
    pixels: np.ndarray  # (n, 2) row/col coordinates, scan order
    area: int
    centroid: tuple  # (row, col) floats


def _label_parts(labels):
    """(part id, bounding box, 4-connected labels inside the box, count) of
    each nonzero id in a label array, in id order; each id is labelled only
    inside its bounding box."""
    for pid, box in enumerate(ndimage.find_objects(labels), start=1):
        if box is not None:
            comp, n = ndimage.label(labels[box] == pid, structure=FOUR_CONN)
            yield pid, box, comp, n


def label_components(lm):
    """4-connected components of every nonzero part id.

    Returns (components, index_map) where index_map holds each pixel's
    position in the component list, -1 for background. Components are
    ordered by (part id, centroid row, centroid col).
    """
    labels = lm.labels
    found = []
    # value_indices lists a component's pixels in its box's scan order,
    # which the box corner's offset turns into the whole map's scan order
    for pid, box, comp, n in _label_parts(labels):
        where = ndimage.value_indices(comp, ignore_value=0)
        for k in range(1, n + 1):
            rows, cols = where[k]
            rows = rows + box[0].start
            cols = cols + box[1].start
            centroid = (rows.mean().item(), cols.mean().item())
            found.append(
                Component(
                    part_id=pid,
                    pixels=np.column_stack([rows, cols]),
                    area=rows.size,
                    centroid=centroid,
                )
            )
    found.sort(key=lambda c: (c.part_id, c.centroid[0], c.centroid[1]))
    index_map = np.full(labels.shape, -1, dtype=np.int32)
    for i, c in enumerate(found):
        index_map[c.pixels[:, 0], c.pixels[:, 1]] = i
    return found, index_map
