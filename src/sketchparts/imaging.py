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

from .autograd import _interp_matrix
from .errors import ContractViolation

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
INK = 255


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
    """2-d per-pixel part ids, 0 = background.

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


def canny(photo, low=0.2, high=0.4, sigma=1.4):
    """Edges of a photo as an ink raster.

    Gaussian smooth, Sobel gradients, non-maximum suppression along the
    quantized gradient direction, then hysteresis. `low`/`high` are
    fractions of the peak gradient magnitude; at low = high = 0 every
    ridge pixel with any gradient at all is marked.
    """
    if photo.pixels.size == 0:
        raise ContractViolation("canny on an empty raster")
    if not 0 <= low <= high:
        raise ContractViolation(f"need 0 <= low <= high, got {low}/{high}")

    img = ndimage.gaussian_filter(photo.pixels.astype(np.float64), sigma=sigma, mode="nearest")
    gx = ndimage.sobel(img, axis=1, mode="nearest")
    gy = ndimage.sobel(img, axis=0, mode="nearest")
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak == 0.0:
        return Raster(np.zeros_like(photo.pixels))

    # quantize direction to 4 bins and compare against both neighbours;
    # strict on the first neighbour so 2-wide plateaus keep one pixel
    # rows grow downward, so theta = pi/4 steps down-right across the image
    angle = np.mod(np.arctan2(gy, gx), np.pi)
    bins = ((angle + np.pi / 8) // (np.pi / 4)).astype(int) % 4
    offsets = {0: (0, 1), 1: (1, 1), 2: (1, 0), 3: (1, -1)}
    padded = np.pad(mag, 1, mode="constant")
    keep = np.zeros_like(mag, dtype=bool)
    h, w = mag.shape
    for b, (dr, dc) in offsets.items():
        n1 = padded[1 - dr : 1 - dr + h, 1 - dc : 1 - dc + w]
        n2 = padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        keep |= (bins == b) & (mag > n1) & (mag >= n2)
    ridge = keep & (mag > 0)

    weak = ridge & (mag >= low * peak)
    strong = ridge & (mag >= high * peak)
    if not strong.any():
        return Raster(np.zeros_like(photo.pixels))
    comp, n = ndimage.label(weak, structure=np.ones((3, 3), dtype=bool))
    keep_ids = np.unique(comp[strong])
    edges = np.isin(comp, keep_ids[keep_ids > 0])
    return Raster(np.where(edges, INK, 0).astype(np.uint8))


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
    the given source coordinates; out-of-canvas reads blank/background."""
    if isinstance(x, Raster):
        vals = _bilinear_sample(x.pixels.astype(np.float64), rows, cols)
        vals[~_inside(rows, cols, x.pixels.shape)] = 0.0
        return Raster(np.where(vals >= 128.0, INK, 0).astype(np.uint8))
    h, w = x.labels.shape
    rn = np.rint(rows).astype(int)
    cn = np.rint(cols).astype(int)
    ok = (rn >= 0) & (rn < h) & (cn >= 0) & (cn < w)
    out = np.zeros_like(x.labels)
    out[ok] = x.labels[rn[ok], cn[ok]]
    return LabelMap(out)


def rotate(x, degrees):
    """Rotate about the image centre (counter-clockwise for positive angles)."""
    arr = x.pixels if isinstance(x, Raster) else x.labels
    h, w = arr.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(degrees)
    cos, sin = math.cos(theta), math.sin(theta)
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dy, dx = ii - cy, jj - cx
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
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    rows = (ii - cy) / factor + cy
    cols = (jj - cx) / factor + cx
    return _transform(x, rows, cols)


def resize(x, out_h, out_w):
    """Resample a Raster to a new size; the sample grid is mirror-symmetric,
    so resize(mirror(x)) equals mirror(resize(x)) bit for bit."""
    if out_h < 1 or out_w < 1:
        raise ContractViolation(f"resize target must be positive, got {out_h}x{out_w}")
    wy = _interp_matrix(out_h, x.height)
    wx = _interp_matrix(out_w, x.width)
    vals = wy @ x.pixels.astype(np.float64) @ wx.T
    return Raster(np.where(vals >= 128.0, INK, 0).astype(np.uint8))


def pad_blank(x, top, bottom, left, right):
    if isinstance(x, Raster):
        return Raster(np.pad(x.pixels, ((top, bottom), (left, right)), constant_values=0))
    return LabelMap(np.pad(x.labels, ((top, bottom), (left, right)), constant_values=0))


def crops_and_pad(sketch, crop_fraction=0.9):
    """Six views of a sketch: four corner crops, one centre crop (each
    crop_fraction of each side, scaled back up), and one blank-padded
    shrunken view. crop_fraction is expected in (0, 1]."""
    h, w = sketch.height, sketch.width
    ch = max(1, round(crop_fraction * h))
    cw = max(1, round(crop_fraction * w))
    px = sketch.pixels
    corners = [
        px[:ch, :cw],
        px[:ch, w - cw :],
        px[h - ch :, :cw],
        px[h - ch :, w - cw :],
    ]
    top = (h - ch) // 2
    left = (w - cw) // 2
    center = px[top : top + ch, left : left + cw]
    views = [resize(Raster(c), h, w) for c in corners + [center]]

    margin_r = round(h * (1 - crop_fraction) / (2 * crop_fraction))
    margin_c = round(w * (1 - crop_fraction) / (2 * crop_fraction))
    padded = pad_blank(sketch, margin_r, margin_r, margin_c, margin_c)
    views.append(resize(padded, h, w))
    return views


# ---------------------------------------------------------------------------
# connected components


@dataclass(frozen=True)
class Component:
    part_id: int
    pixels: np.ndarray  # (n, 2) row/col coordinates, scan order
    area: int
    centroid: tuple  # (row, col) floats


def label_components(lm):
    """4-connected components of every nonzero part id.

    Returns (components, index_map) where index_map holds each pixel's
    position in the component list, -1 for background. Components are
    ordered by (part id, centroid row, centroid col).
    """
    labels = lm.labels
    found = []
    # each id is labelled only inside its bounding box; value_indices lists
    # a component's pixels in the box's scan order, which the box corner's
    # offset turns into the whole map's scan order
    for pid, box in enumerate(ndimage.find_objects(labels), start=1):
        if box is None:
            continue
        comp, n = ndimage.label(labels[box] == pid, structure=FOUR_CONN)
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


def connected_components(lm):
    return label_components(lm)[0]
