"""Sketchification and the two augmentation families.

A sketchified image is the union of a photo's prominent edges and the
contours of its part annotation, thickened by a STROKE_SIDE x STROKE_SIDE
dilation, so region boundaries survive as ink even where a real photo's
edges are faint. The edges are `canny`'s at its default thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation
from .imaging import INK, LabelMap, Raster, canny, dilate_square, mirror_v, rescale, rotate
from .poses import MIRROR, POSES

SEG_ROTATIONS = (0.0, 10.0, -10.0, 20.0, -20.0, 30.0, -30.0)
CLS_ROTATIONS = (0.0, 4.0, -4.0, 8.0, -8.0, 12.0, -12.0)
CLS_SCALES = (1.0, 0.97, 1.03, 0.93, 1.07)
STROKE_SIDE = 3


@dataclass(frozen=True)
class PairedSample:
    """One training pair: the sketchified drawing, its part labels, and tags."""

    sketch: Raster
    labels: LabelMap
    category: str
    pose: str

    def __post_init__(self):
        if (self.sketch.height, self.sketch.width) != (self.labels.height, self.labels.width):
            raise ContractViolation(
                f"sketch {self.sketch.width}x{self.sketch.height} vs labels "
                f"{self.labels.width}x{self.labels.height}"
            )
        if self.pose not in POSES:
            raise ContractViolation(f"unknown pose {self.pose!r}")


def label_boundary(lm):
    """Ink raster of pixels whose 4-neighbourhood holds a different label.

    Marks both sides of every part/part and part/background transition,
    which realizes object contours and part contours in one pass.
    """
    a = lm.labels
    diff = np.zeros(a.shape, dtype=bool)
    diff[1:, :] |= a[1:, :] != a[:-1, :]
    diff[:-1, :] |= a[:-1, :] != a[1:, :]
    diff[:, 1:] |= a[:, 1:] != a[:, :-1]
    diff[:, :-1] |= a[:, :-1] != a[:, 1:]
    return Raster(np.where(diff, INK, 0).astype(np.uint8))


def sketchify(photo, labels):
    """Merge photo edges with annotation contours and thicken the strokes."""
    if (photo.height, photo.width) != (labels.height, labels.width):
        raise ContractViolation(
            f"photo {photo.width}x{photo.height} vs labels {labels.width}x{labels.height}"
        )
    merged = np.maximum(canny(photo).pixels, label_boundary(labels).pixels)
    return dilate_square(Raster(merged), STROKE_SIDE)


SEG_COMBOS = tuple((mirrored, deg) for mirrored in (False, True) for deg in SEG_ROTATIONS)


def seg_variant(sample, index):
    """The index-th of the 14 segmentation variants.

    Mirrored variants flip the pose label east/west; rotations keep it
    (a 30-degree tilt never leaves the 45-degree pose bin).
    """
    mirrored, deg = SEG_COMBOS[index]
    out = sample
    if mirrored:
        out = replace(
            out,
            sketch=mirror_v(out.sketch),
            labels=mirror_v(out.labels),
            pose=MIRROR[out.pose],
        )
    if deg != 0.0:
        out = replace(out, sketch=rotate(out.sketch, deg), labels=rotate(out.labels, deg))
    return out


CLS_COMBOS = tuple(
    (mirrored, deg, s)
    for mirrored in (False, True)
    for deg in CLS_ROTATIONS
    for s in CLS_SCALES
)


def cls_variant(sketch, index):
    """The index-th of the 70 classifier variants (mirror, rotate, rescale)."""
    mirrored, deg, s = CLS_COMBOS[index]
    out = mirror_v(sketch) if mirrored else sketch
    if deg:
        out = rotate(out, deg)
    if s != 1.0:
        out = rescale(out, s)
    return out
