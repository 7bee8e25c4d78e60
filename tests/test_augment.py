import numpy as np
import pytest

from sketchparts.augment import CLS_COMBOS, SEG_COMBOS, PairedSample, cls_variant, label_boundary
from sketchparts.augment import seg_variant, sketchify
from sketchparts.autograd import make_rng
from sketchparts.errors import ContractViolation
from sketchparts.imaging import INK, LabelMap, Raster, canny, dilate_square


def square_sample(pose="E"):
    labels = np.zeros((32, 32), dtype=np.uint8)
    labels[8:24, 8:24] = 1
    sketch = sketchify(Raster(np.full((32, 32), 200, dtype=np.uint8)), LabelMap(labels))
    return PairedSample(sketch=sketch, labels=LabelMap(labels), category="thing", pose=pose)


class TestSketchify:
    def test_blank_photo_gives_dilated_outline(self):
        labels = np.zeros((32, 32), dtype=np.uint8)
        labels[8:24, 8:24] = 1
        photo = Raster(np.full((32, 32), 200, dtype=np.uint8))  # no edges of its own
        got = sketchify(photo, LabelMap(labels))
        want = dilate_square(label_boundary(LabelMap(labels)), 3)
        assert got == want

    def test_ink_superset_of_dilated_canny(self):
        rng = make_rng(3)
        photo = Raster((rng.random((40, 40)) * 255).astype(np.uint8))
        labels = np.zeros((40, 40), dtype=np.uint8)
        labels[10:30, 5:20] = 2
        got = sketchify(photo, LabelMap(labels))
        dilated_edges = dilate_square(canny(photo), 3)
        assert (got.pixels >= dilated_edges.pixels).all()

    def test_uses_side_three_dilation(self):
        labels = np.zeros((16, 16), dtype=np.uint8)
        labels[8, 8] = 1  # single labelled pixel: boundary is its 4-ring + itself
        photo = Raster(np.full((16, 16), 128, dtype=np.uint8))
        got = sketchify(photo, LabelMap(labels))
        boundary = label_boundary(LabelMap(labels))
        assert got == dilate_square(boundary, 3)
        assert got != dilate_square(boundary, 5)

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            sketchify(
                Raster(np.zeros((8, 8), dtype=np.uint8)),
                LabelMap(np.zeros((8, 9), dtype=np.uint8)),
            )


def test_family_sizes():
    assert len(SEG_COMBOS) == 14  # 7 rotations for each of the two mirrorings
    assert len(CLS_COMBOS) == 70  # 7 rotations x 5 scales x 2 mirrorings


class TestSegVariant:
    @pytest.mark.parametrize("k", range(len(SEG_COMBOS)))
    def test_variant(self, k):
        s = square_sample("E")
        v = seg_variant(s, k)
        mirrored, _ = SEG_COMBOS[k]
        assert v.pose == ("W" if mirrored else "E")  # mirroring flips the pose east/west
        assert set(v.labels.ids()) <= set(s.labels.ids())
        assert (v.sketch.height, v.sketch.width) == (32, 32)
        assert (v.labels.height, v.labels.width) == (32, 32)

    def test_first_is_identity(self):
        s = square_sample()
        assert seg_variant(s, 0) == s


class TestClsVariant:
    SKETCH = Raster(np.where(make_rng(13).random((40, 56)) < 0.1, INK, 0).astype(np.uint8))

    @pytest.mark.parametrize("k", range(len(CLS_COMBOS)))
    def test_retains_dimensions(self, k):
        v = cls_variant(self.SKETCH, k)
        assert (v.height, v.width) == (40, 56)

    def test_first_is_identity(self):
        assert cls_variant(self.SKETCH, 0) == self.SKETCH
