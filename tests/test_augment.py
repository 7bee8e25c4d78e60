import numpy as np
import pytest

from sketchparts.augment import PairedSample, augment_cls, augment_seg, label_boundary, sketchify
from sketchparts.autograd import make_rng
from sketchparts.errors import ContractViolation
from sketchparts.imaging import INK, LabelMap, Raster, canny, dilate_square
from sketchparts.poses import MIRROR, POSES


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


class TestAugmentSeg:
    def test_mirrored_pose_flips(self):
        variants = augment_seg(square_sample("E"))
        assert sorted({v.pose for v in variants}) == ["E", "W"]
        assert sum(v.pose == "W" for v in variants) == 7

    def test_pose_mirror_is_involution(self):
        for p in POSES:
            assert MIRROR[MIRROR[p]] == p

    def test_no_new_label_ids(self):
        s = square_sample()
        for v in augment_seg(s):
            assert set(v.labels.ids()) <= set(s.labels.ids())

    def test_dims_preserved(self):
        s = square_sample()
        for v in augment_seg(s):
            assert (v.sketch.height, v.sketch.width) == (32, 32)
            assert (v.labels.height, v.labels.width) == (32, 32)

    def test_contains_identity(self):
        s = square_sample()
        assert any(v.sketch == s.sketch and v.pose == s.pose for v in augment_seg(s))


class TestAugmentCls:
    def test_identity_member(self):
        rng = make_rng(11)
        sketch = Raster(np.where(rng.random((48, 48)) < 0.1, INK, 0).astype(np.uint8))
        variants = augment_cls(sketch)
        assert variants[0] == sketch

    def test_all_retain_dimensions(self):
        rng = make_rng(13)
        sketch = Raster(np.where(rng.random((40, 56)) < 0.1, INK, 0).astype(np.uint8))
        for v in augment_cls(sketch):
            assert (v.height, v.width) == (40, 56)
