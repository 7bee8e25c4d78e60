import numpy as np
import pytest

from sketchparts.autograd import _interp_matrix, make_rng
from sketchparts.errors import ContractViolation
from sketchparts.imaging import (
    INK,
    LabelMap,
    Raster,
    canny,
    crops_and_pad,
    dilate_square,
    grey_view,
    label_components,
    mirror_v,
    rescale,
    rotate,
    view_shape,
)
from sketchparts.pgm import read_pgm, write_pgm
from oracles import canny_full_grid, rescale_full_grid, rotate_full_grid


def random_ink(rng, h=24, w=24, density=0.2):
    return Raster(np.where(rng.random((h, w)) < density, INK, 0).astype(np.uint8))


class TestCanny:
    def test_constant_photo_no_edges(self):
        out = canny(Raster(np.full((32, 32), 180, dtype=np.uint8)))
        assert not out.pixels.any()

    def test_vertical_step_single_pixel_line(self):
        img = np.zeros((32, 32), dtype=np.uint8)
        img[:, 16:] = 255
        out = canny(Raster(img))
        # away from the top/bottom border every row crosses the edge once
        for row in out.pixels[4:-4]:
            assert (row == INK).sum() == 1

    def test_zero_thresholds_keep_whole_ridge(self):
        img = np.zeros((32, 32), dtype=np.uint8)
        img[:, 16:] = 255
        img[10:20, 4:8] = 90  # a second, fainter structure
        strict = canny(Raster(img), low=0.4, high=0.8)
        loose = canny(Raster(img), low=0.0, high=0.0)
        assert (loose.pixels >= strict.pixels).all()
        assert loose.pixels.sum() > strict.pixels.sum()

    def test_empty_raster_rejected(self):
        with pytest.raises(ContractViolation):
            canny(Raster(np.zeros((0, 0), dtype=np.uint8)))

    @pytest.mark.parametrize("low,high", [(0.2, 0.4), (0.0, 0.0), (0.1, 0.9), (0.5, 0.5)])
    def test_matches_full_grid_oracle(self, low, high):
        rng = make_rng(83)
        yy, xx = np.mgrid[:40, :52]
        photos = [
            rng.integers(0, 256, size=(37, 52)),  # noise: ridges everywhere
            rng.integers(0, 3, size=(40, 40)) * 100,  # plateaus and ties
            127 + 100 * np.sin(xx / 3) * np.cos(yy / 4),
            np.pad(np.full((20, 9), 200), ((5, 12), (30, 1))),
            # a step of 50 over a step of 100: away from where the halves
            # meet, the upper ridge sits at exactly half the peak
            np.where(xx[:40, :40] >= 20, np.where(yy[:40, :40] < 20, 50, 100), 0),
            np.full((1, 7), 3),
        ]
        for a in photos:
            photo = Raster(np.clip(a, 0, 255).astype(np.uint8))
            want = canny_full_grid(photo, low, high)
            assert canny(photo, low, high).pixels.tobytes() == want.pixels.tobytes()


class TestDilate:
    def test_single_pixel_becomes_block(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        img[3, 3] = INK
        out = dilate_square(Raster(img), 3)
        expect = np.zeros((7, 7), dtype=np.uint8)
        expect[2:5, 2:5] = INK
        assert np.array_equal(out.pixels, expect)

    def test_clips_at_border(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        img[0, 0] = INK
        out = dilate_square(Raster(img), 3)
        assert out.pixels[:2, :2].all()
        assert out.pixels.sum() == 4 * INK

    def test_side_one_is_identity(self):
        r = random_ink(make_rng(2))
        assert dilate_square(r, 1) == r

    def test_even_side_rejected(self):
        with pytest.raises(ContractViolation):
            dilate_square(random_ink(make_rng(3)), 4)

    def test_matches_bruteforce_neighbourhood(self):
        rng = make_rng(5)
        for trial in range(10):
            r = random_ink(rng, 12, 12, 0.15)
            side = 3 if trial % 2 else 5
            out = dilate_square(r, side)
            half = side // 2
            h, w = r.pixels.shape
            for i in range(h):
                for j in range(w):
                    window = r.pixels[
                        max(0, i - half) : i + half + 1, max(0, j - half) : j + half + 1
                    ]
                    assert (out.pixels[i, j] == INK) == bool(window.any())

    def test_extensive_and_monotone(self):
        rng = make_rng(7)
        for _ in range(10):
            r = random_ink(rng)
            d3 = dilate_square(r, 3)
            d5 = dilate_square(r, 5)
            assert (d3.pixels >= r.pixels).all()
            assert (d5.pixels >= d3.pixels).all()


class TestLabelMapImmutable:
    def test_labels_are_read_only(self):
        lm = LabelMap(np.zeros((3, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            lm.labels[0, 0] = 1
        with pytest.raises(AttributeError):
            lm.labels = np.ones((3, 4), dtype=np.uint8)
        assert lm.labels.flags.c_contiguous and not lm.labels.any()

    def test_labels_cannot_be_made_writeable(self):
        lm = LabelMap(np.zeros((3, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            lm.labels.flags.writeable = True
        assert not lm.labels.flags.writeable

    @pytest.mark.parametrize("source", ["uint8", "int64", "fortran"])
    def test_source_writes_do_not_reach_the_map(self, source):
        a = np.arange(12, dtype=np.uint8).reshape(3, 4)
        a = {"uint8": a, "int64": a.astype(np.int64), "fortran": np.asfortranarray(a)}[source]
        lm = LabelMap(a)
        before = lm.labels.copy()
        a[...] = 200
        assert np.array_equal(lm.labels, before)
        assert lm.labels.flags.c_contiguous and lm.labels.dtype == np.uint8

    @pytest.mark.parametrize("value", [-1, 256, 300])
    def test_ids_outside_eight_bits_rejected(self, value):
        with pytest.raises(ContractViolation, match="0..255"):
            LabelMap(np.array([[0, 1], [2, value]]))

    def test_ids_at_the_eight_bit_bounds_kept(self):
        assert LabelMap(np.array([[0, 255]], dtype=np.int64)).labels.tolist() == [[0, 255]]


class TestGeometry:
    def test_rotate_zero_identity(self):
        r = random_ink(make_rng(11))
        assert rotate(r, 0.0) == r

    def test_rotate_labelmap_zero_identity(self):
        lm = LabelMap((make_rng(12).random((16, 16)) * 4).astype(np.uint8))
        assert rotate(lm, 0.0) == lm

    def test_mirror_is_involution(self):
        r = random_ink(make_rng(13))
        assert mirror_v(mirror_v(r)) == r

    def test_rotate_invents_no_labels(self):
        rng = make_rng(17)
        for _ in range(10):
            lm = LabelMap((rng.random((20, 20)) * 5).astype(np.uint8))
            ids = set(lm.ids())
            for deg in (-30, -20, -10, 10, 20, 30, 45):
                out = rotate(lm, deg)
                assert set(out.ids()) <= ids

    def test_geometry_preserves_dims(self):
        r = random_ink(make_rng(19), 18, 26)
        for out in (rotate(r, 15), mirror_v(r), rescale(r, 1.07), rescale(r, 0.93)):
            assert (out.height, out.width) == (18, 26)

    def test_rescale_one_identity(self):
        r = random_ink(make_rng(23))
        assert rescale(r, 1.0) == r

    @pytest.mark.parametrize("shape", [(24, 24), (17, 30), (31, 9)])
    @pytest.mark.parametrize(
        "op,oracle,amount",
        [
            (rotate, rotate_full_grid, 13.0),
            (rotate, rotate_full_grid, -30.0),
            (rescale, rescale_full_grid, 0.93),
            (rescale, rescale_full_grid, 1.5),
        ],
        ids=["rotate13", "rotate-30", "rescale0.93", "rescale1.5"],
    )
    def test_broadcast_coordinates_match_the_full_grid(self, shape, op, oracle, amount):
        rng = make_rng(shape)
        r = random_ink(rng, *shape, density=0.4)
        lm = LabelMap((rng.random(shape) * 6).astype(np.uint8))
        assert np.array_equal(op(r, amount).pixels, oracle(r, amount).pixels)
        assert np.array_equal(op(lm, amount).labels, oracle(lm, amount).labels)

    def test_rotate_moves_content(self):
        img = np.zeros((32, 32), dtype=np.uint8)
        img[4:8, 14:18] = INK
        out = rotate(Raster(img), 90)
        # a blob near the top moves to the left column band under ccw rotation
        rows, cols = np.nonzero(out.pixels)
        assert cols.mean() < 12


class TestCropsAndPad:
    def test_six_views(self):
        views = crops_and_pad(random_ink(make_rng(29), 32, 32), 0.9, 64)
        assert len(views) == 6
        for v in views:
            assert v.shape == (64, 64) and v.dtype == np.float32
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_fraction_one_collapses_views(self):
        r = random_ink(make_rng(31), 20, 20)
        density = (r.pixels / INK).astype(np.float32)
        assert all(np.array_equal(v, density) for v in crops_and_pad(r, 1.0, 20))
        first, *rest = crops_and_pad(r, 1.0, 64)
        assert all(np.array_equal(v, first) for v in rest)

    def test_mirror_swaps_corner_crops_exactly(self):
        rng = make_rng(37)
        for shape in ((27, 33), (150, 131), (33, 27)):  # odd sizes stress the grid
            for _ in range(3):
                r = random_ink(rng, *shape, 0.3)
                tl, tr, bl, br, center, padded = crops_and_pad(r, 0.8, 64)
                mtl, mtr, mbl, mbr, mcenter, mpadded = crops_and_pad(mirror_v(r), 0.8, 64)
                assert np.array_equal(mtl, np.fliplr(tr))
                assert np.array_equal(mtr, np.fliplr(tl))
                assert np.array_equal(mbl, np.fliplr(br))
                assert np.array_equal(mbr, np.fliplr(bl))
                assert np.array_equal(mpadded, np.fliplr(padded))

    @pytest.mark.parametrize("window", [(0, 0, 37, 29), (3, 5, 30, 20), (-4, -3, 45, 35)])
    @pytest.mark.parametrize("shape", [(64, 50), (9, 7)])
    def test_grey_view_matches_the_dense_resample(self, window, shape):
        r = random_ink(make_rng(47), 37, 29, 0.3)
        top, left, h, w = window
        canvas = np.pad(r.pixels.astype(np.float64), 8)  # blank beyond the sketch
        crop = canvas[top + 8 : top + 8 + h, left + 8 : left + 8 + w]
        want = _interp_matrix(shape[0], h) @ crop @ _interp_matrix(shape[1], w).T / INK
        got = grey_view(r, top, left, h, w, shape)
        assert got.shape == shape
        assert np.allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("fraction", [0, -0.2, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ContractViolation, match="crop fraction"):
            crops_and_pad(random_ink(make_rng(41), 16, 16), fraction, 64)

    def test_views_stay_grey(self):
        r = random_ink(make_rng(43), 128, 128)
        values = np.unique(np.concatenate([v.ravel() for v in crops_and_pad(r, 0.9, 64)]))
        assert ((values > 0) & (values < 1)).any()

    def test_padded_view_reads_blank_off_canvas(self):
        full = Raster(np.full((40, 40), INK, dtype=np.uint8))
        padded = crops_and_pad(full, 0.5, 40)[-1]
        assert padded[0, 0] == 0.0 and padded[-1, -1] == 0.0
        assert padded[20, 20] == 1.0

    @pytest.mark.parametrize(
        "shape,side,want",
        [((128, 128), 64, (64, 64)), ((112, 144), 64, (50, 64)), ((300, 8), 64, (64, 2)),
         ((2, 200), 64, (1, 64)), ((1, 1), 64, (64, 64))],
    )
    def test_view_shape_scales_the_longer_side(self, shape, side, want):
        assert view_shape(*shape, side) == want


class TestComponents:
    def test_background_only(self):
        assert label_components(LabelMap(np.zeros((8, 8), dtype=np.uint8)))[0] == []

    def test_two_blobs_same_id(self):
        lm = np.zeros((10, 10), dtype=np.uint8)
        lm[1:3, 1:3] = 2
        lm[6:9, 6:9] = 2
        comps = label_components(LabelMap(lm))[0]
        assert [c.part_id for c in comps] == [2, 2]
        assert [c.area for c in comps] == [4, 9]

    def test_diagonal_touch_stays_separate(self):
        lm = np.zeros((4, 4), dtype=np.uint8)
        lm[0, 0] = 1
        lm[1, 1] = 1
        assert len(label_components(LabelMap(lm))[0]) == 2

    def test_areas_partition_nonzero_pixels(self):
        rng = make_rng(41)
        for _ in range(10):
            lm = LabelMap((rng.random((16, 16)) * 4).astype(np.uint8))
            comps = label_components(lm)[0]
            assert sum(c.area for c in comps) == int((lm.labels != 0).sum())
            seen = set()
            for c in comps:
                for r, col in c.pixels:
                    assert (r, col) not in seen
                    seen.add((r, col))

    def test_deterministic_ordering(self):
        lm = np.zeros((10, 10), dtype=np.uint8)
        lm[8, 8] = 1
        lm[0, 0] = 1
        lm[4, 4] = 3
        comps = label_components(LabelMap(lm))[0]
        assert [(c.part_id, c.centroid) for c in comps] == [
            (1, (0.0, 0.0)),
            (1, (8.0, 8.0)),
            (3, (4.0, 4.0)),
        ]


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = make_rng(43)
        arr = (rng.random((13, 17)) * 255).astype(np.uint8)
        p = tmp_path / "img.pgm"
        write_pgm(p, arr)
        assert np.array_equal(read_pgm(p), arr)

    def test_comment_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        assert np.array_equal(read_pgm(p), [[0, 1], [2, 3]])

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
        with pytest.raises(ContractViolation):
            read_pgm(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ContractViolation):
            read_pgm(p)
