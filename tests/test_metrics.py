import dataclasses
import itertools

import numpy as np
import pytest

from sketchparts.autograd import make_rng
from sketchparts.errors import ContractViolation
from sketchparts.imaging import LabelMap
from sketchparts.metrics import IouReport, iou_report, pose_eval, sketch_iou
from sketchparts.poses import POSES


class TestSketchIou:
    def test_perfect_prediction(self):
        gt = LabelMap(np.array([[1, 1], [2, 2]], dtype=np.uint8))
        per_part, siou = sketch_iou(gt, gt)
        assert per_part == {1: 1.0, 2: 1.0}
        assert siou == 1.0

    def test_hand_counted_two_by_two(self):
        gt = LabelMap(np.array([[1, 1], [2, 2]], dtype=np.uint8))
        pred = LabelMap(np.array([[1, 2], [2, 2]], dtype=np.uint8))
        per_part, siou = sketch_iou(pred, gt)
        assert per_part[1] == pytest.approx(0.5)
        assert per_part[2] == pytest.approx(2 / 3)
        assert siou == pytest.approx(7 / 12)

    def test_disjoint_prediction_zero(self):
        gt = LabelMap(np.array([[1, 1], [1, 1]], dtype=np.uint8))
        pred = LabelMap(np.array([[2, 2], [2, 2]], dtype=np.uint8))
        _, siou = sketch_iou(pred, gt)
        assert siou == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ContractViolation):
            sketch_iou(
                LabelMap(np.zeros((2, 2), dtype=np.uint8)),
                LabelMap(np.zeros((2, 3), dtype=np.uint8)),
            )

    def test_per_part_symmetry(self):
        rng = make_rng(5)
        for _ in range(20):
            a = (rng.random((6, 6)) * 3).astype(np.uint8)
            b = (rng.random((6, 6)) * 3).astype(np.uint8)
            fwd, _ = sketch_iou(LabelMap(a), LabelMap(b))
            rev, _ = sketch_iou(LabelMap(b), LabelMap(a))
            for part in set(fwd) & set(rev):
                assert fwd[part] == rev[part]


class TestAverages:
    def test_singleton_identity(self):
        gt = LabelMap(np.array([[1, 1], [0, 2]], dtype=np.uint8))
        pred = LabelMap(np.array([[1, 0], [0, 2]], dtype=np.uint8))
        report = iou_report([("a", pred, gt)])
        _, v = sketch_iou(pred, gt)
        assert report.per_category == {"a": v}
        assert report.grand == v

    def test_two_sketches(self):
        gt = LabelMap(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        miss = LabelMap(np.array([[0, 0], [1, 1]], dtype=np.uint8))
        report = iou_report([("a", gt, gt), ("a", miss, gt), ("b", gt, gt)])
        assert report.per_category == {"a": 0.5, "b": 1.0}
        assert report.grand == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation, match="empty"):
            iou_report([])

    def test_report_fields(self):
        assert [f.name for f in dataclasses.fields(IouReport)] == [
            "per_category", "grand", "part_means",
        ]

    def test_report_values_in_unit_interval(self):
        rng = make_rng(7)
        pairs = []
        for i in range(12):
            gt = LabelMap((rng.random((8, 8)) * 3).astype(np.uint8))
            pred = LabelMap((rng.random((8, 8)) * 3).astype(np.uint8))
            pairs.append(("catA" if i % 2 else "catB", pred, gt))
        report = iou_report(pairs)
        for v in report.per_category.values():
            assert 0.0 <= v <= 1.0
        assert 0.0 <= report.grand <= 1.0
        assert report.csv().startswith("category,aiou")

    @pytest.mark.parametrize("category", ["cat", "airplane", "motorbike"])
    def test_table_columns_line_up_under_the_header(self, category):
        gt = LabelMap(np.array([[1, 1], [0, 0]], dtype=np.uint8))
        rows = iou_report([(category, gt, gt)]).table().splitlines()
        # each row's score starts where the header's aIOU does
        starts = [len(row) - len(row.split()[-1]) for row in rows]
        assert starts == [max(len(category), 8) + 2] * 3
        assert rows[1] == f"{category:<8}  1.0000"


class TestPoseEval:
    def test_ne_vs_e_merge_semantics(self):
        report = pose_eval(["NE"], ["E"])
        assert report.accuracy8 == 0.0
        assert report.accuracy4 == 1.0

    def test_all_correct(self):
        report = pose_eval(list(POSES), list(POSES))
        assert report.accuracy8 == 1.0
        assert report.accuracy4 == 1.0

    def test_merged_never_below_eightway_all_pairs(self):
        # exhaustive over every (pred, truth) label pair
        for p, t in itertools.product(POSES, POSES):
            report = pose_eval([p], [t])
            assert report.accuracy4 >= report.accuracy8

    def test_matrix_row_sums_match_truth_counts(self):
        rng = make_rng(11)
        preds = [POSES[i] for i in rng.integers(0, 8, size=100)]
        truths = [POSES[i] for i in rng.integers(0, 8, size=100)]
        report = pose_eval(preds, truths)
        for i, pose in enumerate(POSES):
            assert report.matrix8[i].sum() == truths.count(pose)
        assert report.matrix8.sum() == 100
        assert report.matrix4.sum() == 100

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation, match="empty"):
            pose_eval([], [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ContractViolation):
            pose_eval(["EAST"], ["E"])
