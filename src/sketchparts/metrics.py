"""Segmentation IOU and pose accuracy reports.

Per part: pwIOU_i = n_ii / (t_i + sum_j n_ji - n_ii), i.e. intersection
over union against everything predicted as i. A sketch averages pwIOU over
the ground truth's unique nonzero labels only (background is not a part);
categories average their sketches, and the grand score averages categories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .poses import MERGE4, POSE_INDEX, POSES

FOUR_WAY = ["N", "E", "S", "W"]


def sketch_iou(pred, gt):
    """(per-part pwIOU dict, sIOU) of one prediction against ground truth."""
    if pred.labels.shape != gt.labels.shape:
        raise ContractViolation(
            f"prediction {pred.labels.shape} vs ground truth {gt.labels.shape}"
        )
    per_part = {}
    for part in gt.ids():
        gt_mask = gt.labels == part
        pred_mask = pred.labels == part
        inter = int((gt_mask & pred_mask).sum())
        union = int(gt_mask.sum()) + int(pred_mask.sum()) - inter
        per_part[part] = inter / union if union else 0.0
    if not per_part:
        return per_part, 0.0
    return per_part, sum(per_part.values()) / len(per_part)


@dataclass
class IouReport:
    per_category: dict  # category -> aIOU
    grand: float
    part_means: dict  # category -> {part id -> mean pwIOU}

    def csv(self):
        lines = ["category,aiou"]
        for cat in sorted(self.per_category):
            lines.append(f"{cat},{self.per_category[cat]!r}")
        lines.append(f"GRAND,{self.grand!r}")
        return "\n".join(lines) + "\n"

    def table(self):
        width = max(len(c) for c in ["category", *self.per_category])
        rows = [f"{'category':<{width}}  aIOU"]
        for cat in sorted(self.per_category):
            rows.append(f"{cat:<{width}}  {self.per_category[cat]:.4f}")
        rows.append(f"{'AVG':<{width}}  {self.grand:.4f}")
        return "\n".join(rows)


def iou_report(pairs):
    """Aggregate (category, pred, gt) triples into an IouReport."""
    by_cat = {}
    parts_by_cat = {}
    for category, pred, gt in pairs:
        per_part, siou = sketch_iou(pred, gt)
        by_cat.setdefault(category, []).append(siou)
        bucket = parts_by_cat.setdefault(category, {})
        for part, v in per_part.items():
            bucket.setdefault(part, []).append(v)
    if not by_cat:
        raise ContractViolation("cannot average an empty list of predictions")
    per_category = {c: float(np.mean(v)) for c, v in by_cat.items()}
    part_means = {
        c: {p: float(np.mean(vs)) for p, vs in parts.items()}
        for c, parts in parts_by_cat.items()
    }
    grand = float(np.mean(list(per_category.values())))
    return IouReport(per_category, grand, part_means)


@dataclass
class PoseReport:
    matrix8: np.ndarray  # truth rows x prediction columns, POSES order
    accuracy8: float
    matrix4: np.ndarray  # FOUR_WAY order after merging
    accuracy4: float

    def _blocks(self):
        """(CSV header, poses, matrix, accuracy, way) of the 8-, then 4-way view."""
        return (("labels", POSES, self.matrix8, self.accuracy8, 8),
                ("labels4", FOUR_WAY, self.matrix4, self.accuracy4, 4))

    def csv(self):
        lines = []
        for head, names, matrix, accuracy, way in self._blocks():
            lines.append(",".join([head, *names]))
            lines += [",".join([p, *map(str, row)]) for p, row in zip(names, matrix.tolist())]
            lines.append(f"accuracy{way},{accuracy!r}")
        return "\n".join(lines) + "\n"

    def table(self):
        rows = []
        for _, names, matrix, accuracy, way in self._blocks():
            rows.append("      " + "".join(f"{p:>5}" for p in names))
            rows += [f"{p:>5} " + "".join(f"{v:>5}" for v in row)
                     for p, row in zip(names, matrix.tolist())]
            rows.append(f"{way}-way accuracy: {accuracy:.4f}")
        return "\n".join(rows)


def pose_eval(preds, truths):
    """8-way and 4-way confusion matrices and accuracies; the 4-way view
    folds NE,SE into E and NW,SW into W on both sides before scoring."""
    if len(preds) != len(truths):
        raise ContractViolation(f"{len(preds)} predictions vs {len(truths)} truths")
    if not preds:
        raise ContractViolation("cannot score an empty list of poses")
    for label in list(preds) + list(truths):
        if label not in POSE_INDEX:
            raise ContractViolation(f"unknown pose label {label!r}")
    m8 = np.zeros((8, 8), dtype=np.int64)
    np.add.at(m8, ([POSE_INDEX[t] for t in truths], [POSE_INDEX[p] for p in preds]), 1)
    acc8 = float(np.trace(m8) / len(preds))
    idx4 = np.array([FOUR_WAY.index(MERGE4[p]) for p in POSES])
    m4 = np.zeros((4, 4), dtype=np.int64)
    np.add.at(m4, (idx4[:, None], idx4[None, :]), m8)
    acc4 = float(np.trace(m4) / len(preds))
    return PoseReport(m8, acc8, m4, acc4)
