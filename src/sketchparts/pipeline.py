"""End-to-end orchestration: route, parse, describe."""

from __future__ import annotations

import numpy as np

from .describe import SketchSummary, describe
from .errors import ContractViolation
from .imaging import label
from .model import infer
from .router import classify_pooled

RECORD_VERSION = 1


def part_counts(labelmap, taxonomy, branch):
    """Connected-instance counts keyed by part name, in branch id order.

    A part id past the branch's parts breaks the contract.
    """
    names = taxonomy.part_names(branch)
    counts = taxonomy.label_counts(label(labelmap.labels)[1], branch)
    return {names[pid - 1]: int(counts[pid]) for pid in np.flatnonzero(counts)}


def summarize(labelmap, taxonomy, branch, pose, category=None):
    return SketchSummary(
        supercategory=taxonomy.branch_names[branch],
        part_counts=part_counts(labelmap, taxonomy, branch),
        pose=pose,
        category=category,
    )


def infer_record(parser, router, sketch, force_branch=None, category=None):
    """Full inference for one sketch: route, parse, describe.

    Returns (record dict, predicted LabelMap). force_branch (a
    super-category name) picks the expert in place of the router's choice,
    reproducing the perfect-router condition and unseen-category probes.
    When a router is passed too, `classify_pooled` still runs and its scores
    are recorded; the router may be None only with force_branch. The parser
    and router must have been built against the same taxonomy.
    """
    tax = parser.taxonomy
    if router is not None:
        if router.digest != tax.digest():
            raise ContractViolation("router and parser were built for different taxonomies")
        routed, scores = classify_pooled(router, sketch)
    else:
        routed, scores = None, None
    if force_branch is not None:
        branch = tax.branch_index(force_branch)
    elif routed is not None:
        branch = routed
    else:
        raise ContractViolation("need a router or an explicit branch")

    labelmap, pose = infer(parser, branch, sketch)
    if category is not None and category not in tax.categories:
        category = None
    summary = summarize(labelmap, tax, branch, pose, category=category)
    record = {
        "format_version": RECORD_VERSION,
        "category": category,
        "supercategory": tax.branch_names[branch],
        "pose": pose,
        "part_counts": summary.part_counts,
        "description": describe(summary),
        "router_scores": None if scores is None else [float(s) for s in scores],
    }
    return record, labelmap

