"""End-to-end orchestration: route, parse, describe. The one home of the
parse record, which `infer_record` builds, `write_record` writes for `infer`
and `read_record` reads back for `eval`."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .describe import describe
from .errors import ConfigError, ContractViolation
from .imaging import label_runs
from .model import infer
from .poses import POSES
from .router import classify_pooled

RECORD_VERSION = 1


def part_counts(labelmap, taxonomy, branch):
    """Connected-instance counts keyed by part name, in branch id order:
    the part ids of the labeller's components, counted per id.

    A part id past the branch's parts breaks the contract.
    """
    names = taxonomy.part_names(branch)
    counts = taxonomy.label_counts(label_runs(labelmap.labels).part_ids, branch)
    return {names[pid - 1]: int(counts[pid]) for pid in np.flatnonzero(counts)}


def summarize(labelmap, taxonomy, branch, pose, category=None):
    """The record's summary fields of one parse, in record order."""
    return {
        "category": category,
        "supercategory": taxonomy.branch_names[branch],
        "pose": pose,
        "part_counts": part_counts(labelmap, taxonomy, branch),
    }


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
        **summary,
        "description": describe(summary),
        "router_scores": None if scores is None else [float(s) for s in scores],
    }
    return record, labelmap


def write_record(path, record):
    """Write a record as indented JSON and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def read_record(path, taxonomy):
    """(pose, branch) of the record at `path`; the branch, from its
    supercategory, is None where the record names none. A record whose
    format_version is missing or is not RECORD_VERSION is refused."""
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    pose = record.get("pose") if isinstance(record, dict) else None
    if not isinstance(pose, str):
        raise ConfigError(f'{path}: expected a JSON object with a string "pose"')
    if pose not in POSES:
        raise ConfigError(f"{path}: unknown pose {pose!r}")
    branch = None
    if "supercategory" in record:
        if record["supercategory"] not in taxonomy.branch_names:
            raise ConfigError(f"{path}: supercategory {record['supercategory']!r} is not one "
                              f"of the taxonomy's {taxonomy.branch_names}")
        branch = taxonomy.branch_index(record["supercategory"])
    version = record.get("format_version")
    if type(version) is not int or version != RECORD_VERSION:
        found = f"format_version {version!r}" if "format_version" in record else "no format_version"
        raise ConfigError(f"{path}: {found}; expected format_version {RECORD_VERSION}")
    return pose, branch
