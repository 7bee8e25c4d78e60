"""Command-line surface.

Subcommands cover the full pipeline: gen-corpus, sketchify, train-parser,
train-router, infer, eval, rerank, describe, selfcheck. Every run with the
same seeds and inputs writes byte-identical outputs. Run settings come from
flags alone: a flag left out takes the default of the corpus.CorpusSpec,
training.TrainPlan or training.RouterPlan field it sets.

Every command reads samples by the one layout rule that the corpus module
states. --train, --sketches and --gt each take any path inside a corpus or a
tree of corpora, a root, a category folder or one file, and read that slice
of it, with its names, categories and poses. In a folder with no .sketch.pgm
under it, --sketches takes every .pgm but a label map or a prediction. infer
writes each sketch's map and record under --out by the sketch's name, as
cat/0000.pred.pgm and cat/0000.json for cat/0000.sketch.pgm; eval reads them
by that name under --pred (the record's fields and file format are the
pipeline module's), and rerank reads each candidate id's label map under
--db and refuses a query or candidate map holding an id past every branch's
parts, as a sketch's ink does. eval scores a prediction whose record names
another super-category than its category's by part name, in the truth's
ids, and refuses a ground-truth map or a prediction that holds a part id
its branch lacks: the truth's category's branch, and the branch the
prediction's record names, else the truth's.

A folder the CLI writes names the taxonomy of what it holds in its
taxonomy.tax, and a command takes its taxonomy from what it is given
(corpus.read_taxonomy): a file or sub-folder with no taxonomy.tax under it
reads the nearest one above it. gen-corpus draws with --taxonomy, else the
default, and is the one command that takes the flag. train-parser and
train-router read the taxonomy of their --train tree, infer that of its
--model checkpoint's run folder, and describe that of the folder holding
--labels, a corpus or infer's --out. train-parser, train-router and infer
write theirs into --out, and refuse an --out whose taxonomy.tax names
another taxonomy before they start. eval refuses a --pred and --gt, and
rerank a --db and query, whose taxonomies differ, before it prints.

BLAS runs on one thread unless the environment sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS: under threaded BLAS a GEMM may sum in
another order, so train-router would write other weights, and pooled
routing's two lanes would compete with BLAS's threads for the same CPUs.
"""

from __future__ import annotations

import os

# before any import that loads numpy, which reads them once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import sys
from pathlib import Path

from .augment import sketchify
from .checks import run_selfcheck
from .corpus import (DEFAULT_TAXONOMY_TEXT, LABELS, PRED, RECORD, SKETCH, CorpusSpec,
                     category_of, check_one_taxonomy, check_taxonomy_root, gen_corpus,
                     load_corpus, read_poses, read_taxonomy, sample_files, sample_path,
                     sketch_files, write_taxonomy)
from .describe import describe
from .errors import ConfigError, ContractViolation, SketchpartsError, TaxonomyMismatch
from .graphmatch import rerank
from .imaging import LabelMap, Raster
from .metrics import iou_report, pose_eval
from .model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from .pgm import read_pgm, write_pgm
from .pipeline import infer_record, read_record, summarize, write_record
from .poses import POSES
from .router import build_router, load_router, save_router
from .taxonomy import load_taxonomy, load_taxonomy_file
from .training import RouterPlan, TrainPlan, train_parser, train_router


def _given(**flags):
    """The flags that were given, so the plan's own defaults fill the rest."""
    return {k: v for k, v in flags.items() if v is not None}


def cmd_gen_corpus(args):
    if args.taxonomy:
        tax = load_taxonomy_file(args.taxonomy)
    else:
        tax = load_taxonomy(DEFAULT_TAXONOMY_TEXT)
    categories = tuple(args.categories.split(",")) if args.categories else None
    spec = CorpusSpec(
        tax,
        per_category=args.per_category,
        seed=args.seed,
        **_given(image_size=args.size, categories=categories),
    )
    written = gen_corpus(spec, args.out)
    print(f"wrote {len(written)} samples under {args.out}")
    return 0


def cmd_sketchify(args):
    photo = Raster(read_pgm(args.photo))
    labels = LabelMap(read_pgm(args.labels))
    out = sketchify(photo, labels)
    write_pgm(args.out, out.pixels)
    print(f"wrote {args.out}")
    return 0


def _save_run(args, plan, log, save, net, tax, checkpoint, log_csv):
    """Write the trained net, its loss log, one column per log key, and last
    its taxonomy under --out."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save(net, out / checkpoint)
    with open(out / log_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(log[0]))
        for row in log:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    write_taxonomy(out, tax)
    print(f"trained {plan.iterations} iterations; wrote {out / checkpoint}")
    return 0


def cmd_train_parser(args):
    plan = TrainPlan(
        seed=args.seed,
        **_given(
            iterations=args.iterations,
            lr=args.lr,
            lam=args.lam,
            freeze=("shared",) if args.freeze_shared else None,
        ),
    )
    tax = read_taxonomy(args.train)  # after the plan, so a bad flag value is refused first
    check_taxonomy_root(args.out, tax)
    samples = load_corpus(args.train)
    if args.init:
        model = load_checkpoint(args.init, ModelConfig(), tax)
    else:
        model = build_model(ModelConfig(), tax, seed=plan.seed)
    log = train_parser(model, samples, plan)
    return _save_run(args, plan, log, save_checkpoint, model, tax, "model.ckpt",
                     "train_log.csv")


def cmd_train_router(args):
    plan = RouterPlan(
        seed=args.seed, **_given(iterations=args.iterations, lr=args.lr, batch_size=args.batch_size)
    )
    tax = read_taxonomy(args.train)
    check_taxonomy_root(args.out, tax)
    labelled = [(s.sketch, tax.branch_of(s.category)) for s in load_corpus(args.train)]
    net = build_router(tax.num_branches, seed=plan.seed, digest=tax.digest())
    log = train_router(net, labelled, plan)
    return _save_run(args, plan, log, save_router, net, tax, "router.ckpt", "router_log.csv")


def cmd_infer(args):
    tax = read_taxonomy(args.model)
    check_taxonomy_root(args.out, tax)
    try:
        parser = load_checkpoint(args.model, ModelConfig(), tax)
    except TaxonomyMismatch as exc:
        raise ConfigError(f"{exc}; the model's taxonomy is the nearest taxonomy.tax beside "
                          "or above it, so a checkpoint moved out of its run folder needs "
                          "that folder's taxonomy.tax beside it") from None
    router = None
    if args.router:
        router = load_router(args.router, tax.num_branches, expected_digest=tax.digest())
    elif not args.force_branch:
        raise ContractViolation("infer needs --router or --force-branch")
    sketches = sketch_files(args.sketches)
    if not sketches:
        raise ConfigError(f"no sketches under {args.sketches}")
    out = Path(args.out)
    for name, path in sketches:
        record, labelmap = infer_record(
            parser, router, Raster(read_pgm(path)), force_branch=args.force_branch,
            category=category_of(path),  # a folder that names no category records None
        )
        pred_path = sample_path(out, name, PRED)
        pred_path.parent.mkdir(parents=True, exist_ok=True)
        write_pgm(pred_path, labelmap.labels)
        write_record(sample_path(out, name, RECORD), record)
    write_taxonomy(out, tax)
    print(f"wrote predictions under {out}")
    return 0


def cmd_eval(args):
    tax = check_one_taxonomy([args.pred, args.gt])
    pairs = []
    pose_preds, pose_truths = [], []
    poses = read_poses(args.gt)
    for name, gt_path in sample_files(args.gt, LABELS):
        pred_path = sample_path(args.pred, name, PRED)
        if not pred_path.exists():
            # a label map at the ground truth's own path
            pred_path = sample_path(args.pred, name, LABELS)
            if not pred_path.exists():
                raise ConfigError(f"no prediction found for {gt_path}")
        pred, gt = LabelMap(read_pgm(pred_path)), LabelMap(read_pgm(gt_path))
        if pred.labels.shape != gt.labels.shape:
            raise ConfigError(f"{pred_path} is {pred.width}x{pred.height} but its ground "
                              f"truth is {gt.width}x{gt.height}")
        category = category_of(gt_path)
        json_path = sample_path(args.pred, name, RECORD)
        pose, branch = read_record(json_path, tax) if json_path.exists() else (None, None)
        truth_branch = tax.branch_of(category) if category in tax.categories else None
        if branch is None:
            branch = truth_branch
        # a map holding an id its branch lacks is refused, not scored
        for lm, b, path in ((gt, truth_branch, gt_path), (pred, branch, pred_path)):
            if b is not None:
                tax.label_counts(lm.labels, b, path)
        # a map parsed by another expert is scored by part name, in the truth's ids
        if truth_branch is not None and branch != truth_branch:
            pred = LabelMap(tax.part_id_table(branch, truth_branch)[pred.labels])
        pairs.append((category, pred, gt))
        truth = poses.get(f"{name}{SKETCH}")
        if pose is not None and truth is not None:
            pose_preds.append(pose)
            pose_truths.append(truth)
    if not pairs:
        raise ConfigError(f"no ground-truth label maps under {args.gt}")
    report = iou_report(pairs)
    print(report.table())
    outputs = {}
    if pose_preds:
        pose_report = pose_eval(pose_preds, pose_truths)
        print(pose_report.table())
        outputs["pose.csv"] = pose_report.csv()
    outputs["iou.csv"] = report.csv()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (out / name).write_text(text, encoding="utf-8")
    return 0


def _read_part_map(path, most):
    """The label map at `path`, refused unless its ids are part ids of some
    branch, `most` parts the largest: a sketch's ink reads as id 255."""
    lm = LabelMap(read_pgm(path))
    top = int(lm.labels.max(initial=0))
    if top > most:
        raise ConfigError(f"{path} holds part id {top}, but no branch of its taxonomy has "
                          f"more than {most} parts; is it a label map?")
    return lm


def cmd_rerank(args):
    if len(args.query) != len(args.ranking):
        raise ConfigError(
            f"--query names {len(args.query)} sketches but --ranking names "
            f"{len(args.ranking)} files; give one ranking per query"
        )
    tax = check_one_taxonomy([args.db, *args.query])
    most = max(tax.n_parts(b) for b in range(tax.num_branches))
    # Each gallery map is read once and shared by every query that ranks it,
    # so graphmatch.graph_of builds its part graph once per run.
    gallery = {}
    blocks = []
    for query_path, ranking_path in zip(args.query, args.ranking):
        query = _read_part_map(query_path, most)
        try:
            text = Path(ranking_path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{ranking_path} is not UTF-8 text (byte {exc.start})") from None
        candidates = []
        listed = {}  # candidate id -> its line in the ranking
        for n, cid in enumerate((line.strip() for line in text.splitlines()), start=1):
            if not cid:
                continue
            if cid in listed:
                raise ConfigError(f"{ranking_path} lists {cid} twice, on lines {listed[cid]} "
                                  f"and {n}")
            listed[cid] = n
            if cid not in gallery:
                path = sample_path(args.db, cid, LABELS)
                if not path.exists():
                    raise ConfigError(f"candidate label map {path} does not exist")
                gallery[cid] = _read_part_map(path, most)
            candidates.append((cid, gallery[cid]))
        blocks.append("\n".join(rerank(query, candidates, top_t=args.top)) + "\n")
    text = "\n".join(blocks)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_describe(args):
    tax = read_taxonomy(args.labels)
    labels = LabelMap(read_pgm(args.labels))
    if args.category:
        branch = tax.branch_of(args.category)
    else:
        branch = tax.branch_index(args.supercategory)
    print(describe(summarize(labels, tax, branch, args.pose, category=args.category)))
    return 0


def cmd_selfcheck(args):
    results = run_selfcheck(args.seed)
    failed = 0
    for name, ok, detail in results:
        mark = "ok  " if ok else "FAIL"
        line = f"{mark} {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_arg_parser():
    p = argparse.ArgumentParser(prog="sketchparts", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-corpus", help="write a synthetic paired corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--taxonomy", default=None,
                    help="the taxonomy file to draw with, else the default; written to "
                         "--out/taxonomy.tax")
    sp.add_argument("--per-category", type=int, default=10)
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--categories", default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_gen_corpus)

    sp = sub.add_parser("sketchify", help="photo + labels -> sketchified raster")
    sp.add_argument("--photo", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_sketchify)

    train_help = ("any path inside a corpus or a tree of corpora: a root, a category folder "
                  "or one sketch; every poses.csv under it, else the nearest above it, lists "
                  "its samples, and every taxonomy.tax under it must name one taxonomy, else "
                  "the nearest above it, else the default")
    out_help = ("the run folder: the checkpoint, its loss log and the --train tree's "
                "taxonomy.tax")
    sp = sub.add_parser("train-parser", help="train the routed part parser")
    sp.add_argument("--train", required=True, help=train_help)
    sp.add_argument("--out", required=True, help=out_help)
    sp.add_argument("--init", default=None, help="checkpoint to fine-tune from")
    sp.add_argument("--iterations", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None,
                    help="the body's learning rate; the heads train at fixed multiples of it")
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--freeze-shared", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_train_parser)

    sp = sub.add_parser("train-router", help="train the super-category classifier")
    sp.add_argument("--train", required=True, help=train_help)
    sp.add_argument("--out", required=True, help=out_help)
    sp.add_argument("--iterations", type=int, default=None)
    sp.add_argument("--lr", type=float, default=None)
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_train_router)

    sp = sub.add_parser("infer", help="route and parse sketches")
    sp.add_argument("--model", required=True,
                    help="a train-parser checkpoint; its taxonomy is the nearest taxonomy.tax "
                         "beside or above it, its run folder's")
    sp.add_argument("--router", default=None,
                    help="a train-router checkpoint trained on the model's taxonomy")
    sp.add_argument("--sketches", required=True,
                    help="a sketch, or a folder: its .sketch.pgm files, else every .pgm in it "
                         "but a label map or a prediction; each is named by its path less "
                         "the suffix, relative to the folder or to a file's own folder")
    sp.add_argument("--out", required=True,
                    help="<name>.pred.pgm and <name>.json for each sketch <name>, "
                         "and the model's taxonomy.tax")
    sp.add_argument("--force-branch", default=None)
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("eval", help="IOU, 8-way and 4-way pose reports for predictions")
    sp.add_argument("--pred", required=True,
                    help="infer's --out: <name>.pred.pgm, else <name>.labels.pgm, and "
                         "<name>.json per ground-truth map <name>; its taxonomy must be --gt's")
    sp.add_argument("--gt", required=True,
                    help="any path inside a corpus or a tree of corpora: its <name>.labels.pgm "
                         "maps, each scored under the category of the folder that holds it, "
                         "and the poses of every poses.csv under it, else the nearest above it; "
                         "a map holding a part id its category's branch lacks is refused")
    sp.add_argument("--out", default=None, help="directory for iou.csv and pose.csv")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("rerank", help="re-rank retrieval results by part graphs")
    sp.add_argument("--query", required=True, nargs="+", help="query label maps")
    sp.add_argument("--ranking", required=True, nargs="+",
                    help="one file of candidate ids per query, best first, each id once")
    sp.add_argument("--db", required=True,
                    help="the folder that holds <id>.labels.pgm for each candidate id; its "
                         "taxonomy must be each query's")
    sp.add_argument("--top", type=int, default=50)
    sp.add_argument("--out", default=None,
                    help="re-ranked lists in query order, separated by a blank line")
    sp.set_defaults(fn=cmd_rerank)

    sp = sub.add_parser("describe", help="template description for a label map")
    sp.add_argument("--labels", required=True,
                    help="a label map; its taxonomy is the nearest taxonomy.tax above it, "
                         "that of its corpus or of infer's --out, else the default")
    names = sp.add_mutually_exclusive_group(required=True)
    names.add_argument("--category")
    names.add_argument("--supercategory", help="for a sketch of no known category")
    sp.add_argument("--pose", required=True, choices=POSES)
    sp.set_defaults(fn=cmd_describe)

    sp = sub.add_parser("selfcheck", help="run the invariant suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_selfcheck)

    return p


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SketchpartsError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
