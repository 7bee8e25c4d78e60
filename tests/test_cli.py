import argparse
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sketchparts import autograd, cli
from sketchparts.checks import run_selfcheck
from sketchparts.cli import main
from sketchparts.corpus import DEFAULT_TAXONOMY_TEXT, CorpusSpec, gen_corpus
from sketchparts.errors import ConfigError
from sketchparts.imaging import LabelMap
from sketchparts.metrics import sketch_iou
from sketchparts.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from sketchparts.pgm import read_pgm, write_pgm
from sketchparts.checkpoint import write_checkpoint
from sketchparts.router import build_router, load_router, save_router
from sketchparts.taxonomy import load_taxonomy
from sketchparts.training import RouterPlan, TrainPlan

from test_corpus import BAD_POSES_CSV, POSES_CSV_IDS

TAX = load_taxonomy(DEFAULT_TAXONOMY_TEXT)


@pytest.fixture()
def small_corpus(tmp_path):
    root = tmp_path / "corpus"
    gen_corpus(CorpusSpec(TAX, per_category=2, seed=3, categories=("cat", "car")), root)
    return root


def test_gen_corpus_cli(tmp_path):
    out = tmp_path / "c"
    rc = main(
        ["gen-corpus", "--out", str(out), "--per-category", "2", "--seed", "1",
         "--categories", "cat,bird", "--size", "47"]  # an odd side
    )
    assert rc == 0
    sketches = list(out.rglob("*.sketch.pgm"))
    assert len(sketches) == 4
    assert {read_pgm(p).shape for p in sketches} == {(47, 47)}
    assert (out / "poses.csv").exists()
    assert (out / "taxonomy.tax").exists()


def test_gen_corpus_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["gen-corpus", "--out", str(out), "--per-category", "2", "--seed", "9",
              "--categories", "dog"])
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert fa == fb
    for rel in fa:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_sketchify_cli(tmp_path):
    photo = np.full((32, 32), 200, dtype=np.uint8)
    labels = np.zeros((32, 32), dtype=np.uint8)
    labels[8:24, 8:24] = 1
    write_pgm(tmp_path / "p.pgm", photo)
    write_pgm(tmp_path / "l.pgm", labels)
    rc = main(
        ["sketchify", "--photo", str(tmp_path / "p.pgm"), "--labels", str(tmp_path / "l.pgm"),
         "--out", str(tmp_path / "s.pgm")]
    )
    assert rc == 0
    assert read_pgm(tmp_path / "s.pgm").any()


def test_infer_and_eval_cli(small_corpus, tmp_path, capsys):
    model = build_model(ModelConfig(), TAX, seed=1)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, ckpt)
    out = tmp_path / "preds"
    rc = main(
        ["infer", "--model", str(ckpt), "--sketches", str(small_corpus),
         "--out", str(out), "--force-branch", "Small Animals"]
    )
    assert rc == 0
    # the predictions mirror the sketch tree: cat/0000.sketch.pgm -> cat/0000.pred.pgm
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == [f"{c}/{i}.{kind}" for c in ("car", "cat") for i in ("0000", "0001")
                       for kind in ("json", "pred.pgm")] + ["taxonomy.tax"]
    assert (out / "taxonomy.tax").read_text() == TAX.to_text()
    preds = sorted(out.rglob("*.pred.pgm"))
    record = json.loads((out / "cat" / "0000.json").read_text())
    assert list(record) == ["format_version", "category", "supercategory", "pose",
                            "part_counts", "description", "router_scores"]
    assert record["format_version"] == 1
    assert record["supercategory"] == "Small Animals"
    assert record["pose"] in {"N", "NE", "E", "SE", "S", "SW", "W", "NW"}
    # describe of the same map and pose prints the record's own sentence
    capsys.readouterr()
    assert main(["describe", "--labels", str(out / "cat" / "0000.pred.pgm"),
                 "--category", "cat", "--pose", record["pose"]]) == 0
    assert capsys.readouterr().out == record["description"] + "\n"
    # untrained model routed to a 4-part branch: ids stay within 0..4
    assert read_pgm(preds[0]).max() <= 4
    # eval pairs each prediction with the ground truth at its relative path
    report = tmp_path / "report"
    assert main(["eval", "--pred", str(out), "--gt", str(small_corpus), "--out", str(report)]) == 0
    iou = (report / "iou.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in iou[1:]] == ["car", "cat", "GRAND"]
    assert "accuracy8," in (report / "pose.csv").read_text()


def test_infer_is_byte_deterministic(small_corpus, tmp_path):
    model = build_model(ModelConfig(), TAX, seed=2)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(model, ckpt)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        main(["infer", "--model", str(ckpt), "--sketches", str(small_corpus),
              "--out", str(out), "--force-branch", "Four Wheelers"])
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(files) == 9  # a map and a record per sketch, and the taxonomy
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_infer_unknown_forced_branch_exits_1_before_writing(small_corpus, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    out = tmp_path / "o"
    rc = main(["infer", "--model", str(ckpt), "--sketches", str(small_corpus),
               "--out", str(out), "--force-branch", "Nope"])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown super-category 'Nope'\n"
    assert not out.exists()


def test_eval_identical_dirs_perfect(small_corpus, capsys):
    rc = main(["eval", "--pred", str(small_corpus), "--gt", str(small_corpus)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.0000" in out


def test_eval_writes_csv(small_corpus, tmp_path):
    out = tmp_path / "report"
    rc = main(["eval", "--pred", str(small_corpus), "--gt", str(small_corpus),
               "--out", str(out)])
    assert rc == 0
    text = (out / "iou.csv").read_text()
    assert text.startswith("category,aiou")
    assert "GRAND,1.0" in text


def test_rerank_cli(tmp_path):
    rng = np.random.default_rng(5)
    db = tmp_path / "db"
    db.mkdir()
    ids = []
    for k in range(5):
        lm = np.zeros((16, 16), dtype=np.uint8)
        r, c = rng.integers(2, 8, size=2)
        lm[r : r + 5, c : c + 5] = 1
        write_pgm(db / f"cand{k}.labels.pgm", lm)
        ids.append(f"cand{k}")
    query = read_pgm(db / "cand3.labels.pgm")
    write_pgm(tmp_path / "query.pgm", query)
    (tmp_path / "ranking.txt").write_text("\n".join(ids) + "\n")
    rc = main(["rerank", "--query", str(tmp_path / "query.pgm"),
               "--ranking", str(tmp_path / "ranking.txt"), "--db", str(db),
               "--top", "5", "--out", str(tmp_path / "rr.txt")])
    assert rc == 0
    reordered = (tmp_path / "rr.txt").read_text().split()
    assert reordered[0] == "cand3"
    assert sorted(reordered) == sorted(ids)


def _rerank_db(tmp_path, n_cand=6, n_query=3):
    rng = np.random.default_rng(9)
    db = tmp_path / "db"
    db.mkdir()
    ids = []
    for k in range(n_cand):
        lm = np.zeros((16, 16), dtype=np.uint8)
        for part in (1, 2):
            r, c = rng.integers(1, 10, size=2)
            lm[r : r + 4, c : c + 4] = part
        write_pgm(db / f"cand{k}.labels.pgm", lm)
        ids.append(f"cand{k}")
    queries, rankings = [], []
    for q in range(n_query):
        write_pgm(tmp_path / f"q{q}.pgm", read_pgm(db / f"cand{q}.labels.pgm"))
        (tmp_path / f"r{q}.txt").write_text("\n".join(rng.permutation(ids)) + "\n")
        queries.append(str(tmp_path / f"q{q}.pgm"))
        rankings.append(str(tmp_path / f"r{q}.txt"))
    return db, queries, rankings


def test_rerank_several_queries_match_one_at_a_time(tmp_path):
    db, queries, rankings = _rerank_db(tmp_path)
    singles = []
    for k, (q, r) in enumerate(zip(queries, rankings)):
        out = tmp_path / f"one{k}.txt"
        assert main(["rerank", "--query", q, "--ranking", r, "--db", str(db),
                     "--out", str(out)]) == 0
        singles.append(out.read_text())
    out = tmp_path / "all.txt"
    assert main(["rerank", "--query", *queries, "--ranking", *rankings, "--db", str(db),
                 "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(singles)
    # --top 0 writes each ranking unchanged
    assert main(["rerank", "--query", *queries, "--ranking", *rankings, "--db", str(db),
                 "--top", "0", "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(Path(r).read_text() for r in rankings)


def test_rerank_several_queries_build_each_gallery_graph_once(tmp_path, monkeypatch):
    import sketchparts.graphmatch as gm

    db, queries, rankings = _rerank_db(tmp_path, n_cand=6, n_query=3)
    calls = []
    real = gm.build_graph
    monkeypatch.setattr(gm, "build_graph", lambda lm: calls.append(lm) or real(lm))
    assert main(["rerank", "--query", *queries, "--ranking", *rankings, "--db", str(db),
                 "--out", str(tmp_path / "all.txt")]) == 0
    # one graph per query plus one per distinct gallery map
    assert len(calls) == 3 + 6


def test_rerank_query_ranking_count_mismatch_exits_1(tmp_path, capsys):
    db, queries, rankings = _rerank_db(tmp_path)
    rc = main(["rerank", "--query", *queries, "--ranking", *rankings[:2], "--db", str(db)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "3 sketches" in err and "2 files" in err and "Traceback" not in err


def test_rerank_refuses_a_ranking_listing_a_candidate_twice(tmp_path, capsys):
    """The second query's ranking names cand2 on lines 2 and 5, a blank line
    between; nothing is printed, not even the first query's ranking."""
    db, queries, rankings = _rerank_db(tmp_path)
    Path(rankings[1]).write_text("cand0\ncand2\ncand1\n\ncand2\ncand3\n")
    rc = main(["rerank", "--query", *queries, "--ranking", *rankings, "--db", str(db)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {rankings[1]} lists cand2 twice, on lines 2 and 5\n"
    assert captured.out == ""


@pytest.mark.parametrize("given_as", ["query", "candidate"])
def test_rerank_refuses_a_sketch_given_as_a_label_map(small_corpus, tmp_path, capsys, given_as):
    """A sketch's ink reads as part id 255, past every branch's parts (at
    most 4 in the default taxonomy); nothing is printed."""
    sketch = small_corpus / "car" / "0001.sketch.pgm"
    query = small_corpus / "cat" / "0000.labels.pgm"
    if given_as == "query":
        query = sketch
    else:
        (small_corpus / "car" / "0001.labels.pgm").write_bytes(sketch.read_bytes())
    (tmp_path / "ranking.txt").write_text("cat/0000\ncar/0001\ncat/0001\n")
    rc = main(["rerank", "--query", str(query), "--ranking", str(tmp_path / "ranking.txt"),
               "--db", str(small_corpus)])
    assert rc == 1
    refused = sketch if given_as == "query" else small_corpus / "car" / "0001.labels.pgm"
    captured = capsys.readouterr()
    assert captured.err == (f"error: {refused} holds part id 255, but no branch of its "
                            "taxonomy has more than 4 parts; is it a label map?\n")
    assert captured.out == ""


def test_rerank_default_top_is_50(tmp_path, capsys):
    db = tmp_path / "db"
    db.mkdir()
    lm = np.zeros((8, 8), dtype=np.uint8)
    lm[2:6, 2:6] = 1
    write_pgm(db / "only.labels.pgm", lm)
    write_pgm(tmp_path / "q.pgm", lm)
    (tmp_path / "r.txt").write_text("only\n")
    rc = main(["rerank", "--query", str(tmp_path / "q.pgm"),
               "--ranking", str(tmp_path / "r.txt"), "--db", str(db)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "only"


def test_describe_cli(tmp_path, capsys):
    lm = np.zeros((32, 32), dtype=np.uint8)
    lm[4:12, 4:12] = 1  # head
    lm[14:26, 4:28] = 2  # body
    write_pgm(tmp_path / "l.pgm", lm)
    rc = main(["describe", "--labels", str(tmp_path / "l.pgm"), "--category", "cat",
               "--pose", "W"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("This is a sketch of a cat (a Small Animal) facing west")
    assert "one head" in text and "one body" in text


def test_describe_names_a_supercategory_alone(tmp_path, capsys):
    lm = np.zeros((32, 32), dtype=np.uint8)
    lm[4:12, 4:12] = 1
    write_pgm(tmp_path / "l.pgm", lm)
    (tmp_path / "taxonomy.tax").write_text(REVERSED_CAT_TAX)
    assert main(["describe", "--labels", str(tmp_path / "l.pgm"), "--supercategory", "Pets",
                 "--pose", "N"]) == 0
    assert capsys.readouterr().out == "This is a sketch of a Pet facing north, with one tail.\n"


@pytest.mark.parametrize("names", [["--category", "cat", "--supercategory", "Nope"], []])
def test_describe_takes_a_category_or_a_supercategory(tmp_path, capsys, names):
    lm = tmp_path / "l.pgm"
    write_pgm(lm, np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--labels", str(lm), *names, "--pose", "E"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("not allowed with argument" if names else "one of the arguments") in err


def test_describe_refuses_a_part_id_outside_the_branch(tmp_path, capsys):
    lm = np.zeros((32, 32), dtype=np.uint8)
    lm[4:12, 4:12] = 1  # head
    lm[14:26, 4:28] = 9  # cat's branch has parts 1..4
    write_pgm(tmp_path / "l.pgm", lm)
    rc = main(["describe", "--labels", str(tmp_path / "l.pgm"), "--category", "cat",
               "--pose", "W"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "part id 9" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_selfcheck_cli(capsys, seed):
    rc = main(["selfcheck", "--seed", str(seed)])
    assert rc == 0
    assert capsys.readouterr().out == (
        "ok   gradients-vs-finite-differences\n"
        "ok   class-balance-oracle\n"
        "ok   iou-oracle\n"
        "ok   rrwm-permutation-oracle\n"
        "4/4 checks passed\n"
    )


@pytest.mark.parametrize(
    "module,name,check,perturb",
    [
        ("metrics", "sketch_iou", "iou-oracle", lambda got: (got[0], got[1] + 1e-9)),
        ("training", "compute_class_balance", "class-balance-oracle",
         lambda got: got * (1 + 1e-9)),
        ("graphmatch", "rrwm_match", "rrwm-permutation-oracle",
         lambda got: type(got)({}, got.score, got.converged, got.relaxed)),
    ],
)
def test_selfcheck_fails_on_a_perturbed_result(monkeypatch, capsys, module, name, check, perturb):
    mod = importlib.import_module(f"sketchparts.{module}")
    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *args, **kwargs: perturb(real(*args, **kwargs)))
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check}" in out
    assert "3/4 checks passed" in out


def test_selfcheck_names_the_gradient_case_a_wrong_backward_fails(monkeypatch, capsys):
    def relu_doubling_its_gradient(x):
        out = autograd.Tensor(np.maximum(x.data, 0))
        autograd._record(out, (x,), lambda g: (2 * g * (x.data > 0),))
        return out

    monkeypatch.setattr(autograd, "relu", relu_doubling_its_gradient)
    assert main(["selfcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL gradients-vs-finite-differences (relu: gradient mismatch: rel err" in out
    assert "3/4 checks passed" in out


def test_selfcheck_deterministic_output(capsys):
    main(["selfcheck", "--seed", "4"])
    first = capsys.readouterr().out
    main(["selfcheck", "--seed", "4"])
    second = capsys.readouterr().out
    assert first == second


def test_unknown_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--out", str(tmp_path / "c"), "--nonsense"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nonsense" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("train-parser", "--no-class-balance"),
        ("train-parser", "--no-balance-background"),
        ("train-router", "--no-augment"),
        ("train-parser", "--lr-body"),
        ("train-parser", "--lr-seg"),
        ("train-parser", "--lr-pose"),
        ("eval", "--merge4"),
        ("gen-corpus", "--config"),
        ("train-parser", "--config"),
        ("train-router", "--config"),
        ("train-parser", "--taxonomy"),
        ("train-router", "--taxonomy"),
        ("infer", "--taxonomy"),
        ("describe", "--taxonomy"),
    ],
)
def test_retired_switch_flag_exits_2(tmp_path, capsys, command, flag):
    if command == "eval":
        required = ["--pred", str(tmp_path), "--gt", str(tmp_path)]
    elif command == "gen-corpus":
        required = ["--out", str(tmp_path / "run")]
    elif command == "infer":
        required = ["--model", str(tmp_path / "m.ckpt"), "--sketches", str(tmp_path),
                    "--out", str(tmp_path / "run")]
    elif command == "describe":
        required = ["--labels", str(tmp_path / "l.pgm"), "--category", "cat", "--pose", "E"]
    else:
        required = ["--train", str(tmp_path), "--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_contract_violation_exits_1(tmp_path, capsys):
    rc = main(["infer", "--model", str(tmp_path / "missing.ckpt"),
               "--sketches", str(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_infer_bad_pgm_header_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    sketches = tmp_path / "sketches"
    sketches.mkdir()
    (sketches / "broken.sketch.pgm").write_bytes(b"P5\nwide 8\n255\n" + bytes(64))
    rc = main(["infer", "--model", str(ckpt), "--sketches", str(sketches),
               "--out", str(tmp_path / "o"), "--force-branch", "Small Animals"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "broken.sketch.pgm" in err and "width" in err
    assert "Traceback" not in err


def test_infer_mirrors_a_tree_of_two_corpora_and_eval_scores_it(tmp_path, capsys):
    """train/cat/0000 and test/cat/0000 share a category and a stem; each
    gets its own prediction and eval scores both."""
    data = tmp_path / "data"
    for split, seed in (("train", "1"), ("test", "2")):
        assert main(["gen-corpus", "--out", str(data / split), "--per-category", "1",
                     "--categories", "cat,car", "--seed", seed]) == 0
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    out = tmp_path / "out"
    assert main(["infer", "--model", str(ckpt), "--sketches", str(data), "--out", str(out),
                 "--force-branch", "Small Animals"]) == 0
    preds = sorted(str(p.relative_to(out)) for p in out.rglob("*.pred.pgm"))
    assert preds == [f"{split}/{c}/0000.pred.pgm" for split in ("test", "train")
                     for c in ("car", "cat")]
    for split in ("test", "train"):
        assert (out / split / "cat" / "0000.json").exists()
    # eval refuses a ground-truth map with no prediction, so 0 means all four were scored
    # and it reads each corpus's own poses.csv, so all four poses are scored
    report = tmp_path / "report"
    assert main(["eval", "--pred", str(out), "--gt", str(data), "--out", str(report)]) == 0
    iou = (report / "iou.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in iou[1:]] == ["car", "cat", "GRAND"]
    printed = capsys.readouterr().out
    assert "8-way accuracy: " in printed and "4-way accuracy: " in printed
    pose = (report / "pose.csv").read_text().splitlines()
    assert sum(int(v) for row in pose[1:9] for v in row.split(",")[1:]) == 4
    assert sum(int(v) for row in pose[11:15] for v in row.split(",")[1:]) == 4


@pytest.mark.parametrize("gt", ["cat", "cat/0000.labels.pgm"])
def test_eval_scores_a_category_folder_under_its_category(small_corpus, tmp_path, capsys, gt):
    """--gt <corpus>/cat, or one label map in it: each map is scored as a
    cat, and its pose comes from the corpus's poses.csv above the folder."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    out = tmp_path / "pc"
    assert main(["infer", "--model", str(ckpt), "--sketches", str(small_corpus / "cat"),
                 "--out", str(out), "--force-branch", "Small Animals"]) == 0
    assert json.loads((out / "0000.json").read_text())["category"] == "cat"
    capsys.readouterr()
    assert main(["eval", "--pred", str(out), "--gt", str(small_corpus / gt)]) == 0
    printed = capsys.readouterr().out
    assert [row.split()[0] for row in printed.splitlines()[1:3]] == ["cat", "AVG"]
    assert "8-way accuracy: " in printed and "4-way accuracy: " in printed


@pytest.mark.parametrize("command,flags", [
    ("train-parser", []),
    ("train-router", ["--batch-size", "2"]),
])
def test_training_takes_a_category_folder(small_corpus, tmp_path, command, flags):
    """--train <corpus>/cat reads its sketches' rows of the poses.csv above it."""
    assert main([command, "--train", str(small_corpus / "cat"), "--out", str(tmp_path / "run"),
                 "--iterations", "1", *flags]) == 0


def test_infer_names_plain_pgm_sketches_and_skips_label_maps(small_corpus, tmp_path):
    """A folder with no .sketch.pgm: each other .pgm is a sketch named less
    .pgm, and a .labels.pgm or .pred.pgm beside them is not one."""
    sketches = tmp_path / "loose"
    sketches.mkdir()
    for name, rel in (("a.pgm", "cat/0000.sketch.pgm"), ("b.pgm", "car/0001.sketch.pgm"),
                      ("c.labels.pgm", "cat/0000.labels.pgm"),
                      ("d.pred.pgm", "cat/0000.labels.pgm")):
        (sketches / name).write_bytes((small_corpus / rel).read_bytes())
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    out = tmp_path / "preds"
    assert main(["infer", "--model", str(ckpt), "--sketches", str(sketches), "--out", str(out),
                 "--force-branch", "Small Animals"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "a.json", "a.pred.pgm", "b.json", "b.pred.pgm", "taxonomy.tax"]


def test_eval_refuses_a_sketch_given_two_poses(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-corpus", "--out", str(data / "a"), "--per-category", "1",
                 "--categories", "cat", "--seed", "1"]) == 0
    rel, pose = (data / "a" / "poses.csv").read_text().splitlines()[1].split(",")
    other = "N" if pose != "N" else "S"
    (data / "poses.csv").write_text(f"relative_path,pose\na/{rel},{other}\n")
    capsys.readouterr()
    rc = main(["eval", "--pred", str(data), "--gt", str(data)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: a/{rel} has pose {pose!r} in {data / 'a' / 'poses.csv'} line 2 "
        f"but {other!r} in {data / 'poses.csv'} line 2\n"
    )


def test_training_takes_a_tree_of_corpora(tmp_path, capsys):
    data = tmp_path / "data"
    for sub, seed in (("a", "1"), ("b", "2")):
        assert main(["gen-corpus", "--out", str(data / sub), "--per-category", "1",
                     "--categories", "cat,car", "--size", "32", "--seed", seed]) == 0
    assert main(["train-parser", "--train", str(data), "--out", str(tmp_path / "p"),
                 "--iterations", "1"]) == 0
    assert main(["train-router", "--train", str(data), "--out", str(tmp_path / "r"),
                 "--iterations", "1", "--batch-size", "4"]) == 0
    # the same sketch given another pose one level up is refused, naming both rows
    rel, pose = (data / "a" / "poses.csv").read_text().splitlines()[1].split(",")
    other = "N" if pose != "N" else "S"
    (data / "poses.csv").write_text(f"relative_path,pose\na/{rel},{other}\n")
    capsys.readouterr()
    out = tmp_path / "p2"
    assert main(["train-parser", "--train", str(data), "--out", str(out),
                 "--iterations", "1"]) == 1
    assert capsys.readouterr().err == (
        f"error: a/{rel} has pose {pose!r} in {data / 'a' / 'poses.csv'} line 2 "
        f"but {other!r} in {data / 'poses.csv'} line 2\n"
    )
    assert not out.exists()


def test_infer_maps_have_their_sketch_sizes_at_an_odd_side(tmp_path):
    """A 47-px sketch, no multiple of the stride, gets a 47-px map at its
    relative path, through gen-corpus, train-parser and infer."""
    corpus, run, out = tmp_path / "c47", tmp_path / "p47", tmp_path / "preds47"
    assert main(["gen-corpus", "--out", str(corpus), "--per-category", "1", "--size", "47",
                 "--categories", "cat,car", "--seed", "1"]) == 0
    assert main(["train-parser", "--train", str(corpus), "--out", str(run),
                 "--iterations", "2", "--seed", "1"]) == 0
    assert main(["infer", "--model", str(run / "model.ckpt"), "--sketches", str(corpus),
                 "--out", str(out), "--force-branch", "Small Animals"]) == 0
    sketches = sorted(corpus.rglob("*.sketch.pgm"))
    assert len(sketches) == 2
    for sketch in sketches:
        rel = str(sketch.relative_to(corpus)).removesuffix(".sketch.pgm")
        assert read_pgm(out / f"{rel}.pred.pgm").shape == read_pgm(sketch).shape == (47, 47)


def test_infer_non_utf8_checkpoint_name_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    blob = bytearray(ckpt.read_bytes())
    name_at = 4 + 4 + 32 + 4 + 2  # magic, version, digest, count, name length
    blob[name_at : name_at + 2] = b"\xff\xfe"
    ckpt.write_bytes(bytes(blob))
    sketches = tmp_path / "sketches"
    sketches.mkdir()
    rc = main(["infer", "--model", str(ckpt), "--sketches", str(sketches),
               "--out", str(tmp_path / "o"), "--force-branch", "Small Animals"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt} at byte {name_at}: ") and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("train-parser", ["--lam", "-1"], "lambda must be >= 0"),
        ("train-parser", ["--lr", "nan"], "lr must be a finite number"),
        ("train-parser", ["--iterations", "0"], "iterations and lr must be positive"),
        ("train-router", ["--batch-size", "0"], "batch size must be positive"),
        ("train-router", ["--lr", "inf"], "lr must be a finite number"),
        ("train-parser", ["--lr", "0"], "iterations and lr must be positive"),
        ("train-parser", ["--lr", "-1"], "iterations and lr must be positive"),
        ("train-parser", ["--lam", "inf"], "lam must be a finite number"),
        ("train-parser", ["--lam", "nan"], "lam must be a finite number"),
        ("train-parser", ["--iterations", "-2"], "iterations must be an integer >= 0"),
        ("train-parser", ["--lr=-inf"], "lr must be a finite number"),
        ("train-parser", ["--lr", "inf"], "lr must be a finite number"),
        ("train-parser", ["--lr", "4e306"], "lr 4e+306 is too large: "),
        ("train-router", ["--iterations", "0"], "iterations, lr and batch size must be positive"),
        ("train-router", ["--lr", "0"], "iterations, lr and batch size must be positive"),
        ("train-router", ["--lr", "nan"], "lr must be a finite number"),
        ("train-router", ["--batch-size", "-3"], "batch_size must be an integer >= 0"),
        ("train-router", ["--iterations", "-1"], "iterations must be an integer >= 0"),
        ("gen-corpus", ["--per-category", "0"], "per_category must be positive"),
        ("gen-corpus", ["--size", "16"], "too small to draw on"),
        ("gen-corpus", ["--per-category", "-1"], "per_category must be an integer >= 0"),
        ("gen-corpus", ["--size", "4096"], "above the maximum of 2048"),
        ("gen-corpus", ["--categories", "nope"], "no figure template for category 'nope'"),
        ("gen-corpus", ["--categories", "cat,nope"], "no figure template for category 'nope'"),
        ("gen-corpus", ["--taxonomy", "missing.tax"], "No such file"),
        ("gen-corpus", ["--taxonomy", "wide.tax"], "over 255 parts"),  # part ids are 8-bit
        # 2**60: past the most int64 draws one numpy array holds
        ("train-router", ["--batch-size", "1152921504606846976"], "batch_size must be at most"),
    ],
)
def test_bad_flag_value_exits_1_writing_nothing(small_corpus, tmp_path, capsys, monkeypatch,
                                                command, flags, message):
    monkeypatch.chdir(tmp_path)
    parts = ", ".join(f"p{k}" for k in range(256))
    Path("wide.tax").write_text(f"super Small Animals\ncat cat : {parts}\n")
    out = tmp_path / "run"
    required = ["--out", str(out)]
    if command != "gen-corpus":
        required += ["--train", str(small_corpus)]
    rc = main([command, *required, *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,message",
    [
        ("train-parser", ["--lam", "-1"], "lambda must be >= 0"),
        ("train-router", ["--batch-size", "0"], "batch size must be positive"),
    ],
)
def test_bad_flag_value_is_refused_before_the_corpus_is_read(tmp_path, capsys, command, flags,
                                                            message):
    out = tmp_path / "run"
    rc = main([command, "--train", str(tmp_path / "missing"), "--out", str(out), *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err and "poses.csv" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command,flags,kind",
    [
        ("train-parser", ["--iterations", "2.5"], "int"),
        ("train-parser", ["--lam", "x"], "float"),
        ("train-parser", ["--seed", "1.5"], "int"),
        ("train-router", ["--batch-size", "4.0"], "int"),
        ("train-router", ["--lr", "fast"], "float"),
        ("gen-corpus", ["--per-category", "3.0"], "int"),
        ("gen-corpus", ["--size", "x"], "int"),
        ("gen-corpus", ["--seed", "x"], "int"),
        ("selfcheck", ["--seed", "2.0"], "int"),
    ],
)
def test_flag_of_the_wrong_type_exits_2(tmp_path, capsys, command, flags, kind):
    out = tmp_path / "run"
    required = {"selfcheck": [], "gen-corpus": ["--out", str(out)]}.get(
        command, ["--train", str(tmp_path), "--out", str(out)]
    )
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *flags])
    assert exc.value.code == 2
    assert f"invalid {kind} value: '{flags[1]}'" in capsys.readouterr().err
    assert not out.exists()


class _Built(Exception):
    """Carries the spec or plan a command built, before it trains or writes."""


def _built(monkeypatch, argv):
    def stop(*args):
        raise _Built(*args)

    for name in ("gen_corpus", "train_parser", "train_router"):
        monkeypatch.setattr(cli, name, stop)
    with pytest.raises(_Built) as exc:
        main(argv)
    return exc.value.args


@pytest.mark.parametrize(
    "command,flags,changed",
    [
        ("gen-corpus", [], {}),
        ("gen-corpus", ["--per-category", "3"], {"per_category": 3}),
        ("gen-corpus", ["--size", "40"], {"image_size": 40}),
        ("gen-corpus", ["--categories", "car,cat"], {"categories": ("car", "cat")}),
        ("gen-corpus", ["--seed", "9"], {"seed": 9}),
        ("train-parser", [], {}),
        ("train-parser", ["--iterations", "7"], {"iterations": 7}),
        ("train-parser", ["--lr", "0.5"], {"lr": 0.5}),
        ("train-parser", ["--lam", "0"], {"lam": 0.0}),
        ("train-parser", ["--seed", "9"], {"seed": 9}),
        ("train-parser", ["--freeze-shared"], {"freeze": ("shared",)}),
        ("train-router", [], {}),
        ("train-router", ["--iterations", "7"], {"iterations": 7}),
        ("train-router", ["--lr", "0.5"], {"lr": 0.5}),
        ("train-router", ["--batch-size", "3"], {"batch_size": 3}),
        ("train-router", ["--seed", "9"], {"seed": 9}),
    ],
)
def test_each_flag_sets_its_field_and_the_rest_keep_their_defaults(
    small_corpus, tmp_path, monkeypatch, command, flags, changed
):
    out = tmp_path / "run"
    required = ["--out", str(out)] + (["--train", str(small_corpus)] * (command != "gen-corpus"))
    args = _built(monkeypatch, [command, *required, *flags])
    built = args[0] if command == "gen-corpus" else args[-1]
    defaults = {"per_category": 10, "seed": 0}  # argparse's, where the spec has none
    for f in dataclasses.fields(built):
        if f.name != "taxonomy":
            default = defaults[f.name] if f.default is dataclasses.MISSING else f.default
            assert getattr(built, f.name) == changed.get(f.name, default), f.name
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-parser", "train-router"])
@pytest.mark.parametrize("source", ["corpus", "tree", "default"])
def test_taxonomy_is_the_corpus_file_then_the_default(
    small_corpus, tmp_path, monkeypatch, command, source
):
    corpus_tax = (
        "super Pets\ncat cat : head, body, leg, tail\nsuper Cars\ncat car : body, wheel, window\n"
    )
    (small_corpus / "taxonomy.tax").write_text(corpus_tax)
    # the tree is tmp_path, which holds the corpus one level down
    root = tmp_path if source == "tree" else small_corpus
    if source == "default":
        (small_corpus / "taxonomy.tax").unlink()
    argv = [command, "--train", str(root), "--out", str(tmp_path / "run")]
    net = _built(monkeypatch, argv)[0]
    digest = net.taxonomy.digest() if command == "train-parser" else net.digest
    expected = DEFAULT_TAXONOMY_TEXT if source == "default" else corpus_tax
    assert digest == load_taxonomy(expected).digest()


TWO_BRANCH_TAX = (
    "# pets and vehicles only\n"
    "super Pets\ncat cat : head, body, leg, tail\n"
    "super Vehicles\ncat car : body, wheel, window\ncat bus : body, wheel, window\n"
)


def test_a_tree_drawn_with_another_taxonomy_trains_infers_and_evals_under_it(tmp_path):
    (tmp_path / "t.tax").write_text(TWO_BRANCH_TAX)
    tax = load_taxonomy(TWO_BRANCH_TAX)
    data = tmp_path / "data"
    for split, seed in (("a", "1"), ("b", "2")):
        assert main(["gen-corpus", "--out", str(data / split), "--per-category", "1",
                     "--size", "32", "--seed", seed, "--taxonomy", str(tmp_path / "t.tax")]) == 0
    assert main(["train-parser", "--train", str(data), "--out", str(tmp_path / "parser"),
                 "--iterations", "1", "--seed", "1"]) == 0
    assert main(["train-router", "--train", str(data), "--out", str(tmp_path / "router"),
                 "--iterations", "1", "--batch-size", "2", "--seed", "1"]) == 0
    # each checkpoint loads under the tree's taxonomy, which refuses any other digest
    load_checkpoint(tmp_path / "parser" / "model.ckpt", ModelConfig(), tax)
    load_router(tmp_path / "router" / "router.ckpt", tax.num_branches, tax.digest())
    out = tmp_path / "preds"
    assert main(["infer", "--model", str(tmp_path / "parser" / "model.ckpt"),
                 "--router", str(tmp_path / "router" / "router.ckpt"),
                 "--sketches", str(data), "--out", str(out)]) == 0
    assert len(list(out.rglob("*.pred.pgm"))) == 6
    assert main(["eval", "--pred", str(out), "--gt", str(data)]) == 0
    # each run folder and the predictions name the tree's taxonomy
    for folder in ("parser", "router", "preds"):
        assert (tmp_path / folder / "taxonomy.tax").read_bytes() == (
            data / "a" / "taxonomy.tax").read_bytes()


@pytest.mark.parametrize("command", ["train-parser", "train-router"])
@pytest.mark.parametrize("case", ["bad", "two"])
def test_training_refuses_a_tree_without_one_taxonomy(tmp_path, capsys, command, case):
    nested = tmp_path / "data" / "a" / "taxonomy.tax"
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=0, categories=("cat",)), nested.parent)
    if case == "bad":
        nested.write_text("super Small Animals\nbogus line\n")
        names = [f"{nested} line 2: unrecognized line 'bogus line'"]
    else:
        other = tmp_path / "data" / "b" / "taxonomy.tax"
        gen_corpus(CorpusSpec(TAX, per_category=1, seed=1, categories=("cat",)), other.parent)
        other.write_text(TWO_BRANCH_TAX)
        names = [str(nested), str(other)]
    out = tmp_path / "run"
    # one iteration bounds the run should the tree be read as one taxonomy
    rc = main([command, "--train", str(tmp_path / "data"), "--out", str(out), "--iterations", "1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert all(name in captured.err for name in names) and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


REVERSED_CAT_TAX = "super Pets\ncat cat : tail, leg, body, head\n"


@pytest.fixture()
def reversed_cat_corpus(tmp_path):
    """A corpus drawn with a taxonomy whose cat part ids run tail to head."""
    (tmp_path / "rev.tax").write_text(REVERSED_CAT_TAX)
    root = tmp_path / "b"
    assert main(["gen-corpus", "--out", str(root), "--per-category", "1", "--size", "32",
                 "--seed", "1", "--taxonomy", str(tmp_path / "rev.tax")]) == 0
    return root


def test_describe_reads_the_taxonomy_of_the_label_maps_corpus(reversed_cat_corpus, capsys):
    labels = str(reversed_cat_corpus / "cat" / "0000.labels.pgm")
    assert main(["describe", "--labels", labels, "--category", "cat", "--pose", "E"]) == 0
    assert capsys.readouterr().out == (
        "This is a sketch of a cat (a Pet) facing east, with one tail, one leg, "
        "one body and one head.\n"
    )


@pytest.fixture()
def reversed_cat_run(reversed_cat_corpus, tmp_path):
    """A parser trained on reversed_cat_corpus, in its run folder."""
    run = tmp_path / "run"
    assert main(["train-parser", "--train", str(reversed_cat_corpus), "--out", str(run),
                 "--iterations", "1", "--seed", "1"]) == 0
    return run


@pytest.mark.parametrize("sketches", ["b/cat/0000.sketch.pgm", "b/cat", "loose"])
def test_infer_reads_the_taxonomy_of_the_models_run_folder(reversed_cat_run, tmp_path, sketches):
    """A sketch in its corpus, a category folder, or a copy outside any corpus."""
    loose = tmp_path / "loose"
    loose.mkdir()
    (loose / "0000.pgm").write_bytes((tmp_path / "b/cat/0000.sketch.pgm").read_bytes())
    out = tmp_path / "preds"
    assert main(["infer", "--model", str(reversed_cat_run / "model.ckpt"),
                 "--sketches", str(tmp_path / sketches), "--out", str(out),
                 "--force-branch", "Pets"]) == 0
    assert [p.name for p in out.rglob("*.pred.pgm")] == ["0000.pred.pgm"]
    assert (out / "taxonomy.tax").read_text() == REVERSED_CAT_TAX


def test_describe_reads_the_taxonomy_of_infers_predictions(reversed_cat_run, tmp_path, capsys):
    out = tmp_path / "preds"
    assert main(["infer", "--model", str(reversed_cat_run / "model.ckpt"),
                 "--sketches", str(tmp_path / "b"), "--out", str(out),
                 "--force-branch", "Pets"]) == 0
    capsys.readouterr()
    assert main(["describe", "--labels", str(out / "cat" / "0000.pred.pgm"), "--category", "cat",
                 "--pose", "E"]) == 0
    assert capsys.readouterr().out.startswith("This is a sketch of a cat (a Pet) facing east")


def test_eval_refuses_predictions_of_another_taxonomy(small_corpus, reversed_cat_corpus,
                                                      capsys):
    capsys.readouterr()
    assert main(["eval", "--pred", str(small_corpus), "--gt", str(reversed_cat_corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {small_corpus / 'taxonomy.tax'} and "
                            f"{reversed_cat_corpus / 'taxonomy.tax'} name different "
                            "taxonomies\n")
    assert captured.out == ""


@pytest.mark.parametrize("query_in", ["corpus", "loose"])
def test_rerank_refuses_a_query_of_another_taxonomy(small_corpus, reversed_cat_corpus, tmp_path,
                                                    capsys, query_in):
    """A query in a corpus of the default taxonomy, or outside any corpus, so
    of the default too, against a --db of the reversed one."""
    query = small_corpus / "cat" / "0000.labels.pgm"
    if query_in == "loose":
        (tmp_path / "loose").mkdir()
        query = tmp_path / "loose" / "q.labels.pgm"
        query.write_bytes((small_corpus / "cat" / "0000.labels.pgm").read_bytes())
    (tmp_path / "ranking.txt").write_text("cat/0000\n")
    capsys.readouterr()
    assert main(["rerank", "--query", str(query), "--ranking", str(tmp_path / "ranking.txt"),
                 "--db", str(reversed_cat_corpus)]) == 1
    source = (small_corpus / "taxonomy.tax" if query_in == "corpus" else
              f"the default taxonomy (no taxonomy.tax under or above {query})")
    captured = capsys.readouterr()
    assert captured.err == (f"error: {reversed_cat_corpus / 'taxonomy.tax'} and {source} name "
                            "different taxonomies\n")
    assert captured.out == ""


def test_infer_with_a_checkpoint_moved_out_of_its_run_folder_names_the_fix(
        reversed_cat_run, tmp_path, capsys):
    moved = tmp_path / "moved.ckpt"
    moved.write_bytes((reversed_cat_run / "model.ckpt").read_bytes())
    out = tmp_path / "preds"
    assert main(["infer", "--model", str(moved), "--sketches", str(tmp_path / "b"),
                 "--out", str(out), "--force-branch", "Pets"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {moved} at byte 8: ") and err.count("\n") == 1
    assert "digest mismatch" in err and "taxonomy.tax beside it" in err
    assert not out.exists()
    (tmp_path / "taxonomy.tax").write_bytes((reversed_cat_run / "taxonomy.tax").read_bytes())
    assert main(["infer", "--model", str(moved), "--sketches", str(tmp_path / "b"),
                 "--out", str(out), "--force-branch", "Pets"]) == 0


@pytest.mark.parametrize("command", ["train-parser", "train-router", "infer"])
def test_an_out_holding_another_taxonomy_is_refused_before_any_work(reversed_cat_run, tmp_path,
                                                                    capsys, command):
    """--out already names the default taxonomy; the run's is the reversed one."""
    out = tmp_path / "data"
    gen_corpus(CorpusSpec(TAX, per_category=1, seed=0, categories=("cat",)), out)
    before = sorted(out.rglob("*"))
    if command == "infer":
        argv = ["infer", "--model", str(reversed_cat_run / "model.ckpt"),
                "--sketches", str(tmp_path / "b"), "--force-branch", "Pets"]
    else:
        argv = [command, "--train", str(tmp_path / "b"), "--iterations", "1"]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {out / 'taxonomy.tax'} names another taxonomy; "
                            f"{out} cannot hold outputs of two taxonomies\n")
    assert captured.out == ""
    assert sorted(out.rglob("*")) == before
    assert (out / "taxonomy.tax").read_text() == TAX.to_text()


def test_gen_corpus_oversize_exits_1(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["gen-corpus", "--out", str(out), "--size", "1000000", "--per-category", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1000000" in err and "Traceback" not in err
    assert not out.exists()


def test_non_utf8_taxonomy_exits_1(tmp_path, capsys):
    tax = tmp_path / "bad.tax"
    tax.write_bytes(b"super S\ncat thing : a, b\n\xff\xfe\n")
    rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--taxonomy", str(tax)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "UTF-8" in err and "Traceback" not in err


def test_taxonomy_flag_picks_the_corpus_taxonomy(tmp_path):
    tiny = tmp_path / "tiny.tax"
    tiny.write_text("super Small Animals\ncat cat : head, body, leg, tail\n")
    out = tmp_path / "c"
    assert main(["gen-corpus", "--taxonomy", str(tiny), "--per-category", "1", "--size", "32",
                 "--out", str(out)]) == 0
    assert (out / "taxonomy.tax").read_bytes() == tiny.read_bytes()
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["cat"]


@pytest.mark.parametrize(
    "command,checkpoint,extra",
    [("train-parser", "model.ckpt", []), ("train-router", "router.ckpt", ["--batch-size", "2"])],
)
def test_seed_flag_defaults_to_0(small_corpus, tmp_path, command, checkpoint, extra):
    base = [command, "--train", str(small_corpus), "--iterations", "1", *extra]
    runs = {"default": [], "zero": ["--seed", "0"], "five": ["--seed", "5"]}
    for name, args in runs.items():
        assert main([*base, "--out", str(tmp_path / name), *args]) == 0
    ckpt = {name: (tmp_path / name / checkpoint).read_bytes() for name in runs}
    assert ckpt["default"] == ckpt["zero"] != ckpt["five"]
    for path in (tmp_path / "default").iterdir():  # the checkpoint and the loss log
        assert path.read_bytes() == (tmp_path / "zero" / path.name).read_bytes()


@pytest.mark.parametrize(
    "command,checkpoint,extra",
    [("train-parser", "model.ckpt", ["--lr", repr(TrainPlan().lr)]),
     ("train-router", "router.ckpt", ["--batch-size", "2", "--lr", repr(RouterPlan().lr)])],
)
def test_lr_flag_at_the_plan_default_writes_the_default_bytes(small_corpus, tmp_path, command,
                                                              checkpoint, extra):
    """`--lr` at the plan's default rate is the run without it; another rate is not."""
    base = [command, "--train", str(small_corpus), "--iterations", "2", "--seed", "1",
            *extra[:-2]]
    runs = {"default": [], "given": extra[-2:], "other": ["--lr", "1e-2"]}
    for name, args in runs.items():
        assert main([*base, "--out", str(tmp_path / name), *args]) == 0
    ckpt = {name: (tmp_path / name / checkpoint).read_bytes() for name in runs}
    assert ckpt["default"] == ckpt["given"] != ckpt["other"]
    for path in (tmp_path / "default").iterdir():  # the checkpoint and the loss log
        assert path.read_bytes() == (tmp_path / "given" / path.name).read_bytes()


def test_gen_corpus_repeated_category_exits_1(tmp_path, capsys):
    rc = main(["gen-corpus", "--out", str(tmp_path / "c"), "--per-category", "2",
               "--categories", "cat,cat"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: categories name ['cat'] more than once\n"
    assert captured.out == ""
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", ["gen-corpus", "selfcheck", "train-parser", "train-router"])
def test_negative_seed_exits_1_before_writing(small_corpus, tmp_path, capsys, command):
    out = tmp_path / "c"
    argv = [command, "--seed", "-1"]
    if command == "gen-corpus":
        argv += ["--out", str(out), "--per-category", "1", "--categories", "cat"]
    elif command != "selfcheck":
        argv += ["--train", str(small_corpus), "--out", str(out)]
    rc = main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be an integer >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_run_selfcheck_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0, got -1$"):
        run_selfcheck(-1)


@pytest.mark.parametrize(
    "command,flags,iteration",
    [
        ("train-parser", ["--iterations", "2", "--lam", "1e300"], 0),
        # the loss stays finite; the first update overflows
        ("train-parser", ["--iterations", "1", "--lr", "1e306"], 0),
        ("train-router", ["--iterations", "3", "--batch-size", "2", "--lr", "1e30"], 1),
    ],
)
def test_diverging_run_exits_1_naming_the_iteration(small_corpus, tmp_path, capsys, command,
                                                    flags, iteration):
    out = tmp_path / "run"
    rc = main([command, "--train", str(small_corpus), "--out", str(out), *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: training diverged at iteration {iteration}: [^\n]+\n",
                        captured.err)
    assert captured.out == ""
    assert not out.exists()


def test_out_of_memory_exits_1(small_corpus, tmp_path, capsys):
    # a batch far past the address space: numpy refuses it before allocating
    out = tmp_path / "run"
    rc = main(["train-router", "--train", str(small_corpus), "--out", str(out),
               "--batch-size", str(10**15)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("where", ["missing", "empty"])
def test_infer_without_sketches_exits_1(small_corpus, tmp_path, capsys, where):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    sketches = tmp_path / "sketches"
    if where == "empty":
        sketches.mkdir()
    out = tmp_path / "o"
    rc = main(["infer", "--model", str(ckpt), "--sketches", str(sketches),
               "--out", str(out), "--force-branch", "Small Animals"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: no sketches under {sketches}\n"
    assert not out.exists()


def test_train_parser_cli_smoke(small_corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["train-parser", "--train", str(small_corpus), "--out", str(out),
               "--iterations", "4", "--seed", "1"])
    assert rc == 0
    assert (out / "model.ckpt").exists()
    log = (out / "train_log.csv").read_text().splitlines()
    assert log[0] == "iter,seg_loss,pose_loss,total,lr"
    assert len(log) == 5


def test_fine_tune_keeps_frozen_shared_layers(small_corpus, tmp_path, capsys):
    base = ["train-parser", "--train", str(small_corpus), "--iterations", "2", "--seed", "1"]
    assert main([*base, "--out", str(tmp_path / "init")]) == 0
    init = tmp_path / "init" / "model.ckpt"
    assert main([*base, "--out", str(tmp_path / "tuned"), "--init", str(init),
                 "--freeze-shared"]) == 0
    before, after = ({n: t.data for n, t in load_checkpoint(p, ModelConfig(), TAX).parameters()}
                     for p in (init, tmp_path / "tuned" / "model.ckpt"))
    assert list(after) == list(before)
    shared = [n for n in before if n.startswith("shared.")]
    assert shared and all(after[n].tobytes() == before[n].tobytes() for n in shared)
    assert any(after[n].tobytes() != before[n].tobytes() for n in before
               if n.startswith("branch"))
    capsys.readouterr()

    other = tmp_path / "other.ckpt"
    tiny = load_taxonomy("super Small Animals\ncat cat : head, body, leg, tail\n")
    save_checkpoint(build_model(ModelConfig(), tiny, seed=1), other)
    rc = main([*base, "--out", str(tmp_path / "refused"), "--init", str(other)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith(f"error: {other} at byte 8: ")
    assert "taxonomy" in err and "Traceback" not in err
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("fault", ["truncated", "other_taxonomy"])
@pytest.mark.parametrize("flag", ["--model", "--router", "--init"])
def test_a_refused_checkpoint_names_its_file(small_corpus, tmp_path, capsys, flag, fault):
    """infer's --model and --router, and train-parser's --init: of two
    checkpoints, the refusal names the one at fault."""
    other = load_taxonomy("super Small Animals\ncat cat : head, body, leg, tail\n")
    model, router = tmp_path / "model.ckpt", tmp_path / "router.ckpt"
    bad = router if flag == "--router" else model
    tax = {path: other if fault == "other_taxonomy" and path == bad else TAX
           for path in (model, router)}
    save_checkpoint(build_model(ModelConfig(), tax[model], seed=1), model)
    save_router(build_router(TAX.num_branches, seed=1, digest=tax[router].digest()), router)
    if fault == "truncated":
        bad.write_bytes(bad.read_bytes()[:-10])
    if flag == "--init":
        argv = ["train-parser", "--train", str(small_corpus), "--out", str(tmp_path / "run"),
                "--init", str(model), "--iterations", "1"]
    else:
        argv = ["infer", "--model", str(model), "--router", str(router),
                "--sketches", str(small_corpus), "--out", str(tmp_path / "preds")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} at byte ") and err.count("\n") == 1
    assert ("truncated" if fault == "truncated" else "digest mismatch") in err


def test_train_parser_refuses_a_part_id_outside_the_branch(small_corpus, tmp_path, capsys):
    labels_path = small_corpus / "cat" / "0001.labels.pgm"
    labels = read_pgm(labels_path)
    labels[0, 0] = 9  # cat's branch has parts 1..4
    write_pgm(labels_path, labels)
    rc = main(["train-parser", "--train", str(small_corpus), "--out", str(tmp_path / "run"),
               "--iterations", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cat" in err and "part id 9" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_train_router_cli_smoke(small_corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["train-router", "--train", str(small_corpus), "--out", str(out),
               "--iterations", "2", "--batch-size", "2", "--seed", "1"])
    assert rc == 0
    assert (out / "router.ckpt").exists()
    assert len((out / "router_log.csv").read_text().splitlines()) == 3


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_train_router_pins_blas_unless_the_user_sets_it(small_corpus, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = {}
    for name, blas in (("unset", {}), ("pinned", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        out = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "sketchparts.cli", "train-router", "--train",
             str(small_corpus), "--out", str(out), "--iterations", "2", "--batch-size", "2",
             "--seed", "3"],
            capture_output=True, text=True, env={**base, **blas}, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        runs[name] = [(out / f).read_bytes() for f in ("router.ckpt", "router_log.csv")]
    assert runs["unset"] == runs["pinned"]


NO_SCIPY_RUN = """
import importlib.util, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

# with scipy importable, so that a try-import fallback would load it
installed = importlib.util.find_spec("scipy") is not None
from sketchparts.cli import main
on_import = scipy_modules()

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"refused: {name}")

sys.meta_path.insert(0, RefuseScipy())

d = sys.argv[1]
ranking = f"{d}/ranking.txt"
with open(ranking, "w") as fh:
    fh.write("car/0000\\ncar/0001\\ncat/0000\\ncat/0001\\n")
commands = [
    ["gen-corpus", "--out", f"{d}/corpus", "--categories", "cat,car", "--per-category", "2"],
    ["train-parser", "--train", f"{d}/corpus", "--out", f"{d}/parser", "--iterations", "2"],
    ["train-router", "--train", f"{d}/corpus", "--out", f"{d}/router", "--iterations", "1",
     "--batch-size", "2"],
    ["infer", "--model", f"{d}/parser/model.ckpt", "--router", f"{d}/router/router.ckpt",
     "--sketches", f"{d}/corpus", "--out", f"{d}/preds"],
    ["rerank", "--query", f"{d}/corpus/car/0000.labels.pgm", "--ranking", ranking,
     "--db", f"{d}/corpus", "--out", f"{d}/reranked.txt"],
]
codes = [main(argv) for argv in commands]
print(json.dumps({"installed": installed, "on_import": on_import, "codes": codes,
                  "scipy": scipy_modules()}))
"""


def test_every_command_runs_with_scipy_refused(tmp_path):
    """The package runs on numpy alone: importing the CLI with scipy installed
    loads no scipy module, and with any scipy import refused, every command a
    corpus goes through exits 0 and no scipy module is loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"installed": True, "on_import": [], "codes": [0, 0, 0, 0, 0], "scipy": []}
    assert (tmp_path / "reranked.txt").read_text().split()[0] == "car/0000"


def test_the_console_script_ci_step_runs_each_subcommand_once():
    """The CI step that runs the installed script starts one `sketchparts
    <name>` line per subcommand, and train-parser one more, for the refused
    flag; what each command prints is checked by the tests here."""
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    step = workflow.read_text().split("- name: Installed console script", 1)[1]
    step = step.split("\n      - name: ", 1)[0]
    started = Counter(re.findall(r"^\s*sketchparts ([\w-]+)", step, re.MULTILINE))
    subparsers = next(a for a in cli.build_arg_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert dict(started) == {name: 1 + (name == "train-parser") for name in subparsers.choices}


def test_train_router_then_infer_round_trip(small_corpus, tmp_path):
    parser = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), parser)
    runs = []
    for name in ("a", "b"):
        run = tmp_path / name
        assert main(["train-router", "--train", str(small_corpus), "--out", str(run / "train"),
                     "--iterations", "2", "--batch-size", "2", "--seed", "1"]) == 0
        router = run / "train" / "router.ckpt"
        assert main(["infer", "--model", str(parser), "--router", str(router),
                     "--sketches", str(small_corpus), "--out", str(run / "preds")]) == 0
        runs.append(run)
    records = sorted((runs[0] / "preds").rglob("*.json"))
    assert len(records) == 4
    for path in records:
        scores = json.loads(path.read_text())["router_scores"]
        assert len(scores) == TAX.num_branches
        assert sum(scores) == pytest.approx(1.0, abs=1e-6)
    files = sorted(p.relative_to(runs[0]) for p in runs[0].rglob("*") if p.is_file())
    assert len(files) == 3 + 2 * len(records) + 1  # each folder holds its taxonomy.tax
    for rel in files:
        assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()


def test_infer_with_an_old_router_exits_1(small_corpus, tmp_path, capsys):
    parser = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), parser)
    old = tmp_path / "old.ckpt"
    net = build_router(TAX.num_branches, seed=1, digest=TAX.digest())
    write_checkpoint(old, b"SKRC", net.digest, net.parameters())  # binary-view routers
    rc = main(["infer", "--model", str(parser), "--router", str(old),
               "--sketches", str(small_corpus), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "retrain" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_rerank_non_utf8_ranking_exits_1(tmp_path, capsys):
    lm = np.zeros((8, 8), dtype=np.uint8)
    lm[2:6, 2:6] = 1
    write_pgm(tmp_path / "q.pgm", lm)
    (tmp_path / "r.txt").write_bytes(b"only\n\xff\xfe\n")
    rc = main(["rerank", "--query", str(tmp_path / "q.pgm"),
               "--ranking", str(tmp_path / "r.txt"), "--db", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "r.txt" in err and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("raw,message", BAD_POSES_CSV, ids=POSES_CSV_IDS)
def test_eval_bad_poses_csv_exits_1(small_corpus, capsys, raw, message):
    (small_corpus / "poses.csv").write_bytes(raw)
    rc = main(["eval", "--pred", str(small_corpus), "--gt", str(small_corpus)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "poses.csv" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("raw,message", BAD_POSES_CSV, ids=POSES_CSV_IDS)
def test_train_router_bad_poses_csv_exits_1(small_corpus, tmp_path, capsys, raw, message):
    (small_corpus / "poses.csv").write_bytes(raw)
    rc = main(["train-router", "--train", str(small_corpus), "--out", str(tmp_path / "run"),
               "--iterations", "1", "--batch-size", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "poses.csv" in err and message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("raw,message", BAD_POSES_CSV, ids=POSES_CSV_IDS)
def test_train_parser_bad_poses_csv_exits_1(small_corpus, tmp_path, capsys, raw, message):
    (small_corpus / "poses.csv").write_bytes(raw)
    rc = main(["train-parser", "--train", str(small_corpus), "--out", str(tmp_path / "run"),
               "--iterations", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "poses.csv" in err and message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "raw,message",
    [
        (b'{"pose": ', "Expecting value"),
        (b"\xff\xfe", "can't decode"),
        (b'["E"]', 'expected a JSON object with a string "pose"'),
        (b'{"supercategory": "x"}', 'expected a JSON object with a string "pose"'),
        (b'{"pose": 3}', 'expected a JSON object with a string "pose"'),
        (b'{"pose": "UP"}', "unknown pose 'UP'"),
        (b'{"pose": "E", "supercategory": "Pets"}', "supercategory 'Pets' is not one of"),
        (b'{"pose": "N"}', "no format_version; expected format_version 1\n"),
        (b'{"format_version": 99, "pose": "N"}', "format_version 99; expected"),
        (b'{"format_version": "1", "pose": "N"}', "format_version '1'; expected"),
        (b'{"format_version": true, "pose": "N"}', "format_version True; expected"),
        (b'{"format_version": 1.0, "pose": "N"}', "format_version 1.0; expected"),
    ],
    ids=["truncated", "not_utf8", "list", "no_pose", "pose_not_a_string", "unknown_pose",
         "unknown_supercategory", "no_format_version", "format_version_99",
         "format_version_string", "format_version_true", "format_version_float"],
)
def test_eval_bad_prediction_json_exits_1(small_corpus, capsys, raw, message):
    (small_corpus / "cat" / "0000.json").write_bytes(raw)
    rc = main(["eval", "--pred", str(small_corpus), "--gt", str(small_corpus)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {small_corpus / 'cat' / '0000.json'}: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_eval_scores_a_car_parsed_as_a_flying_thing_by_part_name(small_corpus, tmp_path):
    """Each car's own map, recorded as parsed by the Flying Things expert:
    its ids read as that expert's body, wing and tail, so only the body
    (id 1 in both branches) scores. By raw id the car would score 1.0."""
    pred = tmp_path / "pred"
    pred.mkdir()
    want = []
    for gt_path in sorted((small_corpus / "car").glob("*.labels.pgm")):
        stem = gt_path.name.removesuffix(".labels.pgm")
        labels = read_pgm(gt_path)
        write_pgm(pred / f"{stem}.pred.pgm", labels)
        (pred / f"{stem}.json").write_text(json.dumps(
            {"format_version": 1, "pose": "E", "supercategory": "Flying Things"}))
        want.append(sketch_iou(LabelMap(np.where(labels == 1, 1, 0)), LabelMap(labels))[1])
    out = tmp_path / "report"
    assert main(["eval", "--pred", str(pred), "--gt", str(small_corpus / "car"),
                 "--out", str(out)]) == 0
    aiou = float(np.mean(want))
    assert aiou < 1.0
    assert (out / "iou.csv").read_text() == f"category,aiou\ncar,{aiou!r}\nGRAND,{aiou!r}\n"


def test_eval_of_a_cat_parsed_as_a_large_animal_is_by_raw_id(small_corpus, tmp_path, capsys):
    """Large Animals names its parts as Small Animals does, in the same
    order, so eval prints the bytes of its records without a supercategory."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(), TAX, seed=1), ckpt)
    out = tmp_path / "preds"
    assert main(["infer", "--model", str(ckpt), "--sketches", str(small_corpus / "cat"),
                 "--out", str(out), "--force-branch", "Large Animals"]) == 0
    capsys.readouterr()
    printed = []
    for _ in range(2):
        assert main(["eval", "--pred", str(out), "--gt", str(small_corpus / "cat")]) == 0
        printed.append(capsys.readouterr().out)
        for path in out.glob("*.json"):
            record = json.loads(path.read_text())
            assert record.pop("supercategory", "Large Animals") == "Large Animals"
            path.write_text(json.dumps(record))
    assert "8-way accuracy: " in printed[0]
    assert printed[0] == printed[1]


def test_eval_refuses_a_ground_truth_map_holding_an_id_past_its_branch(small_corpus, capsys):
    gt = small_corpus / "cat" / "0000.labels.pgm"
    labels = read_pgm(gt)
    labels[0, 0] = 9  # cat's branch has parts 1..4
    write_pgm(gt, labels)
    assert main(["eval", "--pred", str(small_corpus), "--gt", str(small_corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {gt} holds part id 9, but branch 0 has parts 1..4\n"
    assert captured.out == ""


@pytest.mark.parametrize("supercategory,branch", [(None, 2), ("Flying Things", 3)],
                         ids=["truth_branch", "record_branch"])
def test_eval_refuses_a_prediction_holding_an_id_past_its_branch(small_corpus, tmp_path, capsys,
                                                                  supercategory, branch):
    """Each car's own map, one pixel of the second set to 4: both Four
    Wheelers, the car's branch, and Flying Things have parts 1..3, and the
    map is checked in the branch its record names, else in the car's."""
    pred = tmp_path / "pred"
    pred.mkdir()
    for gt_path in sorted((small_corpus / "car").glob("*.labels.pgm")):
        stem = gt_path.name.removesuffix(".labels.pgm")
        labels = read_pgm(gt_path)
        if stem == "0001":
            labels[0, 0] = 4
        write_pgm(pred / f"{stem}.pred.pgm", labels)
        if supercategory:
            (pred / f"{stem}.json").write_text(json.dumps(
                {"format_version": 1, "pose": "E", "supercategory": supercategory}))
    assert main(["eval", "--pred", str(pred), "--gt", str(small_corpus / "car")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {pred / '0001.pred.pgm'} holds part id 4, but branch "
                            f"{branch} has parts 1..3\n")
    assert captured.out == ""


def test_eval_prediction_of_the_wrong_size_exits_1(small_corpus, tmp_path, capsys):
    pred = tmp_path / "pred"
    for gt in small_corpus.rglob("*.labels.pgm"):
        rel = str(gt.relative_to(small_corpus)).removesuffix(".labels.pgm")
        (pred / rel).parent.mkdir(parents=True, exist_ok=True)
        labels = read_pgm(gt)
        write_pgm(pred / f"{rel}.pred.pgm", labels[:5, :7] if rel == "cat/0001" else labels)
    rc = main(["eval", "--pred", str(pred), "--gt", str(small_corpus)])
    assert rc == 1
    captured = capsys.readouterr()
    h, w = read_pgm(small_corpus / "cat" / "0001.labels.pgm").shape
    assert captured.err == (f"error: {pred / 'cat' / '0001.pred.pgm'} is 7x5 but its ground "
                            f"truth is {w}x{h}\n")
    assert captured.out == ""


def test_eval_reads_predicted_poses(small_corpus, tmp_path):
    for rel in sorted(small_corpus.rglob("*.sketch.pgm")):
        stem = rel.name.replace(".sketch.pgm", "")
        (rel.parent / f"{stem}.json").write_text(json.dumps({"format_version": 1, "pose": "N"}))
    out = tmp_path / "report"
    rc = main(["eval", "--pred", str(small_corpus), "--gt", str(small_corpus),
               "--out", str(out)])
    assert rc == 0
    pose = (out / "pose.csv").read_text()
    assert "accuracy8," in pose and "accuracy4," in pose
