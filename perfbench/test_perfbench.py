"""Tests of the benchmark itself: run them with `python3 -m pytest perfbench`."""

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import layers
import run
import workloads
from sketchparts import pipeline

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

NAMED_METRICS = {
    "infer_routed": {"sketches_per_s", "latency_p50_ms", "latency_tail_ms"},
    "rerank_top50": {"queries_per_s", "latency_p50_ms", "latency_tail_ms"},
    "train": {
        "parser_samples_per_s", "router_samples_per_s", "parser_loss_tail", "router_loss_tail",
    },
}


def test_tables_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert declared == {n: (u, b) for n, u, b in run.END_TO_END}
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == {n: (u, b) for n, u, b, _ in layers.PER_LAYER + layers.CONV_TABLE}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result, report = run.run(name, seed=3, seconds=0.2, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    named = report["named"]
    assert NAMED_METRICS[name] | {"setup_s", "peak_rss_mb", "failed_frac"} <= set(named)
    for entry in named.values():
        assert entry["unit"] and entry["better"] in ("higher", "lower", "none")
    assert report["environment"]["seed"] == 3
    assert report["environment"]["blas_version"]


def test_same_seed_same_inputs():
    tax = inputs.taxonomy()

    def fingerprint(seed):
        routed = [(s.sketch.pixels.tobytes(), s.sketch.pixels.shape, s.category, s.pose)
                  for s in inputs.routed_sketches(seed, tax)]
        queries = [
            (q.query.labels.tobytes(), [(cid, lm.labels.tobytes()) for cid, lm in q.candidates])
            for q in inputs.rerank_queries(seed, tax)
        ]
        corpus = [(s.sketch.pixels.tobytes(), s.labels.labels.tobytes(), s.category, s.pose)
                  for s in inputs.training_corpus(seed, tax)]
        return routed, queries, corpus, inputs.unit_order(seed, 64, 200)

    assert fingerprint(4) == fingerprint(4)
    assert all(a != b for a, b in zip(fingerprint(4), fingerprint(5)))


def test_infer_inputs_cover_categories_poses_and_shapes():
    tax = inputs.taxonomy()
    pool = inputs.routed_sketches(2, tax)
    assert {(s.category, s.pose) for s in pool} == {
        (c, p) for c in tax.categories for p in inputs.POSES
    }
    assert sum(not s.square for s in pool) == len(pool) // 4
    for s in pool:
        assert s.sketch.height % 8 == 0 and s.sketch.width % 8 == 0


def test_routed_order_has_one_non_square_sketch_per_block():
    tax = inputs.taxonomy()
    for seed in (1, 2):
        pool = inputs.routed_sketches(seed, tax)
        order = inputs.routed_order(seed, pool, workloads.ORDER_LENGTH)
        assert len(order) == workloads.ORDER_LENGTH
        assert sorted(order[:64]) == list(range(64))
        block = inputs.ROUTED_BLOCK
        for k in range(0, len(order), block):
            assert sum(not pool[i].square for i in order[k : k + block]) == 1


def test_units_and_failures_depend_on_seconds_not_speed():
    for cls in workloads.WORKLOADS.values():
        for seconds in (0.01, 1.0, 35.0):
            n = workloads.unit_count(cls, seconds)
            assert n >= 1 and n % cls.block == 0
    assert workloads.unit_count(workloads.InferRouted, 35.0) > 20
    result, _ = run.run("infer_routed", seed=5, seconds=0.5, trace=False)
    assert result["attempted"] == 4
    # the upsample transposition fails the one non-square sketch of the
    # block; 0 once it is fixed
    assert result["failed"] in (0, 1)


def _infer_bytes(work, i):
    record, labelmap = work.run(i)
    return json.dumps(record, sort_keys=True).encode() + labelmap.labels.tobytes()


def test_traced_run_is_byte_identical_and_restores_attributes():
    work = workloads.InferRouted(seed=6)
    square = next(i for i in range(64) if work.item(i).square)
    other = next(i for i in range(64) if not work.item(i).square)
    plain = [_infer_bytes(work, i) for i in (square, other)]
    with layers.traced() as tracer:
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert vars(owner)[attr] is not original
        traced_out = [_infer_bytes(work, i) for i in (square, other)]
    assert traced_out == plain
    assert tracer.calls["router.forward"] == 24  # 12 views per sketch
    assert tracer.calls["model.infer"] == 2
    assert len(patched) >= 20
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original


def test_wrappers_are_restored_when_the_block_raises():
    original = pipeline.classify_pooled
    with pytest.raises(RuntimeError):
        with layers.traced():
            assert pipeline.classify_pooled is not original
            raise RuntimeError("boom")
    assert pipeline.classify_pooled is original


def test_only_the_known_defect_fails_on_infer():
    work = workloads.InferRouted(seed=6)
    square = next(i for i in range(64) if work.item(i).square)
    other = next(i for i in range(64) if not work.item(i).square)
    assert work.check(square, work.run(square)) == []
    failed = work.check(other, work.run(other))
    # empty once the upsample transposition is fixed
    assert failed in ([], ["labelmap_shape"])
    assert work.known_defect(other, failed) == bool(failed)


def test_checks_catch_a_wrong_rerank_and_a_wrong_record():
    rr = workloads.RerankTop50(seed=1)
    ids = [cid for cid, _ in rr.item(0).candidates]
    assert rr.check(0, ids) == []
    assert rr.check(0, ids[:-2] + ids[-1:] + ids[-2:-1]) == ["tail_unmoved"]
    assert rr.check(0, ids[1:]) == ["permutation", "tail_unmoved"]

    work = workloads.InferRouted(seed=6)
    i = next(i for i in range(64) if work.item(i).square)
    record, labelmap = work.run(i)
    broken = dict(record, router_scores=[s * 2 for s in record["router_scores"]])
    del broken["description"]
    assert work.check(i, (broken, labelmap)) == ["router_scores", "record_fields"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    p50, tail, label = workloads.median_and_tail(list(range(40, 0, -1)))
    assert p50 == 20.5
    assert tail == 30 and label == "p75.0"
    assert workloads.median_and_tail([3, 1, 2] * 5) == (2, 2, "p50")
