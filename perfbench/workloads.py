"""The three workloads: set-up, warm-up, one unit of work, and output checks.

Each workload object is built from a seed (that is its set-up), runs one
unit per `run(i)` call and judges that unit's output with `check(i, out)`,
which returns the names of the failed checks. Checks test invariants, not
golden bytes, so a fix that changes label maps still passes them.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import inputs
from sketchparts import graphmatch, pipeline, training
from sketchparts.model import ModelConfig, build_model
from sketchparts.router import build_router

ORDER_LENGTH = 4096  # visiting order wraps after this many units

# A run does a fixed number of units, set by --seconds over the workload's
# nominal cost of one unit with its probe burst (`unit_s`, measured on the
# baseline machine of README.md), rounded to whole blocks. So the units run,
# and with them `attempted` and `failed`, depend on the seed and --seconds
# alone, never on how fast the machine happened to be; a run lasts about
# --seconds at baseline speed.

# Machine-speed probes. On shared machines CPU speed drifts by 20-40% over
# tens of seconds. After each unit the loop runs a fixed probe kernel for
# about PROBE_SHARE of the unit's time; a unit's cost in probe units (its
# wall time over the probe's time per call around it, see probe_costs)
# cancels that drift. Each workload uses the probe that tracks its own hot
# path: float64 GEMM for the conv nets, a dict/tuple loop for graph matching.
PROBE_SHARE = 0.1
PROBE_MIN_CALLS = 3
_GEMM = np.linspace(0.0, 1.0, 192 * 192).reshape(192, 192)


def gemm_probe():
    _GEMM @ _GEMM


def python_probe():
    acc = {}
    for i in range(4000):
        key = (i & 63, i >> 6)
        acc[key] = acc.get(key, 0.0) + math.hypot(i, 1.0)


def probe_burst(probe, unit_s):
    """Mean seconds per probe call over a burst of about PROBE_SHARE * unit_s."""
    calls = 0
    t0 = perf_counter()
    while True:
        probe()
        calls += 1
        elapsed = perf_counter() - t0
        if calls >= PROBE_MIN_CALLS and elapsed >= PROBE_SHARE * unit_s:
            return elapsed / calls


# Fields a record carries, by RECORD_VERSION; an unknown version fails the check.
RECORD_FIELDS = {
    1: {
        "format_version",
        "category",
        "supercategory",
        "pose",
        "part_counts",
        "description",
        "router_scores",
    },
}


def _tail_tenth(values):
    """Mean over the last tenth of a loss log (at least one entry)."""
    k = max(1, len(values) // 10)
    return float(np.mean(values[-k:]))


class InferRouted:
    """pipeline.infer_record with router and parser: the CLI `infer` path."""

    name = "infer_routed"
    unit = "sketch"
    samples = 1
    unit_s = 0.33
    block = inputs.ROUTED_BLOCK
    probe = staticmethod(gemm_probe)

    def __init__(self, seed):
        self.tax = inputs.taxonomy()
        self.pool = inputs.routed_sketches(seed, self.tax)
        self.order = inputs.routed_order(seed, self.pool, ORDER_LENGTH)
        self.parser = build_model(ModelConfig(), self.tax, seed)
        self.router = build_router(self.tax.num_branches, seed, self.tax.digest())

    def item(self, i):
        return self.pool[self.order[i % ORDER_LENGTH]]

    def warm_up(self):
        square = next(s for s in self.pool if s.square)
        other = next(s for s in self.pool if not s.square)
        for s in (square, other):
            pipeline.infer_record(self.parser, self.router, s.sketch, category=s.category)

    def run(self, i):
        s = self.item(i)
        return pipeline.infer_record(self.parser, self.router, s.sketch, category=s.category)

    def check(self, i, out):
        s = self.item(i)
        record, labelmap = out
        failed = []
        if labelmap.labels.shape != (s.sketch.height, s.sketch.width):
            failed.append("labelmap_shape")
        branch = self.tax.branch_names.index(record["supercategory"])
        if int(labelmap.labels.max()) > self.tax.n_parts(branch):
            failed.append("label_range")
        scores = np.asarray(record["router_scores"], dtype=np.float64)
        if (
            scores.shape != (self.tax.num_branches,)
            or not np.isfinite(scores).all()
            or abs(scores.sum() - 1.0) > 1e-6
        ):
            failed.append("router_scores")
        version = record.get("format_version")
        if version != pipeline.RECORD_VERSION or set(record) != RECORD_FIELDS.get(version):
            failed.append("record_fields")
        return failed

    def known_defect(self, i, failed):
        # ROADMAP item 1: bilinear_upsample transposes its output, so a
        # non-square sketch gets a map of the wrong shape. Counted in
        # `failed`, not in `correct`.
        return failed == ["labelmap_shape"] and not self.item(i).square

    def named(self, units):
        n = len(units)
        non_square = sum(not self.item(u.index).square for u in units)
        return {"non_square_frac": (non_square / n, "frac", "none")}


class RerankTop50:
    """graphmatch.rerank of a held-out query over a seeded gallery ranking."""

    name = "rerank_top50"
    unit = "query"
    samples = 1
    unit_s = 0.14
    block = 1
    probe = staticmethod(python_probe)
    top_t = 50

    def __init__(self, seed):
        self.tax = inputs.taxonomy()
        self.queries = inputs.rerank_queries(seed, self.tax)
        self.order = inputs.unit_order(seed, len(self.queries), ORDER_LENGTH)

    def item(self, i):
        return self.queries[self.order[i % ORDER_LENGTH]]

    def warm_up(self):
        q = self.queries[0]
        graphmatch.rerank(q.query, q.candidates, top_t=self.top_t)

    def run(self, i):
        q = self.item(i)
        return graphmatch.rerank(q.query, q.candidates, top_t=self.top_t)

    def check(self, i, out):
        ids = [cid for cid, _ in self.item(i).candidates]
        failed = []
        if sorted(out) != sorted(ids):
            failed.append("permutation")
        if out[self.top_t :] != ids[self.top_t :]:
            failed.append("tail_unmoved")
        return failed

    def known_defect(self, i, failed):
        return False

    def named(self, units):
        return {}


@dataclass
class Round:
    parser_log: list
    router_log: list
    parser_s: float
    router_s: float


class Train:
    """One round: train_parser for 32 steps, then train_router for one step at
    batch 32, both augmented, from the same seeded initial weights each time
    so the loss logs repeat exactly."""

    name = "train"
    unit = "round"
    unit_s = 4.4
    block = 1
    probe = staticmethod(gemm_probe)
    parser_steps = 32
    router_batch = 32
    samples = parser_steps + router_batch

    def __init__(self, seed):
        self.tax = inputs.taxonomy()
        self.corpus = inputs.training_corpus(seed, self.tax)
        self.labelled = [(s.sketch, self.tax.branch_of(s.category)) for s in self.corpus]
        self.parser = build_model(ModelConfig(), self.tax, seed)
        self.router = build_router(self.tax.num_branches, seed, self.tax.digest())
        self.parser_plan = training.TrainPlan(iterations=self.parser_steps, seed=seed)
        self.router_plan = training.RouterPlan(
            iterations=1, batch_size=self.router_batch, seed=seed
        )
        self.initial = [
            (t, t.data.copy())
            for net in (self.parser, self.router)
            for _, t in net.parameters()
        ]
        self.reference = None

    def _reset(self):
        for t, data in self.initial:
            np.copyto(t.data, data)
            t.grad = None

    def warm_up(self):
        training.train_parser(self.parser, self.corpus, training.TrainPlan(iterations=2))
        training.train_router(
            self.router, self.labelled, training.RouterPlan(iterations=1, batch_size=2)
        )
        self._reset()

    def run(self, i):
        self._reset()
        t0 = perf_counter()
        parser_log = training.train_parser(self.parser, self.corpus, self.parser_plan)
        t1 = perf_counter()
        router_log = training.train_router(self.router, self.labelled, self.router_plan)
        t2 = perf_counter()
        return Round(parser_log, router_log, t1 - t0, t2 - t1)

    def check(self, i, out):
        losses = [r["total"] for r in out.parser_log] + [r["loss"] for r in out.router_log]
        failed = []
        if not all(math.isfinite(v) for v in losses):
            failed.append("finite_losses")
        if self.reference is None:
            self.reference = losses
        elif losses != self.reference:
            failed.append("deterministic_losses")
        return failed

    def known_defect(self, i, failed):
        return False

    def named(self, units):
        rounds = [u.output for u in units if u.output is not None]
        if not rounds:
            return {}
        parser_rate = self.parser_steps * len(rounds) / sum(r.parser_s for r in rounds)
        router_rate = self.router_batch * len(rounds) / sum(r.router_s for r in rounds)
        parser_tail = _tail_tenth([r["total"] for r in rounds[0].parser_log])
        router_tail = _tail_tenth([r["loss"] for r in rounds[0].router_log])
        return {
            "parser_samples_per_s": (parser_rate, "1/s", "higher"),
            "router_samples_per_s": (router_rate, "1/s", "higher"),
            "parser_loss_tail": (parser_tail, "nats", "lower"),
            "router_loss_tail": (router_tail, "nats", "lower"),
        }


WORKLOADS = {w.name: w for w in (InferRouted, RerankTop50, Train)}


@dataclass
class Unit:
    index: int
    seconds: float
    probe_s: float = 1.0  # seconds per probe call measured right after the unit
    output: object = None
    error: str = None
    failed: list = field(default_factory=list)
    known: bool = False


def unit_count(cls, seconds):
    """Units a run of `seconds` does: whole blocks, at least one."""
    blocks = max(1, round(seconds / (cls.unit_s * cls.block)))
    return blocks * cls.block


def measure(work, count, first=0):
    """Closed loop, one client: run `count` units back to back, each
    followed by a probe burst.

    Returns the units. Outputs are checked afterwards, outside the loop.
    """
    units = []
    for i in range(first, first + count):
        t0 = perf_counter()
        try:
            out, err = work.run(i), None
        except Exception:  # a unit that raises is a failed unit, not a crash
            out, err = None, traceback.format_exc()
        seconds_i = perf_counter() - t0
        units.append(Unit(i, seconds_i, probe_burst(work.probe, seconds_i), out, err))
    return units


def check_all(work, units):
    for u in units:
        u.failed = ["raised"] if u.error is not None else work.check(u.index, u.output)
        u.known = bool(u.failed) and work.known_defect(u.index, u.failed)


def probe_costs(units):
    """Each unit's wall time over the mean probe time of the bursts just
    before and just after it (the first unit has only the one after).
    Speed dips shorter than a unit or two are common; bracketing each unit
    tracks them, where a wider window blurred them into the latency tail."""
    probes = [u.probe_s for u in units]
    return [
        u.seconds / (0.5 * (probes[max(0, i - 1)] + probes[i]))
        for i, u in enumerate(units)
    ]


def median_and_tail(values):
    """Median and tail; the tail is the highest percentile with at least ten
    samples beyond it, and never below the median, so with 20 or fewer
    samples it is the median."""
    v = sorted(values)
    n = len(v)
    median = statistics.median(v)
    if n > 20:
        return median, v[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    return median, median, "p50"
