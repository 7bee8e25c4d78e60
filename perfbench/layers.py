"""Per-layer tracing from outside the package, and the conv layer table.

`traced()` wraps the public functions of router, imaging, model, autograd,
pipeline, graphmatch, training, optim and augment where their callers look
them up (e.g. `pipeline.classify_pooled`, `nets.conv2d`), aggregates busy
time, call counts and a few per-call quantities, and restores every
original on exit. Nothing under src/ knows it is being traced.

PER_LAYER lists every per-layer metric with the end-to-end metric and
workload it should move; BENCHMARK.json repeats the names, units and
directions.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from sketchparts import autograd, graphmatch, model, nets, optim, pipeline, router, training
from sketchparts.autograd import ConvSpec, Tape, make_rng
from sketchparts.model import ModelConfig

# (name, unit, better, the end-to-end metrics and workloads it should move).
# "speed" is units_per_kprobe and latency_*_probes; "throughput" is
# units_per_kprobe alone; "none" marks a diagnostic that gates nothing.
NETS = "speed on infer_routed, throughput on train"
PER_LAYER = (
    ("router.classify_pooled.ms", "ms", "lower", "speed on infer_routed"),
    ("router.forward.ms", "ms", "lower", NETS),
    ("router.forward.calls", "count", "lower", "speed on infer_routed"),
    ("imaging.crops_and_pad.ms", "ms", "lower", "speed on infer_routed"),
    ("router.margin", "frac", "higher", "none; input to confidence-gated pooling"),
    ("router.entropy", "nats", "lower", "none; input to confidence-gated pooling"),
    ("model.infer.ms", "ms", "lower", "speed on infer_routed"),
    ("model.forward_shared.ms", "ms", "lower", NETS),
    ("model.forward_branch.ms", "ms", "lower", NETS),
    ("autograd.bilinear_upsample.ms", "ms", "lower", NETS),
    ("pipeline.summarize.ms", "ms", "lower", "speed on infer_routed"),
    ("autograd.conv2d.ms", "ms", "lower", NETS),
    ("autograd.conv2d.gmac", "GMAC", "lower", NETS),
    ("autograd.conv2d.gmac_per_s", "GMAC/s", "higher", NETS),
    ("autograd.backward.parser_ms", "ms", "lower", "throughput on train"),
    ("autograd.backward.router_ms", "ms", "lower", "throughput on train"),
    ("optim.step.parser_ms", "ms", "lower", "throughput on train"),
    ("optim.step.router_ms", "ms", "lower", "throughput on train"),
    ("augment.seg_variant.ms", "ms", "lower", "throughput on train"),
    ("augment.cls_variant.ms", "ms", "lower", "throughput on train"),
    ("training.clip_gradients.ms", "ms", "lower", "throughput on train"),
    ("training.clipped_frac", "frac", "lower", "none; training health"),
    ("graphmatch.build_graph.ms", "ms", "lower", "speed on rerank_top50"),
    ("graphmatch.build_affinity.ms", "ms", "lower", "speed on rerank_top50"),
    ("graphmatch.rrwm_match.ms", "ms", "lower", "speed on rerank_top50"),
    ("graphmatch.affinity.candidates", "count", "lower", "speed on rerank_top50"),
    ("graphmatch.graph.nodes", "count", "lower", "speed on rerank_top50"),
    ("graphmatch.rrwm_match.converged_frac", "frac", "higher", "none; match quality"),
    ("share.router", "frac", "lower", NETS),
    ("share.parser", "frac", "lower", NETS),
    ("share.graphmatch", "frac", "lower", "speed on rerank_top50"),
    ("share.backward", "frac", "lower", "throughput on train"),
    ("failed_frac", "frac", "lower", "none; failed checks over units attempted"),
    ("trace.overhead_frac", "frac", "lower", "none; traced over untraced median cost, minus 1"),
)

ROUTER_CONVS = 6  # c0-c5 of ROUTER_STACK
CONV_TABLE_REPEATS = 5


def _conv_table_names():
    layers = [("router", f"c{i}") for i in range(ROUTER_CONVS)]
    layers += [("parser", f"shared.c{i}") for i in range(len(ModelConfig().shared_stack))]
    layers += [("parser", "branch.c0")]
    for net, layer in layers:
        moves = f"{NETS} ({net} net)"
        yield (f"conv.{net}.{layer}.fwd_ms", "ms", "lower", moves)
        yield (f"conv.{net}.{layer}.bwd_ms", "ms", "lower", f"throughput on train ({net} net)")
        yield (f"conv.{net}.{layer}.mmac", "MMAC", "lower", moves)


CONV_TABLE = tuple(_conv_table_names())


class Tracer:
    """Busy seconds and call counts per span, plus named per-call sums."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.sums = defaultdict(float)
        self.loop = "none"  # "parser" or "router" while a training loop runs
        self._patched = []

    def patch(self, owner, attr, span, before=None, after=None, loop=None):
        """Replace owner.attr by a timing wrapper; `span` may hold "{loop}"."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            outer = self.loop
            if loop:
                self.loop = loop
            name = span.format(loop=self.loop)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.busy[name] += perf_counter() - t0
                self.calls[name] += 1
                self.loop = outer
            if after:
                after(self, state, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _pooled_scores(tracer, state, args, result):
    p = np.sort(np.asarray(result[1], dtype=np.float64))[::-1]
    tracer.sums["router.margin"] += p[0] - p[1]
    nz = p[p > 0]
    tracer.sums["router.entropy"] += float(-(nz * np.log(nz)).sum())


def _conv_macs(tracer, state, args, result):
    f, c, k, _ = args[1].shape
    _, ho, wo = result.shape
    tracer.sums["conv.gmac"] += f * c * k * k * ho * wo / 1e9


def _grads_before(params, *_):
    return [t.grad for t in params]


def _clipped(tracer, grads, args, result):
    # clip_gradients rebinds .grad only when it scales
    if any(t.grad is not g for t, g in zip(args[0], grads)):
        tracer.sums["clipped"] += 1


def _graph_nodes(tracer, state, args, result):
    tracer.sums["graph.nodes"] += len(result.nodes)


def _candidates(tracer, state, args, result):
    tracer.sums["affinity.candidates"] += len(result.candidates)


def _converged(tracer, state, args, result):
    tracer.sums["rrwm.converged"] += bool(result.converged)


@contextmanager
def traced():
    """Install every wrapper; restore the originals however the block exits."""
    t = Tracer()
    try:
        t.patch(training, "train_parser", "training.train_parser", loop="parser")
        t.patch(training, "train_router", "training.train_router", loop="router")
        t.patch(pipeline, "classify_pooled", "router.classify_pooled", after=_pooled_scores)
        t.patch(router, "forward", "router.forward")
        t.patch(training, "router_forward", "router.forward")
        t.patch(router, "crops_and_pad", "imaging.crops_and_pad")
        t.patch(pipeline, "infer", "model.infer")
        t.patch(pipeline, "summarize", "pipeline.summarize")
        for owner in (model, training):
            t.patch(owner, "forward_shared", "model.forward_shared")
            t.patch(owner, "forward_branch", "model.forward_branch")
        t.patch(model, "bilinear_upsample", "autograd.bilinear_upsample")
        for owner in (nets, model):
            t.patch(owner, "conv2d", "autograd.conv2d", after=_conv_macs)
        t.patch(training, "backward", "autograd.backward.{loop}")
        t.patch(optim.SgdMomentum, "step", "optim.step.{loop}")
        t.patch(training, "seg_variant", "augment.seg_variant")
        t.patch(training, "cls_variant", "augment.cls_variant")
        t.patch(
            training, "clip_gradients", "training.clip_gradients",
            before=_grads_before, after=_clipped,
        )
        t.patch(graphmatch, "build_graph", "graphmatch.build_graph", after=_graph_nodes)
        t.patch(graphmatch, "build_affinity", "graphmatch.build_affinity", after=_candidates)
        t.patch(graphmatch, "rrwm_match", "graphmatch.rrwm_match", after=_converged)
        yield t
    finally:
        t.restore()


def layer_metrics(t, units, measured_s):
    """Per-layer values from one traced pass of `units` workload units."""

    def per_call(span):
        return 1e3 * t.busy[span] / t.calls[span] if t.calls[span] else 0.0

    def per(total, count):
        return total / count if count else 0.0

    def share(*spans):
        return sum(t.busy[s] for s in spans) / measured_s

    parser_steps = t.calls["autograd.backward.parser"]
    router_steps = t.calls["autograd.backward.router"]
    pooled = t.calls["router.classify_pooled"]
    clips = t.calls["training.clip_gradients"]
    return {
        "router.classify_pooled.ms": per_call("router.classify_pooled"),
        "router.forward.ms": per_call("router.forward"),
        "router.forward.calls": per(t.calls["router.forward"], units),
        "imaging.crops_and_pad.ms": per_call("imaging.crops_and_pad"),
        "router.margin": per(t.sums["router.margin"], pooled),
        "router.entropy": per(t.sums["router.entropy"], pooled),
        "model.infer.ms": per_call("model.infer"),
        "model.forward_shared.ms": per_call("model.forward_shared"),
        "model.forward_branch.ms": per_call("model.forward_branch"),
        "autograd.bilinear_upsample.ms": per_call("autograd.bilinear_upsample"),
        "pipeline.summarize.ms": per_call("pipeline.summarize"),
        "autograd.conv2d.ms": per(1e3 * t.busy["autograd.conv2d"], units),
        "autograd.conv2d.gmac": per(t.sums["conv.gmac"], units),
        "autograd.conv2d.gmac_per_s": per(t.sums["conv.gmac"], t.busy["autograd.conv2d"]),
        "autograd.backward.parser_ms": per_call("autograd.backward.parser"),
        "autograd.backward.router_ms": per_call("autograd.backward.router"),
        "optim.step.parser_ms": per_call("optim.step.parser"),
        "optim.step.router_ms": per_call("optim.step.router"),
        "augment.seg_variant.ms": per(1e3 * t.busy["augment.seg_variant"], parser_steps),
        "augment.cls_variant.ms": per(1e3 * t.busy["augment.cls_variant"], router_steps),
        "training.clip_gradients.ms": per_call("training.clip_gradients"),
        "training.clipped_frac": per(t.sums["clipped"], clips),
        "graphmatch.build_graph.ms": per_call("graphmatch.build_graph"),
        "graphmatch.build_affinity.ms": per_call("graphmatch.build_affinity"),
        "graphmatch.rrwm_match.ms": per_call("graphmatch.rrwm_match"),
        "graphmatch.affinity.candidates": per(
            t.sums["affinity.candidates"], t.calls["graphmatch.build_affinity"]
        ),
        "graphmatch.graph.nodes": per(t.sums["graph.nodes"], t.calls["graphmatch.build_graph"]),
        "graphmatch.rrwm_match.converged_frac": per(
            t.sums["rrwm.converged"], t.calls["graphmatch.rrwm_match"]
        ),
        "share.router": share("router.classify_pooled", "training.train_router"),
        "share.parser": share("model.infer", "training.train_parser"),
        "share.graphmatch": share(
            "graphmatch.build_graph", "graphmatch.build_affinity", "graphmatch.rrwm_match"
        ),
        "share.backward": share("autograd.backward.parser", "autograd.backward.router"),
    }


def _conv_layers(stack, in_shape, prefix):
    """(name, input shape, spec) for each conv of a stack, walking its shapes."""
    c, h, w = in_shape
    out = []
    for entry in stack:
        if isinstance(entry, ConvSpec):
            out.append((f"{prefix}c{len(out)}", (c, h, w), entry))
            c, h, w = entry.out_channels, entry.out_size(h), entry.out_size(w)
        elif entry[0] == "maxpool":
            pooled = autograd.maxpool2d(autograd.Tensor(np.zeros((c, h, w))), *entry[1:])
            c, h, w = pooled.shape
    return out, (c, h, w)


def conv_table(seed, size=128):
    """Forward and backward ms and MMAC for each router and parser-trunk conv
    at its 128 px input shape, via autograd.conv2d under a Tape."""
    rng = make_rng((seed, 7))
    layers, _ = _conv_layers(router.ROUTER_STACK, (1, size, size), "router.")
    cfg = ModelConfig()
    shared, feats = _conv_layers(cfg.shared_stack, (1, size, size), "parser.shared.")
    branch, _ = _conv_layers(cfg.branch_stack, feats, "parser.branch.")
    out = {}
    for name, (c, h, w), spec in layers + shared + branch:
        k = spec.kernel
        x = autograd.Tensor(rng.random((c, h, w)).astype(np.float32))
        wt = autograd.he_normal(rng, (spec.out_channels, c, k, k), fan_in=c * k * k)
        b = autograd.Tensor(np.zeros(spec.out_channels, dtype=np.float32))
        ho, wo = spec.out_size(h), spec.out_size(w)
        g = rng.standard_normal((spec.out_channels, ho, wo))
        fwd, bwd = [], []
        for _ in range(CONV_TABLE_REPEATS):
            with Tape() as tape:
                t0 = perf_counter()
                y = autograd.conv2d(x, wt, b, spec)
                t1 = perf_counter()
                loss = autograd.weighted_sum(y, g)
            t2 = perf_counter()
            autograd.backward(tape, loss)
            t3 = perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        net, layer = name.split(".", 1)
        out[f"conv.{net}.{layer}.fwd_ms"] = 1e3 * statistics.median(fwd)
        out[f"conv.{net}.{layer}.bwd_ms"] = 1e3 * statistics.median(bwd)
        out[f"conv.{net}.{layer}.mmac"] = spec.out_channels * c * k * k * ho * wo / 1e6
    return out
