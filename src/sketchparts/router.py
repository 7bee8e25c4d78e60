"""K-way super-category sketch classifier with multi-crop pooled inference.

The net is one head (`nets.run_head`): ROUTER_STACK, that is 15x15/3 x64,
pool, 5x5 x128, pool, three 3x3 x256, pool, 1x1 x512, dropout 0.7, then
global average pooling and the linear map `head` down to K scores.

The router sees every sketch at one routing size: each view is cut from the
full-resolution sketch and resampled once, bilinearly, so that its longer
side is ROUTER_SIDE = 64 pixels with the aspect ratio kept. The resampled
view stays grey (ink density in [0, 1]); it is not re-binarised. Training
and inference build that input with the same function, `router_input` for
the whole sketch and `imaging.crops_and_pad` for the 12 pooled views.

The side is pinned to the weights by the checkpoint magic. A checkpoint of
the earlier router, which saw binary views at the sketch's own size, is
refused with a CheckpointError that asks for retraining.

Pooled inference runs on two CPU lanes: one worker thread routes the
mirror's six views while the calling thread routes the sketch's own six,
and the pairs are summed in the serial order, so the scores are the bytes
of a serial loop. The lanes pay with BLAS pinned to one thread
(OPENBLAS_NUM_THREADS=1, as the benchmark and CI run). Under threaded BLAS
they compete with BLAS's own threads for the same CPUs, and routing was
about 14% slower than the serial loop on a 2-vCPU VM. The worker is built
on first use, not at import, and rebuilt in a forked child, whose
inherited worker thread would not exist.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .autograd import ConvSpec, Tensor, make_rng, softmax
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import CheckpointError, ContractViolation
from .imaging import crops_and_pad, grey_view, mirror_v, view_shape
from .nets import head_layout, init_params, load_params, run_head

ROUTER_SIDE = 64
CROP_FRACTION = 0.9
ROUTER_MAGIC = b"SKR2"  # routers trained on grey ROUTER_SIDE views
RETIRED_MAGIC = b"SKRC"  # routers trained on binary views at the sketch's own size

ROUTER_STACK = (
    ConvSpec(15, 64, stride=3),
    ("maxpool", 3, 2),
    ConvSpec(5, 128),
    ("maxpool", 3, 2),
    ConvSpec(3, 256),
    ConvSpec(3, 256),
    ConvSpec(3, 256),
    ("maxpool", 3, 2),
    ConvSpec(1, 512),
    ("dropout", 0.7),
)


class RouterNet:
    def __init__(self, num_classes, params, digest=b"\x00" * 32):
        self.num_classes = num_classes
        self.params = params
        self.digest = digest

    def parameters(self):
        return list(self.params.items())


def router_layout(num_classes):
    """(name, shape, fan_in) of every router parameter, in creation order."""
    if num_classes < 2:
        raise ContractViolation(f"router needs at least 2 classes, got {num_classes}")
    return head_layout(1, ROUTER_STACK, "stack", "head", num_classes)


def build_router(num_classes, seed, digest=b"\x00" * 32):
    return RouterNet(num_classes, init_params(make_rng(seed), router_layout(num_classes)), digest)


def router_input(sketch):
    """The whole sketch as the router sees it: a grey view at ROUTER_SIDE."""
    h, w = sketch.height, sketch.width
    return grey_view(sketch, 0, 0, h, w, view_shape(h, w, ROUTER_SIDE))


def forward(net, view, rng=None, training=False):
    """Logits for one router view, a 2-d float32 array whose longer side is
    ROUTER_SIDE."""
    if view.ndim != 2 or max(view.shape) != ROUTER_SIDE:
        raise ContractViolation(
            f"router views are {ROUTER_SIDE} px on the longer side, got {view.shape}"
        )
    x = Tensor(view[None], requires_grad=False)
    return run_head(x, ROUTER_STACK, "stack", "head", net.params, rng, training)


_lane = None  # the one-worker mirror lane, built on first use
_lane_lock = threading.Lock()


def _mirror_lane():
    global _lane
    with _lane_lock:
        if _lane is None:
            _lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="router-mirror")
        return _lane


def _forget_lane():
    # a forked child inherits the executor but not its worker thread, so a
    # job submitted to it would never run
    global _lane, _lane_lock
    _lane = None
    _lane_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def _view_probs(net, sketch):
    """float64 softmax scores of the six crop/pad views of a sketch."""
    return [
        softmax(forward(net, v)).data.astype(np.float64)
        for v in crops_and_pad(sketch, CROP_FRACTION, ROUTER_SIDE)
    ]


def _mirror_probs(net, sketch):
    return _view_probs(net, mirror_v(sketch))


def classify_pooled(net, sketch):
    """Average post-softmax scores over 12 views: the six crop/pad views of
    the sketch and of its mirror image.

    Scores are accumulated per view pair, so mirroring the input permutes
    each pair only and the pooled result is bit-identical.

    The mirror's six views run on the worker lane while the calling thread
    runs the sketch's own six. The function is inference-only: tapes are
    per thread, so the worker never records onto a Tape the caller entered.
    """
    future = _mirror_lane().submit(_mirror_probs, net, sketch)
    try:
        own = _view_probs(net, sketch)
    finally:
        future.exception()  # waits: no call leaves its half queued on the lane
    mirrored = future.result()
    total = np.zeros(net.num_classes, dtype=np.float64)
    for a, b in zip(own, mirrored):
        total += a + b
    scores = total / (2 * len(own))
    return int(scores.argmax()), scores


def save_router(net, path):
    write_checkpoint(path, ROUTER_MAGIC, net.digest, net.parameters())


def load_router(path, num_classes, expected_digest=None):
    with open(path, "rb") as fh:
        if fh.read(len(RETIRED_MAGIC)) == RETIRED_MAGIC:
            raise CheckpointError(
                0,
                f"router checkpoint predates routing on grey {ROUTER_SIDE} px views; "
                "retrain it with train-router",
            )
    digest, tensors, offsets = read_checkpoint(path, ROUTER_MAGIC)
    if expected_digest is not None and digest != expected_digest:
        raise CheckpointError(8, "router was trained against a different taxonomy")
    params = load_params(tensors, offsets, router_layout(num_classes), "the router layout")
    return RouterNet(num_classes, params, digest)
