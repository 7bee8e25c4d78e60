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
refused (`checkpoint.RETIRED`) with a CheckpointError that asks for
retraining.

Pooled inference runs on two CPU lanes: one worker thread routes the
mirror's six views while the calling thread routes the sketch's own six,
and the pairs are summed in the serial order, so the scores are the bytes
of a serial loop. The lanes pay with BLAS pinned to one thread
(OPENBLAS_NUM_THREADS=1, which the CLI sets unless the user does, and the
benchmark and CI run). Under threaded BLAS they compete with BLAS's own
threads for the same CPUs, and routing was about 14% slower than the
serial loop on a 2-vCPU VM. The worker lives for one call: it starts
inside `classify_pooled` and has ended when the call returns or raises, so
no thread is alive between calls and a fork is safe.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .autograd import ConvSpec, Tensor, make_rng, softmax
from .checkpoint import write_checkpoint
from .errors import ContractViolation
from .imaging import crops_and_pad, grey_view, mirror_v, view_shape
from .nets import head_layout, init_params, load_params, run_head

ROUTER_SIDE = 64
CROP_FRACTION = 0.9
ROUTER_MAGIC = b"SKR2"  # routers trained on grey ROUTER_SIDE views

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


def _view_probs(net, sketch):
    """float64 softmax scores of the six crop/pad views of a sketch."""
    return [
        softmax(forward(net, v)).data.astype(np.float64)
        for v in crops_and_pad(sketch, CROP_FRACTION, ROUTER_SIDE)
    ]


def classify_pooled(net, sketch):
    """Average post-softmax scores over 12 views: the six crop/pad views of
    the sketch and of its mirror image.

    Scores are accumulated per view pair, so mirroring the input permutes
    each pair only and the pooled result is bit-identical.

    The mirror's six views run on a worker thread started for this call,
    while the calling thread runs the sketch's own six; the worker has ended
    when the call returns or raises. The function is inference-only: tapes
    are per thread, so the worker never records onto a Tape the caller entered.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="router-mirror") as lane:
        mirrored = lane.submit(_view_probs, net, mirror_v(sketch))
        own = _view_probs(net, sketch)
    total = np.zeros(net.num_classes, dtype=np.float64)
    for a, b in zip(own, mirrored.result()):
        total += a + b
    scores = total / (2 * len(own))
    return int(scores.argmax()), scores


def save_router(net, path):
    write_checkpoint(path, ROUTER_MAGIC, net.digest, net.parameters())


def load_router(path, num_classes, expected_digest):
    """Rebuild a router from a checkpoint; refuses one trained against a
    taxonomy whose digest is not expected_digest."""
    layout = router_layout(num_classes)
    params = load_params(path, ROUTER_MAGIC, expected_digest, layout, "the router layout")
    return RouterNet(num_classes, params, expected_digest)
