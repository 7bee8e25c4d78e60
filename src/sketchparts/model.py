"""The two-level parser: shared trunk, hard-routed expert branches, pose heads.

Level zero is SHARED_STACK, five convs shared by every category. Level one
holds one expert per super-category: BRANCH_STACK, a 1x1 segmentation head
with one output channel per branch part plus background, and a pose head
that reads the pre-softmax, pre-upsample segmentation scores. The convs
downsample by STRIDE. A sketch runs through the trunk and then through the
one expert it is routed to (`forward_branch`), in training as in inference.
Every pose head runs POSE_STACK through `nets.run_head`, as the router does.

The parser takes a sketch of any size H x W and returns H x W scores:
`forward_shared` zero-pads the bottom and right edges up to STRIDE and
returns the trunk's features with the sketch's frame (H, W), from which
`forward_branch` upsamples the expert's scores by STRIDE to the top-left
H x W. The pose head reads the expert's scores of the padded sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import ConvSpec, Tensor, bilinear_upsample, conv2d, make_rng
from .checkpoint import write_checkpoint
from .errors import ContractViolation
from .imaging import INK, LabelMap
from .nets import head_layout, init_params, load_params, run_head, run_stack, stack_layout
from .poses import POSES

MODEL_MAGIC = b"SKPC"

SHARED_STACK = (
    ConvSpec(3, 16, stride=2),
    ConvSpec(3, 32, stride=2),
    ConvSpec(3, 64, stride=2),
    ConvSpec(3, 64, dilation=2),
    ConvSpec(3, 128, dilation=2),
)
BRANCH_STACK = (ConvSpec(3, 128, dilation=2),)
STRIDE = math.prod(spec.stride for spec in SHARED_STACK + BRANCH_STACK)

# two dilated k=3 s=2 r=2 convs, one big k=11 template conv; run_head adds FC to 8
POSE_STACK = (
    ConvSpec(3, 32, stride=2, dilation=2),
    ConvSpec(3, 32, stride=2, dilation=2),
    ConvSpec(11, 32),
)


@dataclass(frozen=True)
class ModelConfig:
    """The fixed architecture, with no fields. It remains a class because
    `build_model`, `load_checkpoint` and the benchmark take it or read it."""

    shared_stack = SHARED_STACK
    branch_stack = BRANCH_STACK
    stride = STRIDE


class Model:
    def __init__(self, config, taxonomy, params):
        self.config = config
        self.taxonomy = taxonomy
        self.params = params  # ordered name -> Tensor

    def parameters(self):
        return list(self.params.items())


def model_layout(config, taxonomy):
    """(name, shape, fan_in) of every model parameter, in creation order."""
    layout, shared_out = stack_layout(1, config.shared_stack, "shared")
    for b in range(taxonomy.num_branches):
        prefix = f"branch{b}"
        branch, ch = stack_layout(shared_out, config.branch_stack, prefix)
        n_out = taxonomy.n_parts(b) + 1
        layout += branch
        layout += [(f"{prefix}.seg.w", (n_out, ch, 1, 1), ch), (f"{prefix}.seg.b", (n_out,), None)]
        layout += head_layout(n_out, POSE_STACK, f"{prefix}.pose", f"{prefix}.pose.fc", len(POSES))
    return layout


def build_model(config, taxonomy, seed):
    """He-initialized model; identical seeds give identical parameters."""
    return Model(config, taxonomy, init_params(make_rng(seed), model_layout(config, taxonomy)))


def forward_shared(model, sketch):
    """(features, (height, width)): the shared trunk on a Raster zero-padded
    at the bottom and right to the stride and scaled to [0, 1], and the
    Raster's own frame. The input is a constant, so it needs no gradient."""
    s = model.config.stride
    h, w = sketch.height, sketch.width
    x = np.zeros((1, h + (-h) % s, w + (-w) % s), dtype=np.float32)
    x[0, :h, :w] = sketch.pixels
    x /= INK
    x = Tensor(x, requires_grad=False)
    return run_stack(x, model.config.shared_stack, "shared", model.params), (h, w)


def forward_branch(model, branch, trunk):
    """Expert forward on forward_shared's pair: (frame-sized scores, pose logits).

    The pose head consumes the pre-softmax scores before upsampling; the
    scores upsample by the stride straight to the frame's height x width,
    dropping the rows and columns of the trunk's padding.
    """
    n = model.taxonomy.num_branches
    if not 0 <= branch < n:
        raise ContractViolation(f"branch {branch} out of range [0, {n})")
    features, (height, width) = trunk
    prefix = f"branch{branch}"
    p = model.params
    x = run_stack(features, model.config.branch_stack, prefix, p)
    seg_spec = ConvSpec(1, model.taxonomy.n_parts(branch) + 1)
    scores = conv2d(x, p[f"{prefix}.seg.w"], p[f"{prefix}.seg.b"], seg_spec)
    pose_logits = run_head(scores, POSE_STACK, f"{prefix}.pose", f"{prefix}.pose.fc", p)
    return bilinear_upsample(scores, model.config.stride, height, width), pose_logits


def infer(model, branch, sketch):
    """Parse one sketch through a chosen expert: (H x W LabelMap, pose label).

    A deliberately mis-routed branch still yields a valid map in that
    branch's label space; that is the best-guess behaviour for unseen
    categories.
    """
    scores, pose_logits = forward_branch(model, branch, forward_shared(model, sketch))
    pred = scores.data.argmax(axis=0).astype(np.uint8)
    pose = POSES[int(pose_logits.data.argmax())]
    return LabelMap(pred), pose


def save_checkpoint(model, path):
    write_checkpoint(path, MODEL_MAGIC, model.taxonomy.digest(), model.parameters())


def load_checkpoint(path, config, taxonomy):
    """Rebuild a model from a checkpoint; refuses a mismatched taxonomy."""
    layout = model_layout(config, taxonomy)
    params = load_params(path, MODEL_MAGIC, taxonomy.digest(), layout, "the model config")
    return Model(config, taxonomy, params)
