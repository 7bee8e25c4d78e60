"""The two-level parser: shared trunk, hard-routed expert branches, pose heads.

Level zero is a trunk shared by every category. Level one holds one expert
per super-category: the trunk's remaining blocks, a 1x1 segmentation head
with one output channel per branch part plus background, and a pose head
that reads the pre-softmax, pre-upsample segmentation scores. A sketch runs
through the trunk and then through the one expert it is routed to
(`forward_branch`), in training as in inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import (
    ConvSpec,
    Tensor,
    bilinear_upsample,
    conv2d,
    global_average_pool,
    linear,
    make_rng,
    relu,
)
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import CheckpointError, ConfigError, ContractViolation
from .imaging import LabelMap, Raster
from .nets import init_params, load_params, run_stack, stack_layout, stride_product
from .poses import POSES

MODEL_MAGIC = b"SKPC"

DESK_TRUNK = (
    ConvSpec(3, 16, stride=2),
    ConvSpec(3, 32, stride=2),
    ConvSpec(3, 64, stride=2),
    ConvSpec(3, 64, dilation=2),
    ConvSpec(3, 128, dilation=2),
    ConvSpec(3, 128, dilation=2),
)


@dataclass(frozen=True)
class PoseHeadSpec:
    """Two dilated k=3 s=2 r=2 convs, one big k=11 template conv, FC to 8."""

    channels: tuple = (32, 32)
    template_filters: int = 32
    template_kernel: int = 11

    def stack(self):
        convs = [ConvSpec(3, ch, stride=2, dilation=2) for ch in self.channels]
        convs.append(ConvSpec(self.template_kernel, self.template_filters))
        return tuple(convs)


@dataclass(frozen=True)
class ModelConfig:
    trunk: tuple = DESK_TRUNK
    split_index: int = 5  # trunk[:split] is shared, trunk[split:] per branch
    pose: PoseHeadSpec = field(default_factory=PoseHeadSpec)

    def __post_init__(self):
        if not 0 < self.split_index <= len(self.trunk):
            raise ConfigError(
                f"split index {self.split_index} outside trunk of {len(self.trunk)} blocks"
            )

    @property
    def shared_stack(self):
        return self.trunk[: self.split_index]

    @property
    def branch_stack(self):
        return self.trunk[self.split_index :]

    @property
    def stride(self):
        return stride_product(self.trunk)


class Model:
    def __init__(self, config, taxonomy, params):
        self.config = config
        self.taxonomy = taxonomy
        self.params = params  # ordered name -> Tensor

    @property
    def num_branches(self):
        return self.taxonomy.num_branches

    def seg_channels(self, branch):
        return self.taxonomy.n_parts(branch) + 1

    def parameters(self):
        return list(self.params.items())

    def shared_names(self):
        return [n for n in self.params if n.startswith("shared.")]


def model_layout(config, taxonomy):
    """(name, shape, fan_in) of every model parameter, in creation order."""
    layout, shared_out = stack_layout(1, config.shared_stack, "shared")
    for b in range(taxonomy.num_branches):
        prefix = f"branch{b}"
        branch, ch = stack_layout(shared_out, config.branch_stack, prefix)
        n_out = taxonomy.n_parts(b) + 1
        pose, pose_in = stack_layout(n_out, config.pose.stack(), f"{prefix}.pose")
        layout += branch
        layout += [(f"{prefix}.seg.w", (n_out, ch, 1, 1), ch), (f"{prefix}.seg.b", (n_out,), None)]
        layout += pose
        layout += [
            (f"{prefix}.pose.fc.w", (len(POSES), pose_in), pose_in),
            (f"{prefix}.pose.fc.b", (len(POSES),), None),
        ]
    return layout


def build_model(config, taxonomy, seed):
    """He-initialized model; identical seeds give identical parameters."""
    return Model(config, taxonomy, init_params(make_rng(seed), model_layout(config, taxonomy)))


def sketch_input(sketch):
    """Raster -> float tensor in [0, 1], shape (1, H, W); a constant, so it
    needs no gradient."""
    return Tensor(
        (sketch.pixels[None, :, :].astype(np.float32)) / 255.0, requires_grad=False
    )


def forward_shared(model, x):
    """Run the shared trunk on a (1, H, W) input tensor."""
    _, h, w = x.shape
    s = model.config.stride
    if h % s or w % s:
        raise ContractViolation(f"input {h}x{w} not divisible by trunk stride {s}")
    return run_stack(x, model.config.shared_stack, "shared", model.params)


def forward_branch(model, branch, features):
    """Expert forward: (upsampled part scores, pose logits).

    The pose head consumes the pre-softmax scores before upsampling.
    """
    if not 0 <= branch < model.num_branches:
        raise ContractViolation(f"branch {branch} out of range [0, {model.num_branches})")
    prefix = f"branch{branch}"
    p = model.params
    x = run_stack(features, model.config.branch_stack, prefix, p)
    seg_spec = ConvSpec(1, model.seg_channels(branch))
    scores = conv2d(x, p[f"{prefix}.seg.w"], p[f"{prefix}.seg.b"], seg_spec)

    y = scores
    for i, spec in enumerate(model.config.pose.stack()):
        y = relu(conv2d(y, p[f"{prefix}.pose.c{i}.w"], p[f"{prefix}.pose.c{i}.b"], spec))
    pooled = global_average_pool(y)
    pose_logits = linear(pooled, p[f"{prefix}.pose.fc.w"], p[f"{prefix}.pose.fc.b"])

    scores_up = bilinear_upsample(scores, model.config.stride)
    return scores_up, pose_logits


def pad_to_stride(sketch, stride):
    h, w = sketch.height, sketch.width
    ph = (-h) % stride
    pw = (-w) % stride
    if ph == 0 and pw == 0:
        return sketch
    return Raster(np.pad(sketch.pixels, ((0, ph), (0, pw)), constant_values=0))


def infer(model, branch, sketch):
    """Parse one sketch through a chosen expert: (LabelMap, pose label).

    A deliberately mis-routed branch still yields a valid map in that
    branch's label space; that is the best-guess behaviour for unseen
    categories.
    """
    padded = pad_to_stride(sketch, model.config.stride)
    feats = forward_shared(model, sketch_input(padded))
    scores, pose_logits = forward_branch(model, branch, feats)
    pred = scores.data.argmax(axis=0).astype(np.uint8)
    pred = pred[: sketch.height, : sketch.width]
    pose = POSES[int(pose_logits.data.argmax())]
    return LabelMap(pred), pose


def save_checkpoint(model, path):
    write_checkpoint(path, MODEL_MAGIC, model.taxonomy.digest(), model.parameters())


def load_checkpoint(path, config, taxonomy):
    """Rebuild a model from a checkpoint; refuses a mismatched taxonomy."""
    digest, tensors, offsets = read_checkpoint(path, MODEL_MAGIC)
    if digest != taxonomy.digest():
        raise CheckpointError(
            8, "checkpoint was written for a different taxonomy (digest mismatch)"
        )
    params = load_params(tensors, offsets, model_layout(config, taxonomy), "the model config")
    return Model(config, taxonomy, params)
