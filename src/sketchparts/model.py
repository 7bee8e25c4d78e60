"""The two-level parser: shared trunk, hard-routed expert branches, pose heads.

Level zero is a trunk shared by every category. Level one holds one expert
per super-category: the trunk's remaining blocks, a 1x1 segmentation head
with one output channel per branch part plus background, and a pose head
that reads the pre-softmax, pre-upsample segmentation scores. A sketch runs
through the trunk and then through the one expert it is routed to
(`forward_branch`), in training as in inference. Every pose head runs
POSE_STACK through `nets.run_head`, as the router runs its own stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import ConvSpec, Tensor, bilinear_upsample, conv2d, make_rng
from .checkpoint import read_checkpoint, write_checkpoint
from .errors import CheckpointError, ConfigError, ContractViolation
from .imaging import LabelMap, Raster
from .nets import head_layout, init_params, load_params, run_head, run_stack, stack_layout
from .nets import stride_product
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

# two dilated k=3 s=2 r=2 convs, one big k=11 template conv; run_head adds FC to 8
POSE_STACK = (
    ConvSpec(3, 32, stride=2, dilation=2),
    ConvSpec(3, 32, stride=2, dilation=2),
    ConvSpec(11, 32),
)


@dataclass(frozen=True)
class ModelConfig:
    trunk: tuple = DESK_TRUNK
    split_index: int = 5  # trunk[:split] is shared, trunk[split:] per branch

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
    n = model.taxonomy.num_branches
    if not 0 <= branch < n:
        raise ContractViolation(f"branch {branch} out of range [0, {n})")
    prefix = f"branch{branch}"
    p = model.params
    x = run_stack(features, model.config.branch_stack, prefix, p)
    seg_spec = ConvSpec(1, model.taxonomy.n_parts(branch) + 1)
    scores = conv2d(x, p[f"{prefix}.seg.w"], p[f"{prefix}.seg.b"], seg_spec)
    pose_logits = run_head(scores, POSE_STACK, f"{prefix}.pose", f"{prefix}.pose.fc", p)
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
