"""Loss construction and the training loops.

Per-pixel cross-entropy is always rebalanced by alpha_c = M / f_c, where
f_c is a label's average pixel mass over the images containing it and M
the median of those masses, over every label, background included, so
small parts weigh more. The combined objective adds the pose cross-entropy
scaled by lambda, 1.0 by default (`TrainPlan.lam`). That is the current
default, not a tuned optimum: short probes parsed 0.05-0.13 aIOU better at
lambda = 0.1, so it is due to be re-tuned. Training always augments:
each parser step draws one of the 14 rotation/mirror variants of its
sample. A router draw is a pick, one of the 70 classifier variants and a
dropout seed of its own. The parser (mini-batch 1) and the router train
through one step loop, `_sgd`: SGD with momentum under polynomial rate
decay (`optim.SgdMomentum`). Each plan has one learning rate, `lr`; the
parser's groups train at their multiples of it in `PARSER_GROUPS`, its
segmentation and pose heads 10 and 50 times faster than the body. A
router step streams its mini-batch: each draw is recorded and replayed on
a tape of its own into one `autograd.GradientSum`, so the step's memory
does not grow with batch_size, and its weights and losses are the bytes
of one tape over the whole batch. `_sgd` alone decides a step's policy:
frozen groups, the clip, and divergence. The first overflow, invalid or
divide-by-zero value numpy meets in an iteration, as a learning rate or
lambda too large for the run brings about, stops training with a
ConfigError that names the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import CLS_COMBOS, SEG_COMBOS, cls_variant, seg_variant
from .autograd import (
    GradientSum,
    Tape,
    add,
    backward,
    make_rng,
    scale,
    softmax_ce,
    weighted_softmax_ce,
    zero_grads,
)
from .errors import ConfigError, ContractViolation, check_fields
from .model import forward_branch, forward_shared
from .optim import ParamGroup, SgdMomentum
from .poses import POSE_INDEX
from .router import router_input
from .router import forward as router_forward


def compute_class_balance(samples, branch, taxonomy):
    """alpha_c = M / f_c with f_c = (pixels of c) / (images containing c).

    Returns the float64 per-label loss weights of the branch, indexed by
    branch label id. Every label takes part, background (label 0) included.

    Labels never seen in the branch's samples are a configuration error; a
    part id past the branch's parts breaks the contract.
    """
    n_labels = taxonomy.n_parts(branch) + 1
    pixel_count = np.zeros(n_labels, dtype=np.float64)
    image_count = np.zeros(n_labels, dtype=np.int64)
    for s in samples:
        if taxonomy.branch_of(s.category) != branch:
            continue
        counts = taxonomy.label_counts(s.labels.labels, branch, f"{s.category} label map")
        pixel_count += counts
        image_count += counts > 0
    for label in range(n_labels):
        if image_count[label] == 0:
            name = "background" if label == 0 else taxonomy.part_names(branch)[label - 1]
            raise ConfigError(
                f"label {label} ({name}) of branch {branch} is absent from the dataset"
            )
    f = pixel_count / image_count
    return np.median(f) / f


def total_loss(seg_scores, labelmap, balance, pose_logits, pose_label, lam):
    """Weighted segmentation CE, with per-label weights `balance`, plus lam
    times the 8-way pose CE against the pose named `pose_label`. The
    segmentation CE reads the (labels, H, W) scores as they are.

    Returns (taped scalar, seg value, pose value).
    """
    _, h, w = seg_scores.shape
    if (h, w) != (labelmap.height, labelmap.width):
        raise ContractViolation(
            f"scores {w}x{h} vs labels {labelmap.width}x{labelmap.height}"
        )
    seg = weighted_softmax_ce(seg_scores, labelmap.labels, balance)
    if lam == 0.0:
        return seg, seg.data.item(), 0.0
    pose = softmax_ce(pose_logits, POSE_INDEX[pose_label])
    total = add(seg, scale(pose, lam))
    return total, seg.data.item(), pose.data.item()


# the parser's optimizer groups, in order, with their multiples of the plan's rate
PARSER_GROUPS = {"shared": 1.0, "branch_body": 1.0, "seg_head": 10.0, "pose_head": 50.0}
CLIP_NORM = 10.0  # the parser's global gradient norm cap


@dataclass(frozen=True)
class TrainPlan:
    iterations: int = 3000
    lr: float = 5e-4  # the body's rate; see PARSER_GROUPS
    lam: float = 1.0
    seed: int = 0
    freeze: tuple = ()  # of PARSER_GROUPS; a list is stored as a tuple

    def __post_init__(self):
        check_fields(self, ints=("iterations", "seed"), reals=("lr", "lam"), names=("freeze",))
        if self.iterations < 1 or self.lr <= 0:
            raise ConfigError("iterations and lr must be positive")
        if not np.isfinite(self.lr * max(PARSER_GROUPS.values())):
            raise ConfigError(f"lr {self.lr!r} is too large: a group's rate overflows")
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        unknown = [g for g in self.freeze if g not in PARSER_GROUPS]
        if unknown:
            raise ConfigError(
                f"unknown freeze group(s) {unknown}; known: {list(PARSER_GROUPS)}"
            )


def clip_gradients(params, max_norm):
    """Scale all gradients down so their joint L2 norm is at most max_norm."""
    grads = [t for t in params if t.grad is not None]
    norm = np.sqrt(sum(float(np.square(t.grad, dtype=np.float64).sum()) for t in grads))
    if norm > max_norm:
        factor = max_norm / norm
        for t in grads:
            t.grad = t.grad * factor


def _sgd(opt, params, step, clip_norm, frozen):
    """The shared step loop and the one owner of step policy: one optimizer
    step per step() call.

    step() fills the parameters' .grad and returns (loss, log row). The
    groups named in `frozen` then lose their gradients, so the clip, to
    clip_norm unless it is None, and the update both pass them by. Each
    iteration runs with numpy's overflow, invalid and divide-by-zero
    errors raised (underflow ignored); as every weight and input entering
    the loop is finite, the first of them is the first non-finite value,
    and it stops training with a ConfigError naming the iteration. Each log
    row gains "iter" first and, last, the rate of the first parameter group
    at that step.
    """
    fixed = [t for g in opt.groups if g.name in frozen for _, t in g.params]
    log = []
    for it in range(opt.max_iterations):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                loss, row = step()
                for t in fixed:
                    t.grad = None
                if clip_norm is not None:
                    clip_gradients(params, clip_norm)
                lr = opt.lr_factor() * opt.groups[0].lr
                opt.step()
        except FloatingPointError as exc:
            raise ConfigError(f"training diverged at iteration {it}: {exc}") from None
        zero_grads(params)
        log.append({"iter": it, **row, "lr": lr})
    return log


def _parser_group(name):
    if name.startswith("shared."):
        return "shared"
    return "seg_head" if ".seg." in name else "pose_head" if ".pose." in name else "branch_body"


def _parser_groups(model, plan):
    """PARSER_GROUPS in order, each at its multiple of the plan's rate."""
    params = model.params.items()
    return [
        ParamGroup(g, [(n, t) for n, t in params if _parser_group(n) == g], plan.lr * k)
        for g, k in PARSER_GROUPS.items()
    ]


def train_parser(model, samples, plan):
    """Mini-batch-1 training over routed experts; returns the loss log.

    Log rows are dicts with iter, seg_loss, pose_loss, total, lr.
    """
    if not samples:
        raise ContractViolation("training set is empty")
    tax = model.taxonomy
    branches = [tax.branch_of(s.category) for s in samples]
    balances = {b: compute_class_balance(samples, b, tax) for b in sorted(set(branches))}

    rng = make_rng((plan.seed, 0xC0FFEE))
    order = []

    def step():
        if not order:
            order.extend(rng.permutation(len(samples)))
        idx = int(order.pop())
        sample = seg_variant(samples[idx], int(rng.integers(0, len(SEG_COMBOS))))
        branch = branches[idx]
        sketch = sample.sketch
        with Tape() as tape:
            scores, pose_logits = forward_branch(model, branch, forward_shared(model, sketch))
            loss, seg_v, pose_v = total_loss(
                scores, sample.labels, balances[branch], pose_logits, sample.pose, plan.lam
            )
        backward(tape, loss)
        return loss, {"seg_loss": seg_v, "pose_loss": pose_v, "total": loss.data.item()}

    opt = SgdMomentum(_parser_groups(model, plan), plan.iterations)
    params = [t for _, t in model.parameters()]
    return _sgd(opt, params, step, CLIP_NORM, plan.freeze)


# the most int64 draws one numpy array holds: a batch up to it that memory
# cannot hold is a MemoryError, one past it a size numpy cannot express
MAX_BATCH_SIZE = 2**60 - 1


@dataclass(frozen=True)
class RouterPlan:
    iterations: int = 400
    lr: float = 7e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ints=("iterations", "batch_size", "seed"), reals=("lr",))
        if self.iterations < 1 or self.lr <= 0 or self.batch_size < 1:
            raise ConfigError("iterations, lr and batch size must be positive")
        if self.batch_size > MAX_BATCH_SIZE:
            raise ConfigError(
                f"batch_size must be at most {MAX_BATCH_SIZE}, got {self.batch_size}"
            )


def train_router(net, labelled, plan):
    """Train the K-way classifier on (Raster, class index) pairs.

    Every draw applies one of the 70 classifier augmentations on the fly,
    at full resolution, which samples the expanded dataset uniformly
    without materializing it. The drawn sketch then reaches the net through
    `router_input`, as at inference.

    A step draws the batch's picks, variants and dropout seeds, in that
    order. Each draw is a pick, a variant and its own seed, so no draw
    depends on another. The step streams its batch: each draw runs forward
    and backward on a tape of its own, last draw first, into one
    GradientSum, so the step holds one draw's activations whatever the batch
    size. The leaves receive their gradients in the order that one tape over
    the whole batch would give them, and the weights and losses are its
    bytes.
    """
    if not labelled:
        raise ContractViolation("training set is empty")
    for _, label in labelled:
        if not 0 <= label < net.num_classes:
            raise ContractViolation(f"class label {label} out of range [0, {net.num_classes})")
    rng = make_rng((plan.seed, 0xB0A7))

    def step():
        picks = rng.integers(0, len(labelled), size=plan.batch_size)
        variants = rng.integers(0, len(CLS_COMBOS), size=plan.batch_size)
        seeds = rng.integers(0, 2**63, size=plan.batch_size)
        grads = GradientSum()
        terms = [None] * plan.batch_size
        for i in reversed(range(plan.batch_size)):
            sketch, label = labelled[int(picks[i])]
            view = router_input(cls_variant(sketch, int(variants[i])))
            with Tape() as tape:
                logits = router_forward(net, view, rng=make_rng(int(seeds[i])), training=True)
                terms[i] = softmax_ce(logits, label)
                # the gradient the batch mean hands each term
                share = scale(terms[i], 1.0 / plan.batch_size)
            backward(tape, share, into=grads)
        grads.assign()
        batch_loss = terms[0]
        for term in terms[1:]:
            batch_loss = add(batch_loss, term)
        loss = scale(batch_loss, 1.0 / plan.batch_size)
        return loss, {"loss": loss.data.item()}

    opt = SgdMomentum([ParamGroup("router", net.parameters(), plan.lr)], plan.iterations)
    params = [t for _, t in net.parameters()]
    return _sgd(opt, params, step, None, ())
