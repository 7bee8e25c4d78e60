"""Building and running conv stacks from layer descriptors.

A stack is a sequence of ConvSpec entries (conv + relu) interleaved with
("maxpool", window, stride) and ("dropout", p) markers. A head, run by
`run_head` for the router and every pose head, is a stack, then global
average pooling, then a linear map `fc`. Parameters live in a flat name ->
Tensor dict so checkpointing and optimizer grouping stay trivial. A net
describes its parameters once, as a layout: an ordered list of (name,
shape, fan_in). `init_params` draws a new net from it and `load_params`
reads a checkpoint against it, so loading draws no random numbers.
"""

from __future__ import annotations

from .autograd import ConvSpec, Tensor, conv2d, dropout, global_average_pool, he_normal, linear
from .autograd import maxpool2d, relu
from .checkpoint import read_checkpoint
from .errors import ConfigError

import numpy as np


def stack_layout(in_channels, stack, prefix):
    """(name, shape, fan_in) of every parameter of the stack in creation
    order, and the stack's output channels. fan_in is None for biases."""
    layout = []
    ch = in_channels
    ci = 0
    for entry in stack:
        if isinstance(entry, ConvSpec):
            k = entry.kernel
            layout.append((f"{prefix}.c{ci}.w", (entry.out_channels, ch, k, k), ch * k * k))
            layout.append((f"{prefix}.c{ci}.b", (entry.out_channels,), None))
            ch = entry.out_channels
            ci += 1
        elif entry[0] not in ("maxpool", "dropout"):
            raise ConfigError(f"unknown stack entry {entry!r}")
    return layout, ch


def head_layout(in_channels, stack, prefix, fc, n_out):
    """stack_layout's entries for `stack`, then those of the linear map `fc`
    from the stack's output channels to n_out scores."""
    layout, ch = stack_layout(in_channels, stack, prefix)
    return layout + [(f"{fc}.w", (n_out, ch), ch), (f"{fc}.b", (n_out,), None)]


def init_params(rng, layout):
    """Parameters for a (name, shape, fan_in) layout, drawn in its order:
    He-initialized weights, zero biases (fan_in None)."""
    return {
        name: he_normal(rng, shape, fan_in)
        if fan_in is not None
        else Tensor(np.zeros(shape, dtype=np.float32))
        for name, shape, fan_in in layout
    }


def load_params(path, magic, digest, layout, what):
    """The parameters of the checkpoint at `path`, read by read_checkpoint
    against `magic`, taxonomy `digest` and the names and shapes of
    `layout`: the file is refused at its first fault in file order, with a
    CheckpointError that names `path` and that fault's byte offset."""
    tensors = read_checkpoint(path, magic, digest, {n: shape for n, shape, _ in layout}, what)
    return {name: Tensor(a) for name, a in tensors.items()}


def run_stack(x, stack, prefix, params, rng=None, training=False):
    ci = 0
    for entry in stack:
        if isinstance(entry, ConvSpec):
            x = relu(conv2d(x, params[f"{prefix}.c{ci}.w"], params[f"{prefix}.c{ci}.b"], entry))
            ci += 1
        elif entry[0] == "maxpool":
            x = maxpool2d(x, entry[1], entry[2])
        elif entry[0] == "dropout":
            x = dropout(x, entry[1], rng, training=training)
        else:
            raise ConfigError(f"unknown stack entry {entry!r}")
    return x


def run_head(x, stack, prefix, fc, params, rng=None, training=False):
    """Scores of a head: the stack, global average pooling, then `fc`."""
    pooled = global_average_pool(run_stack(x, stack, prefix, params, rng, training))
    return linear(pooled, params[f"{fc}.w"], params[f"{fc}.b"])
