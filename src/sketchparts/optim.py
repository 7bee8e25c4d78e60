"""SGD with momentum and polynomial learning-rate decay.

Update rule per parameter: v <- mu*v - lr*g, p <- p + v, with
lr(t) = base * (1 - t/max_iterations)**power shared across groups. Each
group's base is a multiple of its plan's one rate (the parser's segmentation
output layer and pose head train faster than its body; see
`training.PARSER_GROUPS`). The parser and the router share mu = MOMENTUM and
power = POLY_POWER. This is the update rule alone: a parameter without a
gradient is left as it is, and what to freeze, clip or refuse is decided by
the training loop (`training._sgd`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

MOMENTUM = 0.9
POLY_POWER = 0.9


@dataclass
class ParamGroup:
    name: str
    params: list  # of (name, Tensor)
    lr: float


class SgdMomentum:
    """Velocity state for a set of named parameter groups."""

    def __init__(self, groups, max_iterations):
        self.groups = list(groups)
        self.max_iterations = max_iterations
        self.iteration = 0
        self.velocity = {}
        for group in self.groups:
            for name, p in group.params:
                self.velocity[name] = np.zeros_like(p.data)

    def lr_factor(self):
        return (1.0 - self.iteration / self.max_iterations) ** POLY_POWER

    def step(self):
        """Apply one update to every parameter that has a gradient; one
        without a gradient, and its velocity, stay as they are."""
        if self.iteration >= self.max_iterations:
            raise ContractViolation(
                f"optimizer stepped past max_iterations={self.max_iterations}"
            )
        factor = self.lr_factor()
        for group in self.groups:
            lr = group.lr * factor
            for name, p in group.params:
                if p.grad is None:
                    continue
                v = self.velocity[name]
                v *= MOMENTUM
                v -= (lr * p.grad).astype(v.dtype, copy=False)
                p.data += v
        self.iteration += 1
