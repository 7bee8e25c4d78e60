import numpy as np
import pytest

from sketchparts.autograd import ConvSpec, Tensor, make_rng
from sketchparts.errors import ConfigError
from sketchparts.model import SHARED_STACK
from sketchparts.nets import init_params, run_stack, skip_stack_rng, stack_layout, stack_shape
from sketchparts.router import ROUTER_STACK

CONV = ConvSpec(3, 4)


# A misspelt marker must not be skipped: behind a head's global average pool
# a missing max pool or dropout would go unnoticed.
@pytest.mark.parametrize("marker", [("maxpol", 2, 2), ("relu",)], ids=["misspelt", "relu"])
def test_unknown_stack_marker_rejected(marker):
    with pytest.raises(ConfigError, match="unknown stack entry"):
        stack_layout(1, (CONV, marker), "s")
    params = init_params(make_rng(0), stack_layout(1, (CONV,), "s")[0])
    x = Tensor(np.zeros((1, 8, 8), dtype=np.float32))
    with pytest.raises(ConfigError, match="unknown stack entry"):
        run_stack(x, (CONV, marker), "s", params)


@pytest.mark.parametrize("stack", [ROUTER_STACK, SHARED_STACK], ids=["router", "shared"])
@pytest.mark.parametrize(
    "side", [(64, 64), (40, 100), (63, 37), (33, 33), (1, 1), (1, 9)],
    ids=["square", "wide", "odd", "odd_square", "pixel", "row"],
)
def test_stack_shape_is_run_stack_output_shape(stack, side):
    params = init_params(make_rng(3), stack_layout(1, stack, "s")[0])
    x = Tensor(np.ones((1, *side), dtype=np.float32), requires_grad=False)
    assert stack_shape((1, *side), stack) == run_stack(x, stack, "s", params).shape


# A stack with dropout before, between and after its convs, one of them at
# p = 0, which draws nothing.
DROPPY = (("dropout", 0.3), CONV, ("maxpool", 3, 2), ("dropout", 0.0), CONV, ("dropout", 0.5))


@pytest.mark.parametrize(
    "stack", [ROUTER_STACK, SHARED_STACK, DROPPY], ids=["router", "shared", "droppy"]
)
@pytest.mark.parametrize("side", [(64, 64), (40, 100), (63, 37), (1, 1)],
                         ids=["square", "wide", "odd", "pixel"])
def test_skip_stack_rng_advances_as_training_run_stack(stack, side):
    params = init_params(make_rng(3), stack_layout(1, stack, "s")[0])
    x = Tensor(np.ones((1, *side), dtype=np.float32), requires_grad=False)
    ran, skipped = make_rng(5), make_rng(5)
    run_stack(x, stack, "s", params, rng=ran, training=True)
    skip_stack_rng(skipped, (1, *side), stack)
    assert np.array_equal(ran.random(8), skipped.random(8))
