import numpy as np
import pytest

from sketchparts.autograd import ConvSpec, Tensor, make_rng
from sketchparts.errors import ConfigError
from sketchparts.nets import init_params, run_stack, stack_layout

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
