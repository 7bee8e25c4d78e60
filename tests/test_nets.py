import numpy as np
import pytest

from sketchparts.autograd import ConvSpec, Tensor, make_rng
from sketchparts.checkpoint import write_checkpoint
from sketchparts.errors import CheckpointError, ConfigError
from sketchparts.nets import init_params, load_params, run_stack, stack_layout

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


MAGIC = b"TEST"
DIGEST = bytes(range(32))
LAYOUT = stack_layout(1, (CONV, CONV), "s")[0]


def saved_params(tmp_path, layout=LAYOUT, digest=DIGEST):
    params = init_params(make_rng(7), layout)
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, MAGIC, digest, list(params.items()))
    return path, params


def test_load_params_wraps_the_checkpoints_tensors(tmp_path):
    path, saved = saved_params(tmp_path)
    loaded = load_params(path, MAGIC, DIGEST, LAYOUT, "the test stack")
    assert list(loaded) == list(saved)
    for name, t in loaded.items():
        assert isinstance(t, Tensor) and t.data.tobytes() == saved[name].data.tobytes()


def test_load_params_refuses_another_digest(tmp_path):
    path, _ = saved_params(tmp_path, digest=bytes(32))
    with pytest.raises(CheckpointError, match="different taxonomy") as info:
        load_params(path, MAGIC, DIGEST, LAYOUT, "the test stack")
    assert info.value.offset == 8


def test_load_params_names_whose_layout_refused_it(tmp_path):
    path, _ = saved_params(tmp_path, layout=stack_layout(1, (CONV,), "s")[0])
    with pytest.raises(CheckpointError, match="the test stack expects 4"):
        load_params(path, MAGIC, DIGEST, LAYOUT, "the test stack")
