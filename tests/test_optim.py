import numpy as np
import pytest

from sketchparts.autograd import Tensor
from sketchparts.errors import ContractViolation
from sketchparts.optim import MOMENTUM, POLY_POWER, ParamGroup, SgdMomentum


def make_param(values):
    p = Tensor(np.asarray(values, dtype=np.float32))
    p.grad = np.ones_like(p.data)
    return p


def test_poly_lr_starts_at_base():
    p = make_param([1.0])
    opt = SgdMomentum([ParamGroup("all", [("p", p)], lr=0.05)], max_iterations=1000)
    assert opt.lr_factor() == 1.0
    opt.step()
    assert np.allclose(p.data, [1.0 - 0.05])


def test_poly_lr_decays():
    p = make_param([1.0])
    opt = SgdMomentum([ParamGroup("all", [("p", p)], lr=1.0)], max_iterations=1000)
    opt.iteration = 500
    assert opt.lr_factor() == pytest.approx(0.5**POLY_POWER)
    assert POLY_POWER == 0.9


def test_momentum_accumulates_velocity():
    p = make_param([0.0])
    opt = SgdMomentum([ParamGroup("all", [("p", p)], lr=1.0)], max_iterations=10**6)
    opt.step()  # v = -1, p = -1
    p.grad = np.ones_like(p.data)
    opt.step()  # v = -0.9 - lr*1 ~ -1.9 (tiny poly decay), p ~ -2.9
    assert MOMENTUM == 0.9
    assert p.data[0] == pytest.approx(-2.9, abs=1e-3)


def test_parameter_without_gradient_left_untouched():
    held = make_param([1.0, 2.0, 3.0])
    moved = make_param([4.0])
    opt = SgdMomentum(
        [
            ParamGroup("held", [("h", held)], lr=0.1),
            ParamGroup("moved", [("m", moved)], lr=0.1),
        ],
        max_iterations=100,
    )
    opt.step()  # both move and gain velocity
    data, velocity = held.data.tobytes(), opt.velocity["h"].tobytes()
    for _ in range(5):
        held.grad = None
        moved.grad = np.ones_like(moved.data)
        opt.step()
    assert held.data.tobytes() == data
    assert opt.velocity["h"].any() and opt.velocity["h"].tobytes() == velocity
    assert moved.data[0] < 4.0 - 0.1


def test_step_past_max_iterations_raises():
    p = make_param([1.0])
    opt = SgdMomentum([ParamGroup("all", [("p", p)], lr=0.1)], max_iterations=1)
    opt.step()
    with pytest.raises(ContractViolation):
        opt.step()
