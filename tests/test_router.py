import numpy as np
import pytest

from sketchparts.autograd import Tensor, make_rng, softmax
from sketchparts.errors import CheckpointError, ContractViolation
from sketchparts.imaging import Raster, mirror_v
from sketchparts.router import (
    RouterNet,
    build_router,
    classify_pooled,
    forward,
    load_router,
    save_router,
)


def random_sketch(rng, size=64):
    return Raster(np.where(rng.random((size, size)) < 0.12, 255, 0).astype(np.uint8))


def test_five_way_scores():
    net = build_router(5, seed=1)
    logits = forward(net, random_sketch(make_rng(2)))
    assert logits.shape == (5,)


def test_same_seed_identical_init():
    a = build_router(3, seed=7)
    b = build_router(3, seed=7)
    for n in a.params:
        assert np.array_equal(a.params[n].data, b.params[n].data)


def test_blank_sketch_finite():
    net = build_router(4, seed=3)
    logits = forward(net, Raster(np.zeros((64, 64), dtype=np.uint8)))
    assert np.isfinite(logits.data).all()


def test_k_below_two_rejected():
    with pytest.raises(ContractViolation):
        build_router(1, seed=0)


def test_pooled_scores_are_simplex():
    net = build_router(3, seed=5)
    _, scores = classify_pooled(net, random_sketch(make_rng(11)))
    assert scores.shape == (3,)
    assert (scores >= 0).all()
    assert scores.sum() == pytest.approx(1.0, abs=1e-6)


def test_pooled_exactly_mirror_invariant():
    net = build_router(4, seed=9)
    rng = make_rng(13)
    for _ in range(3):
        s = random_sketch(rng, 56)
        b1, sc1 = classify_pooled(net, s)
        b2, sc2 = classify_pooled(net, mirror_v(s))
        assert b1 == b2
        assert np.array_equal(sc1, sc2)


def test_single_view_reduces_to_plain_forward():
    net = build_router(3, seed=15)
    s = random_sketch(make_rng(17))
    branch, scores = classify_pooled(net, s, single_view=True)
    plain = softmax(forward(net, s)).data
    assert np.allclose(scores, plain)
    assert branch == int(plain.argmax())


def test_inference_deterministic():
    net = build_router(3, seed=19)
    s = random_sketch(make_rng(21))
    a = classify_pooled(net, s)
    b = classify_pooled(net, s)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_checkpoint_roundtrip(tmp_path):
    net = build_router(5, seed=23, digest=bytes(range(32)))
    p = tmp_path / "router.ckpt"
    save_router(net, p)
    loaded = load_router(p, 5, expected_digest=bytes(range(32)))
    for n in net.params:
        assert np.array_equal(net.params[n].data, loaded.params[n].data)


def test_checkpoint_digest_mismatch(tmp_path):
    net = build_router(5, seed=23, digest=bytes(32))
    p = tmp_path / "router.ckpt"
    save_router(net, p)
    with pytest.raises(CheckpointError, match="taxonomy"):
        load_router(p, 5, expected_digest=bytes(range(32)))


def test_float32_pooled_scores_match_float64_cast():
    net = build_router(4, seed=15)
    params64 = {n: Tensor(t.data.astype(np.float64)) for n, t in net.params.items()}
    net64 = RouterNet(net.num_classes, params64)
    rng = make_rng(17)
    for shape in ((64, 64), (48, 80)):
        sketch = Raster(np.where(rng.random(shape) < 0.12, 255, 0).astype(np.uint8))
        b32, sc32 = classify_pooled(net, sketch)
        b64, sc64 = classify_pooled(net64, sketch)
        assert b32 == b64
        assert np.max(np.abs(sc32 - sc64)) < 1e-5
