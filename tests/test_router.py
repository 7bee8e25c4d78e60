import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from oracles import classify_pooled_serial
from sketchparts import router as router_module
from sketchparts import training as training_module
from sketchparts.autograd import ConvSpec, Tensor, conv2d, dropout, global_average_pool, linear
from sketchparts.autograd import make_rng, maxpool2d, relu, softmax
from sketchparts.checkpoint import write_checkpoint
from sketchparts.errors import CheckpointError, ContractViolation
from sketchparts.imaging import Raster, mirror_v
from sketchparts.router import (
    RETIRED_MAGIC,
    ROUTER_SIDE,
    RouterNet,
    build_router,
    classify_pooled,
    forward,
    load_router,
    router_input,
    save_router,
)
from sketchparts.training import RouterPlan, train_router


def random_sketch(rng, size=64):
    return Raster(np.where(rng.random((size, size)) < 0.12, 255, 0).astype(np.uint8))


def test_five_way_scores():
    net = build_router(5, seed=1)
    logits = forward(net, router_input(random_sketch(make_rng(2))))
    assert logits.shape == (5,)


def test_same_seed_identical_init():
    a = build_router(3, seed=7)
    b = build_router(3, seed=7)
    for n in a.params:
        assert np.array_equal(a.params[n].data, b.params[n].data)


def test_blank_sketch_finite():
    net = build_router(4, seed=3)
    logits = forward(net, router_input(Raster(np.zeros((64, 64), dtype=np.uint8))))
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
    s = random_sketch(make_rng(17), ROUTER_SIDE)
    scores = softmax(forward(net, router_input(s))).data
    plain = softmax(forward(net, s.pixels.astype(np.float32) / 255)).data
    assert np.array_equal(scores, plain)


def test_forward_is_convs_then_dropout_then_pool_then_linear():
    net = build_router(3, seed=43)
    view = router_input(Raster(np.where(make_rng(45).random((48, 80)) < 0.12, 255, 0)))
    p = net.params

    def conv(y, i, spec):
        return relu(conv2d(y, p[f"stack.c{i}.w"], p[f"stack.c{i}.b"], spec))

    y = conv(Tensor(view[None], requires_grad=False), 0, ConvSpec(15, 64, stride=3))
    y = maxpool2d(conv(maxpool2d(y, 3, 2), 1, ConvSpec(5, 128)), 3, 2)
    for i in (2, 3, 4):
        y = conv(y, i, ConvSpec(3, 256))
    y = conv(maxpool2d(y, 3, 2), 5, ConvSpec(1, 512))
    assert y.shape[0] == 512
    dropped = dropout(y, 0.7, make_rng(47), training=True)
    want = linear(global_average_pool(dropped), p["head.w"], p["head.b"])
    got = forward(net, view, rng=make_rng(47), training=True)
    assert np.array_equal(got.data, want.data)
    plain = linear(global_average_pool(y), p["head.w"], p["head.b"])
    assert np.array_equal(forward(net, view).data, plain.data)
    assert not np.array_equal(got.data, plain.data)


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


@pytest.fixture()
def seen_views(monkeypatch):
    """Every view that reaches the router net, at inference or in training."""
    seen = []
    real = router_module.forward

    def recording(net, view, rng=None, training=False):
        seen.append(view.copy())
        return real(net, view, rng=rng, training=training)

    monkeypatch.setattr(router_module, "forward", recording)
    monkeypatch.setattr(training_module, "router_forward", recording)
    return seen


def test_sketch_sizes_reach_the_net_at_one_shape(seen_views):
    net = build_router(3, seed=25)
    for size in (128, 256, 512):
        seen_views.clear()
        classify_pooled(net, random_sketch(make_rng(size), size))
        assert [v.shape for v in seen_views] == [(ROUTER_SIDE, ROUTER_SIDE)] * 12


def test_non_square_sketch_keeps_its_aspect_ratio(seen_views):
    net = build_router(3, seed=27)
    sketch = Raster(np.where(make_rng(29).random((112, 144)) < 0.12, 255, 0).astype(np.uint8))
    classify_pooled(net, sketch)
    assert [v.shape for v in seen_views] == [(50, 64)] * 12
    assert router_input(sketch).shape == (50, 64)


def test_training_and_single_view_feed_the_same_input(seen_views):
    net = build_router(3, seed=31)
    sketch = Raster(np.where(make_rng(33).random((90, 120)) < 0.12, 255, 0).astype(np.uint8))
    train_router(net, [(sketch, 1)], RouterPlan(iterations=1, batch_size=1, augment=False))
    (trained_on,) = seen_views
    routed_on = router_input(sketch)
    assert trained_on.dtype == np.float32
    assert np.array_equal(trained_on, routed_on)


EXTREME_SHAPES = [(1, 1), (2, 200), (300, 8)]


@pytest.mark.parametrize("shape", EXTREME_SHAPES)
def test_extreme_shapes_still_route(shape):
    net = build_router(3, seed=35)
    sketch = Raster(np.where(make_rng(37).random(shape) < 0.5, 255, 0).astype(np.uint8))
    branch, pooled = classify_pooled(net, sketch)
    single = softmax(forward(net, router_input(sketch))).data.astype(np.float64)
    assert 0 <= branch < 3
    for scores in (pooled, single):
        assert np.isfinite(scores).all()
        assert scores.sum() == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("side", [ROUTER_SIDE // 2, 2 * ROUTER_SIDE])
def test_net_refuses_views_of_another_size(side):
    with pytest.raises(ContractViolation, match="longer side"):
        forward(build_router(3, seed=39), np.zeros((side, side), dtype=np.float32))


def test_old_router_checkpoint_refused(tmp_path):
    net = build_router(4, seed=41)
    p = tmp_path / "old.ckpt"
    write_checkpoint(p, RETIRED_MAGIC, net.digest, net.parameters())
    with pytest.raises(CheckpointError, match="retrain") as info:
        load_router(p, 4)
    assert info.value.offset == 0


def pooled_bytes(result):
    branch, scores = result
    return branch, scores.tobytes()


@pytest.mark.parametrize(
    "shape,ink",
    [((128, 128), 0.12), ((112, 144), 0.12), ((96, 168), 0.12), ((128, 128), 0.0)]
    + [(shape, 0.5) for shape in EXTREME_SHAPES],
    ids=["128x128", "112x144", "96x168", "blank", "1x1", "2x200", "300x8"],
)
def test_pooled_scores_are_the_serial_loops_bytes(shape, ink):
    net = build_router(3, seed=49)
    sketch = Raster(np.where(make_rng(51).random(shape) < ink, 255, 0).astype(np.uint8))
    assert pooled_bytes(classify_pooled(net, sketch)) == pooled_bytes(
        classify_pooled_serial(net, sketch)
    )


def test_lane_routes_the_mirror_half_on_its_worker(monkeypatch):
    net = build_router(3, seed=53)
    real = router_module.forward
    threads = []

    def recording(net, view, rng=None, training=False):
        threads.append(threading.current_thread())
        return real(net, view, rng=rng, training=training)

    monkeypatch.setattr(router_module, "forward", recording)
    classify_pooled(net, random_sketch(make_rng(55)))
    here = threading.current_thread()
    assert len(threads) == 12
    assert sum(t is here for t in threads) == 6


def test_concurrent_callers_get_the_serial_bytes():
    net = build_router(3, seed=57)
    sketches = [random_sketch(make_rng(59 + i), 96) for i in range(3)]
    want = [pooled_bytes(classify_pooled_serial(net, s)) for s in sketches]
    got = {}

    def caller(i):
        got[i] = [pooled_bytes(classify_pooled(net, s)) for s in sketches[i:] + sketches[:i]]

    # more callers than CPUs, switching threads as often as the interpreter can
    callers = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == {i: want[i:] + want[:i] for i in range(3)}


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_raising_half_leaves_the_lane_working(monkeypatch, failing):
    net = build_router(3, seed=63)
    sketch = random_sketch(make_rng(65))
    want = pooled_bytes(classify_pooled_serial(net, sketch))
    real = router_module.forward
    caller = threading.current_thread()

    def failing_forward(net, view, rng=None, training=False):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise ContractViolation(f"injected on the {failing}")
        return real(net, view, rng=rng, training=training)

    monkeypatch.setattr(router_module, "forward", failing_forward)
    with pytest.raises(ContractViolation, match=f"injected on the {failing}"):
        classify_pooled(net, sketch)
    monkeypatch.setattr(router_module, "forward", real)
    assert pooled_bytes(classify_pooled(net, sketch)) == want


FORKED_CHILD = """
import os, sys, threading, time
import numpy as np
from sketchparts import router
from sketchparts.autograd import make_rng
from sketchparts.imaging import Raster

net = router.build_router(3, seed=67)
sketch = Raster(np.where(make_rng(69).random((80, 64)) < 0.12, 255, 0).astype(np.uint8))
if threading.active_count() != 1:
    sys.exit("the lane was started before its first use")
want = router.classify_pooled(net, sketch)[1].tobytes()
pid = os.fork()
if pid == 0:
    os._exit(0 if router.classify_pooled(net, sketch)[1].tobytes() == want else 3)
deadline = time.monotonic() + 45
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the forked child's classify_pooled hung")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is missing on this platform")
def test_a_forked_child_routes_on_a_lane_of_its_own():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", FORKED_CHILD],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
