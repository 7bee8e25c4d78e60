import dataclasses

import numpy as np
import pytest

from sketchparts.autograd import ConvSpec, Tape, Tensor, backward, conv2d, global_average_pool
from sketchparts.autograd import linear, make_rng, relu, weighted_sum
from sketchparts.errors import CheckpointError, ContractViolation
from sketchparts.imaging import Raster
from sketchparts.model import (
    ModelConfig,
    build_model,
    forward_branch,
    forward_shared,
    infer,
    load_checkpoint,
    pad_to_stride,
    save_checkpoint,
    sketch_input,
)
from sketchparts.taxonomy import load_taxonomy

TWO_BRANCH_TEXT = """
super Alpha
cat a1 : p1, p2, p3
super Beta
cat b1 : q1, q2, q3, q4, q5
"""

TAX2 = load_taxonomy(TWO_BRANCH_TEXT)
CFG = ModelConfig()


SIX_CONV_TRUNK = (
    ConvSpec(3, 16, stride=2),
    ConvSpec(3, 32, stride=2),
    ConvSpec(3, 64, stride=2),
    ConvSpec(3, 64, dilation=2),
    ConvSpec(3, 128, dilation=2),
    ConvSpec(3, 128, dilation=2),
)


class TestArchitecture:
    def test_config_has_no_fields(self):
        assert dataclasses.fields(ModelConfig) == ()

    # the architecture is fixed, so the trunk and its split point are not arguments
    @pytest.mark.parametrize(
        "name, value", [("trunk", SIX_CONV_TRUNK), ("split_index", 5)], ids=["trunk", "split"]
    )
    def test_config_takes_no_arguments(self, name, value):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ModelConfig(**{name: value})

    def test_six_conv_trunk_downsamples_by_eight(self):
        assert CFG.stride == 8
        assert CFG.shared_stack + CFG.branch_stack == SIX_CONV_TRUNK
        assert len(CFG.branch_stack) == 1


def random_sketch(rng, size=32):
    return Raster(np.where(rng.random((size, size)) < 0.15, 255, 0).astype(np.uint8))


def test_sketch_input_needs_no_gradient():
    x = sketch_input(random_sketch(make_rng(2), 16))
    assert x.requires_grad is False
    assert x.shape == (1, 16, 16)


class TestBuild:
    def test_head_channels_include_background(self):
        m = build_model(CFG, TAX2, seed=1)
        assert m.params["branch0.seg.w"].shape[0] == 4
        assert m.params["branch1.seg.w"].shape[0] == 6

    def test_same_seed_identical(self):
        a = build_model(CFG, TAX2, seed=9)
        b = build_model(CFG, TAX2, seed=9)
        assert list(a.params) == list(b.params)
        for n in a.params:
            assert np.array_equal(a.params[n].data, b.params[n].data)

    def test_pose_head_shape(self):
        m = build_model(CFG, TAX2, seed=1)
        # two dilated 3x3 stages, an 11x11 template stage with 32 filters,
        # and a fully-connected map to the 8 poses
        assert m.params["branch0.pose.c0.w"].shape[2:] == (3, 3)
        assert m.params["branch0.pose.c1.w"].shape[2:] == (3, 3)
        assert m.params["branch0.pose.c2.w"].shape == (32, 32, 11, 11)
        assert m.params["branch0.pose.fc.w"].shape == (8, 32)

    def test_pose_logits_are_convs_then_pool_then_linear(self):
        m = build_model(CFG, TAX2, seed=41)
        sketch = Raster(np.where(make_rng(43).random((48, 80)) < 0.15, 255, 0))
        feats = forward_shared(m, sketch_input(sketch))
        p = m.params

        def conv(y, name, spec):
            return conv2d(y, p[f"branch1.{name}.w"], p[f"branch1.{name}.b"], spec)

        scores = conv(relu(conv(feats, "c0", ConvSpec(3, 128, dilation=2))), "seg", ConvSpec(1, 6))
        y = relu(conv(scores, "pose.c0", ConvSpec(3, 32, stride=2, dilation=2)))
        y = relu(conv(y, "pose.c1", ConvSpec(3, 32, stride=2, dilation=2)))
        y = relu(conv(y, "pose.c2", ConvSpec(11, 32)))
        want = linear(global_average_pool(y), p["branch1.pose.fc.w"], p["branch1.pose.fc.b"])
        _, got = forward_branch(m, 1, feats)
        assert np.array_equal(got.data, want.data)

    def test_forward_shapes(self):
        m = build_model(CFG, TAX2, seed=2)
        feats = forward_shared(m, sketch_input(random_sketch(make_rng(3), 128)))
        assert feats.shape == (128, 16, 16)
        scores, pose = forward_branch(m, 0, feats)
        assert scores.shape == (4, 128, 128)
        assert pose.shape == (8,)

    def test_blank_input_finite(self):
        m = build_model(CFG, TAX2, seed=2)
        feats = forward_shared(m, sketch_input(Raster(np.zeros((32, 32), dtype=np.uint8))))
        scores, pose = forward_branch(m, 1, feats)
        assert np.isfinite(scores.data).all()
        assert np.isfinite(pose.data).all()

    def test_indivisible_dims_rejected(self):
        m = build_model(CFG, TAX2, seed=2)
        with pytest.raises(ContractViolation, match="stride"):
            forward_shared(m, sketch_input(Raster(np.zeros((30, 30), dtype=np.uint8))))

    def test_bad_branch_rejected(self):
        m = build_model(CFG, TAX2, seed=2)
        feats = forward_shared(m, sketch_input(Raster(np.zeros((32, 32), dtype=np.uint8))))
        with pytest.raises(ContractViolation, match="branch 2 out of range"):
            forward_branch(m, 2, feats)

    def test_forward_pure(self):
        m = build_model(CFG, TAX2, seed=4)
        s = random_sketch(make_rng(5))
        a = forward_shared(m, sketch_input(s))
        b = forward_shared(m, sketch_input(s))
        assert np.array_equal(a.data, b.data)


def tie_branches(model):
    for name in list(model.params):
        if name.startswith("branch1."):
            src = "branch0." + name[len("branch1.") :]
            model.params[name] = Tensor(model.params[src].data.copy())


class TestRoutedEquivalence:
    def test_weight_tied_matches_unrouted_reference(self):
        # identical part counts so branch1 can mirror branch0 exactly
        tax = load_taxonomy("super A\ncat a : p1, p2, p3\nsuper B\ncat b : p1, p2, p3\n")
        m = build_model(CFG, tax, seed=11)
        tie_branches(m)
        rng = make_rng(13)
        batch = [random_sketch(rng) for _ in range(6)]
        bia = [int(b) for b in rng.integers(0, 2, size=6)]
        assert set(bia) == {0, 1}
        probes = [rng.standard_normal((4, 32, 32)) for _ in batch]

        def run(route_by):
            with Tape() as tape:
                outs = [
                    forward_branch(m, b, forward_shared(m, sketch_input(s)))[0]
                    for s, b in zip(batch, route_by)
                ]
                total = None
                for out, p in zip(outs, probes):
                    term = weighted_sum(out, p)
                    total = term if total is None else _add(total, term)
            backward(tape, total)
            shared_grads = {
                n: t.grad.copy() for n, t in m.params.items() if n.startswith("shared.")
            }
            outputs = [o.data.copy() for o in outs]
            for _, t in m.parameters():
                t.grad = None
            return outputs, shared_grads

        routed_out, routed_grads = run(bia)
        ref_out, ref_grads = run([0] * len(batch))

        for a, b in zip(routed_out, ref_out):
            assert np.allclose(a, b, atol=1e-6)
        for n in routed_grads:
            assert np.allclose(routed_grads[n], ref_grads[n], atol=1e-6)


def _add(a, b):
    from sketchparts.autograd import add

    return add(a, b)


class TestInfer:
    def test_label_space_bound_even_misrouted(self):
        m = build_model(CFG, TAX2, seed=21)
        sketch = random_sketch(make_rng(23), 40)  # forces padding too
        for branch in (0, 1):
            lm, pose = infer(m, branch, sketch)
            assert (lm.height, lm.width) == (40, 40)
            assert max(lm.ids(), default=0) <= TAX2.n_parts(branch)
            assert pose in {"N", "NE", "E", "SE", "S", "SW", "W", "NW"}

    def test_deterministic(self):
        m = build_model(CFG, TAX2, seed=25)
        sketch = random_sketch(make_rng(27), 32)
        assert infer(m, 0, sketch) == infer(m, 0, sketch)

    def test_corner_ink_stays_in_its_corner(self):
        # Zero biases make every feature exactly 0 away from the ink; label 1
        # reads a positive sum of the features and background a tiny bias, so
        # label 1 marks where the ink's receptive field reaches.
        m = build_model(CFG, TAX2, seed=29)
        p = m.params
        seg_w = np.zeros_like(p["branch0.seg.w"].data)
        seg_w[1] = np.abs(p["branch0.seg.w"].data[1])
        p["branch0.seg.w"] = Tensor(seg_w)
        p["branch0.seg.b"].data[0] = 1e-3
        for h, w in ((128, 128), (96, 160)):
            pixels = np.zeros((h, w), dtype=np.uint8)
            pixels[:8, -8:] = 255  # top-right corner
            lm, _ = infer(m, 0, Raster(pixels))
            assert (lm.height, lm.width) == (h, w)
            assert lm.labels[0, -1] == 1
            assert lm.labels[-1, 0] == 0
            rows, cols = np.nonzero(lm.labels == 1)
            assert rows.mean() < h / 2 and cols.mean() > w / 2

    @pytest.mark.parametrize("shape", [(7, 300), (40, 24), (56, 88)])
    def test_non_square_gives_h_by_w_map(self, shape):
        m = build_model(CFG, TAX2, seed=33)
        rng = make_rng(35)
        sketch = Raster(np.where(rng.random(shape) < 0.15, 255, 0).astype(np.uint8))
        lm, _ = infer(m, 1, sketch)
        assert (lm.height, lm.width) == shape

    def test_pad_to_stride(self):
        s = Raster(np.full((30, 33), 255, dtype=np.uint8))
        p = pad_to_stride(s, 8)
        assert (p.height, p.width) == (32, 40)
        assert (p.pixels[:30, :33] == 255).all()
        assert (p.pixels[30:, :] == 0).all()


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        m = build_model(CFG, TAX2, seed=31)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        loaded = load_checkpoint(p1, CFG, TAX2)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_header_rejected(self, tmp_path):
        m = build_model(CFG, TAX2, seed=33)
        p = tmp_path / "c.ckpt"
        save_checkpoint(m, p)
        blob = bytearray(p.read_bytes())
        blob[1] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p, CFG, TAX2)

    def test_taxonomy_mismatch_refused(self, tmp_path):
        m = build_model(CFG, TAX2, seed=35)
        p = tmp_path / "d.ckpt"
        save_checkpoint(m, p)
        other = load_taxonomy("super A\ncat a : p1, p2, p3\nsuper B\ncat b : q1, q2, q3, q4, q5\n")
        with pytest.raises(CheckpointError, match="taxonomy"):
            load_checkpoint(p, CFG, other)

    def test_truncation_names_offset(self, tmp_path):
        m = build_model(CFG, TAX2, seed=37)
        p = tmp_path / "e.ckpt"
        save_checkpoint(m, p)
        blob = p.read_bytes()[:100]
        p.write_bytes(blob)
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(p, CFG, TAX2)
