import threading

import numpy as np
import pytest

from oracles import col2im_loop, conv2d_bruteforce, interp_matrix_loop, maxpool2d_bruteforce
from sketchparts.autograd import (
    ConvSpec,
    Tape,
    Tensor,
    _interp_matrix,
    add,
    backward,
    bilinear_upsample,
    conv2d,
    crop2d,
    dropout,
    global_average_pool,
    linear,
    make_rng,
    maxpool2d,
    relu,
    reshape,
    scale,
    softmax,
    softmax_ce,
    weighted_softmax_ce,
    weighted_sum,
)
from sketchparts.checks import gradcheck, probe
from sketchparts.errors import ContractViolation


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


class TestConv2d:
    def test_identity_size_kernel(self):
        out = conv2d(
            t64([[[3.0]]]), t64([[[[2.0]]]]), t64([0.0]), ConvSpec(kernel=1, out_channels=1)
        )
        assert out.data[0, 0, 0] == pytest.approx(6.0)

    def test_dilated_strided_output_size(self):
        out = conv2d(
            t64(np.zeros((1, 16, 16))),
            t64(np.zeros((4, 1, 3, 3))),
            t64(np.zeros(4)),
            ConvSpec(kernel=3, out_channels=4, stride=2, dilation=2, pad=2),
        )
        assert out.shape == (4, 8, 8)

    @pytest.mark.parametrize(
        "stride,dilation,pad", [(1, 1, 0), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 1, 0)]
    )
    def test_matches_loop_oracle(self, stride, dilation, pad):
        rng = make_rng(7 + stride * 10 + dilation * 100 + pad)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        spec = ConvSpec(kernel=3, out_channels=3, stride=stride, dilation=dilation, pad=pad)
        got = conv2d(t64(x), t64(w), t64(b), spec).data
        with Tape():
            taped = conv2d(t64(x), t64(w), t64(b), spec).data
        want = conv2d_bruteforce(x, w, b, stride, dilation, pad)
        assert np.allclose(got, want, atol=1e-6)
        assert taped.tobytes() == got.tobytes()

    def test_channel_mismatch_raises(self):
        with pytest.raises(ContractViolation, match=r"\(2, 4, 4\)"):
            conv2d(
                t64(np.zeros((2, 4, 4))),
                t64(np.zeros((3, 1, 3, 3))),
                t64(np.zeros(3)),
                ConvSpec(3, 3),
            )

    def test_gradcheck(self):
        rng = make_rng(11)
        x = t64(rng.standard_normal((2, 6, 6)))
        w = t64(rng.standard_normal((3, 2, 3, 3)))
        b = t64(rng.standard_normal(3))
        spec = ConvSpec(kernel=3, out_channels=3, stride=2, dilation=2, pad=2)
        gradcheck(probe(rng, lambda: conv2d(x, w, b, spec)), [x, w, b])


BACKWARD_SHAPES = pytest.mark.parametrize(
    "in_shape,spec",
    [
        ((1, 19, 25), ConvSpec(15, 2, stride=3)),  # router c0
        ((3, 7, 10), ConvSpec(5, 4)),  # router c1
        ((2, 9, 13), ConvSpec(3, 3, stride=2, dilation=2)),  # parser branch
        ((2, 4, 5), ConvSpec(11, 3)),  # pose head: taps wholly in the padding
        ((3, 5, 7), ConvSpec(1, 4)),  # router c5: 1x1, no padding
    ],
    ids=["k15_s3", "k5_s1", "k3_s2_r2", "k11_over_4x5", "k1_unpadded"],
)


class TestConvBackward:
    """One GEMM for dw and one for dx, and no dx for inputs that need no
    gradient."""

    @BACKWARD_SHAPES
    def test_gradcheck_non_square(self, in_shape, spec):
        rng = make_rng(61)
        k = spec.kernel
        x = t64(rng.standard_normal(in_shape))
        w = t64(rng.standard_normal((spec.out_channels, in_shape[0], k, k)))
        b = t64(rng.standard_normal(spec.out_channels))
        gradcheck(probe(rng, lambda: conv2d(x, w, b, spec)), [x, w, b])

    @BACKWARD_SHAPES
    def test_float32_input_grad_is_the_col2im_loop(self, in_shape, spec):
        rng = make_rng(71)
        C, H, W = in_shape
        F, k = spec.out_channels, spec.kernel
        Ho, Wo = spec.out_size(H), spec.out_size(W)
        x = Tensor(rng.standard_normal(in_shape).astype(np.float32))
        w = Tensor(rng.standard_normal((F, C, k, k)).astype(np.float32))
        b = Tensor(rng.standard_normal(F).astype(np.float32))
        direction = rng.standard_normal((F, Ho, Wo)).astype(np.float32)
        with Tape() as tape:
            loss = weighted_sum(conv2d(x, w, b, spec), direction)
        backward(tape, loss)
        # the dx GEMM as conv2d runs it, then every tap added in order
        cols = w.data.reshape(F, C * k * k).T @ direction.reshape(F, Ho * Wo)
        want = col2im_loop(
            cols.reshape(C, k, k, Ho, Wo), H, W, spec.stride, spec.dilation, spec.padding
        )
        assert x.grad.dtype == np.float32
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_without_grad_leaves_weight_grads_bit_identical(self, dtype):
        rng = make_rng(67)
        spec = ConvSpec(5, 4, stride=2)
        x = rng.standard_normal((3, 11, 14)).astype(dtype)
        w = rng.standard_normal((4, 3, 5, 5)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        direction = rng.standard_normal((4, spec.out_size(11), spec.out_size(14)))
        grads = {}
        for needs in (True, False):
            xt, wt, bt = Tensor(x, requires_grad=needs), Tensor(w), Tensor(b)
            with Tape() as tape:
                loss = weighted_sum(relu(conv2d(xt, wt, bt, spec)), direction)
            backward(tape, loss)
            assert (xt.grad is not None) == needs
            grads[needs] = (wt.grad, bt.grad)
        for with_x, without_x in zip(grads[True], grads[False]):
            assert with_x.tobytes() == without_x.tobytes()

    def test_leaf_without_grad_gets_none_through_any_op(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=False)
        with Tape() as tape:
            loss = weighted_sum(relu(x), np.ones(3))
        backward(tape, loss)
        assert x.grad is None


class TestMaxpool:
    def test_constant_image(self):
        out = maxpool2d(t64(np.full((1, 5, 5), 4.0)), window=3, stride=2)
        assert np.all(out.data == 4.0)

    def test_ramp_window_scan(self):
        ramp = t64(np.arange(16, dtype=np.float64).reshape(1, 4, 4))
        out = maxpool2d(ramp, window=3, stride=2)
        assert np.array_equal(out.data[0], [[10, 11], [14, 15]])

    def test_nonpositive_window_raises(self):
        with pytest.raises(ContractViolation):
            maxpool2d(t64(np.zeros((1, 4, 4))), window=0, stride=1)

    def test_gradcheck(self):
        rng = make_rng(13)
        # distinct values so the argmax is stable under the fd perturbation
        vals = rng.permutation(36).astype(np.float64).reshape(1, 6, 6)
        x = t64(vals * 0.1)
        err = gradcheck(probe(rng, lambda: maxpool2d(x, 3, 2)), [x], tol=1e-3)
        assert err < 1e-3

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("window,stride", [(3, 2), (2, 2), (2, 3), (1, 1), (3, 1), (4, 3)])
    # (2, 9, 7) under (3, 2), like the router's later pools, has no window
    # overhanging the input
    @pytest.mark.parametrize("shape", [(3, 7, 10), (2, 9, 4), (2, 1, 2), (2, 9, 7)])
    def test_matches_window_loop_with_ties(self, shape, window, stride, dtype):
        rng = np.random.default_rng(sum(shape) * 10 + window * 3 + stride)
        # few distinct integers, negatives included: ties everywhere, and the
        # zero padding past the edge can win
        vals = rng.integers(-2, 3, size=shape).astype(np.float64)
        x = Tensor(vals, dtype=dtype)
        with Tape() as tape:
            out = maxpool2d(x, window, stride)
            g = rng.standard_normal(out.shape)
            loss = weighted_sum(out, g)
        backward(tape, loss)
        want_out, want_dx = maxpool2d_bruteforce(vals, window, stride, g)
        # the gradient accumulates in float64 before the cast to x's dtype
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(x.grad, want_dx.astype(dtype))
        untaped = maxpool2d(Tensor(vals, dtype=dtype), window, stride)
        assert np.array_equal(untaped.data, want_out)


def test_interp_matrix_matches_row_loop():
    for n_in in [*range(1, 40), 96, 112, 128, 144, 168, 300]:
        for n_out in range(1, 200):
            got = _interp_matrix(n_out, n_in)
            assert np.array_equal(got, interp_matrix_loop(n_out, n_in)), (n_out, n_in)


class TestLinear:
    def test_identity(self):
        x = t64([1.0, -2.0, 3.0])
        out = linear(x, t64(np.eye(3)), t64(np.zeros(3)))
        assert np.allclose(out.data, x.data)

    def test_hand_computed(self):
        out = linear(t64([1.0, 2.0]), t64([[1.0, 1.0], [0.0, 3.0]]), t64([0.0, 1.0]))
        assert np.allclose(out.data, [3.0, 7.0])

    def test_mismatch_raises(self):
        with pytest.raises(ContractViolation):
            linear(t64([1.0, 2.0]), t64(np.zeros((2, 3))), t64(np.zeros(2)))

    def test_gradcheck(self):
        rng = make_rng(17)
        x = t64(rng.standard_normal(4))
        w = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal(3))
        gradcheck(probe(rng, lambda: linear(x, w, b)), [x, w, b])


class TestPointwise:
    def test_relu_values(self):
        out = relu(t64([-1.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_dropout_inference_is_identity(self):
        x = t64(np.linspace(-1, 1, 10))
        assert dropout(x, 0.7, make_rng(0), training=False) is x

    def test_dropout_p0_is_identity(self):
        x = t64(np.ones(5))
        assert dropout(x, 0.0, make_rng(0), training=True) is x

    def test_dropout_bad_p(self):
        with pytest.raises(ContractViolation):
            dropout(t64(np.ones(3)), 1.0, make_rng(0), training=True)

    def test_dropout_scales_kept_entries(self):
        x = t64(np.ones(1000))
        out = dropout(x, 0.5, make_rng(3), training=True)
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 2.0)

    def test_softmax_simplex(self):
        rng = make_rng(19)
        for _ in range(5):
            s = softmax(t64(rng.standard_normal(7) * 10)).data
            assert np.all(s >= 0)
            assert abs(s.sum() - 1.0) < 1e-6

    def test_upsample_shapes_and_constant(self):
        x = t64(np.full((2, 4, 4), 3.0))
        out = bilinear_upsample(x, 2)
        assert out.shape == (2, 8, 8)
        assert np.allclose(out.data, 3.0)

    def test_upsample_keeps_one_hot_corner(self):
        x = np.zeros((1, 3, 5))
        x[0, 0, 4] = 1.0  # top-right
        out = bilinear_upsample(t64(x), 4).data[0]
        assert out.shape == (12, 20)
        assert out[0, 19] == out.max() == pytest.approx(1.0)
        assert out[:6, 10:].sum() == pytest.approx(out.sum())

    def test_upsample_gradcheck_non_square(self):
        rng = make_rng(43)
        x = t64(rng.standard_normal((2, 3, 7)))
        assert bilinear_upsample(x, 4).shape == (2, 12, 28)
        gradcheck(probe(rng, lambda: bilinear_upsample(x, 4)), [x])

    def test_gradchecks(self):
        rng = make_rng(23)
        x = t64(rng.standard_normal((2, 4, 4)))
        gradcheck(probe(rng, lambda: relu(x)), [x], tol=1e-3)
        gradcheck(probe(rng, lambda: global_average_pool(x)), [x])
        gradcheck(probe(rng, lambda: bilinear_upsample(x, 3)), [x])
        v = t64(rng.standard_normal(6))
        gradcheck(probe(rng, lambda: softmax(v)), [v])
        mask_rng_seed = 29

        def dropped():
            return dropout(x, 0.4, make_rng(mask_rng_seed), training=True)

        gradcheck(probe(rng, dropped), [x])

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: crop2d(x, 2, 4),
            lambda x: scale(x, -1.7),
            lambda x: reshape(x, (5, 6)),
            global_average_pool,
            relu,
            lambda x: dropout(x, 0.4, make_rng(31), training=True),
        ],
        ids=["crop2d", "scale", "reshape", "global_average_pool", "relu", "dropout"],
    )
    def test_gradcheck_asymmetric_shape(self, op):
        rng = make_rng(47)
        x = t64(rng.standard_normal((2, 3, 5)))
        gradcheck(probe(rng, lambda: op(x)), [x], tol=1e-3)


class TestWeightedCrossEntropy:
    def test_huge_margin_near_zero_loss(self):
        loss = weighted_softmax_ce(t64([[100.0, -100.0], [-100.0, 100.0]]), [0, 1], [1.0, 1.0])
        assert loss.data.item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_ln4(self):
        logits = t64(np.zeros((4, 3)))
        loss = weighted_softmax_ce(logits, [0, 1, 2], np.ones(4))
        assert loss.data.item() == pytest.approx(np.log(4.0))

    def test_doubling_weight_doubles_contribution(self):
        rng = make_rng(31)
        logits = t64(rng.standard_normal((3, 2)))
        base = weighted_softmax_ce(logits, [0, 1], [1.0, 1.0, 1.0]).data.item()
        bumped = weighted_softmax_ce(logits, [0, 1], [2.0, 1.0, 1.0]).data.item()
        # pixel 0's term doubles, pixel 1's is untouched
        z = logits.data - logits.data.max(axis=0)
        logp = z - np.log(np.exp(z).sum(axis=0))
        pix0 = -logp[0, 0] / 2
        assert bumped - base == pytest.approx(pix0)

    def test_out_of_range_label_names_position(self):
        with pytest.raises(ContractViolation, match="position 1"):
            weighted_softmax_ce(t64(np.zeros((2, 3))), [0, 5, 1], [1.0, 1.0])

    def test_gradcheck(self):
        rng = make_rng(37)
        logits = t64(rng.standard_normal((4, 6)))
        targets = rng.integers(0, 4, size=6)
        weights = rng.random(4) + 0.5
        gradcheck(lambda: weighted_softmax_ce(logits, targets, weights), [logits])

    def test_softmax_ce_gradcheck(self):
        rng = make_rng(41)
        logits = t64(rng.standard_normal(8))
        gradcheck(lambda: softmax_ce(logits, 3), [logits])


class TestTape:
    def test_second_backward_raises(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            loss = weighted_sum(relu(x), np.ones(2))
        backward(tape, loss)
        with pytest.raises(ContractViolation, match="already"):
            backward(tape, loss)

    def test_shared_input_accumulates_once(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            a = relu(x)
            b = relu(x)
            loss = weighted_sum(a, np.ones(2))
            loss2 = weighted_sum(b, np.ones(2))
            from sketchparts.autograd import add

            total = add(loss, loss2)
        backward(tape, total)
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_accumulation_is_the_tape_order_sum_and_mutates_no_grad_fn_array(self):
        rng = make_rng(73)
        x = Tensor(rng.standard_normal(6).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        d = [rng.standard_normal(shape) for shape in ((2, 3), 6, 6, 4, 4)]
        with Tape() as tape:
            alias = reshape(x, (2, 3))  # passes x a view of its own gradient
            twice = add(x, x)  # passes x one gradient array twice
            terms = [
                weighted_sum(alias, d[0]),
                weighted_sum(twice, d[1]),
                weighted_sum(x, d[2]),  # a float64 gradient
                weighted_sum(linear(x, w, b), d[3]),  # float32 gradients
                weighted_sum(linear(x, w, b), d[4]),
            ]
            loss = terms[0]
            for term in terms[1:]:
                loss = add(loss, term)

        to_x, seen = [], []

        def watched(inputs, grad_fn):
            def run(g):
                grads = grad_fn(g)
                seen.append((g, g.copy()))
                for tensor, grad in zip(inputs, grads):
                    if grad is not None:
                        seen.append((grad, grad.copy()))
                        if tensor is x:
                            to_x.append(grad.copy())
                return grads

            return run

        tape.entries = [(out, ins, watched(ins, fn)) for out, ins, fn in tape.entries]
        backward(tape, loss)

        assert [g.dtype for g in to_x] == [np.float32] * 2 + [np.float64] * 4
        want = to_x[0]
        for g in to_x[1:]:
            want = want + g
        assert x.grad.dtype == np.float32
        assert x.grad.tobytes() == want.astype(np.float32).tobytes()
        for arr, before in seen:
            assert arr.tobytes() == before.tobytes()

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0])
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ContractViolation, match="scalar"):
            backward(tape, y)

    def test_no_tape_records_nothing(self):
        tape = Tape()
        relu(t64([1.0]))
        assert tape.entries == []


    def test_other_thread_does_not_record_on_active_tape(self):
        x = t64([1.0, -2.0])
        with Tape() as tape:
            relu(x)
            before = list(tape.entries)
            worker = threading.Thread(target=lambda: relu(x))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert tape.entries == before


def rel_err(got, want):
    return np.linalg.norm(np.asarray(got, np.float64) - want) / np.linalg.norm(want)


def conv_and_grads(x, w, b, spec, direction):
    """Output of conv2d plus the gradients of <output, direction> w.r.t. x, w, b."""
    tensors = [Tensor(a) for a in (x, w, b)]
    with Tape() as tape:
        out = conv2d(*tensors, spec)
        loss = weighted_sum(out, direction)
    backward(tape, loss)
    return out.data, [t.grad for t in tensors]


class TestDtypeContract:
    """conv2d and linear compute in the operands' dtype: float32 follows the
    float64 shadow to sgemm precision, and float64 stays float64."""

    @pytest.mark.parametrize(
        "in_shape,spec",
        [
            ((1, 47, 62), ConvSpec(15, 8, stride=3)),  # router c0
            ((64, 13, 17), ConvSpec(5, 128)),  # router c1
            ((3, 11, 16), ConvSpec(3, 5, stride=2, dilation=2)),
            ((2, 4, 5), ConvSpec(11, 3)),
        ],
        ids=["router_c0", "router_c1", "dilated_strided", "k11_over_4x5"],
    )
    def test_float32_conv_tracks_float64_shadow(self, in_shape, spec):
        rng = make_rng(47)
        C = in_shape[0]
        k = spec.kernel
        x = rng.standard_normal(in_shape)
        w = rng.standard_normal((spec.out_channels, C, k, k)) / np.sqrt(C * k * k)
        b = rng.standard_normal(spec.out_channels)
        out_shape = (spec.out_channels, spec.out_size(in_shape[1]), spec.out_size(in_shape[2]))
        direction = rng.standard_normal(out_shape)

        out64, grads64 = conv_and_grads(x, w, b, spec, direction)
        f32 = [a.astype(np.float32) for a in (x, w, b)]
        out32, grads32 = conv_and_grads(*f32, spec, direction)

        assert out64.dtype == np.float64 and out32.dtype == np.float32
        assert out32.shape == out_shape
        assert rel_err(out32, out64) < 1e-5
        for g32, g64 in zip(grads32, grads64):
            assert g64.dtype == np.float64 and g32.dtype == np.float32
            assert rel_err(g32, g64) < 1e-5

    def test_linear_dtypes_follow_inputs(self):
        rng = make_rng(53)
        x, w, b = rng.standard_normal(40), rng.standard_normal((6, 40)), rng.standard_normal(6)
        direction = rng.standard_normal(6)
        results = {}
        for dtype in (np.float64, np.float32):
            tensors = [Tensor(a.astype(dtype)) for a in (x, w, b)]
            with Tape() as tape:
                out = linear(*tensors)
                loss = weighted_sum(out, direction)
            backward(tape, loss)
            assert out.dtype == dtype
            assert all(t.grad.dtype == dtype for t in tensors)
            results[dtype] = [out.data] + [t.grad for t in tensors]
        for got, want in zip(results[np.float32], results[np.float64]):
            assert rel_err(got, want) < 1e-5


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_rng(99).standard_normal(16)
        b = make_rng(99).standard_normal(16)
        assert np.array_equal(a, b)

    def test_dropout_mask_reproducible(self):
        x = t64(np.ones(64))
        o1 = dropout(x, 0.5, make_rng(5), training=True)
        o2 = dropout(x, 0.5, make_rng(5), training=True)
        assert np.array_equal(o1.data, o2.data)
