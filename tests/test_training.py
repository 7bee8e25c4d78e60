import copy
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import grad_norm_upcast, train_router_one_tape
from sketchparts.augment import PairedSample
from sketchparts.autograd import Tape, Tensor, add, backward, make_rng, softmax_ce
from sketchparts.checks import gradcheck
from sketchparts.corpus import make_sample
from sketchparts.errors import ConfigError, ContractViolation
from sketchparts import training as training_module
from sketchparts.imaging import LabelMap, Raster
from sketchparts.model import ModelConfig, build_model, infer
from sketchparts.optim import POLY_POWER
from sketchparts.poses import POSE_INDEX
from sketchparts.router import build_router
from sketchparts.taxonomy import load_taxonomy
from sketchparts.training import (
    PARSER_GROUPS,
    RouterPlan,
    TrainPlan,
    _parser_groups,
    clip_gradients,
    compute_class_balance,
    total_loss,
    train_parser,
    train_router,
)

ONE_BRANCH = load_taxonomy("super S\ncat thing : alpha, beta\n")


def lm_sample(labels, pose="E", category="thing"):
    arr = np.asarray(labels, dtype=np.uint8)
    return PairedSample(
        sketch=Raster(np.zeros(arr.shape, dtype=np.uint8)),
        labels=LabelMap(arr),
        category=category,
        pose=pose,
    )


class TestClassBalance:
    def test_handworked_median_example(self):
        # background: 590 px over 2 images -> f=295; part alpha: 200 px over
        # 2 images -> f=100; part beta: 10 px over one image -> f=10; median
        # 100 -> alphas 100/295, 1 and 10
        img1 = np.zeros((20, 20), dtype=np.uint8)
        img1[:5, :20] = 1  # 100 px of alpha
        img2 = np.zeros((20, 20), dtype=np.uint8)
        img2[:5, :20] = 1
        img2[10, :10] = 2  # 10 px of beta
        samples = [lm_sample(img1), lm_sample(img2)]
        cb = compute_class_balance(samples, 0, ONE_BRANCH)
        assert cb[0] == pytest.approx(100 / 295)
        assert cb[1] == pytest.approx(1.0)
        assert cb[2] == pytest.approx(10.0)

    def test_equal_masses_give_unit_weights(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[0, :4] = 1
        img[1, :4] = 2
        # f = 56 for background and 4 for each part: the median is 4
        cb = compute_class_balance([lm_sample(img)], 0, ONE_BRANCH)
        assert cb[0] == pytest.approx(4 / 56)
        assert cb[1] == pytest.approx(1.0)
        assert cb[2] == pytest.approx(1.0)

    def test_smaller_part_weighs_more(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        img[:4, :] = 1  # 40 px
        img[9, :5] = 2  # 5 px
        cb = compute_class_balance([lm_sample(img)], 0, ONE_BRANCH)
        assert cb[2] > cb[1]

    def test_absent_label_is_config_error(self):
        img = np.zeros((6, 6), dtype=np.uint8)
        img[0, 0] = 1
        with pytest.raises(ConfigError, match="beta"):
            compute_class_balance([lm_sample(img)], 0, ONE_BRANCH)

    def test_part_id_past_the_branch_is_contract_violation(self):
        img = np.zeros((6, 6), dtype=np.uint8)
        img[0, :3] = [1, 2, 9]
        with pytest.raises(ContractViolation, match=r"thing label map holds part id 9\b"):
            compute_class_balance([lm_sample(img)], 0, ONE_BRANCH)

    def test_pixel_scale_invariance(self):
        # scaling every image uniformly scales every f_c and the median alike
        rng = make_rng(9)
        arr = (rng.random((8, 8)) * 3).astype(np.uint8)
        arr[0, :3] = [1, 2, 1]
        big = np.kron(arr, np.ones((2, 2), dtype=np.uint8))
        a = compute_class_balance([lm_sample(arr)], 0, ONE_BRANCH)
        b = compute_class_balance([lm_sample(big)], 0, ONE_BRANCH)
        assert np.allclose(a, b)

    def test_odd_median_label_gets_unit_weight(self):
        # background and two parts are three labels, so the median is one of them
        img = np.zeros((12, 12), dtype=np.uint8)
        img[0, :] = 1  # 12 px
        img[1:4, :] = 2  # 36 px; the other 96 px are background
        cb = compute_class_balance([lm_sample(img)], 0, ONE_BRANCH)
        assert cb[2] == pytest.approx(1.0)  # f=36 is the median
        assert cb[0] == pytest.approx(36 / 96)
        assert cb[1] == pytest.approx(3.0)


class TestTotalLoss:
    def setup_method(self):
        rng = make_rng(11)
        self.scores = Tensor(rng.standard_normal((3, 4, 4)))
        self.labels = LabelMap((rng.random((4, 4)) * 3).astype(np.uint8))
        self.pose_logits = Tensor(rng.standard_normal(8))
        self.balance = np.ones(3)

    def test_lambda_zero_is_pure_segmentation(self):
        total, seg, pose = total_loss(
            self.scores, self.labels, self.balance, self.pose_logits, "E", 0.0
        )
        assert total.data.item() == pytest.approx(seg)
        assert pose == 0.0

    def test_lambda_one_adds_pose(self):
        total, seg, pose = total_loss(
            self.scores, self.labels, self.balance, self.pose_logits, "E", 1.0
        )
        assert total.data.item() == pytest.approx(seg + pose, rel=1e-6)

    def test_perfect_predictions_near_zero(self):
        lm = LabelMap(np.array([[1, 0], [0, 2]], dtype=np.uint8))
        scores = np.full((3, 2, 2), -100.0)
        for r in range(2):
            for c in range(2):
                scores[lm.labels[r, c], r, c] = 100.0
        pose = np.full(8, -100.0)
        pose[2] = 100.0
        total, _, _ = total_loss(
            Tensor(scores), lm, np.ones(3), Tensor(pose), "E", 1.0
        )
        assert total.data.item() == pytest.approx(0.0, abs=1e-6)

    def test_composed_gradcheck(self):
        rng = make_rng(13)
        scores = Tensor(rng.standard_normal((3, 4, 4)))
        pose_logits = Tensor(rng.standard_normal(8))
        balance = np.array([0.5, 2.0, 1.0])

        def f():
            return total_loss(scores, self.labels, balance, pose_logits, "NW", 1.0)[0]

        gradcheck(f, [scores, pose_logits], tol=1e-3)

    def _taped(self, lam):
        """total_loss on fresh leaves of this case's scores and pose logits,
        replayed backward: (total bytes, scores grad, pose logits grad)."""
        scores, pose_logits = Tensor(self.scores.data), Tensor(self.pose_logits.data)
        with Tape() as tape:
            total = total_loss(scores, self.labels, self.balance, pose_logits, "E", lam)[0]
        backward(tape, total)
        return total.data.tobytes(), scores.grad, pose_logits.grad

    @pytest.mark.parametrize("lam", [0.25, 1.0, 3.0])
    def test_total_adds_lambda_times_pose(self, lam):
        total, seg, pose = total_loss(
            self.scores, self.labels, self.balance, self.pose_logits, "E", lam
        )
        assert total.data.item() == pytest.approx(seg + lam * pose, rel=1e-6)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_pose_gradient_scales_with_lambda(self, lam):
        _, scores_one, pose_one = self._taped(1.0)
        _, scores_lam, pose_lam = self._taped(lam)
        assert np.array_equal(scores_lam, scores_one)
        np.testing.assert_allclose(pose_lam, lam * pose_one, rtol=1e-12)

    def test_lambda_one_is_the_bytes_of_the_unscaled_sum(self):
        # scale(pose, 1.0) is exact forward and backward
        scores, pose_logits = Tensor(self.scores.data), Tensor(self.pose_logits.data)
        with Tape() as tape:
            seg = total_loss(scores, self.labels, self.balance, pose_logits, "E", 0.0)[0]
            unscaled = add(seg, softmax_ce(pose_logits, POSE_INDEX["E"]))
        backward(tape, unscaled)
        total, scores_grad, pose_grad = self._taped(1.0)
        assert total == unscaled.data.tobytes()
        assert scores_grad.tobytes() == scores.grad.tobytes()
        assert pose_grad.tobytes() == pose_logits.grad.tobytes()


TWO_CATS = load_taxonomy(
    "super Small Animals\ncat cat : head, body, leg, tail\ncat dog : head, body, leg, tail\n"
)


def tiny_corpus(n=4, size=64):
    samples = []
    for i in range(n):
        cat = "cat" if i % 2 else "dog"
        samples.append(make_sample(cat, ["E", "W", "N", "S"][i % 4], make_rng((55, i)), size, TWO_CATS))
    return samples


@pytest.mark.parametrize("seed", [0, 3])
def test_clip_norm_matches_the_upcast_oracle_bit_for_bit(seed):
    """A clip at exactly the oracle's norm leaves the gradients as they are;
    a clip one float64 step below it scales them by max_norm / norm."""
    rng = make_rng(seed)
    model = build_model(ModelConfig(), TWO_CATS, seed=seed)
    params = [t for _, t in model.parameters()] + [t for _, t in build_router(2, seed=seed).parameters()]
    for t in params:
        t.grad = (rng.standard_normal(t.shape) * rng.uniform(1e-3, 10.0)).astype(np.float32)
    params[1].grad = None  # a parameter without a gradient counts toward no norm
    norm = grad_norm_upcast(params)
    grads = [None if t.grad is None else t.grad.copy() for t in params]
    clip_gradients(params, norm)
    assert all(t.grad is g is None or t.grad.tobytes() == g.tobytes() for t, g in zip(params, grads))
    below = np.nextafter(norm, 0.0)
    clip_gradients(params, below)
    for t, g in zip(params, grads):
        assert t.grad is g is None or t.grad.tobytes() == (g * (below / norm)).tobytes()


class TestTrainParser:
    def test_log_length_and_determinism(self):
        samples = tiny_corpus()
        plan = TrainPlan(iterations=8, seed=3)
        m1 = build_model(ModelConfig(), TWO_CATS, seed=1)
        log1 = train_parser(m1, samples, plan)
        m2 = build_model(ModelConfig(), TWO_CATS, seed=1)
        log2 = train_parser(m2, samples, plan)
        assert len(log1) == 8
        assert log1 == log2
        for n in m1.params:
            assert np.array_equal(m1.params[n].data, m2.params[n].data)

    def test_freeze_shared_bit_identical(self):
        samples = tiny_corpus()
        m = build_model(ModelConfig(), TWO_CATS, seed=2)
        before = {n: t.data.tobytes() for n, t in m.params.items() if n.startswith("shared.")}
        branch_before = {
            n: m.params[n].data.tobytes() for n in m.params if n.startswith("branch0.")
        }
        train_parser(m, samples, TrainPlan(iterations=6, seed=4, freeze=("shared",)))
        after = {n: t.data.tobytes() for n, t in m.params.items() if n.startswith("shared.")}
        assert before == after
        changed = any(
            m.params[n].data.tobytes() != branch_before[n]
            for n in branch_before
        )
        assert changed

    # 40x64 needs no padding; 45x61 is padded to 48x64 and its scores cropped
    @pytest.mark.parametrize("shape", [(40, 64), (45, 61)], ids=["40x64", "45x61"])
    def test_non_square_sketches(self, shape):
        rng = make_rng(57)
        samples = []
        for i, (h, w) in enumerate((shape, shape[::-1])):
            labels = np.zeros((h, w), dtype=np.uint8)
            for part in range(1, 5):
                labels[(part - 1) * 8 : part * 8, : w // 2] = part
            sketch = np.where(rng.random((h, w)) < 0.15, 255, 0).astype(np.uint8)
            samples.append(
                PairedSample(
                    sketch=Raster(sketch),
                    labels=LabelMap(labels),
                    category="cat" if i else "dog",
                    pose="E",
                )
            )
        m = build_model(ModelConfig(), TWO_CATS, seed=5)
        log = train_parser(m, samples, TrainPlan(iterations=2, seed=6))
        assert len(log) == 2 and all(np.isfinite(row["total"]) for row in log)
        again = train_parser(
            build_model(ModelConfig(), TWO_CATS, seed=5), samples, TrainPlan(iterations=2, seed=6)
        )
        assert repr(again) == repr(log)
        for s in samples:
            lm, _ = infer(m, 0, s.sketch)
            assert (lm.height, lm.width) == (s.sketch.height, s.sketch.width)

    def test_clips_once_per_step(self, monkeypatch):
        seen = []
        real = training_module.clip_gradients

        def counting(params, max_norm):
            seen.append(max_norm)
            return real(params, max_norm)

        monkeypatch.setattr(training_module, "clip_gradients", counting)
        m = build_model(ModelConfig(), TWO_CATS, seed=2)
        train_parser(m, tiny_corpus(2), TrainPlan(iterations=3, seed=1))
        assert seen == [training_module.CLIP_NORM] * 3

    def test_clips_only_the_gradients_the_step_applies(self, monkeypatch):
        """Under freeze, the frozen trunk's gradients do not shrink the
        branch's update: one step moves each unfrozen parameter by -lr * g,
        lr its group's multiple of the plan's 1.0 and g clipped on the
        unfrozen gradients' norm alone."""
        m = build_model(ModelConfig(), TWO_CATS, seed=2)
        before = {n: t.data.astype(np.float64) for n, t in m.params.items()}
        raw = {}
        real = training_module.clip_gradients

        def recording(params, max_norm):
            raw.update({n: t.grad.astype(np.float64) for n, t in m.params.items()
                        if t.grad is not None})
            return real(params, max_norm)

        monkeypatch.setattr(training_module, "clip_gradients", recording)
        monkeypatch.setattr(training_module, "CLIP_NORM", 1.0)
        plan = TrainPlan(iterations=1, seed=1, lr=1.0, freeze=("shared",))
        train_parser(m, tiny_corpus(2), plan)
        stepped = [n for n in m.params if not n.startswith("shared.")]
        norm = np.sqrt(sum((raw[n] ** 2).sum() for n in stepped))
        assert norm > 1.0
        for n in stepped:
            moved = m.params[n].data.astype(np.float64) - before[n]
            multiple = PARSER_GROUPS[training_module._parser_group(n)]
            # a float32 weight moves in steps of its ulp, 1.2e-7 at 1.0
            np.testing.assert_allclose(moved, -multiple * raw[n] / norm, rtol=1e-3, atol=3e-7)

    def test_log_rows_and_decayed_rate(self):
        plan = TrainPlan(iterations=4, seed=3, lr=0.01)
        log = train_parser(build_model(ModelConfig(), TWO_CATS, seed=1), tiny_corpus(), plan)
        assert [list(row) for row in log] == [["iter", "seg_loss", "pose_loss", "total", "lr"]] * 4
        assert [row["iter"] for row in log] == [0, 1, 2, 3]
        for it, row in enumerate(log):
            assert row["lr"] == (1.0 - it / 4) ** POLY_POWER * 0.01

    def test_empty_dataset_rejected(self):
        m = build_model(ModelConfig(), TWO_CATS, seed=2)
        with pytest.raises(ContractViolation):
            train_parser(m, [], TrainPlan(iterations=1))

    def test_divergence_aborts_with_iteration(self, monkeypatch):
        monkeypatch.setattr(training_module, "CLIP_NORM", None)
        samples = tiny_corpus(2)
        m = build_model(ModelConfig(), TWO_CATS, seed=2)
        plan = TrainPlan(iterations=50, lr=1e6, seed=1)
        with pytest.raises(ConfigError, match=r"^training diverged at iteration \d+: "):
            train_parser(m, samples, plan)


class TestPlanValidation:
    def test_unknown_freeze_group_is_named(self):
        with pytest.raises(ConfigError, match="'shard'"):
            TrainPlan(freeze=("shard",))

    def test_every_optimizer_group_can_be_frozen(self):
        plan = TrainPlan(freeze=tuple(PARSER_GROUPS))
        groups = _parser_groups(build_model(ModelConfig(), ONE_BRANCH, seed=0), plan)
        assert tuple(g.name for g in groups) == tuple(PARSER_GROUPS)

    @pytest.mark.parametrize(
        "plan,rates",
        [
            (TrainPlan(), (5e-4, 5e-4, 5e-3, 2.5e-2)),
            (TrainPlan(lr=2e-3), (2e-3, 2e-3, 0.02, 0.1)),
        ],
    )
    def test_group_rates_are_multiples_of_the_plan_rate(self, plan, rates):
        groups = _parser_groups(build_model(ModelConfig(), ONE_BRANCH, seed=0), plan)
        # == on floats is bitwise here: every rate is finite and nonzero
        assert tuple(g.lr for g in groups) == rates

    # the next float above the largest lr the test below keeps
    ABOVE_LARGEST = np.nextafter(sys.float_info.max / max(PARSER_GROUPS.values()), np.inf).item()

    @pytest.mark.parametrize("lr", [ABOVE_LARGEST, 4e306, 1e308])
    def test_lr_whose_group_rate_overflows_is_refused(self, lr):
        with pytest.raises(ConfigError, match=r"^lr \S+ is too large: "):
            TrainPlan(lr=lr)

    def test_largest_lr_with_finite_group_rates_is_kept(self):
        lr = sys.float_info.max / max(PARSER_GROUPS.values())
        assert TrainPlan(lr=lr).lr == lr

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_train_iterations_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            TrainPlan(iterations=value)

    @pytest.mark.parametrize("field", ["iterations", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 4.0, "4", None])
    def test_router_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            RouterPlan(**{field: value})

    @pytest.mark.parametrize("field", ["lr", "lam"])
    @pytest.mark.parametrize("value", ["fast", None, True, float("nan"), [1.0]])
    def test_train_reals_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            TrainPlan(**{field: value})

    @pytest.mark.parametrize("field", ["lr"])
    @pytest.mark.parametrize("value", ["x", None, False, float("inf")])
    def test_router_reals_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            RouterPlan(**{field: value})

    @pytest.mark.parametrize("value", [5, "shared", None, [1], ("shared", None)])
    def test_freeze_must_be_a_list_of_names(self, value):
        with pytest.raises(ConfigError, match="freeze must be a list"):
            TrainPlan(freeze=value)

    def test_freeze_list_is_stored_as_tuple(self):
        assert TrainPlan(freeze=["shared", "seg_head"]).freeze == ("shared", "seg_head")

    def test_plan_fields(self):
        assert [f.name for f in dataclasses.fields(TrainPlan)] == [
            "iterations", "lr", "lam", "seed", "freeze",
        ]
        assert [f.name for f in dataclasses.fields(RouterPlan)] == [
            "iterations", "lr", "batch_size", "seed",
        ]

    @pytest.mark.parametrize(
        "plan,field",
        [
            (TrainPlan, "class_balance"),
            (TrainPlan, "balance_background"),
            (TrainPlan, "augment"),
            (TrainPlan, "lr_body"),
            (TrainPlan, "lr_seg_head"),
            (TrainPlan, "lr_pose_head"),
            (RouterPlan, "augment"),
        ],
    )
    def test_retired_switch_is_not_a_plan_keyword(self, plan, field):
        with pytest.raises(TypeError, match=field):
            plan(**{field: True})

    @pytest.mark.parametrize("plan", [TrainPlan, RouterPlan])
    @pytest.mark.parametrize("value", ["0", -1, 1.0])
    def test_seed_must_be_a_non_negative_integer(self, plan, value):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            plan(seed=value)


class TestTrainRouter:
    def test_log_and_determinism(self):
        rng = make_rng(17)
        data = [
            (Raster(np.where(rng.random((64, 64)) < 0.1, 255, 0).astype(np.uint8)), i % 2)
            for i in range(6)
        ]
        plan = RouterPlan(iterations=3, batch_size=4, seed=9)
        n1 = build_router(2, seed=5)
        log1 = train_router(n1, data, plan)
        n2 = build_router(2, seed=5)
        log2 = train_router(n2, data, plan)
        assert len(log1) == 3
        assert log1 == log2

    def test_never_clips_and_logs_decayed_rate(self, monkeypatch):
        def refuse(params, max_norm):
            raise AssertionError("the router step clipped its gradients")

        monkeypatch.setattr(training_module, "clip_gradients", refuse)
        data = [(Raster(np.zeros((32, 32), dtype=np.uint8)), i % 2) for i in range(2)]
        plan = RouterPlan(iterations=3, batch_size=2, seed=1, lr=0.002)
        log = train_router(build_router(2, seed=5), data, plan)
        assert [list(row) for row in log] == [["iter", "loss", "lr"]] * 3
        for it, row in enumerate(log):
            assert row["iter"] == it
            assert row["lr"] == (1.0 - it / 3) ** POLY_POWER * 0.002

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_streamed_batch_is_the_bytes_of_one_tape(self, batch_size):
        rng = make_rng(29)
        ink = lambda h, w: Raster(np.where(rng.random((h, w)) < 0.1, 255, 0).astype(np.uint8))
        wide = np.where(rng.random((96, 160)) < 0.1, 255, 0).astype(np.uint8)
        sketches = [ink(64, 64), ink(80, 80), ink(48, 64), ink(64, 36), Raster(wide[30:70, 20:120])]
        data = [(s, i % 3) for i, s in enumerate(sketches)]
        plan = RouterPlan(iterations=3, batch_size=batch_size, seed=11)
        streamed, one_tape = build_router(3, seed=4), build_router(3, seed=4)
        log = train_router(streamed, data, plan)
        assert log == train_router_one_tape(one_tape, data, plan)
        assert [row["loss"] for row in log] != [log[0]["loss"]] * 3
        for name, t in streamed.params.items():
            assert t.data.tobytes() == one_tape.params[name].data.tobytes(), name

    def test_draws_dropout_ignores_the_other_draws_view_shapes(self, monkeypatch):
        rng = make_rng(37)
        ink = lambda h, w: Raster(np.where(rng.random((h, w)) < 0.1, 255, 0).astype(np.uint8))
        a = ink(64, 64)
        real_forward = training_module.router_forward
        runs = []
        # B's views end in dropout masks of (512, 1, 2), then of (512, 2, 2)
        for b in (ink(40, 100), ink(80, 80)):
            calls = []

            def spy(net, view, rng=None, training=False):
                calls.append((view.tobytes(), copy.deepcopy(rng).random(4).tobytes()))
                return real_forward(net, view, rng=rng, training=training)

            monkeypatch.setattr(training_module, "router_forward", spy)
            plan = RouterPlan(iterations=2, batch_size=8, seed=3)
            train_router(build_router(2, seed=5), [(a, 0), (b, 1)], plan)
            runs.append(calls)
        # only A's views are in both runs
        a_views = {view for view, _ in runs[0]} & {view for view, _ in runs[1]}
        a_draws = [[call for call in calls if call[0] in a_views] for calls in runs]
        assert a_draws[0] and a_draws[0] == a_draws[1]

    def test_step_memory_does_not_grow_with_batch_size(self):
        rng = make_rng(31)
        data = [
            (Raster(np.where(rng.random((64, 64)) < 0.1, 255, 0).astype(np.uint8)), i % 2)
            for i in range(4)
        ]
        peaks = []
        for batch_size in (4, 16):
            net = build_router(2, seed=5)
            tracemalloc.start()
            try:
                train_router(net, data, RouterPlan(iterations=1, batch_size=batch_size, seed=2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20, peaks

    def test_bad_label_rejected(self):
        net = build_router(2, seed=5)
        data = [(Raster(np.zeros((32, 32), dtype=np.uint8)), 2)]
        with pytest.raises(ContractViolation):
            train_router(net, data, RouterPlan(iterations=1, batch_size=1))
