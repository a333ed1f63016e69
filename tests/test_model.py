import itertools
import math

import numpy as np
import pytest

from gldpsim import model
from gldpsim.datagen import LabeledSet, StageTask
from gldpsim.errors import ConfigError, DataError
from gldpsim.model import (
    CE_ONLY,
    LayerParams,
    LossWeights,
    ModelParams,
    OptimizerConfig,
    embed,
    forward,
    grad_total,
    init_params,
    joint_update,
    local_update,
    loss_ce,
    loss_global_relation,
    loss_local_relation,
    loss_total,
    stage_prototypes,
)


from oracles import finite_difference_grad, random_configuration


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        params = ModelParams(
            shared=LayerParams(np.zeros((3, 4)), np.zeros(4)),
            head=LayerParams(np.zeros((4, 2)), np.zeros(2)),
        )
        embedding, logits = forward(params, np.ones(3))
        assert np.array_equal(embedding, np.zeros(4))
        assert np.array_equal(logits, np.zeros(2))

    def test_identity_shared_layer_on_non_negative_input(self):
        params = ModelParams(
            shared=LayerParams(np.eye(3), np.zeros(3)),
            head=LayerParams(np.zeros((3, 2)), np.zeros(2)),
        )
        x = np.array([0.5, 0.0, 2.0])
        embedding, _ = forward(params, x)
        assert np.array_equal(embedding, x)

    def test_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(0)
        params = init_params(6, 5, 4, [0, 1])
        x = rng.standard_normal(6)
        embedding, logits = forward(params, x)
        # naive per-coordinate recomputation
        want_emb = np.array(
            [
                max(0.0, sum(x[i] * params.shared.weight[i, j] for i in range(6)) + params.shared.bias[j])
                for j in range(5)
            ]
        )
        want_logits = np.array(
            [
                sum(want_emb[j] * params.head.weight[j, k] for j in range(5)) + params.head.bias[k]
                for k in range(4)
            ]
        )
        assert np.abs(embedding - want_emb).max() < 1e-10
        assert np.abs(logits - want_logits).max() < 1e-10

    def test_dimension_mismatch_raises(self):
        params = init_params(6, 5, 4, [0, 1])
        with pytest.raises(DataError):
            forward(params, np.zeros(7))


class TestLossCE:
    def test_uniform_logits(self):
        assert loss_ce(np.zeros(4), 1) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert loss_ce(np.array([100.0, 0.0, 0.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value_oracle(self):
        # -log(e^3 / (e^1 + e^2 + e^3)) computed independently
        want = -math.log(math.exp(3.0) / (math.exp(1.0) + math.exp(2.0) + math.exp(3.0)))
        assert loss_ce(np.array([1.0, 2.0, 3.0]), 2) == pytest.approx(want, abs=1e-12)

    def test_batch_mean(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        want = (loss_ce(logits[0], 2) + loss_ce(logits[1], 0)) / 2
        assert loss_ce(logits, np.array([2, 0])) == pytest.approx(want, abs=1e-12)


class TestLossLocalRelation:
    def test_identical_prototypes_give_zero(self):
        v = np.array([0.3, -1.2, 4.0])
        assert loss_local_relation(v, v, 1.0) == 0.0

    def test_two_term_kl_oracle(self):
        value = loss_local_relation(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        assert value == pytest.approx((math.e - 1) / (math.e + 1), abs=1e-12)

    def test_large_temperature_flattens_to_zero(self):
        old = np.array([3.0, -1.0, 0.5])
        new = np.array([-2.0, 4.0, 1.0])
        assert loss_local_relation(old, new, 1e9) == pytest.approx(0.0, abs=1e-9)

    def test_small_temperature_stays_finite(self):
        # softmax(old/T) underflows to exactly 0 in one coordinate here
        value = loss_local_relation(np.array([0.0, 10.0]), np.array([0.0, -10.0]), 0.01)
        assert value == pytest.approx(1000.0, rel=1e-12)
        rng = np.random.default_rng(6)
        assert np.isfinite(loss_local_relation(rng.standard_normal(64), rng.standard_normal(64), 0.01))

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            old = rng.standard_normal(6)
            new = rng.standard_normal(6)
            assert loss_local_relation(old, new, float(rng.uniform(0.1, 5.0))) >= 0.0


class TestLossGlobalRelation:
    def test_identical_sets_give_zero(self):
        protos = {0: np.array([1.0, 2.0]), 1: np.array([-1.0, 0.5])}
        assert loss_global_relation(protos, protos, {0: 3, 1: 2}, 5) == 0.0

    def test_mean_squared_gap(self):
        value = loss_global_relation(
            {0: np.array([0.0, 0.0])}, {0: np.array([2.0, 2.0])}, {0: 1}, 1
        )
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_count_weighted_sum_oracle(self):
        local = {0: np.array([0.0, 0.0]), 1: np.array([1.0, 1.0])}
        glob = {0: np.array([1.0, 1.0]), 1: np.array([3.0, 1.0])}
        # weights 3/4 and 1/4; MSEs 1.0 and 2.0
        want = 0.75 * 1.0 + 0.25 * 2.0
        assert loss_global_relation(local, glob, {0: 3, 1: 1}, 4) == pytest.approx(want, abs=1e-12)

    def test_classes_without_global_prototype_skipped(self):
        local = {0: np.array([0.0, 0.0]), 7: np.array([5.0, 5.0])}
        glob = {0: np.array([2.0, 2.0])}
        assert loss_global_relation(local, glob, {0: 1, 7: 1}, 2) == pytest.approx(2.0)


class TestLossTotal:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.params, self.inputs, self.labels, self.old, self.glob = random_configuration(rng)

    def total(self, weights):
        return loss_total(self.params, self.inputs, self.labels, self.old, self.glob, weights)

    def test_mix_one_drops_global_term(self):
        with_term = self.total(LossWeights(relation_mix=1.0))
        weights = LossWeights(relation_mix=1.0)
        manual = loss_total(self.params, self.inputs, self.labels, self.old, {}, weights)
        assert with_term == manual

    def test_mix_zero_drops_local_term(self):
        with_term = self.total(LossWeights(relation_mix=0.0))
        weights = LossWeights(relation_mix=0.0)
        manual = loss_total(self.params, self.inputs, self.labels, {}, self.glob, weights)
        assert with_term == manual

    def test_empty_prototype_stores_reduce_to_ce(self):
        _, logits = forward(self.params, self.inputs)
        plain = loss_ce(logits, self.labels)
        value = loss_total(self.params, self.inputs, self.labels, {}, {}, LossWeights())
        assert value == pytest.approx(plain, abs=1e-12)

    def test_affine_in_mix(self):
        at_zero = self.total(LossWeights(relation_mix=0.0))
        at_half = self.total(LossWeights(relation_mix=0.5))
        at_one = self.total(LossWeights(relation_mix=1.0))
        assert at_half == pytest.approx((at_zero + at_one) / 2, abs=1e-12)

    def test_component_losses_non_negative(self):
        assert self.total(LossWeights(relation_mix=0.0)) >= 0.0
        assert self.total(LossWeights(relation_mix=1.0)) >= 0.0


class TestGradTotal:
    def test_matches_finite_differences_many_configurations(self):
        # 7 configurations x mixes {0, 0.5, 1} x temperatures {1, 0.01};
        # relative error under 1e-4.
        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(7):
            config = random_configuration(rng)
            for mix, temperature in itertools.product((0.0, 0.5, 1.0), (1.0, 0.01)):
                weights = LossWeights(relation_mix=mix, temperature=temperature)
                got = grad_total(*config, weights)
                want = finite_difference_grad(*config, weights)
                for got_arr, want_arr in zip(
                    [got.shared.weight, got.shared.bias, got.head.weight, got.head.bias], want
                ):
                    rel = np.abs(got_arr - want_arr) / np.maximum(np.abs(want_arr), 1e-6)
                    assert rel.max() < 1e-4
                checked += 1
        assert checked == 42

    def test_mix_one_empty_old_store_equals_pure_ce_grad(self):
        rng = np.random.default_rng(8)
        params, inputs, labels, _, glob = random_configuration(rng)
        with_relations = grad_total(params, inputs, labels, {}, glob, LossWeights(relation_mix=1.0))
        plain = grad_total(params, inputs, labels, {}, {}, CE_ONLY)
        assert np.array_equal(with_relations.shared.weight, plain.shared.weight)
        assert np.array_equal(with_relations.head.weight, plain.head.weight)

    def test_stationary_point_has_tiny_gradient(self):
        # Saturated correct logits and matching prototypes: loss ~ 0.
        embedding_dim = 2
        params = ModelParams(
            shared=LayerParams(np.eye(2) * 1.0, np.zeros(2)),
            head=LayerParams(np.array([[200.0, -200.0], [-200.0, 200.0]]), np.zeros(2)),
        )
        inputs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        protos = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        grads = grad_total(params, inputs, labels, protos, protos, LossWeights())
        norm = sum(
            float((a**2).sum())
            for a in (grads.shared.weight, grads.shared.bias, grads.head.weight, grads.head.bias)
        ) ** 0.5
        assert norm < 1e-10

    def test_head_gradient_is_cross_entropy_only(self):
        # The invariant behind head-only phases running under CE_ONLY.
        rng = np.random.default_rng(516)
        for weights in (LossWeights(), LossWeights(0.3, 0.01), LossWeights(1.0, 0.5)):
            for _ in range(20):
                case = random_configuration(rng)
                full = grad_total(*case, weights)
                plain = grad_total(*case, CE_ONLY)
                assert not np.array_equal(full.shared.weight, plain.shared.weight)
                assert full.head.weight.tobytes() == plain.head.weight.tobytes()
                assert full.head.bias.tobytes() == plain.head.bias.tobytes()

    def test_layer_subset_is_bytes_of_full_gradient(self):
        # Skipping a frozen layer's backward pass leaves the other layer's
        # gradient bit-identical.
        rng = np.random.default_rng(517)
        for weights in (LossWeights(), CE_ONLY):
            for _ in range(20):
                case = random_configuration(rng)
                full = grad_total(*case, weights)
                head_only = grad_total(*case, weights, layers=("head",))
                shared_only = grad_total(*case, weights, layers=("shared",))
                assert head_only.shared is None and shared_only.head is None
                for got, want in ((head_only.head, full.head), (shared_only.shared, full.shared)):
                    assert got.weight.tobytes() == want.weight.tobytes()
                    assert got.bias.tobytes() == want.bias.tobytes()


def param_arrays(grads):
    """The four arrays of a ModelParams (gradients or parameters)."""
    return [grads.shared.weight, grads.shared.bias, grads.head.weight, grads.head.bias]


def one_stage(rng, num_classes=2, samples=20, input_dim=3):
    inputs = rng.standard_normal((samples, input_dim)) + 3.0 * rng.integers(
        0, num_classes, samples
    )[:, None]
    labels = ((inputs[:, 0] > inputs[:, 0].mean()).astype(np.int64))
    data = LabeledSet(inputs, labels)
    return StageTask(
        stage_index=1, train=data, test=data.subset(np.arange(0)),
        class_set=frozenset(range(num_classes)),
    )


class TestLocalUpdate:
    def test_zero_step_size_leaves_params_unchanged(self):
        rng = np.random.default_rng(3)
        stage = one_stage(rng)
        params = init_params(3, 4, 2, [3, 3])
        opt = OptimizerConfig(step_size=0.0, shared_epochs=1, head_epochs=1, weight_decay=0.0)
        updated = local_update(
            params, stage, {}, {}, opt, LossWeights(), np.random.default_rng(5)
        )
        assert np.array_equal(updated.shared.weight, params.shared.weight)
        assert np.array_equal(updated.head.weight, params.head.weight)
        protos = stage_prototypes(updated.shared, stage)
        want = {
            int(c): embed(params.shared, stage.train.inputs[stage.train.labels == c]).mean(axis=0)
            for c in np.unique(stage.train.labels)
        }
        for c, vec in want.items():
            assert np.allclose(protos[c], vec, atol=1e-12)

    def test_single_step_matches_hand_computed_sgd(self):
        # One epoch per phase, batch covering the whole set: the update must
        # equal one explicit SGD step per phase, recomputed independently.
        rng = np.random.default_rng(4)
        stage = one_stage(rng, samples=6)
        params = init_params(3, 4, 2, [4, 4])
        alpha, wd = 0.05, 0.01
        opt = OptimizerConfig(
            step_size=alpha, shared_epochs=1, head_epochs=1, weight_decay=wd, batch_size=100
        )
        weights = LossWeights()
        updated = local_update(
            params, stage, {}, {}, opt, weights, np.random.default_rng(11)
        )

        expect = params.copy()
        g1 = grad_total(expect, stage.train.inputs, stage.train.labels, {}, {}, weights)
        expect.shared.weight -= alpha * (g1.shared.weight + wd * expect.shared.weight)
        expect.shared.bias -= alpha * (g1.shared.bias + wd * expect.shared.bias)
        g2 = grad_total(expect, stage.train.inputs, stage.train.labels, {}, {}, weights)
        expect.head.weight -= alpha * (g2.head.weight + wd * expect.head.weight)
        expect.head.bias -= alpha * (g2.head.bias + wd * expect.head.bias)

        assert np.allclose(updated.shared.weight, expect.shared.weight, atol=1e-12)
        assert np.allclose(updated.shared.bias, expect.shared.bias, atol=1e-12)
        assert np.allclose(updated.head.weight, expect.head.weight, atol=1e-12)
        assert np.allclose(updated.head.bias, expect.head.bias, atol=1e-12)

    def test_phase_isolation(self):
        rng = np.random.default_rng(6)
        stage = one_stage(rng)
        params = init_params(3, 4, 2, [6, 6])
        opt = OptimizerConfig(step_size=0.05, shared_epochs=3, head_epochs=1, weight_decay=0.0)

        # Freeze check: after only shared-phase epochs the head is bit-unchanged.
        shared_only = OptimizerConfig(
            step_size=0.05, shared_epochs=3, head_epochs=1, weight_decay=0.0
        )
        updated = local_update(
            params, stage, {}, {}, shared_only,
            LossWeights(), np.random.default_rng(7),
        )
        # The head did change overall (head phase ran), so compare against a
        # head-step-only replay seeded identically to isolate the phases.
        assert not np.array_equal(updated.shared.weight, params.shared.weight)
        assert not np.array_equal(updated.head.weight, params.head.weight)

        zero = OptimizerConfig(step_size=0.0, shared_epochs=2, head_epochs=2, weight_decay=0.0)
        frozen = local_update(
            params, stage, {}, {}, zero, LossWeights(), np.random.default_rng(7)
        )
        assert np.array_equal(frozen.head.weight, params.head.weight)
        assert np.array_equal(frozen.shared.weight, params.shared.weight)

    def test_separable_stage_reaches_high_train_accuracy(self):
        rng = np.random.default_rng(9)
        inputs = np.concatenate(
            [rng.standard_normal((30, 3)) + 4.0, rng.standard_normal((30, 3)) - 4.0]
        )
        labels = np.concatenate([np.zeros(30, dtype=np.int64), np.ones(30, dtype=np.int64)])
        stage = StageTask(
            stage_index=1,
            train=LabeledSet(inputs, labels),
            test=LabeledSet(inputs[:0], labels[:0]),
            class_set=frozenset({0, 1}),
        )
        params = init_params(3, 8, 2, [9, 9])
        opt = OptimizerConfig(step_size=0.05, shared_epochs=2, head_epochs=4, weight_decay=1e-4)
        for _ in range(5):  # 5 x (2 + 4) = 30 passes total
            params = local_update(
                params, stage, {}, {}, opt, LossWeights(), np.random.default_rng(10)
            )
        _, logits = forward(params, inputs)
        assert (logits.argmax(axis=1) == labels).mean() >= 0.95

    def test_empty_stage_rejected(self):
        rng = np.random.default_rng(12)
        stage = one_stage(rng)
        empty = StageTask(
            stage_index=1, train=stage.train.subset(np.arange(0)),
            test=stage.test, class_set=stage.class_set,
        )
        with pytest.raises(DataError):
            local_update(
                init_params(3, 4, 2, [1, 1]), empty, {}, {},
                OptimizerConfig(), LossWeights(), np.random.default_rng(0),
            )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        stage = one_stage(rng)
        params = init_params(3, 4, 2, [13, 13])
        opt = OptimizerConfig(step_size=0.03, shared_epochs=2, head_epochs=3)
        a = local_update(params, stage, {}, {}, opt, LossWeights(), np.random.default_rng(99))
        b = local_update(params, stage, {}, {}, opt, LossWeights(), np.random.default_rng(99))
        assert np.array_equal(a.shared.weight, b.shared.weight)
        assert np.array_equal(a.head.weight, b.head.weight)

    def test_head_phase_under_ce_only_matches_full_loss(self, monkeypatch):
        # Head epochs skip the relation terms; with them put back, every
        # parameter comes out bit-identical.
        rng = np.random.default_rng(14)
        stage = one_stage(rng)
        params = init_params(3, 4, 2, [14, 14])
        old = {0: rng.standard_normal(4)}
        glob = {0: rng.standard_normal(4), 1: rng.standard_normal(4)}
        opt = OptimizerConfig(step_size=0.05, shared_epochs=2, head_epochs=3, batch_size=6)
        weights = LossWeights(relation_mix=0.3, temperature=0.5)
        fast = local_update(params, stage, old, glob, opt, weights, np.random.default_rng(7))
        monkeypatch.setattr(model, "CE_ONLY", weights)
        full = local_update(params, stage, old, glob, opt, weights, np.random.default_rng(7))
        for got, want in zip(param_arrays(fast), param_arrays(full)):
            assert got.tobytes() == want.tobytes()


class TestJointUpdate:
    def test_zero_prox_matches_plain(self):
        rng = np.random.default_rng(14)
        stage = one_stage(rng)
        params = init_params(3, 4, 2, [14, 14])
        opt = OptimizerConfig(step_size=0.03, shared_epochs=1, head_epochs=1)
        plain = joint_update(params, stage, opt, np.random.default_rng(1))
        proxed = joint_update(params, stage, opt, np.random.default_rng(1), prox_coeff=0.0)
        assert np.array_equal(plain.shared.weight, proxed.shared.weight)
        assert np.array_equal(plain.head.weight, proxed.head.weight)

    def test_prox_pulls_toward_anchor(self):
        rng = np.random.default_rng(15)
        stage = one_stage(rng)
        params = init_params(3, 4, 2, [15, 15])
        opt = OptimizerConfig(step_size=0.05, shared_epochs=2, head_epochs=2, weight_decay=0.0)
        free = joint_update(params, stage, opt, np.random.default_rng(2))
        tight = joint_update(params, stage, opt, np.random.default_rng(2), prox_coeff=5.0)
        drift_free = float(np.abs(free.shared.weight - params.shared.weight).sum())
        drift_tight = float(np.abs(tight.shared.weight - params.shared.weight).sum())
        assert drift_tight < drift_free


class TestFrozenLayerGradients:
    def test_updates_match_full_gradient_runs(self, monkeypatch):
        # Every update comes out bit-identical when grad_total ignores
        # ``layers`` and always forms both layers' gradients.
        rng = np.random.default_rng(16)
        stage = one_stage(rng, samples=30)
        params = init_params(3, 4, 2, [16, 16])
        old = {0: rng.standard_normal(4)}
        glob = {0: rng.standard_normal(4), 1: rng.standard_normal(4)}
        opt = OptimizerConfig(step_size=0.05, shared_epochs=2, head_epochs=3, batch_size=8)

        def updates():
            return [
                local_update(params, stage, old, glob, opt, LossWeights(), np.random.default_rng(3)),
                local_update(params, stage, {}, {}, opt, CE_ONLY, np.random.default_rng(4)),
                joint_update(params, stage, opt, np.random.default_rng(5)),
                joint_update(params, stage, opt, np.random.default_rng(6), prox_coeff=0.1),
            ]

        staged = updates()
        full_gradient, calls = model.grad_total, []

        def ignore_layers(*args, **kwargs):
            calls.append(1)
            return full_gradient(*args[:6])

        monkeypatch.setattr(model, "grad_total", ignore_layers)
        unstaged = updates()
        assert calls
        for a, b in zip(staged, unstaged):
            for got, want in zip(param_arrays(a), param_arrays(b)):
                assert got.tobytes() == want.tobytes()


class TestOptimizerConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(step_size=-0.1)
        with pytest.raises(ConfigError):
            OptimizerConfig(shared_epochs=0)
        with pytest.raises(ConfigError):
            OptimizerConfig(batch_size=0)

    def test_loss_weights_range(self):
        with pytest.raises(ConfigError):
            LossWeights(relation_mix=1.3)
        with pytest.raises(ConfigError):
            LossWeights(temperature=0.0)

