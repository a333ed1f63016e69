import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpsim import model
from gldpsim.datagen import LabeledSet, StageTask
from gldpsim.errors import ConfigError, DataError
from gldpsim.model import (
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
    relation_targets,
    stage_prototypes,
)
from gldpsim.prototypes import compute, compute_counts


from oracles import (
    finite_difference_grad,
    random_configuration,
    reference_compute,
    reference_compute_counts,
    reference_grad_total,
    reference_sgd_step,
    reference_softmax,
    reference_train,
)


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
            params, inputs, labels, old, glob = config
            for mix, temperature in itertools.product((0.0, 0.5, 1.0), (1.0, 0.01)):
                weights = LossWeights(relation_mix=mix, temperature=temperature)
                targets = relation_targets(old, temperature, set(labels.tolist()))
                got = grad_total(params, inputs, labels, targets, glob, weights)
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
        plain = grad_total(params, inputs, labels, {}, {}, LossWeights())
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
        targets = relation_targets(protos, LossWeights().temperature, {0, 1})
        grads = grad_total(params, inputs, labels, targets, protos, LossWeights())
        norm = sum(
            float((a**2).sum())
            for a in (grads.shared.weight, grads.shared.bias, grads.head.weight, grads.head.bias)
        ) ** 0.5
        assert norm < 1e-10

    def test_head_gradient_is_cross_entropy_only(self):
        # Only cross-entropy reaches the head, so a head-only phase never
        # reaches the relation terms. Under empty stores no relation term acts.
        rng = np.random.default_rng(516)
        for weights in (LossWeights(), LossWeights(0.3, 0.01), LossWeights(1.0, 0.5)):
            for _ in range(20):
                case = random_configuration(rng)
                full = grad_total(*case, weights)
                plain = grad_total(*case[:3], {}, {}, LossWeights())
                assert not np.array_equal(full.shared.weight, plain.shared.weight)
                assert full.head.weight.tobytes() == plain.head.weight.tobytes()
                assert full.head.bias.tobytes() == plain.head.bias.tobytes()

    def test_layer_subset_is_bytes_of_full_gradient(self):
        # Skipping a frozen layer's backward pass leaves the other layer's
        # gradient bit-identical, with the relation terms acting or not.
        rng = np.random.default_rng(517)
        weights = LossWeights()
        for with_protos in (True, False):
            for _ in range(20):
                case = random_configuration(rng, with_protos)
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

        expect = ModelParams(params.shared.copy(), params.head.copy())
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
                local_update(params, stage, {}, {}, opt, LossWeights(), np.random.default_rng(4)),
                joint_update(params, stage, opt, np.random.default_rng(5)),
                joint_update(params, stage, opt, np.random.default_rng(6), prox_coeff=0.1),
            ]

        staged = updates()
        full_gradient, calls = model.grad_total, []

        def ignore_layers(*args, out=None, **kwargs):
            calls.append(1)
            return full_gradient(*args[:6], out=out)

        monkeypatch.setattr(model, "grad_total", ignore_layers)
        unstaged = updates()
        assert calls
        for a, b in zip(staged, unstaged):
            for got, want in zip(param_arrays(a), param_arrays(b)):
                assert got.tobytes() == want.tobytes()


# Share of the classes that a drawn store holds: empty, partial or full.
STORE_FILLS = (0.0, 0.5, 1.0)


@st.composite
def hot_path_cases(draw):
    """(params, inputs, labels, old store, global store, weights, layers)."""
    batch = draw(st.integers(1, 64))
    width = draw(st.sampled_from((1, 2, 7, 32)))
    classes = draw(st.integers(1, 6))
    in_dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(in_dim, width, classes, [int(rng.integers(2**31)), 0])
    params.shared.bias += rng.standard_normal(width)
    inputs = rng.standard_normal((batch, in_dim))
    labels = rng.integers(0, classes, batch)
    old, glob = (
        {c: 3.0 * rng.standard_normal(width) for c in range(classes) if rng.random() < fill}
        for fill in (draw(st.sampled_from(STORE_FILLS)), draw(st.sampled_from(STORE_FILLS)))
    )
    weights = LossWeights(
        relation_mix=draw(st.sampled_from((0.0, 0.5, 1.0))),
        temperature=draw(st.sampled_from((1e-3, 0.05, 1.0, 8.0))),
    )
    layers = draw(st.sampled_from((("shared", "head"), ("shared",), ("head",))))
    return params, inputs, labels, old, glob, weights, layers


@st.composite
def train_cases(draw):
    """(params, stage, old store, global store, opt, weights) of one update.

    The stage runs 1-6 minibatches per epoch, the last one partial or full,
    and lacks at least one class, which the old store may hold.
    """
    batch_size = draw(st.sampled_from((2, 3, 8)))
    n = batch_size * (draw(st.integers(1, 6)) - 1) + draw(st.integers(1, batch_size))
    classes = draw(st.integers(2, 5))
    width = draw(st.sampled_from((2, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    held = rng.choice(classes, draw(st.integers(1, classes - 1)), replace=False)
    labels = rng.choice(held, n)
    inputs = rng.standard_normal((n, 3)) + labels[:, None]
    train = LabeledSet(inputs, labels)
    stage = StageTask(1, train, train.subset(np.arange(0)), frozenset(held.tolist()))
    params = init_params(3, width, classes, [int(rng.integers(2**31)), 0])
    old, glob = (
        {c: 3.0 * rng.standard_normal(width) for c in range(classes) if rng.random() < fill}
        for fill in (draw(st.sampled_from(STORE_FILLS)), draw(st.sampled_from(STORE_FILLS)))
    )
    opt = OptimizerConfig(step_size=0.05, shared_epochs=draw(st.integers(1, 2)),
                          head_epochs=draw(st.integers(1, 2)), batch_size=batch_size)
    weights = LossWeights(
        relation_mix=draw(st.sampled_from((0.0, 0.5, 1.0))),
        temperature=draw(st.sampled_from((1e-3, 0.05, 1.0, 8.0))),
    )
    return params, stage, old, glob, opt, weights


class TestHotPathMatchesReference:
    """The per-minibatch functions give the bytes of their reference forms."""

    @settings(max_examples=300, deadline=None)
    @given(hot_path_cases(), st.sampled_from((0.0, 0.05, 3.0)), st.sampled_from((0.0, 1e-4, 0.5)))
    def test_gradient_step_softmax_and_prototypes(self, case, step_size, weight_decay):
        params, inputs, labels, old, glob, weights, layers = case
        targets = relation_targets(old, weights.temperature, set(labels.tolist()))
        fast = (params, inputs, labels, targets, glob, weights, layers)
        got = grad_total(*fast)
        want = reference_grad_total(*case)
        # ``out`` views one flat buffer, as in ``_train``; a layer not in
        # ``layers`` keeps its fill.
        fill = np.full(sum(a.size for a in param_arrays(params)), 7.5)
        out = model._views(fill, param_arrays(params))
        assert grad_total(*fast, out=out) is out
        for name in ("shared", "head"):
            g, w, o = getattr(got, name), getattr(want, name), getattr(out, name)
            assert (g is None) == (name not in layers) == (w is None)
            if g is None:
                assert (o.weight == 7.5).all() and (o.bias == 7.5).all()
                continue
            assert g.weight.tobytes() == w.weight.tobytes() == o.weight.tobytes()
            assert g.bias.tobytes() == w.bias.tobytes() == o.bias.tobytes()
            stepped, ref = getattr(params, name).copy(), getattr(params, name).copy()
            model._sgd_step(stepped.weight, g.weight, step_size, weight_decay)
            model._sgd_step(stepped.bias, g.bias, step_size, weight_decay)
            reference_sgd_step(ref, w, step_size, weight_decay)
            assert stepped.weight.tobytes() == ref.weight.tobytes()
            assert stepped.bias.tobytes() == ref.bias.tobytes()

        embedding, logits = forward(params, inputs)
        for x in (logits, *(v / weights.temperature for v in old.values())):
            assert model.softmax(x).tobytes() == reference_softmax(x).tobytes()
        protos, ref_protos = compute(embedding, labels), reference_compute(embedding, labels)
        assert list(protos) == list(ref_protos) and all(type(c) is int for c in protos)
        assert all(protos[c].tobytes() == ref_protos[c].tobytes() for c in protos)
        counts = compute_counts(labels)
        assert list(counts.items()) == list(reference_compute_counts(labels).items())
        assert all(type(c) is int and type(n) is int for c, n in counts.items())

    @settings(max_examples=150, deadline=None)
    @given(train_cases())
    def test_updates_match_reference_functions(self, case):
        # Many minibatches, a partial last one, stores holding classes the
        # stage lacks, relation terms acting or not, and FedProx's pull
        # written into each gradient before the step: the flat-buffer loop
        # with per-update targets and per-epoch rows gives the bytes of the
        # per-array one, which softmaxes the stored prototypes and gathers
        # the rows anew at every minibatch.
        params, stage, old, glob, opt, weights = case

        def updates():
            return [
                local_update(params, stage, old, glob, opt, weights, np.random.default_rng(3)),
                joint_update(params, stage, opt, np.random.default_rng(4)),
                joint_update(params, stage, opt, np.random.default_rng(4), prox_coeff=0.3),
            ]

        fast = updates()
        with mock.patch.object(model, "_train", reference_train):
            want = updates()
        for a, b in zip(fast, want):
            for got, ref in zip(param_arrays(a), param_arrays(b)):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("held, mix", [(False, 0.5), (True, 0.0)])
    def test_no_target_is_formed_that_no_minibatch_reads(self, held, mix):
        # A stored prototype of 1e308 overflows softmax(old / T) at T = 1e-3.
        # The update forms no such target for a class the stage never holds,
        # nor for any class while the local term is off, so it neither
        # raises nor moves from the reference's bytes.
        rng = np.random.default_rng(23)
        stage = one_stage(rng, num_classes=3, samples=20)  # classes 0 and 1 only
        params = init_params(3, 5, 3, [23, 23])
        old = {0: rng.standard_normal(5), 1 if held else 2: np.full(5, 1e308)}
        glob = {c: rng.standard_normal(5) for c in range(3)}
        opt = OptimizerConfig(step_size=0.05, shared_epochs=2, head_epochs=2, batch_size=8)
        weights = LossWeights(relation_mix=mix, temperature=1e-3)
        with np.errstate(over="raise", invalid="raise"):
            got = local_update(params, stage, old, glob, opt, weights, np.random.default_rng(5))
            with mock.patch.object(model, "_train", reference_train):
                want = local_update(params, stage, old, glob, opt, weights,
                                    np.random.default_rng(5))
        for a, b in zip(param_arrays(got), param_arrays(want)):
            assert a.tobytes() == b.tobytes()

    def test_updates_write_only_their_own_arrays(self):
        # The received arrays come back unchanged, and every returned array
        # owns its memory: none is a view into the training buffers or
        # shares memory with another array, so an upload never keeps the
        # other layer alive.
        rng = np.random.default_rng(22)
        stage = one_stage(rng, num_classes=3, samples=40)
        params = init_params(3, 5, 3, [22, 22])
        old = {0: rng.standard_normal(5)}
        glob = {c: rng.standard_normal(5) for c in range(3)}
        opt = OptimizerConfig(step_size=0.05, shared_epochs=2, head_epochs=2, batch_size=8)
        before = [a.copy() for a in param_arrays(params)]
        for updated in (
            local_update(params, stage, old, glob, opt, LossWeights(), np.random.default_rng(1)),
            joint_update(params, stage, opt, np.random.default_rng(2), prox_coeff=0.3),
        ):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(param_arrays(params), before))
            returned = param_arrays(updated)
            for i, array in enumerate(returned):
                assert array.base is None
                others = param_arrays(params) + returned[:i] + returned[i + 1 :]
                assert not any(np.shares_memory(array, other) for other in others)


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

