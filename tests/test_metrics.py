import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpsim import metrics
from gldpsim.datagen import ClientTimeline, LabeledSet, StageTask
from gldpsim.errors import ProtocolError
from gldpsim.metrics import (
    MetricsLog,
    acc_global,
    acc_local,
    acc_local_softmax,
    acc_sel_prototypes,
    acc_sel_softmax,
    accuracy_prototypes,
    accuracy_softmax,
    forgetting,
)
from gldpsim.model import (
    CE_ONLY,
    LayerParams,
    ModelParams,
    OptimizerConfig,
    embed,
    init_params,
    local_update,
)
from gldpsim.prototypes import predict_batch
from oracles import reference_acc_global, reference_predict_batch


def identity_shared(dim: int) -> LayerParams:
    return LayerParams(np.eye(dim), np.zeros(dim))


def labeled(inputs, labels):
    return LabeledSet(np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64))


def store_with(vectors: dict[int, list[float]]) -> dict[int, np.ndarray]:
    return {c: np.array(v, dtype=np.float64) for c, v in vectors.items()}


def separated_clouds(rng, centers, per_class):
    inputs, labels = [], []
    for c, center in enumerate(centers):
        inputs.append(rng.standard_normal((per_class, len(center))) * 0.3 + np.asarray(center))
        labels.extend([c] * per_class)
    return labeled(np.concatenate(inputs), labels)


class TestAccGlobal:
    def test_true_center_prototypes_score_high(self):
        # Oracle bound: prototypes placed at the generative centers on
        # separable data classify nearly perfectly. Centers live in the
        # positive orthant so the relu embedding is the identity.
        rng = np.random.default_rng(0)
        centers = [[8.0, 1.0], [1.0, 8.0], [8.0, 8.0]]
        test_sets = [separated_clouds(rng, centers, 30) for i in range(3)]
        store = store_with({c: centers[c] for c in range(3)})
        value = acc_global(identity_shared(2), store, test_sets)
        assert value > 0.98

    def test_single_class_with_prototype_is_perfect(self):
        data = labeled([[1.0, 1.0], [1.1, 0.9]], [2, 2])
        store = store_with({2: [1.0, 1.0]})
        assert acc_global(identity_shared(2), store, [data]) == 1.0

    def test_empty_store_error_propagates(self):
        data = labeled([[0.0, 0.0]], [0])
        with pytest.raises(ProtocolError, match="no prototypes available"):
            acc_global(identity_shared(2), {}, [data])

    @pytest.mark.parametrize("store", [{}, {0: np.zeros(2)}])
    @pytest.mark.parametrize("sets", [0, 1, 3])
    def test_no_test_data_raises_before_scoring(self, store, sets):
        # The store is never consulted when no client has test rows.
        empty = labeled(np.empty((0, 2)), [])
        with pytest.raises(ProtocolError, match="no client's test data can be evaluated"):
            acc_global(identity_shared(2), store, [empty] * sets)

    def test_empty_test_sets_are_skipped_in_mean(self):
        data = labeled([[1.0, 0.0]], [0])
        empty = labeled(np.empty((0, 2)), [])
        store = store_with({0: [1.0, 0.0], 1: [-1.0, 0.0]})
        assert acc_global(identity_shared(2), store, [data, empty]) == 1.0


# Test-set sizes on either side of predict_batch's 64-row block.
BLOCK_EDGE_SIZES = (0, 1, 63, 64, 65, 130)


@st.composite
def scoring_cases(draw):
    """(shared layer, store, test sets) for the one-pass A_glo.

    Some store classes repeat another's vector (ties), and inputs, stores
    or both may sit near 1e200, where squared gaps overflow to inf.
    """
    dim = draw(st.integers(1, 70))
    in_dim = draw(st.integers(1, 6))
    classes = draw(st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True))
    sizes = draw(st.lists(st.sampled_from(BLOCK_EDGE_SIZES), min_size=1, max_size=4))
    input_scale = draw(st.sampled_from([1.0, 1e200]))
    store_scales = draw(st.lists(st.sampled_from([1.0, 1e150, 1e200]),
                                 min_size=len(classes), max_size=len(classes)))
    twins = draw(st.lists(st.sampled_from(classes), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = LayerParams(rng.standard_normal((in_dim, dim)), rng.standard_normal(dim))
    store = {c: rng.standard_normal(dim) * scale for c, scale in zip(classes, store_scales)}
    for c in twins:
        store[c] = store[classes[0]]
    labels = [*classes, max(classes) + 1]  # one label the store cannot predict
    test_sets = [labeled(rng.standard_normal((n, in_dim)) * input_scale, rng.choice(labels, n))
                 for n in sizes]
    return shared, store, test_sets


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestOnePassMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_predict_batch(self, case):
        shared, store, test_sets = case
        for ts in test_sets:
            embeddings = embed(shared, ts.inputs)
            got, want = predict_batch(embeddings, store), reference_predict_batch(embeddings, store)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            raw = ts.inputs @ shared.weight  # negative coordinates too
            assert np.array_equal(predict_batch(raw, store), reference_predict_batch(raw, store))

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_acc_global(self, case):
        shared, store, test_sets = case
        if not any(len(ts) for ts in test_sets):
            with pytest.raises(ProtocolError):
                acc_global(shared, store, test_sets)
            return
        assert acc_global(shared, store, test_sets) == reference_acc_global(shared, store, test_sets)


class TestAccLocal:
    def test_per_client_stores(self):
        data_a = labeled([[2.0, 0.0]], [0])
        data_b = labeled([[0.0, 2.0]], [1])
        models = [
            (identity_shared(2), store_with({0: [2.0, 0.0], 1: [0.0, 2.0]})),
            (identity_shared(2), store_with({1: [0.0, 2.0]})),
        ]
        assert acc_local(models, [data_a, data_b]) == 1.0

    def test_mixture_of_right_and_wrong(self):
        data = labeled([[2.0, 0.0], [0.0, 2.0]], [0, 1])
        wrong_store = store_with({0: [0.0, 2.0], 1: [2.0, 0.0]})
        assert acc_local([(identity_shared(2), wrong_store)], [data]) == 0.0

    def test_no_store_for_any_test_set_is_protocol_error(self):
        # A GLDP client with test data that was never trained, and whose
        # classes the global store lacks, has nothing to predict with.
        data = labeled([[2.0, 0.0]], [0])
        empty = labeled(np.empty((0, 2)), [])
        models = [(identity_shared(2), {}), (identity_shared(2), store_with({1: [0.0, 2.0]}))]
        with pytest.raises(ProtocolError, match="none has prototypes"):
            acc_local(models, [data, empty])


class TestALocMemo:
    """The memo reuses a client's value only while each input is the held object."""

    @staticmethod
    def scored(computed, *expected):
        """Whether exactly the ``expected`` test set objects were scored, in order."""
        return len(computed) == len(expected) and all(a is b for a, b in zip(computed, expected))

    @pytest.fixture
    def computed(self, monkeypatch):
        """Test sets that each call of the wrapped accuracies scored, in order."""
        seen = []
        for name in ("accuracy_prototypes", "accuracy_softmax"):
            original = getattr(metrics, name)

            def counting(*args, _original=original):
                seen.append(args[-1])
                return _original(*args)

            monkeypatch.setattr(metrics, name, counting)
        return seen

    def prototype_clients(self):
        data = [labeled([[2.0, 0.0], [0.0, 2.0]], [0, 1]) for i in range(3)]
        models = [
            (identity_shared(2), store_with({0: [2.0, 0.0], 1: [0.0, 2.0]})) for _ in range(3)
        ]
        return models, data

    def softmax_clients(self):
        rng = np.random.default_rng(9)
        data = [
            labeled(rng.standard_normal((5, 2)), rng.integers(0, 3, 5)) for i in range(3)
        ]
        heads = [LayerParams(rng.standard_normal((2, 3)), np.zeros(3)) for _ in range(3)]
        params = [ModelParams(identity_shared(2), head) for head in heads]
        return params, data

    def test_identical_inputs_recompute_nothing(self, computed):
        models, data = self.prototype_clients()
        params, softmax_data = self.softmax_clients()
        memo, softmax_memo = {}, {}
        first = (acc_local(models, data, memo=memo),
                 acc_local_softmax(params, softmax_data, memo=softmax_memo))
        assert len(computed) == 6
        again = (acc_local(models, data, memo=memo),
                 acc_local_softmax(params, softmax_data, memo=softmax_memo))
        assert again == first
        assert len(computed) == 6

    def test_replaced_params_recompute_only_that_client(self, computed):
        params, data = self.softmax_clients()
        memo = {}
        acc_local_softmax(params, data, memo=memo)
        computed.clear()
        head = params[1].head
        params[1] = ModelParams(params[1].shared, LayerParams(-head.weight, head.bias))
        value = acc_local_softmax(params, data, memo=memo)
        assert self.scored(computed, data[1])
        assert value == acc_local_softmax(params, data)

    def test_replaced_store_vector_recomputes_only_that_client(self, computed):
        models, data = self.prototype_clients()
        memo = {}
        acc_local(models, data, memo=memo)
        computed.clear()
        shared, store = models[2]
        models[2] = (shared, {**store, 1: np.array([2.0, 0.0])})  # class 1 now lies on class 0
        value = acc_local(models, data, memo=memo)
        assert self.scored(computed, data[2])
        assert value == acc_local(models, data) == pytest.approx(5 / 6)

    def test_changed_class_set_recomputes(self, computed):
        models, data = self.prototype_clients()
        memo = {}
        acc_local(models, data, memo=memo)
        computed.clear()
        shared, store = models[0]
        models[0] = (shared, {0: store[0]})  # same vector object, one class fewer
        acc_local(models, data, memo=memo)
        assert self.scored(computed, data[0])

    def test_equal_but_new_objects_recompute(self, computed):
        models, data = self.prototype_clients()
        params, softmax_data = self.softmax_clients()
        memo, softmax_memo = {}, {}
        first = (acc_local(models, data, memo=memo),
                 acc_local_softmax(params, softmax_data, memo=softmax_memo))
        computed.clear()
        models[0] = (models[0][0].copy(), models[0][1])
        data[1] = LabeledSet(data[1].inputs.copy(), data[1].labels.copy())
        params[2] = ModelParams(params[2].shared.copy(), params[2].head.copy())
        again = (acc_local(models, data, memo=memo),
                 acc_local_softmax(params, softmax_data, memo=softmax_memo))
        assert again == first
        assert self.scored(computed, data[0], data[1], softmax_data[2])


def two_stage_timeline(rng):
    """Stage 1 holds classes {0,1}; stage 2 relabels the same two cluster
    locations as classes {2,3} (an intra-domain concept shift), so a model
    retrained only on stage 2 cannot keep stage 1 right."""
    centers = [[8.0, 1.0, 1.0], [1.0, 8.0, 1.0]]
    s1_train = separated_clouds(rng, centers, 25)
    s1_test = separated_clouds(rng, centers, 10)
    s2 = separated_clouds(rng, centers, 25)
    s2_train = LabeledSet(s2.inputs, s2.labels + 2)
    s2t = separated_clouds(rng, centers, 10)
    s2_test = LabeledSet(s2t.inputs, s2t.labels + 2)
    return ClientTimeline(
        client_id=0,
        stages=[
            StageTask(1, s1_train, s1_test, frozenset({0, 1})),
            StageTask(2, s2_train, s2_test, frozenset({2, 3})),
        ],
    )


class TestAccSel:
    def test_first_stage_equals_plain_stage_accuracy(self):
        rng = np.random.default_rng(1)
        timeline = two_stage_timeline(rng)
        store = store_with({0: [8.0, 1.0, 1.0], 1: [1.0, 8.0, 1.0]})
        shared = identity_shared(3)
        direct = accuracy_prototypes(shared, store, timeline.stages[0].test)
        assert acc_sel_prototypes(shared, store, timeline, 1) == direct

    def test_identical_stages_give_constant_asel(self):
        rng = np.random.default_rng(2)
        timeline = two_stage_timeline(rng)
        degenerate = ClientTimeline(client_id=0, stages=[timeline.stages[0]] * 3)
        store = store_with({0: [8.0, 1.0, 1.0], 1: [1.0, 8.0, 1.0]})
        shared = identity_shared(3)
        values = [acc_sel_prototypes(shared, store, degenerate, m) for m in (1, 2, 3)]
        assert values[0] == values[1] == values[2]
        assert forgetting(values) == 0.0

    def test_catastrophic_forgetting_oracle(self):
        # A model retrained only on stage 2 with no memory mechanism
        # predicts stage-2 classes everywhere, so A_sel over the union
        # collapses to roughly the stage-2 share of the union.
        rng = np.random.default_rng(3)
        timeline = two_stage_timeline(rng)
        params = init_params(3, 16, 4, [3, 3])
        opt = OptimizerConfig(step_size=0.08, shared_epochs=2, head_epochs=4, weight_decay=0.0)
        for _ in range(6):
            params = local_update(
                params, timeline.stages[1], {}, {}, opt, CE_ONLY, np.random.default_rng(5)
            )
        stage2_acc = acc_sel_softmax(params, ClientTimeline(0, [timeline.stages[1]]), 1)
        assert stage2_acc > 0.9  # it did learn the new stage

        union = timeline.test_union(2)
        stage2_share = float(np.isin(union.labels, [2, 3]).mean())
        value = acc_sel_softmax(params, timeline, 2)
        assert value == pytest.approx(stage2_share * stage2_acc, abs=0.1)

    def test_empty_union_returns_none(self):
        rng = np.random.default_rng(4)
        timeline = two_stage_timeline(rng)
        bare = ClientTimeline(
            client_id=1,
            stages=[
                StageTask(
                    1,
                    timeline.stages[0].train,
                    timeline.stages[0].test.subset(np.arange(0)),
                    frozenset({0, 1}),
                )
            ],
        )
        assert acc_sel_softmax(init_params(3, 4, 4, [1, 1]), bare, 1) is None


class TestForgetting:
    def test_identical_history_is_zero(self):
        assert forgetting([0.8, 0.8, 0.8]) == 0.0

    def test_improving_history_is_zero(self):
        assert forgetting([0.2, 0.5, 0.9]) == 0.0

    def test_drop_is_measured_from_peak(self):
        assert forgetting([0.8, 0.5]) == pytest.approx(0.3)
        assert forgetting([0.4, 0.8, 0.6, 0.5]) == pytest.approx(0.3)

    def test_short_history_is_zero(self):
        assert forgetting([0.7]) == 0.0
        assert forgetting([]) == 0.0


class TestMetricsLogCsv:
    def test_round_trip_and_header(self, tmp_path):
        mlog = MetricsLog()
        mlog.add(1, 2, "GLDP", "A_sel", 3, 0.75)
        mlog.add(1, 2, "GLDP", "A_sel", "ALL", 0.7512345678901234)
        path = tmp_path / "metrics.csv"
        mlog.to_csv(path)
        assert path.read_text().splitlines() == [
            "round,stage,algorithm,metric,scope,value",
            "1,2,GLDP,A_sel,3,0.75",
            "1,2,GLDP,A_sel,ALL,0.7512345678901234",
        ]

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(8)
        data = labeled(rng.standard_normal((40, 2)), rng.integers(0, 3, 40))
        store = store_with({0: [1.0, 0.0], 1: [0.0, 1.0], 2: [-1.0, 0.0]})
        value = accuracy_prototypes(identity_shared(2), store, data)
        assert 0.0 <= value <= 1.0
        params = ModelParams(identity_shared(2), LayerParams(np.eye(2, 3), np.zeros(3)))
        value = accuracy_softmax(params, data)
        assert 0.0 <= value <= 1.0
