import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldpsim import metrics, prototypes
from gldpsim.datagen import ClientTimeline, LabeledSet, StageTask
from gldpsim.errors import ProtocolError
from gldpsim.metrics import (
    MetricsLog,
    acc_global,
    acc_global_softmax,
    acc_local,
    acc_local_softmax,
    acc_sel_prototypes,
    acc_sel_softmax,
    accuracy_prototypes,
    accuracy_softmax,
    forgetting,
)
from gldpsim.model import (
    LayerParams,
    LossWeights,
    ModelParams,
    OptimizerConfig,
    embed,
    init_params,
    local_update,
)
from gldpsim.prototypes import inference_store, nearest, predict_batch
from oracles import (
    reference_acc_global,
    reference_acc_global_softmax,
    reference_acc_local,
    reference_accuracy_prototypes,
    reference_accuracy_softmax,
    reference_predict_batch,
)


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

    def test_memo_follows_replaced_and_dropped_test_sets(self):
        # The held rows are reused only while every test set is the held
        # object: a replaced, dropped or added set is scored as given.
        rng = np.random.default_rng(4)
        centers = [[8.0, 1.0], [1.0, 8.0], [8.0, 8.0]]
        sets = [separated_clouds(rng, centers, n) for n in (5, 7, 9)]
        other = separated_clouds(rng, centers, 4)
        empty = labeled(np.empty((0, 2)), [])
        store = store_with({0: [6.0, 2.0], 1: [2.0, 6.0], 2: [6.0, 6.0]})
        shared = LayerParams(np.array([[1.0, 0.3], [0.2, 1.0]]), np.zeros(2))
        memo: dict = {}
        for given_sets in (sets, sets, sets[:2], sets, [sets[0], other, sets[2]],
                           [*sets[:2], empty], [empty, other], sets):
            assert (acc_global(shared, store, given_sets, memo=memo)
                    == reference_acc_global(shared, store, given_sets))
        with pytest.raises(ProtocolError, match="no client's test data can be evaluated"):
            acc_global(shared, store, [empty], memo=memo)


class TestAccGlobalSoftmax:
    @staticmethod
    def clients(rng, sizes, classes=3):
        sets = [labeled(rng.standard_normal((n, 2)), rng.integers(0, classes, n)) for n in sizes]
        heads = [LayerParams(rng.standard_normal((2, classes)), rng.standard_normal(classes))
                 for _ in sizes]
        return sets, heads

    def test_each_client_is_scored_with_its_own_head(self):
        data = labeled([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        right = LayerParams(np.eye(2), np.zeros(2))
        wrong = LayerParams(np.eye(2)[::-1], np.zeros(2))
        value = acc_global_softmax(identity_shared(2), [right, wrong, right], [data] * 3)
        assert value == pytest.approx(2 / 3)

    @pytest.mark.parametrize("sets", [0, 1, 3])
    def test_no_test_data_raises(self, sets):
        empty = labeled(np.empty((0, 2)), [])
        heads = [LayerParams(np.eye(2), np.zeros(2))] * sets
        with pytest.raises(ProtocolError, match="no client's test data can be evaluated"):
            acc_global_softmax(identity_shared(2), heads, [empty] * sets)

    def test_memo_follows_replaced_and_dropped_test_sets(self):
        # As for acc_global: the held groups are reused only while every
        # test set is the held object, and the heads are read every call.
        rng = np.random.default_rng(5)
        sets, heads = self.clients(rng, (5, 7, 5))
        (other,), (other_head,) = self.clients(rng, (7,))
        empty = labeled(np.empty((0, 2)), [])
        shared = LayerParams(np.array([[1.0, 0.3], [0.2, 1.0]]), np.zeros(2))
        memo: dict = {}

        def check(given_sets, given_heads):
            models = [ModelParams(shared, h) for h in given_heads]
            assert (acc_global_softmax(shared, given_heads, given_sets, memo=memo)
                    == reference_acc_global_softmax(models, given_sets))

        for given_sets, given_heads in (
            (sets, heads), (sets, heads), (sets, heads[::-1]), (sets[:2], heads[:2]),
            (sets, heads), ([sets[0], other, sets[2]], [heads[0], other_head, heads[2]]),
            ([*sets[:2], empty], heads), ([empty, other], heads[:2]), (sets, heads),
        ):
            check(given_sets, given_heads)
        with pytest.raises(ProtocolError, match="no client's test data can be evaluated"):
            acc_global_softmax(shared, heads[:1], [empty], memo=memo)


class TestStackedMatmul:
    """A_glo's bit-identity rests on numpy's matmul over a (g, M, K) stack
    equalling the g per-slice matmuls bit for bit, whether the right operand
    is one 2-D matrix (the embedding layer, a server head) or a stack of
    them (per-client heads). The shapes are desk's (input_dim, hidden_dim)
    and (hidden_dim, num_classes)."""

    @pytest.mark.parametrize("g", [1, 2, 7, 30])
    @pytest.mark.parametrize("rows", [1, 2, 3, 11, 63, 64, 65, 130])
    @pytest.mark.parametrize("inner, outer", [(16, 64), (64, 10)])
    def test_stack_equals_each_slice(self, inner, outer, rows, g):
        rng = np.random.default_rng([inner, rows, g])
        stack = rng.standard_normal((g, rows, inner))
        weight = rng.standard_normal((inner, outer))
        weights = rng.standard_normal((g, inner, outer))
        message = ("a stacked matmul differs from its per-slice matmuls on this platform, "
                   "so grouped A_glo is no longer bit-identical to scoring each client alone")
        assert np.array_equal(stack @ weight, np.stack([s @ weight for s in stack])), message
        assert np.array_equal(stack @ weights,
                              np.stack([s @ w for s, w in zip(stack, weights)])), message


# Test-set sizes on either side of the 64 rows above which nearest screens first.
BLOCK_EDGE_SIZES = (0, 1, 63, 64, 65, 130)


@st.composite
def scoring_cases(draw):
    """(shared layer, store, heads, test sets) for the grouped A_glo.

    Test-set sizes come from a small pool, so sets of one size repeat and
    size groups have several members. Some store classes repeat another's
    vector (ties), and inputs, stores or both may sit near 1e200, where
    squared gaps overflow to inf. The heads are one per client, or one
    object for all, as a server head is.
    """
    dim = draw(st.integers(1, 70))
    in_dim = draw(st.integers(1, 6))
    classes = draw(st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True))
    pool = draw(st.lists(st.sampled_from(BLOCK_EDGE_SIZES + (2, 3)), min_size=1, max_size=3,
                         unique=True))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    input_scale = draw(st.sampled_from([1.0, 1e200]))
    store_scales = draw(st.lists(st.sampled_from([1.0, 1e150, 1e200]),
                                 min_size=len(classes), max_size=len(classes)))
    twins = draw(st.lists(st.sampled_from(classes), max_size=3))
    one_head = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = LayerParams(rng.standard_normal((in_dim, dim)), rng.standard_normal(dim))
    store = {c: rng.standard_normal(dim) * scale for c, scale in zip(classes, store_scales)}
    for c in twins:
        store[c] = store[classes[0]]
    labels = [*classes, max(classes) + 1]  # one label the store cannot predict
    test_sets = [labeled(rng.standard_normal((n, in_dim)) * input_scale, rng.choice(labels, n))
                 for n in sizes]
    outputs = max(labels) + 1

    def head():
        return LayerParams(rng.standard_normal((dim, outputs)), rng.standard_normal(outputs))

    heads = [head()] * len(sizes) if one_head else [head() for _ in sizes]
    return shared, store, heads, test_sets


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestOnePassMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_predict_batch(self, case):
        shared, store, _, test_sets = case
        for ts in test_sets:
            embeddings = embed(shared, ts.inputs)
            got, want = predict_batch(embeddings, store), reference_predict_batch(embeddings, store)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            raw = ts.inputs @ shared.weight  # negative coordinates too
            assert np.array_equal(predict_batch(raw, store), reference_predict_batch(raw, store))

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_acc_global(self, case):
        shared, store, _, test_sets = case
        if not any(len(ts) for ts in test_sets):
            with pytest.raises(ProtocolError):
                acc_global(shared, store, test_sets)
            return
        assert acc_global(shared, store, test_sets) == reference_acc_global(shared, store, test_sets)

    @settings(max_examples=200, deadline=None)
    @given(scoring_cases())
    def test_acc_global_softmax(self, case):
        shared, _, heads, test_sets = case
        models = [ModelParams(shared, head) for head in heads]
        if not any(len(ts) for ts in test_sets):
            with pytest.raises(ProtocolError):
                acc_global_softmax(shared, heads, test_sets)
            return
        assert (acc_global_softmax(shared, heads, test_sets)
                == reference_acc_global_softmax(models, test_sets))


SCALES = (1e-160, 1.0, 1e150, 1e200)


def scoped_reference(embeddings, matrix, allowed):
    """Per row with any allowed row of ``matrix``: the reference prediction
    from a store of its allowed rows alone, as an index into ``matrix``."""
    return [reference_predict_batch(row[None], {j: matrix[j] for j in np.flatnonzero(scope)})[0]
            for row, scope in zip(embeddings, allowed) if scope.any()]


@st.composite
def screen_cases(draw):
    """(embeddings, matrix, allowed or None) with 65-300 rows, so the screen runs.

    Each class vector sits at its own scale (1e-160, where squares are
    subnormal, up to 1e200, where they overflow), and so do the rows. Some
    classes repeat another's vector (twins) or sit one ulp from it, and
    some rows lie at the midpoint of two class vectors.
    """
    dim, k, n = draw(st.integers(1, 70)), draw(st.integers(1, 8)), draw(st.integers(65, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=k, max_size=k))
    matrix = rng.standard_normal((k, dim)) * np.array(scales)[:, None]
    for a, b in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3)):
        matrix[b] = np.nextafter(matrix[a], np.inf) if draw(st.booleans()) else matrix[a]
    near = rng.integers(0, k, n)
    spread = draw(st.sampled_from((1e-3, 1.0)))
    embeddings = matrix[near] + rng.standard_normal((n, dim)) * spread * draw(st.sampled_from(SCALES))
    midpoints = rng.random(n) < 0.2
    embeddings[midpoints] = (matrix[near[midpoints]] + matrix[rng.integers(0, k, n)[midpoints]]) / 2
    allowed = rng.random((n, k)) < 0.6 if draw(st.booleans()) else None
    return embeddings, matrix, allowed


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNearestScreen:
    """The screen settles a row only when the exact pass would pick the same
    row, so every prediction of a call of more than 64 rows keeps its bits."""

    @settings(max_examples=200, deadline=None)
    @given(screen_cases())
    def test_equals_the_reference(self, case):
        embeddings, matrix, allowed = case
        if allowed is None:
            store = dict(enumerate(matrix))
            assert np.array_equal(nearest(embeddings, matrix),
                                  reference_predict_batch(embeddings, store))
        else:
            got = nearest(embeddings, matrix, allowed)[allowed.any(axis=1)]
            assert got.tolist() == scoped_reference(embeddings, matrix, allowed)

    @pytest.mark.parametrize("rows", [65, 200, 300])
    def test_prototypes_one_ulp_apart(self, rows):
        rng = np.random.default_rng(rows)
        base = rng.standard_normal(16)
        store = {0: np.nextafter(base, np.inf), 1: base, 2: np.nextafter(base, -np.inf), 3: -base}
        embeddings = base + rng.standard_normal((rows, 16)) * 1e-15
        assert np.array_equal(predict_batch(embeddings, store),
                              reference_predict_batch(embeddings, store))

    def test_rows_at_the_exact_midpoint_take_the_lower_class(self):
        # Integer vectors with an even gap: every midpoint and gap is exact,
        # so both distances are equal and the tie goes to class 2.
        rng = np.random.default_rng(1)
        low = rng.integers(-50, 50, 32).astype(float)
        high = low + 2 * rng.integers(-9, 9, 32)
        store = {2: low, 5: high, 7: low + 1000}
        embeddings = np.repeat([(low + high) / 2], 150, axis=0)
        got = predict_batch(embeddings, store)
        assert got.tolist() == [2] * 150
        assert np.array_equal(got, reference_predict_batch(embeddings, store))

    @pytest.mark.parametrize("store_scale", SCALES)
    @pytest.mark.parametrize("row_scale", SCALES)
    def test_tiny_rows_beside_every_scale(self, row_scale, store_scale):
        rng = np.random.default_rng([SCALES.index(row_scale), SCALES.index(store_scale)])
        store = {c: rng.standard_normal(24) * scale
                 for c, scale in enumerate([1e-160, store_scale, 1e-160, store_scale])}
        embeddings = rng.standard_normal((130, 24)) * np.where(rng.random(130) < 0.5, 1e-160,
                                                               row_scale)[:, None]
        assert np.array_equal(predict_batch(embeddings, store),
                              reference_predict_batch(embeddings, store))

    @pytest.mark.parametrize("scale", [*SCALES, 1e300, np.inf, np.nan])
    def test_the_screen_raises_no_warning_and_settles_no_row_it_cannot_bound(self, scale):
        # Every row meets the classes at +-1e200, whose squared bounds
        # overflow, so no row is settled, in scope or not.
        rng = np.random.default_rng(0)
        embeddings = rng.standard_normal((256, 8)) * scale
        matrix = rng.standard_normal((5, 8)) * np.array([1.0, scale, 1e200, -1e200, 1e-160])[:, None]
        allowed = rng.random((256, 5)) < 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            settled, _ = prototypes._screen(embeddings, matrix, allowed)
            prototypes._screen(embeddings, matrix, None)
        assert not settled.any()

    def test_desk_shaped_rows_are_settled_by_the_screen(self, monkeypatch):
        # 1,000 ReLU embeddings of width 64 around 10 class means, as desk's
        # A_glo scores them: the screen, not the exact pass, must settle
        # nearly all of them, or the fast path has silently gone dead.
        rng = np.random.default_rng(0)
        inputs, weight = rng.standard_normal((1000, 16)), rng.standard_normal((16, 64))
        labels = rng.integers(0, 10, 1000)
        embeddings = np.maximum(inputs @ weight + 2 * rng.standard_normal((10, 64))[labels], 0.0)
        store = {c: embeddings[labels == c].mean(axis=0) for c in range(10)}
        exact = prototypes._exact
        reached = []
        monkeypatch.setattr(prototypes, "_exact",
                            lambda rows, *a: reached.append(len(rows)) or exact(rows, *a))
        got = predict_batch(embeddings, store)
        assert np.array_equal(got, reference_predict_batch(embeddings, store))
        assert sum(reached) <= 10, f"{sum(reached)} of 1000 rows reached the exact pass"

    def test_a_masked_block_peaks_below_one_copy_of_its_rows(self):
        # A_loc's never-trained block: 5,000 rows of width 64, lp scopes.
        rng = np.random.default_rng(3)
        embeddings = np.maximum(rng.standard_normal((5000, 64)), 0.0)
        matrix = np.maximum(rng.standard_normal((10, 64)), 0.0)
        allowed = rng.random((5000, 10)) < 0.3
        tracemalloc.start()
        try:
            nearest(embeddings, matrix, allowed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < embeddings.nbytes, f"peak {peak} B against {embeddings.nbytes} B of rows"


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

            def counting(*args, _original=original, **kwargs):
                seen.append(args[-1])
                return _original(*args, **kwargs)

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

    @pytest.fixture
    def embedded(self, monkeypatch):
        """(shared, inputs) of each ``metrics.embed`` call, in order."""
        seen = []

        def counting(shared, x, _original=metrics.embed):
            seen.append((shared, x))
            return _original(shared, x)

        monkeypatch.setattr(metrics, "embed", counting)
        return seen

    def test_replaced_store_vector_rescores_the_held_embedding(self, computed, embedded):
        models, data = self.prototype_clients()
        memo = {}
        acc_local(models, data, memo=memo)
        assert len(embedded) == 3
        computed.clear()
        shared, store = models[2]
        models[2] = (shared, {**store, 1: np.array([2.0, 0.0])})
        acc_local(models, data, memo=memo)
        assert self.scored(computed, data[2])
        assert len(embedded) == 3

    def test_replaced_shared_layer_or_test_set_embeds_again(self, embedded):
        models, data = self.prototype_clients()
        memo = {}
        acc_local(models, data, memo=memo)
        embedded.clear()
        models[0] = (models[0][0].copy(), models[0][1])
        data[1] = LabeledSet(data[1].inputs.copy(), data[1].labels.copy())
        acc_local(models, data, memo=memo)
        assert len(embedded) == 2
        assert embedded[0][0] is models[0][0] and embedded[0][1] is data[0].inputs
        assert embedded[1][0] is models[1][0] and embedded[1][1] is data[1].inputs

    def test_every_value_equals_a_memoless_one(self):
        # Random replacements of store vectors, class sets, shared layers
        # and test sets, in any mix, over many calls.
        rng = np.random.default_rng(17)

        def store():
            classes = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            return {int(c): rng.standard_normal(3) for c in classes}

        def test_set():
            rows = int(rng.integers(0, 90))
            return labeled(rng.standard_normal((rows, 2)), rng.integers(0, 4, rows))

        def shared():
            return LayerParams(rng.standard_normal((2, 3)), rng.standard_normal(3))

        models = [(shared(), store()) for _ in range(5)]
        data = [labeled(rng.standard_normal((7, 2)), rng.integers(0, 4, 7))]  # never empty
        data += [test_set() for _ in range(4)]
        memo, memos = {}, [{} for _ in models]
        for _ in range(40):
            for i in range(len(models)):
                layer, vectors = models[i]
                change = rng.integers(6)
                if change == 1:
                    c = int(rng.choice(sorted(vectors)))
                    vectors = {**vectors, c: rng.standard_normal(3)}
                elif change == 2:
                    vectors = store()
                elif change == 3:
                    layer = shared()
                elif change == 4 and i > 0:
                    data[i] = test_set()
                models[i] = (layer, vectors)
            assert acc_local(models, data, memo=memo) == acc_local(models, data)
            for i in range(len(models)):
                if len(data[i]):
                    assert (acc_local(models[i:i + 1], data[i:i + 1], memo=memos[i])
                            == acc_local(models[i:i + 1], data[i:i + 1]))


@st.composite
def block_calls(draw):
    """A_loc calls that share one memo, as run_experiment makes them.

    Each call is ``(models, test_sets, global store, resolved models)``.
    A client starts never-trained, with the one initial layer and a scope
    (lp: a random class set, which may hold no global class; gp: every
    class), or trained, with its own layer and resolved store; between
    calls, never-trained clients may train and leave the block, and test
    sets may be replaced. Global stores hold twin vectors (exact ties) and
    may sit near 1e200, where every squared gap overflows to inf.
    """
    mode = draw(st.sampled_from(["lp", "gp"]))
    num_classes, dim = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    in_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def layer():
        return LayerParams(rng.standard_normal((in_dim, dim)), rng.standard_normal(dim))

    def test_set():
        rows = draw(st.sampled_from([0, 0, 1, 2, 3, 7, 70]))  # 70: the block is screened
        return labeled(rng.standard_normal((rows, in_dim)), rng.integers(0, num_classes, rows))

    def class_set():
        return frozenset(draw(st.sets(st.integers(0, num_classes - 1))))

    def vectors(classes, scale):
        return {c: rng.standard_normal(dim) * scale for c in sorted(classes)}

    initial, every_class = layer(), frozenset(range(num_classes))
    count = draw(st.integers(1, 7))
    test_sets = [test_set() for _ in range(count)]
    trained = {i: (layer(), vectors(class_set(), 1.0))
               for i in range(count) if draw(st.booleans())}
    scopes = [every_class if mode == "gp" else class_set() for _ in range(count)]
    calls = []
    for _ in range(draw(st.integers(1, 4))):
        glob = vectors(class_set(), draw(st.sampled_from([1.0, 1.0, 1e200])))
        for c in draw(st.lists(st.sampled_from(sorted(glob)), max_size=3)) if glob else []:
            glob[c] = glob[min(glob)]
        models, resolved = [], []
        for i in range(count):
            if i in trained:
                store = glob if mode == "gp" else trained[i][1]
                models.append((trained[i][0], store))
                resolved.append((trained[i][0], store))
            else:
                models.append((initial, scopes[i]))
                resolved.append((initial, inference_store({}, glob, mode, scopes[i])))
        calls.append((models, list(test_sets), glob, resolved))
        for i in draw(st.sets(st.integers(0, count - 1), max_size=3)):
            trained[i] = (layer(), vectors(class_set(), 1.0))
        if draw(st.booleans()):
            test_sets[draw(st.integers(0, count - 1))] = test_set()
    return calls


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestALocBlock:
    """Never-trained clients, given as scopes, are scored as one block."""

    @settings(max_examples=300, deadline=None)
    @given(block_calls())
    def test_every_call_equals_the_reference(self, calls):
        memo = {}
        for models, test_sets, glob, resolved in calls:
            try:
                expected = reference_acc_local(resolved, test_sets)
            except ProtocolError:
                with pytest.raises(ProtocolError):
                    acc_local(models, test_sets, global_protos=glob, memo=memo)
            else:
                assert acc_local(models, test_sets, global_protos=glob, memo=memo) == expected
            # The memo holds the rows of the block's clients only.
            members = [(shared, ts) for (shared, store), ts in zip(models, test_sets)
                       if isinstance(store, frozenset) and len(ts)]
            if members:
                held, embedded = memo["block"][0], memo["block"][1]
                assert [(id(m[1]), id(m[2])) for m in held] == [(id(a), id(b)) for a, b in members]
                assert len(embedded) == sum(len(ts) for _, ts in members)
            else:
                assert "block" not in memo

    def test_ties_break_to_the_lowest_class(self):
        # Classes 1 and 3 share a vector; class 0 lies out of scope, nearer.
        data = labeled([[1.0, 1.0]], [1])
        glob = store_with({0: [1.0, 1.0], 1: [2.0, 2.0], 3: [2.0, 2.0]})
        scope = frozenset({1, 3})
        assert acc_local([(identity_shared(2), scope)], [data], global_protos=glob) == 1.0

    def test_a_scope_holding_no_global_class_is_skipped(self):
        data = labeled([[1.0, 0.0]], [0])
        models = [(identity_shared(2), frozenset({2})), (identity_shared(2), frozenset({0}))]
        glob = store_with({0: [1.0, 0.0], 1: [0.0, 1.0]})
        assert acc_local(models, [data, data], global_protos=glob) == 1.0


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


class TestHitCount:
    """Counting hits gives the float that the mean of the hit array gave."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=300))
    def test_count_form_equals_mean_form(self, rows):
        # Each row lies on the prototype (or the one-hot logit) of its
        # predicted class; a miss labels it with the next class.
        predicted = np.array([p for p, _ in rows])
        labels = np.where([hit for _, hit in rows], predicted, (predicted + 1) % 3)
        data = labeled(np.eye(3)[predicted], labels)
        store = store_with({c: np.eye(3)[c] for c in range(3)})
        params = ModelParams(identity_shared(3), LayerParams(np.eye(3), np.zeros(3)))
        shared = identity_shared(3)
        assert (accuracy_prototypes(shared, store, data)
                == reference_accuracy_prototypes(shared, store, data))
        assert accuracy_softmax(params, data) == reference_accuracy_softmax(params, data)
        assert accuracy_prototypes(shared, store, data) == np.mean(predicted == labels)

    def test_empty_set_is_none(self):
        empty = labeled(np.empty((0, 3)), [])
        params = ModelParams(identity_shared(3), LayerParams(np.eye(3), np.zeros(3)))
        store = store_with({0: [1.0, 0.0, 0.0]})
        assert accuracy_prototypes(identity_shared(3), store, empty) is None
        assert reference_accuracy_prototypes(identity_shared(3), store, empty) is None
        assert accuracy_softmax(params, empty) is None
        assert reference_accuracy_softmax(params, empty) is None


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
                params, timeline.stages[1], {}, {}, opt, LossWeights(), np.random.default_rng(5)
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
