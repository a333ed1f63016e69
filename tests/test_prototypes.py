import numpy as np
import pytest

from gldpsim.errors import ProtocolError
from gldpsim.prototypes import (
    compute,
    inference_store,
    predict_batch,
    update_global,
    update_local,
)


def store_with(vectors: dict[int, list[float]]) -> dict[int, np.ndarray]:
    return {c: np.array(v, dtype=np.float64) for c, v in vectors.items()}


class TestCompute:
    def test_two_point_mean(self):
        protos = compute(np.array([[1.0, 3.0], [3.0, 1.0]]), np.array([0, 0]))
        assert np.array_equal(protos[0], np.array([2.0, 2.0]))

    def test_single_vector_is_identity(self):
        v = np.array([[0.5, -2.0, 7.0]])
        protos = compute(v, np.array([3]))
        assert np.array_equal(protos[3], v[0])

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((100, 8))
        protos = compute(vectors, np.zeros(100, dtype=np.int64))
        # independent oracle: explicit coordinate-wise sum
        want = np.array([sum(vectors[i, j] for i in range(100)) / 100 for j in range(8)])
        assert np.abs(protos[0] - want).max() < 1e-12

    def test_empty_input_gives_empty_map(self):
        assert compute(np.empty((0, 4)), np.empty(0, dtype=np.int64)) == {}


class TestUpdateLocal:
    def test_half_blend(self):
        store = update_local(store_with({0: [2.0, 0.0]}), {0: np.array([0.0, 2.0])}, 0.5)
        assert np.array_equal(store[0], np.array([1.0, 1.0]))

    def test_momentum_one_keeps_existing(self):
        store = store_with({0: [2.0, 0.0]})
        old = store[0].copy()
        store = update_local(store, {0: np.array([9.0, 9.0])}, 1.0)
        assert np.array_equal(store[0], old)

    def test_momentum_zero_takes_fresh(self):
        fresh = np.array([0.7, 0.1])
        store = update_local(store_with({0: [2.0, 0.0]}), {0: fresh}, 0.0)
        assert np.array_equal(store[0], fresh)

    def test_new_class_inserted_verbatim(self):
        fresh = np.array([4.0, -1.0])
        store = update_local(store_with({0: [1.0, 1.0]}), {7: fresh}, 0.5)
        assert np.array_equal(store[7], fresh)
        assert np.array_equal(store[0], np.array([1.0, 1.0]))

    def test_returns_new_store_and_leaves_argument(self):
        store = store_with({0: [2.0, 0.0], 1: [1.0, 1.0]})
        vectors = {c: v.copy() for c, v in store.items()}
        fresh = {0: np.array([0.0, 2.0]), 3: np.array([5.0, 5.0])}
        folded = update_local(store, fresh, 0.5)
        assert folded is not store and sorted(folded) == [0, 1, 3]
        assert sorted(store) == [0, 1]
        for c, v in vectors.items():
            assert np.array_equal(store[c], v)

    def test_idempotent_for_any_momentum(self):
        rng = np.random.default_rng(2)
        for momentum in (0.0, 0.137, 0.5, 0.92, 1.0):
            vec = rng.standard_normal(6)
            store = update_local({4: vec.copy()}, {4: vec.copy()}, momentum)
            assert np.array_equal(store[4], vec)

    def test_blend_is_convex_coordinate_wise(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            momentum = float(rng.uniform())
            old = rng.standard_normal(5)
            fresh = rng.standard_normal(5)
            blended = update_local({0: old.copy()}, {0: fresh}, momentum)[0]
            assert np.all(blended >= np.minimum(old, fresh))
            assert np.all(blended <= np.maximum(old, fresh))

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            momentum = float(rng.uniform())
            old = rng.standard_normal(4)
            fresh = rng.standard_normal(4)
            store = update_local({0: old.copy()}, {0: fresh}, momentum)
            want = momentum * old + (1.0 - momentum) * fresh
            assert np.abs(store[0] - want).max() < 1e-12


class TestUpdateGlobal:
    def test_existing_class_single_upload(self):
        store = update_global(store_with({0: [4.0, 0.0]}), [(1, {0: np.array([0.0, 4.0])})], 0.5)
        assert np.array_equal(store[0], np.array([2.0, 2.0]))

    def test_new_class_plain_mean(self):
        store = update_global(
            {},
            [(1, {5: np.array([1.0, 1.0])}), (2, {5: np.array([3.0, 3.0])})],
            0.5,
        )
        assert np.array_equal(store[5], np.array([2.0, 2.0]))

    def test_returns_new_store_and_leaves_argument(self):
        store = store_with({0: [4.0, 0.0], 2: [1.0, 1.0]})
        vectors = {c: v.copy() for c, v in store.items()}
        uploads = [(1, {0: np.array([0.0, 4.0]), 6: np.array([3.0, 3.0])})]
        folded = update_global(store, uploads, 0.5)
        assert folded is not store and sorted(folded) == [0, 2, 6]
        assert sorted(store) == [0, 2]
        for c, v in vectors.items():
            assert np.array_equal(store[c], v)

    def test_five_client_formula_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            momentum = float(rng.uniform())
            old = rng.standard_normal(3)
            uploads = [(i, {0: rng.standard_normal(3)}) for i in range(5)]
            store = update_global({0: old.copy()}, uploads, momentum)
            mean = sum(protos[0] for _, protos in uploads) / 5
            want = momentum * old + (1.0 - momentum) * mean
            assert np.abs(store[0] - want).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        store = store_with({0: [1.0, 2.0]})
        with pytest.raises(ProtocolError):
            update_global(
                store,
                [(1, {0: np.array([5.0, 5.0])}), (2, {1: np.array([1.0, 2.0, 3.0])})],
                0.5,
            )
        # a rejected upload leaves the store untouched
        assert sorted(store) == [0] and np.array_equal(store[0], [1.0, 2.0])
        with pytest.raises(ProtocolError):
            update_global(
                {},
                [(1, {3: np.array([1.0])}), (2, {3: np.array([1.0, 2.0])})],
                0.5,
            )

    def test_converges_geometrically_to_shared_upload(self):
        momentum = 0.5
        target = np.array([1.0, -2.0, 0.5])
        store = {0: np.array([10.0, 10.0, 10.0])}
        gaps = []
        for _ in range(6):
            store = update_global(store, [(i, {0: target.copy()}) for i in range(4)], momentum)
            gaps.append(float(np.abs(store[0] - target).max()))
        for before, after in zip(gaps, gaps[1:]):
            assert after == pytest.approx(momentum * before, rel=1e-9)


class TestPredict:
    def test_nearer_centroid_wins(self):
        store = store_with({0: [1.0, 0.0], 1: [5.0, 0.0]})
        assert predict_batch(np.array([[0.0, 0.0]]), store).tolist() == [0]

    def test_exact_match_wins(self):
        store = store_with({1: [1.0, 1.0], 3: [4.0, -2.0], 5: [0.0, 9.0]})
        assert predict_batch(np.array([[4.0, -2.0]]), store).tolist() == [3]

    def test_tie_breaks_to_lowest_class(self):
        store = store_with({0: [1.0, 0.0], 1: [-1.0, 0.0]})
        assert predict_batch(np.array([[0.0, 0.0]]), store).tolist() == [0]

    def test_tie_is_taken_after_the_square_root(self):
        # Squared distances 1 + 2**-52 and 1 differ, but both round to a
        # distance of 1.0, so the tie goes to the lower class.
        store = store_with({0: [1.0, 2.0**-26], 1: [1.0, 0.0]})
        assert predict_batch(np.array([[0.0, 0.0]]), store).tolist() == [0]

    def test_empty_store_raises(self):
        with pytest.raises(ProtocolError, match="no prototypes available"):
            predict_batch(np.array([[0.0]]), {})

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        store = store_with({c: rng.standard_normal(4).tolist() for c in range(5)})
        shift = rng.standard_normal(4)
        embeddings = rng.standard_normal((20, 4))
        base = predict_batch(embeddings, store)
        shifted_store = store_with(
            {c: (store[c] + shift).tolist() for c in range(5)}
        )
        shifted = predict_batch(embeddings + shift, shifted_store)
        assert np.array_equal(base, shifted)


class TestInferenceStore:
    def test_gp_uses_global_only(self):
        local = store_with({0: [0.0, 0.0]})
        glob = store_with({0: [1.0, 1.0], 1: [2.0, 2.0]})
        resolved = inference_store(local, glob, "gp", scope={0, 1})
        assert np.array_equal(resolved[0], np.array([1.0, 1.0]))

    def test_lp_prefers_local_with_global_fallback(self):
        local = store_with({0: [0.0, 0.0]})
        glob = store_with({0: [1.0, 1.0], 1: [2.0, 2.0]})
        resolved = inference_store(local, glob, "lp", scope={0, 1})
        assert np.array_equal(resolved[0], np.array([0.0, 0.0]))
        assert np.array_equal(resolved[1], np.array([2.0, 2.0]))

    def test_lp_fallback_stays_in_scope(self):
        local = store_with({0: [0.0, 0.0]})
        glob = store_with({1: [2.0, 2.0], 2: [3.0, 3.0]})
        assert sorted(inference_store(local, glob, "lp", scope={0, 1})) == [0, 1]
