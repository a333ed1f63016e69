import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gldpsim.cli import parse_config
from gldpsim.datagen import (
    DatasetSpec,
    LabeledSet,
    PartitionPlan,
    StageTask,
    apply_longtail,
    longtail_class_counts,
    make_synthetic_dataset,
    _part_bounds,
    partition_clients,
)
from gldpsim.errors import ConfigError, DataError
from gldpsim.federation import ExperimentConfig
from gldpsim.prototypes import compute_counts
from oracles import (
    rebuild_test_union,
    reference_longtail,
    reference_make_synthetic_dataset,
    reference_partition_clients,
    timeline_of,
)


def small_spec(**overrides):
    base = dict(
        num_classes=10, input_dim=16, samples_per_class=100,
        class_center_scale=4.0, noise_sigma=0.5,
    )
    base.update(overrides)
    return DatasetSpec(**base)


class TestMakeSyntheticDataset:
    def test_row_count_and_grouped_labels(self):
        data = make_synthetic_dataset(
            DatasetSpec(num_classes=2, input_dim=2, samples_per_class=3), 7
        )
        assert len(data) == 6
        assert data.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_same_seed_bit_identical(self):
        spec = small_spec()
        a = make_synthetic_dataset(spec, 7)
        b = make_synthetic_dataset(spec, 7)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = make_synthetic_dataset(small_spec(), 1)
        b = make_synthetic_dataset(small_spec(), 2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_nearest_centroid_oracle_accuracy(self):
        # Independent oracle: estimate each class center from half the
        # draws, classify the held-out half by nearest center; the
        # well-separated spec must score above 95%.
        spec = small_spec()
        data = make_synthetic_dataset(spec, 7)
        fit = data.subset(np.arange(len(data)) % 2 == 0)
        held_out = data.subset(np.arange(len(data)) % 2 == 1)
        centers = np.stack(
            [fit.inputs[fit.labels == c].mean(axis=0) for c in range(spec.num_classes)]
        )
        gaps = held_out.inputs[:, None, :] - centers[None, :, :]
        predicted = (gaps**2).sum(axis=-1).argmin(axis=1)
        assert (predicted == held_out.labels).mean() > 0.95

    def test_overflowing_center_scale_is_data_error(self):
        # Centers of +-inf leave NaN distances: rejected at once, not redrawn.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="class centers coincide or overflow"):
                make_synthetic_dataset(small_spec(class_center_scale=1e308), 0)

    def test_infinite_center_distances_are_data_error(self):
        # Centers of scale 1e200 are finite, but their squared gaps overflow to
        # inf distances: rejected too, under warnings raised as errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="class centers coincide or overflow"):
                make_synthetic_dataset(small_spec(class_center_scale=1e200), 0)

    def test_overflowing_noise_is_data_error(self):
        # Noise of scale 1e308 overflows to +-inf in the samples: rejected,
        # under warnings raised as errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="samples overflow"):
                make_synthetic_dataset(small_spec(noise_sigma=1e308), 0)

    def test_huge_finite_noise_is_accepted(self):
        # Noise of scale 1e305 stays finite; what it does to training is the
        # protocol's to report.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            data = make_synthetic_dataset(small_spec(noise_sigma=1e305), 0)
        assert np.isfinite(data.inputs).all()
        assert np.abs(data.inputs).max() > 1e305

    @settings(max_examples=150, deadline=None)
    @given(
        num_classes=st.integers(2, 12),
        input_dim=st.integers(2, 20),
        samples_per_class=st.integers(1, 300),
        class_center_scale=st.floats(0.1, 10.0),
        noise_sigma=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_generation_is_byte_identical(self, seed, **fields):
        # The in-place fill gives the bytes of the blocks-and-concatenate form.
        spec = DatasetSpec(**fields)
        got = make_synthetic_dataset(spec, seed)
        want = reference_make_synthetic_dataset(spec, seed)
        assert got.inputs.shape == want.inputs.shape
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.labels.dtype == want.labels.dtype

    def test_invalid_fields_name_the_field(self):
        with pytest.raises(ConfigError, match="num_classes"):
            DatasetSpec(num_classes=1, input_dim=4, samples_per_class=5)
        with pytest.raises(ConfigError, match="noise_sigma"):
            DatasetSpec(num_classes=3, input_dim=4, samples_per_class=5, noise_sigma=0.0)


def longtailed(spec, imbalance_factor, seed):
    """The long-tailed dataset ``initialize_experiment`` draws."""
    return make_synthetic_dataset(spec, seed, apply_longtail(spec, imbalance_factor, seed))


def row_indexed(data):
    """``data`` with input column 0 set to the row index, so each sample
    carries its identity through any subset."""
    inputs = data.inputs.copy()
    inputs[:, 0] = np.arange(len(data))
    return LabeledSet(inputs, data.labels)


class TestApplyLongtail:
    def test_identity_when_factor_is_one(self):
        assert np.array_equal(apply_longtail(small_spec(), 1.0, seed=0), np.arange(1000))

    def test_frozen_count_oracle_if_100(self):
        # Direct evaluation of round(100 * 100^(-k/9)) per class.
        assert longtail_class_counts(100, 100.0, 10) == [100, 60, 36, 22, 13, 8, 5, 3, 2, 1]

    def test_head_and_tail_counts(self):
        thinned = make_synthetic_dataset(small_spec(), 7, apply_longtail(small_spec(), 100.0, 0))
        counts = compute_counts(thinned.labels)
        assert counts[0] == 100
        assert counts[9] == 1
        assert counts[3] == 22

    def test_counts_non_increasing(self):
        for factor in (1.0, 10.0, 50.0, 100.0):
            thinned = make_synthetic_dataset(small_spec(), 7, apply_longtail(small_spec(), factor, 0))
            counts = compute_counts(thinned.labels)
            values = [counts[k] for k in range(10)]
            assert values == sorted(values, reverse=True)

    def test_keeps_rows_of_input(self):
        rows = apply_longtail(small_spec(), 50.0, seed=0)
        data = make_synthetic_dataset(small_spec(), 7)
        thinned = make_synthetic_dataset(small_spec(), 7, rows)
        assert rows.dtype == np.int64 and (np.diff(rows) > 0).all()
        assert 0 <= rows[0] and rows[-1] < len(data)
        assert np.array_equal(thinned.inputs, data.inputs[rows])
        assert np.array_equal(thinned.labels, data.labels[rows])


def assert_same_bytes(got, want):
    assert got.inputs.shape == want.inputs.shape
    assert got.inputs.tobytes() == want.inputs.tobytes()
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)


def draw_outcome(draw, *args):
    """(dataset or None, (exception type, text) or None)."""
    try:
        return draw(*args), None
    except Exception as exc:  # any type: the other draw must raise the same
        return None, (type(exc), str(exc))


class TestClassBlockDraw:
    """The long-tailed set is drawn one class block at a time, keeping only
    the rows ``apply_longtail`` chooses: the bytes of drawing the balanced
    set whole and thinning it."""

    @settings(max_examples=200, deadline=None)
    @given(
        num_classes=st.integers(2, 12),
        input_dim=st.integers(2, 8),
        samples_per_class=st.integers(1, 300),
        noise_sigma=st.one_of(st.floats(0.1, 10.0), st.sampled_from([1e305, 1e308])),
        imbalance_factor=st.sampled_from([1.0, 1.5, 10.0, 50.0, 1e4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_classes=10, input_dim=8, samples_per_class=300, noise_sigma=1e308,
             imbalance_factor=50.0, seed=0)
    def test_matches_drawing_whole_then_thinning(self, imbalance_factor, seed, **fields):
        spec = DatasetSpec(**fields)
        got, got_error = draw_outcome(longtailed, spec, imbalance_factor, seed)
        want, want_error = draw_outcome(reference_longtail, spec, imbalance_factor, seed)
        assert got_error == want_error
        if want is not None:
            assert_same_bytes(got, want)

    def test_overflow_example_reaches_the_error(self):
        spec = DatasetSpec(10, 8, 300, noise_sigma=1e308)
        with pytest.raises(DataError, match="samples overflow"):
            longtailed(spec, 50.0, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        num_classes=st.integers(2, 6),
        input_dim=st.integers(2, 4),
        samples_per_class=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_kept_rows_are_the_balanced_sets_subset(self, seed, data, **fields):
        spec = DatasetSpec(**fields)
        total = spec.num_classes * spec.samples_per_class
        rows = np.array(sorted(data.draw(st.lists(st.integers(0, total - 1), max_size=40))),
                        dtype=np.int64)
        assert_same_bytes(make_synthetic_dataset(spec, seed, rows),
                          make_synthetic_dataset(spec, seed).subset(rows))

    def test_peaks_below_one_copy_of_the_balanced_inputs(self):
        # 5,000 samples per class: drawing the balanced set whole and
        # thinning it peaked at 1.4x its inputs; block by block stays below.
        spec = DatasetSpec(10, 16, 5000)
        balanced_bytes = 10 * 5000 * 16 * np.dtype(np.float64).itemsize
        longtailed(spec, 50.0, 0)  # one-time allocations are not the draw's peak
        tracemalloc.start()
        try:
            longtailed(spec, 50.0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < balanced_bytes, f"peak {peak} B against {balanced_bytes} B balanced"


def four_class_data(seed=3):
    spec = DatasetSpec(num_classes=4, input_dim=4, samples_per_class=20)
    return make_synthetic_dataset(spec, seed)


def assert_rows_partitioned(timelines, data):
    """Every row of a ``row_indexed`` dataset lands, unchanged, in exactly
    one (client, stage, split): the multiset of rows is the dataset's."""
    parts = [part for t in timelines for s in t.stages for part in (s.train, s.test)]
    inputs = np.concatenate([p.inputs for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    order = np.argsort(inputs[:, 0], kind="stable")
    assert np.array_equal(inputs[order], data.inputs)
    assert np.array_equal(labels[order], data.labels)


@st.composite
def tiny_plans(draw):
    """A dataset and plan small enough to partition in milliseconds, in one
    of the three regimes of ``_stage_class_sets``."""
    regime = draw(st.sampled_from(["dealt", "window", "singletons"]))
    if regime == "dealt":  # at least as many classes as stages
        per_client = draw(st.integers(1, 5))
        stages = draw(st.integers(1, per_client))
    else:
        per_client = draw(st.integers(3, 4) if regime == "window" else st.integers(1, 2))
        stages = draw(st.integers(per_client + 1, 5))
    num_classes = draw(st.integers(max(2, per_client), 5))
    clients = draw(st.integers(-(-num_classes // per_client), 5))
    # At least one sample per holder, so no client is left without samples.
    per_class = draw(st.integers(clients * stages, 3 * clients * stages))
    spec = DatasetSpec(num_classes=num_classes, input_dim=2, samples_per_class=per_class)
    plan = PartitionPlan(num_clients=clients, classes_per_client=per_client, num_stages=stages)
    return spec, plan, draw(st.integers(0, 2**16))


@st.composite
def longtail_tiny_plans(draw):
    """``tiny_plans`` with fewer samples, thinned to a long tail: a tail
    class can hold fewer samples than holders or stages, so some parts come
    out empty and a client can be left with no samples."""
    spec, plan, seed = draw(tiny_plans())
    spec = replace(spec, samples_per_class=draw(st.integers(1, spec.samples_per_class)))
    return spec, replace(plan, imbalance_factor=draw(st.floats(1.0, 50.0))), seed


class TestPartitionClients:
    def test_single_stage_shape(self):
        timelines = partition_clients(
            four_class_data(),
            PartitionPlan(num_clients=2, classes_per_client=2, num_stages=1),
            5,
        )
        assert len(timelines) == 2
        for t in timelines:
            assert len(t.stages) == 1
            assert len(t.stages[0].class_set) == 2

    def test_staged_shape_20_4_5(self):
        thinned = make_synthetic_dataset(small_spec(), 7, apply_longtail(small_spec(), 50.0, 0))
        timelines = partition_clients(
            thinned,
            PartitionPlan(num_clients=20, classes_per_client=4, num_stages=5,
                          imbalance_factor=50.0),
            0,
        )
        assert len(timelines) == 20
        assert all(len(t.stages) == 5 for t in timelines)

    @settings(max_examples=100, deadline=None)
    @given(tiny_plans())
    def test_disjoint_union_covers_dataset(self, spec_plan_seed):
        spec, plan, seed = spec_plan_seed
        data = row_indexed(make_synthetic_dataset(spec, seed))
        try:
            timelines = partition_clients(data, plan, seed)
        except DataError as exc:  # every stage part of 1-2 samples went to training
            assume("no client holds any test sample" not in str(exc))
            raise
        assert_rows_partitioned(timelines, data)

    def test_train_test_split_is_80_20_per_class(self):
        data = four_class_data()
        timelines = partition_clients(
            data, PartitionPlan(num_clients=2, classes_per_client=2, num_stages=1), 5
        )
        for t in timelines:
            stage = t.stages[0]
            train_counts = compute_counts(stage.train.labels)
            test_counts = compute_counts(stage.test.labels)
            for c, n_train in train_counts.items():
                total = n_train + test_counts.get(c, 0)
                assert n_train == max(1, int(np.floor(0.8 * total + 0.5)))

    def test_disjointness_multi_stage(self):
        thinned = row_indexed(longtailed(small_spec(), 50.0, 11))
        timelines = partition_clients(
            thinned,
            PartitionPlan(num_clients=20, classes_per_client=4, num_stages=5,
                          imbalance_factor=50.0),
            11,
        )
        assert_rows_partitioned(timelines, thinned)

    def test_temporal_heterogeneity_exists(self):
        data = make_synthetic_dataset(small_spec(), 2)
        for seed in range(5):
            timelines = partition_clients(
                data,
                PartitionPlan(num_clients=20, classes_per_client=4, num_stages=5),
                seed,
            )
            differs = any(
                t.stages[j].class_set != t.stages[j + 1].class_set
                for t in timelines
                for j in range(len(t.stages) - 1)
            )
            assert differs

    def test_later_stages_introduce_new_classes(self):
        data = make_synthetic_dataset(small_spec(), 2)
        timelines = partition_clients(
            data, PartitionPlan(num_clients=20, classes_per_client=4, num_stages=5), 3
        )
        introduces = 0
        for t in timelines:
            seen = set(t.stages[0].class_set)
            for s in t.stages[1:]:
                if set(s.class_set) - seen:
                    introduces += 1
                seen |= set(s.class_set)
        assert introduces > 0

    def test_deterministic_in_seed(self):
        data = four_class_data()
        plan = PartitionPlan(num_clients=3, classes_per_client=2, num_stages=2)
        a = partition_clients(data, plan, 9)
        b = partition_clients(data, plan, 9)
        for ta, tb in zip(a, b):
            for sa, sb in zip(ta.stages, tb.stages):
                assert np.array_equal(sa.train.inputs, sb.train.inputs)
                assert np.array_equal(sa.test.inputs, sb.test.inputs)
                assert sa.class_set == sb.class_set

    def test_labels_subset_of_class_set(self):
        thinned = longtailed(small_spec(), 100.0, 4)
        timelines = partition_clients(
            thinned,
            PartitionPlan(num_clients=20, classes_per_client=4, num_stages=5,
                          imbalance_factor=100.0),
            4,
        )
        for t in timelines:
            for s in t.stages:
                for part in (s.train, s.test):
                    assert set(part.labels.tolist()) <= set(s.class_set)

    def test_too_many_classes_per_client_rejected(self):
        # The config checks the partition limits; partition_clients trusts them.
        message = r"^classes_per_client must be at most num_classes \(4\), got 5$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(
                clients_per_round=2,
                dataset=DatasetSpec(num_classes=4, input_dim=4, samples_per_class=10),
                plan=PartitionPlan(num_clients=2, classes_per_client=5, num_stages=1),
            )

    def test_no_test_sample_anywhere_rejected(self):
        # Each class has one holder and two samples: both go to training.
        data = make_synthetic_dataset(
            DatasetSpec(num_classes=4, input_dim=4, samples_per_class=2), 3
        )
        plan = PartitionPlan(num_clients=2, classes_per_client=2, num_stages=1)
        with pytest.raises(DataError, match="no client holds any test sample"):
            partition_clients(data, plan, 0)

    def test_impossible_coverage_rejected(self):
        with pytest.raises(ConfigError, match="failed to cover"):
            partition_clients(
                four_class_data(),
                PartitionPlan(num_clients=1, classes_per_client=2, num_stages=1),
                0,
            )


class TestInvariantGuards:
    def test_labeled_set_shape_mismatch(self):
        with pytest.raises(DataError):
            LabeledSet(np.zeros((3, 2)), np.zeros(2, dtype=np.int64))

    def test_stage_task_labels_outside_class_set(self):
        bad = LabeledSet(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(DataError):
            StageTask(stage_index=1, train=bad, test=bad.subset(np.arange(0)), class_set=frozenset({0}))

    def test_stage_task_error_names_each_label_once_in_order(self):
        good = LabeledSet(np.zeros((1, 2)), np.array([0]))
        bad = LabeledSet(np.zeros((4, 2)), np.array([7, 0, 5, 7]))
        message = r"^stage 3 test labels \[0, 5, 7\] outside class set \[0, 1\]$"
        with pytest.raises(DataError, match=message):
            StageTask(stage_index=3, train=good, test=bad, class_set=frozenset({1, 0}))


def assert_same_set(got, want):
    for name in ("inputs", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def desk_timelines(seed):
    config = parse_config(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
    return partition_clients(longtailed(config.dataset, config.plan.imbalance_factor, seed),
                             config.plan, seed)


def partition_with_warnings(partition, data, plan, seed, caplog):
    caplog.clear()
    with caplog.at_level("WARNING", logger="gldpsim.datagen"):
        timelines = partition(data, plan, seed)
    return timelines, [r.getMessage() for r in caplog.records]


def partition_outcome(partition, data, plan, seed, caplog):
    """(timelines or None, warnings logged, (exception type, text) or None)."""
    try:
        timelines, messages = partition_with_warnings(partition, data, plan, seed, caplog)
    except Exception as exc:  # any type: the other partitioner must raise the same
        return None, [r.getMessage() for r in caplog.records], (type(exc), str(exc))
    return timelines, messages, None


def assert_same_timelines(got, want):
    assert [t.client_id for t in got] == [t.client_id for t in want]
    for g, w in zip(got, want):
        assert len(g.stages) == len(w.stages)
        assert g.classes == w.classes
        for upto in range(len(w.stages) + 1):
            assert_same_set(g.test_union(upto), rebuild_test_union(w, upto))
        for gs, ws in zip(g.stages, w.stages):
            assert (gs.stage_index, gs.class_set) == (ws.stage_index, ws.class_set)
            assert_same_set(gs.train, ws.train)
            assert_same_set(gs.test, ws.test)


# Two plans at the partition's edges, as (spec, plan, seed): one leaves a
# stage without training samples (one warning), the other leaves a client
# without any sample (DataError).
EMPTY_PART_PLAN = (DatasetSpec(4, 2, 6), PartitionPlan(3, 3, 4, 10.0), 3)
NO_SAMPLE_CLIENT_PLAN = (DatasetSpec(4, 2, 1), PartitionPlan(3, 3, 4), 1)


class TestPartitionMatchesReference:
    """The slicing partitioner gives the stages of the np.array_split one."""

    @pytest.mark.parametrize("shape, seeds", [("desk", range(5)), ("population", range(2))])
    def test_same_stages_and_warning(self, shape, seeds, caplog):
        config = parse_config(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
        spec, plan = config.dataset, config.plan
        if shape == "population":
            spec = DatasetSpec(spec.num_classes, spec.input_dim, 5000,
                               spec.class_center_scale, spec.noise_sigma)
            plan = PartitionPlan(500, plan.classes_per_client, plan.num_stages,
                                 plan.imbalance_factor)
        for seed in seeds:
            data = longtailed(spec, plan.imbalance_factor, seed)
            got, got_log = partition_with_warnings(partition_clients, data, plan, seed, caplog)
            want, want_log = partition_with_warnings(
                reference_partition_clients, data, plan, seed, caplog)
            assert got_log == want_log
            assert_same_timelines(got, want)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec_plan_seed=st.one_of(tiny_plans(), longtail_tiny_plans()))
    @example(spec_plan_seed=EMPTY_PART_PLAN)
    @example(spec_plan_seed=NO_SAMPLE_CLIENT_PLAN)
    def test_tiny_plans_match_reference(self, spec_plan_seed, caplog):
        spec, plan, seed = spec_plan_seed
        data = longtailed(spec, plan.imbalance_factor, seed)
        got, got_log, got_error = partition_outcome(partition_clients, data, plan, seed, caplog)
        want, want_log, want_error = partition_outcome(
            reference_partition_clients, data, plan, seed, caplog)
        assert (got_error, got_log) == (want_error, want_log)
        if want is not None:
            assert_same_timelines(got, want)

    def test_edge_plans_reach_their_edges(self, caplog):
        spec, plan, seed = EMPTY_PART_PLAN
        data = longtailed(spec, plan.imbalance_factor, seed)
        _, messages = partition_with_warnings(partition_clients, data, plan, seed, caplog)
        assert len(messages) == 1 and "have no training samples" in messages[0]
        spec, plan, seed = NO_SAMPLE_CLIENT_PLAN
        with pytest.raises(DataError, match="received no samples"):
            partition_clients(make_synthetic_dataset(spec, seed), plan, seed)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 40))
    def test_part_bounds_cut_as_array_split(self, length, sections):
        index = np.arange(length, dtype=np.int64)
        start, size = _part_bounds(length, sections, np.arange(sections))
        got = [index[a:a + b] for a, b in zip(start.tolist(), size.tolist())]
        want = np.array_split(index, sections)
        assert len(got) == len(want) == sections
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


class TestOneCallRollDraw:
    """``partition_clients`` draws the roll of every share dealt to two or
    more stages in one ``Generator.integers(highs)`` call, where it once
    drew one ``integers(h)`` per share. Its partitions stay the same only
    while numpy gives both the same values and leaves the same state."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**63), st.lists(st.integers(2, 20), max_size=64))
    def test_array_draw_equals_one_draw_per_high(self, seed, highs):
        together, one_by_one = np.random.default_rng(seed), np.random.default_rng(seed)
        got = together.integers(np.array(highs, dtype=np.int64)).tolist()
        want = [int(one_by_one.integers(h)) for h in highs]
        message = ("Generator.integers(highs) differs from one integers(h) per entry, "
                   "so partition_clients's one-call roll draw changes every partition")
        assert got == want, message
        assert together.integers(2) == one_by_one.integers(2), message
        assert together.random() == one_by_one.random(), message


class TestPartitionFailsLikeReference:
    @pytest.mark.parametrize("seed", [90, 554, 555, 667])
    def test_unbuildable_desk_seed_raises_the_reference_error(self, seed):
        config = parse_config(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
        data = longtailed(config.dataset, config.plan.imbalance_factor, seed)
        messages = []
        pattern = r"^client \d+ received no samples for any of its classes$"
        for partition in (partition_clients, reference_partition_clients):
            with pytest.raises(DataError, match=pattern) as info:
                partition(data, config.plan, seed)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestStageLayout:
    """Every stage's sets, and every test union, are read-only row slices
    of one gathered pair."""

    def test_stage_arrays_are_read_only_contiguous_views_of_one_base(self):
        timelines = desk_timelines(0)
        parts = [part for t in timelines for stage in t.stages
                 for part in (stage.train, stage.test)]
        parts += [union for t in timelines for union in (t.test_union(), t.test_union(1))]
        for name in ("inputs", "labels"):
            arrays = [getattr(part, name) for part in parts]
            base = arrays[0].base
            assert base is not None and base.base is None
            for array in arrays:
                assert not array.flags.writeable, name
                assert array.flags.c_contiguous, name
                assert array.base is base, name

    def test_writing_into_stage_inputs_raises(self):
        stage = next(s for t in desk_timelines(0) for s in t.stages if len(s.train))
        with pytest.raises(ValueError, match="read-only"):
            stage.train.inputs[0, 0] = 1.0


class TestDeskTestCoverage:
    def test_desk_test_rows_are_classes_0_to_3(self):
        # A (client, stage) class part of 1-2 samples goes wholly to
        # training, and beyond class 2 almost every desk part is that small:
        # seeds 0-4 hold test rows in classes 0-3 only, and 9-17 of the 20
        # clients hold any. A partition change that moves this says so here.
        per_class, holders = np.zeros(10, dtype=np.int64), []
        for seed in range(5):
            unions = [t.test_union() for t in desk_timelines(seed)]
            per_class += sum(np.bincount(u.labels, minlength=10) for u in unions)
            holders.append(sum(1 for u in unions if len(u)))
        assert per_class.tolist() == [116, 55, 18, 3, 0, 0, 0, 0, 0, 0]
        assert holders == [17, 12, 9, 12, 13]

    def test_readme_block_prints_the_readme_table(self, monkeypatch, capsys):
        # README's test-row table and the code block after it that makes it.
        root = Path(__file__).resolve().parents[1]
        before, after = (root / "README.md").read_text().split("The table comes from the", 1)
        block = after.split("```python\n", 1)[1].split("```", 1)[0]
        rows = dict(re.findall(r"^\| `(desk\w*\.cfg)` \| ([\d |]+) \|$", before, re.M))
        assert set(rows) == {"desk.cfg", "desk_large.cfg"}
        monkeypatch.chdir(root)
        exec(block, {})
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"configs/{name} " + " ".join(rows[name].split(" | "))
                           for name in ("desk.cfg", "desk_large.cfg")]


def upto_values(num_stages):
    return [None, *range(-num_stages - 1, num_stages + 2)]


@st.composite
def hand_built_timelines(draw):
    """Timelines of 1-5 stages whose test sets may be empty. The dtypes vary
    between timelines, not within one."""
    dim = draw(st.integers(1, 3))
    float_type = draw(st.sampled_from([np.float64, np.float32]))
    int_type = draw(st.sampled_from([np.int64, np.int32]))
    stages = []
    for index in range(1, draw(st.integers(1, 5)) + 1):
        rows = {}
        for part in ("train", "test"):
            size = draw(st.integers(0, 5))
            labels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
            values = draw(st.lists(st.floats(-5, 5), min_size=size * dim, max_size=size * dim))
            rows[part] = LabeledSet(
                np.array(values, dtype=float_type).reshape(size, dim),
                np.array(labels, dtype=int_type),
            )
        stages.append(StageTask(index, rows["train"], rows["test"], frozenset(range(4))))
    return timeline_of(0, stages)


class TestTestUnion:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_rebuild_on_desk_partition(self, seed):
        for timeline in desk_timelines(seed):
            for upto in upto_values(len(timeline.stages)):
                assert_same_set(timeline.test_union(upto), rebuild_test_union(timeline, upto))
            assert timeline.classes == set().union(*(s.class_set for s in timeline.stages))

    @settings(max_examples=300, deadline=None)
    @given(hand_built_timelines())
    def test_matches_rebuild_on_hand_built_timelines(self, timeline):
        for upto in upto_values(len(timeline.stages)):
            assert_same_set(timeline.test_union(upto), rebuild_test_union(timeline, upto))

    def test_timeline_and_stage_are_frozen(self):
        timeline = desk_timelines(0)[0]
        with pytest.raises(FrozenInstanceError):
            timeline.stages = ()
        with pytest.raises(FrozenInstanceError):
            timeline.stages[0].test = timeline.stages[1].test

    def test_union_is_shared_and_read_only(self):
        timeline = next(
            t for t in desk_timelines(0) if 0 < len(t.test_union(1)) < len(t.test_union())
        )
        assert timeline.test_union() is timeline.test_union()
        for union in (timeline.test_union(), timeline.test_union(1)):
            for array in (union.inputs, union.labels):
                with pytest.raises(ValueError):
                    array[0] = 0
