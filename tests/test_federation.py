import json
import logging
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gldpsim import federation
from gldpsim.cli import parse_config
from gldpsim.datagen import DatasetSpec, PartitionPlan
from gldpsim.errors import ConfigError, DataError, ProtocolError, SimulationError
from gldpsim.federation import (
    ALGORITHMS,
    INFERENCE_MODES,
    ExperimentConfig,
    RoundMessage,
    aggregate_shared,
    audit_message_log,
    dump_message_log,
    initialize_experiment,
    run_experiment,
    run_round,
    run_stage,
    select_clients,
)
from gldpsim.metrics import A_GLOBAL, A_LOCAL, A_SELECTED, acc_global, acc_local, acc_local_softmax
from gldpsim.model import (
    LayerParams,
    LossWeights,
    ModelParams,
    OptimizerConfig,
    grad_total,
    init_params,
    joint_update,
)
from gldpsim.prototypes import inference_store

from oracles import (
    reconstruct_input,
    reference_acc_global,
    reference_message_dict,
    reference_message_line,
    reference_run_experiment,
)
from trend_runs import cached_run, select

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        algorithm="GLDP",
        rounds=2,
        clients_per_round=3,
        dataset=DatasetSpec(
            num_classes=4, input_dim=6, samples_per_class=30,
            class_center_scale=3.0, noise_sigma=0.8,
        ),
        plan=PartitionPlan(
            num_clients=4, classes_per_client=2, num_stages=2,
            imbalance_factor=1.0,
        ),
        opt=OptimizerConfig(step_size=0.02, shared_epochs=1, head_epochs=2, batch_size=16),
        weights=LossWeights(),
        embedding_dim=8,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-300, 1e16])
_vectors = arrays(np.float64, st.integers(1, 3), elements=_floats)
_layers = st.builds(
    LayerParams, arrays(np.float64, st.tuples(st.integers(1, 2), st.integers(1, 2)), elements=_floats),
    _vectors,
)
_class_maps = st.dictionaries(st.integers(0, 12), _vectors, max_size=4)
_payloads = st.fixed_dictionaries(
    {"shared": _layers},
    optional={
        "head": _layers,
        "global_prototypes": _class_maps,
        "prototypes": _class_maps,
        "class_counts": st.dictionaries(st.integers(0, 12), st.integers(0, 500), max_size=4),
    },
)


class TestSelectClients:
    def test_full_participation(self):
        assert select_clients(5, 5, seed=0, round_index=1) == [0, 1, 2, 3, 4]

    def test_deterministic_singleton(self):
        first = select_clients(10, 1, seed=3, round_index=7)
        again = select_clients(10, 1, seed=3, round_index=7)
        assert first == again and len(first) == 1

    def test_binomial_concentration(self):
        # 10 of 100 over 1000 rounds: each client expected 100 +- 30 times.
        counts = np.zeros(100, dtype=int)
        for k in range(1000):
            for c in select_clients(100, 10, seed=11, round_index=k):
                counts[c] += 1
        assert counts.min() >= 70
        assert counts.max() <= 130


class TestAggregateShared:
    def test_two_upload_mean(self):
        a = LayerParams(np.array([[1.0]]), np.array([2.0]))
        b = LayerParams(np.array([[3.0]]), np.array([4.0]))
        merged = aggregate_shared([a, b])
        assert np.array_equal(merged.weight, np.array([[2.0]]))
        assert np.array_equal(merged.bias, np.array([3.0]))

    def test_single_upload_identity(self):
        a = LayerParams(np.array([[1.5, -1.0]]), np.array([0.25]))
        merged = aggregate_shared([a])
        assert np.array_equal(merged.weight, a.weight)
        assert np.array_equal(merged.bias, a.bias)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(1)
        uploads = [
            LayerParams(rng.standard_normal((3, 4)), rng.standard_normal(4)) for _ in range(7)
        ]
        merged = aggregate_shared(uploads)
        want_w = sum(u.weight for u in uploads) / 7
        want_b = sum(u.bias for u in uploads) / 7
        assert np.abs(merged.weight - want_w).max() < 1e-12
        assert np.abs(merged.bias - want_b).max() < 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        uploads = [
            LayerParams(rng.standard_normal((2, 2)), rng.standard_normal(2)) for _ in range(5)
        ]
        forward_order = aggregate_shared(uploads)
        reverse_order = aggregate_shared(uploads[::-1])
        assert np.allclose(forward_order.weight, reverse_order.weight, atol=1e-15)

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ProtocolError):
            aggregate_shared([])
        with pytest.raises(ProtocolError):
            aggregate_shared(
                [
                    LayerParams(np.zeros((2, 2)), np.zeros(2)),
                    LayerParams(np.zeros((3, 2)), np.zeros(2)),
                ]
            )


class TestRunStage:
    @pytest.mark.parametrize("algorithm", ["GLDP", "FedAvg", "FedRep", "FedProx"])
    def test_non_finite_update_is_protocol_error(self, algorithm):
        config = tiny_config(algorithm=algorithm, opt=replace(tiny_config().opt, step_size=1e200))
        server, clients = initialize_experiment(config)
        with np.errstate(all="ignore"), pytest.raises(
            ProtocolError, match=r"^round 1 stage 1: client 0 update is not finite$"
        ):
            run_stage(server, clients, [0, 1, 2], 1, 1, config)

    def test_zero_step_size_is_fixed_point_for_shared(self):
        config = tiny_config(
            opt=OptimizerConfig(step_size=0.0, shared_epochs=1, head_epochs=1, weight_decay=0.0)
        )
        server, clients = initialize_experiment(config)
        before = server.shared.copy()
        run_stage(server, clients, [0, 1, 2], 1, 1, config)
        assert np.array_equal(server.shared.weight, before.weight)
        assert np.array_equal(server.shared.bias, before.bias)

    def test_single_client_aggregation_is_identity(self):
        config = tiny_config()
        server, clients = initialize_experiment(config)
        run_stage(server, clients, [2], 1, 1, config)
        assert np.array_equal(server.shared.weight, clients[2].params.shared.weight)

    def test_two_client_mean_matches_hand_trace(self):
        config = tiny_config()
        server, clients = initialize_experiment(config)
        # capture each client's post-update shared layer via single-client runs
        single = {}
        for cid in (0, 1):
            s2, c2 = initialize_experiment(config)
            run_stage(s2, c2, [cid], 1, 1, config)
            single[cid] = c2[cid].params.shared
        run_stage(server, clients, [0, 1], 1, 1, config)
        want_w = (single[0].weight + single[1].weight) / 2
        assert np.allclose(server.shared.weight, want_w, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        order=st.permutations(range(4)),
        count=st.integers(1, 4),
    )
    def test_scheduling_order_does_not_matter(self, algorithm, order, count):
        selected = list(order[:count])

        def run(in_order):
            config = tiny_config(algorithm=algorithm)
            server, clients = initialize_experiment(config)
            messages = []
            for stage_index in (1, 2):
                run_stage(server, clients, in_order, 1, stage_index, config, messages)
            uploads = sorted(
                (reference_message_dict(m) for m in messages if m.direction == "client_to_server"),
                key=lambda m: (m["stage"], m["sender"]),
            )
            return server, clients, uploads

        server_a, clients_a, uploads_a = run(sorted(selected))
        server_b, clients_b, uploads_b = run(selected)
        assert_same_models((server_a, clients_a), (server_b, clients_b))
        if server_a.head is not None:
            assert np.array_equal(server_a.head.weight, server_b.head.weight)
            assert np.array_equal(server_a.head.bias, server_b.head.bias)
        stores = [(server_a.global_protos, server_b.global_protos)] + [
            (clients_a[c].local_protos, clients_b[c].local_protos) for c in clients_a
        ]
        for store_a, store_b in stores:
            assert sorted(store_a) == sorted(store_b)
            assert all(np.array_equal(store_a[c], store_b[c]) for c in store_a)
        assert uploads_a == uploads_b

    def test_stage_classes_gain_local_prototypes(self):
        config = tiny_config()
        server, clients = initialize_experiment(config)
        for stage_index in (1, 2):
            run_stage(server, clients, [0, 1, 2], 1, stage_index, config)
            for cid in (0, 1, 2):
                client = clients[cid]
                seen = set()
                for s in client.timeline.stages[:stage_index]:
                    seen |= set(int(v) for v in np.unique(s.train.labels))
                assert seen <= set(client.local_protos)


    def test_empty_stages_warned_once_per_partition(self, caplog):
        config = ExperimentConfig(rounds=1)  # the desk layout
        # at_level also lifts the logging.disable() of the acceptance module
        with caplog.at_level(logging.DEBUG):
            server, clients = initialize_experiment(config)
            empty = [
                f"{cid}:{stage.stage_index}"
                for cid, client in sorted(clients.items())
                for stage in client.timeline.stages
                if len(stage.train) == 0
            ]
            assert empty
            [record] = caplog.records
            assert record.levelno == logging.WARNING
            assert record.getMessage().endswith("(client:stage): " + " ".join(empty))

            caplog.clear()
            skipped = 0
            for stage_index in range(1, config.plan.num_stages + 1):
                participants = run_stage(server, clients, sorted(clients), 1, stage_index, config)
                skipped += len(clients) - len(participants)
            assert skipped == len(empty)
            assert caplog.records == []


class TestFixedPoint:
    def test_zero_step_full_retention_server_state_invariant(self):
        config = tiny_config(
            rounds=6,
            clients_per_round=4,
            opt=OptimizerConfig(step_size=0.0, shared_epochs=1, head_epochs=1, weight_decay=0.0),
            proto_momentum=1.0,
        )
        server, clients = initialize_experiment(config)
        snapshots = []
        for k in range(1, 6):
            run_round(server, clients, config, k)
            snapshots.append(replace(server))
        reference = snapshots[0]
        for later in snapshots[1:]:
            assert np.array_equal(reference.shared.weight, later.shared.weight)
            assert np.array_equal(reference.shared.bias, later.shared.bias)
            assert sorted(reference.global_protos) == sorted(later.global_protos)
            for c in sorted(reference.global_protos):
                assert np.array_equal(reference.global_protos[c], later.global_protos[c])


def run_rounds(config, rounds=2):
    server, clients = initialize_experiment(config)
    for k in range(1, rounds + 1):
        run_round(server, clients, config, k)
    return server, clients


def assert_same_models(a, b):
    """The server's shared layer and every client's layers are bit-identical."""
    (server_a, clients_a), (server_b, clients_b) = a, b
    pairs = [(server_a.shared, server_b.shared)]
    for c in clients_a:
        params_a, params_b = clients_a[c].params, clients_b[c].params
        pairs += [(params_a.shared, params_b.shared), (params_a.head, params_b.head)]
    for x, y in pairs:
        assert np.array_equal(x.weight, y.weight) and np.array_equal(x.bias, y.bias)


class TestBaselineUpdate:
    def test_fedprox_zero_coeff_equals_fedavg(self):
        avg = run_rounds(tiny_config(algorithm="FedAvg"))
        prox = run_rounds(tiny_config(algorithm="FedProx", fedprox_coeff=0.0))
        assert_same_models(avg, prox)
        assert np.array_equal(avg[0].head.weight, prox[0].head.weight)

    def test_fedavg_single_step_matches_sgd_oracle(self):
        _, clients = initialize_experiment(tiny_config())
        stage = clients[0].timeline.stages[0]
        broadcast = init_params(6, 8, 4, [6, 6])
        opt = OptimizerConfig(
            step_size=0.05, shared_epochs=1, head_epochs=1, weight_decay=0.0, batch_size=10_000
        )
        updated = joint_update(broadcast, stage, opt, np.random.default_rng(4), prox_coeff=0.0)
        expect = ModelParams(broadcast.shared.copy(), broadcast.head.copy())
        for _ in range(2):  # shared_epochs + head_epochs joint passes
            grads = grad_total(expect, stage.train.inputs, stage.train.labels, {}, {}, LossWeights())
            expect.shared.weight -= 0.05 * grads.shared.weight
            expect.shared.bias -= 0.05 * grads.shared.bias
            expect.head.weight -= 0.05 * grads.head.weight
            expect.head.bias -= 0.05 * grads.head.bias
        assert np.allclose(updated.shared.weight, expect.shared.weight, atol=1e-12)
        assert np.allclose(updated.head.weight, expect.head.weight, atol=1e-12)

    def test_fedrep_equals_gldp_until_a_store_fills(self):
        # GLDP's relation terms act only on stored prototypes, and both
        # stores are empty through round 1's first stage: until then GLDP
        # trains from (broadcast shared, own head) exactly like FedRep.
        configs = [tiny_config(algorithm=a) for a in ("GLDP", "FedRep")]
        runs = [initialize_experiment(config) for config in configs]
        selected = select_clients(4, 3, seed=0, round_index=1)

        def stage(stage_index):
            for config, (server, clients) in zip(configs, runs):
                run_stage(server, clients, selected, 1, stage_index, config)

        stage(1)
        assert_same_models(*runs)
        (gldp, _), (fedrep, _) = runs
        assert gldp.global_protos and not fedrep.global_protos
        stage(2)
        assert not np.array_equal(gldp.shared.weight, fedrep.shared.weight)


@st.composite
def tiny_configs(draw) -> ExperimentConfig:
    """Valid tiny configs; some cannot be partitioned."""
    def floats(low, high):
        return st.floats(low, high, allow_nan=False)

    num_clients = draw(st.integers(1, 5))
    num_classes = draw(st.integers(2, 6))
    return ExperimentConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        rounds=draw(st.integers(1, 2)),
        clients_per_round=draw(st.integers(1, num_clients)),
        dataset=DatasetSpec(
            num_classes=num_classes,
            input_dim=draw(st.integers(2, 5)),
            samples_per_class=draw(st.integers(1, 20)),
            class_center_scale=draw(floats(0.1, 4.0)),
            noise_sigma=draw(floats(0.1, 3.0)),
        ),
        plan=PartitionPlan(
            num_clients=num_clients,
            # the partition limits: at most every class, and enough to cover them
            classes_per_client=draw(st.integers(-(-num_classes // num_clients), num_classes)),
            num_stages=draw(st.integers(1, 4)),
            imbalance_factor=draw(floats(1.0, 20.0)),
        ),
        opt=OptimizerConfig(
            step_size=draw(floats(0.0, 1.0)),
            shared_epochs=draw(st.integers(1, 2)),
            head_epochs=draw(st.integers(1, 2)),
            weight_decay=draw(floats(0.0, 0.1)),
            batch_size=draw(st.integers(1, 8)),
        ),
        weights=LossWeights(
            relation_mix=draw(floats(0.0, 1.0)), temperature=draw(floats(0.1, 4.0)),
        ),
        embedding_dim=draw(st.integers(1, 6)),
        proto_momentum=draw(floats(0.0, 1.0)),
        fedprox_coeff=draw(floats(0.0, 1.0)),
        inference_mode=draw(st.sampled_from(INFERENCE_MODES)),
        seed=draw(st.integers(0, 1000)),
    )


def partial_participation(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` with one more client than any round selects and 2-3 rounds."""
    return replace(
        config,
        rounds=config.rounds + 1,
        clients_per_round=min(config.clients_per_round, config.plan.num_clients),
        plan=replace(config.plan, num_clients=config.plan.num_clients + 1),
    )


class TestRunExperiment:
    @settings(max_examples=200, deadline=None)
    @given(config=tiny_configs())
    def test_tiny_config_runs_in_range_or_fails_in_category(self, config):
        try:
            mlog = run_experiment(config)
        except SimulationError as exc:
            event(f"raised {type(exc).__name__}")
            return
        event("ran")
        values = [row.value for row in mlog.rows]
        assert values
        assert all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in values)

    @settings(max_examples=200, deadline=None)
    @given(
        config=tiny_configs(),
        num_clients=st.integers(1, 5),
        classes_per_client=st.integers(1, 8),
        num_classes=st.integers(2, 6),
    )
    def test_accepted_config_partitions_or_fails_coverage(
        self, config, num_clients, classes_per_client, num_classes
    ):
        # Any partition shape the config accepts reaches partition_clients,
        # whose only ConfigError left is its rng-dependent coverage retry.
        try:
            config = replace(
                config,
                clients_per_round=1,
                dataset=replace(config.dataset, num_classes=num_classes),
                plan=replace(
                    config.plan, num_clients=num_clients, classes_per_client=classes_per_client
                ),
            )
        except ConfigError:
            event("rejected by the config")
            return
        try:
            initialize_experiment(config)
        except DataError:
            event("raised DataError")
        except ConfigError as exc:
            assert str(exc).startswith("failed to cover")

    @pytest.mark.parametrize(
        "algorithm, mode",
        [("GLDP", "lp"), ("GLDP", "gp"), ("FedAvg", "lp"), ("FedRep", "lp"), ("FedProx", "lp")],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_memoized_a_loc_equals_recomputed(self, algorithm, mode, data):
        # run_experiment reuses an unselected client's A_loc term; rebuild
        # every term each round without the memo and compare exact floats.
        drawn = data.draw(tiny_configs())
        config = partial_participation(replace(drawn, algorithm=algorithm, inference_mode=mode))
        try:
            logged = [r.value for r in select(run_experiment(config), A_LOCAL, "ALL")]
        except SimulationError as exc:
            event(f"raised {type(exc).__name__}")
            return
        event("ran")
        server, clients = initialize_experiment(config)
        order = sorted(clients)
        test_sets = [clients[c].timeline.test_union() for c in order]
        recomputed = []
        for round_index in range(1, config.rounds + 1):
            run_round(server, clients, config, round_index)
            if config.algorithm == "GLDP":
                models = [
                    (clients[c].params.shared,
                     inference_store(clients[c].local_protos, server.global_protos,
                                     config.inference_mode, scope=clients[c].timeline.classes))
                    for c in order
                ]
                recomputed.append(acc_local(models, test_sets))
            else:
                recomputed.append(acc_local_softmax([clients[c].params for c in order], test_sets))
        assert logged == recomputed

    @pytest.mark.parametrize("seed, num_clients, samples_per_class, rounds", [
        *((seed, 20, 100, 4) for seed in range(5)),  # desk
        (0, 500, 5000, 3),  # desk with population's clients and samples
    ])
    def test_trained_lp_client_predicts_with_its_own_store(
        self, seed, num_clients, samples_per_class, rounds
    ):
        # Every class of a timeline has a training row in some stage, and a
        # selected client trains every non-empty stage of the round. So once
        # a client has trained, its lp store is its local store, with no
        # global fallback, and A_loc's inputs change only when it trains.
        desk = parse_config(DESK)
        config = replace(
            desk, seed=seed, rounds=rounds,
            dataset=replace(desk.dataset, samples_per_class=samples_per_class),
            plan=replace(desk.plan, num_clients=num_clients),
        )
        assert config.inference_mode == "lp"
        server, clients = initialize_experiment(config)
        initial = server.shared
        for round_index in range(1, rounds + 1):
            run_round(server, clients, config, round_index)
            trained = [c for c in clients.values() if c.params.shared is not initial]
            assert trained
            for client in trained:
                scope = client.timeline.classes
                assert set(client.local_protos) == scope
                store = inference_store(client.local_protos, server.global_protos, "lp", scope)
                assert store.keys() == client.local_protos.keys()
                assert all(store[c] is client.local_protos[c] for c in store)

    @pytest.mark.parametrize(
        "algorithm, mode",
        [("GLDP", "lp"), ("GLDP", "gp"), ("FedAvg", "lp"), ("FedRep", "lp"), ("FedProx", "lp")],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rows_equal_the_four_piece_evaluation(self, algorithm, mode, data):
        # Every logged row, in order: A_sel per participant and ALL,
        # forgetting per selected client and ALL, A_glo (FedRep's with each
        # client's own head) and A_loc; a run that fails must fail alike.
        drawn = data.draw(tiny_configs())
        config = partial_participation(replace(drawn, algorithm=algorithm, inference_mode=mode))

        def rows(run):
            try:
                mlog = run(config)
            except SimulationError as exc:
                return type(exc), str(exc)
            return [(r.round_index, r.stage_index, r.algorithm, r.metric, r.scope, r.value)
                    for r in mlog.rows]

        logged = rows(run_experiment)
        event("ran" if isinstance(logged, list) else f"raised {logged[0].__name__}")
        assert logged == rows(reference_run_experiment)

    def test_memoized_a_glo_equals_reference_each_round(self):
        # One memo over six desk rounds: it holds the same scored rows from
        # the first round on, and every value equals the per-client oracle's.
        config = replace(parse_config(DESK), rounds=6)
        server, clients = initialize_experiment(config)
        test_sets = [clients[c].timeline.test_union() for c in sorted(clients)]
        memo: dict = {}
        for round_index in range(1, config.rounds + 1):
            run_round(server, clients, config, round_index)
            value = acc_global(server.shared, server.global_protos, test_sets, memo=memo)
            assert value == reference_acc_global(server.shared, server.global_protos, test_sets)
            if round_index == 1:
                held = dict(memo)
        assert held and all(memo[key] is kept for key, kept in held.items())

    def test_metrics_rows_present_and_in_range(self):
        mlog = run_experiment(tiny_config())
        metrics = {r.metric for r in mlog.rows}
        assert {A_GLOBAL, A_LOCAL, A_SELECTED} <= metrics
        assert all(0.0 <= r.value <= 1.0 for r in mlog.rows)

    def test_deterministic_repeat(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert [(r.round_index, r.stage_index, r.metric, r.scope, r.value) for r in a.rows] == [
            (r.round_index, r.stage_index, r.metric, r.scope, r.value) for r in b.rows
        ]

    def test_relation_ablation_shares_protocol_plumbing(self):
        # Same seed, same data: a mix=1 run (local relation only) differs
        # from a mix=0 run (global relation only) only through the loss
        # terms, so both must produce the same schedule of rows (metric
        # names, scopes, rounds).
        lam0 = run_experiment(tiny_config(weights=LossWeights(relation_mix=0.0)))
        lam1 = run_experiment(tiny_config(weights=LossWeights(relation_mix=1.0)))
        assert [(r.round_index, r.stage_index, r.metric, r.scope) for r in lam0.rows] == [
            (r.round_index, r.stage_index, r.metric, r.scope) for r in lam1.rows
        ]

    def test_head_persists_across_rounds_for_gldp(self):
        config = tiny_config(rounds=1)
        server, clients = initialize_experiment(config)
        heads_before = {cid: clients[cid].params.head.weight.copy() for cid in clients}
        run_round(server, clients, config, 1)
        selected = select_clients(4, 3, seed=0, round_index=1)
        for cid in selected:
            assert not np.array_equal(clients[cid].params.head.weight, heads_before[cid])


class TestInitializeExperiment:
    def test_setup_peak_holds_the_balanced_set_once(self):
        # Set-up draws only the long tail's rows of the balanced set, one class
        # block at a time, so its traced peak stays below 1.6x the balanced
        # inputs; drawing a block per class, concatenating them and holding
        # the set through partitioning peaked at 2.18x.
        desk = parse_config(DESK)
        config = replace(desk, dataset=replace(desk.dataset, samples_per_class=1000))
        balanced_bytes = 10 * 1000 * 16 * np.dtype(np.float64).itemsize
        assert (config.dataset.num_classes, config.dataset.input_dim) == (10, 16)
        initialize_experiment(desk)  # one-time allocations are not set-up's peak
        tracemalloc.start()
        try:
            initialize_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * balanced_bytes


class TestStagedTrendDirection:
    def test_gldp_asel_at_least_fedavg_on_staged_longtail(self):
        # Direction-only check on the desk-scale staged configuration:
        # prototype inference with relation losses should not trail plain
        # averaged softmax on the stage-union metric.
        def final_asel(algorithm, seed):
            config = ExperimentConfig(algorithm=algorithm, rounds=30).with_seed(seed)
            mlog = cached_run(config)
            rows = sorted(
                select(mlog, A_SELECTED, "ALL"), key=lambda r: (r.round_index, r.stage_index)
            )
            return rows[-1].value

        gldp = np.mean([final_asel("GLDP", s) for s in range(5)])
        fedavg = np.mean([final_asel("FedAvg", s) for s in range(5)])
        assert gldp >= fedavg


class TestMessagesAndAudit:
    def run_with_log(self, config):
        messages = []
        server, clients = initialize_experiment(config)
        for k in range(1, config.rounds + 1):
            run_round(server, clients, config, k, messages)
        return messages, clients

    def test_gldp_uploads_never_contain_head_inputs_or_labels(self):
        config = tiny_config()
        messages, clients = self.run_with_log(config)
        uploads = [m for m in messages if m.direction == "client_to_server"]
        assert uploads
        for msg in uploads:
            assert set(msg.payload) == {"shared", "prototypes", "class_counts"}
        assert audit_message_log(messages, clients, "GLDP") == []

    def test_one_sample_prototype_uploads_give_back_their_inputs(self):
        # The audit checks uploads only for exact copies. A prototype formed
        # from one training sample is that sample's embedding, and least
        # squares on the uploaded shared layer's active units inverts it. On
        # desk (6 rounds, seed 0) half of GLDP's prototype uploads are such.
        config = replace(parse_config(DESK), rounds=6)
        messages, clients = self.run_with_log(config)
        uploads = one_sample = 0
        for msg in messages:
            if msg.direction != "client_to_server":
                continue
            train = clients[msg.sender].timeline.stages[msg.stage_index - 1].train
            for cls, proto in msg.payload["prototypes"].items():
                uploads += 1
                rows = train.inputs[train.labels == cls]
                if len(rows) == 1:
                    one_sample += 1
                    recovered = reconstruct_input(msg.payload["shared"], proto)
                    np.testing.assert_allclose(recovered, rows[0], rtol=0, atol=1e-8)
        assert (one_sample, uploads) == (225, 450)
        assert audit_message_log(messages, clients, "GLDP") == []

    def test_audit_flags_head_leak(self):
        config = tiny_config()
        messages, clients = self.run_with_log(config)
        leaky = messages + [
            RoundMessage(
                "client_to_server", 0, "server", 1, 1,
                {"extra": clients[0].params.head.weight.copy()},
            )
        ]
        violations = audit_message_log(leaky, clients, "GLDP")
        assert any("head weights" in v for v in violations)
        assert any("unexpected payload keys" in v for v in violations)

    def test_audit_flags_label_leak(self):
        config = tiny_config()
        messages, clients = self.run_with_log(config)
        stage = clients[1].timeline.stages[0]
        leaky = messages + [
            RoundMessage(
                "client_to_server", 1, "server", 1, 1,
                {"shared": stage.train.labels.copy()},
            )
        ]
        violations = audit_message_log(leaky, clients, "GLDP")
        assert any("labels" in v for v in violations)

    @pytest.mark.parametrize("algorithm", ["GLDP", "FedAvg", "FedRep", "FedProx"])
    def test_logged_payloads_are_snapshots(self, algorithm, tmp_path):
        # Later rounds must not change what earlier messages recorded.
        config = tiny_config(algorithm=algorithm, rounds=4)
        server, clients = initialize_experiment(config)
        messages = []
        for k in (1, 2):
            run_round(server, clients, config, k, messages)
        dump_message_log(messages, tmp_path / "early.jsonl")
        early = (tmp_path / "early.jsonl").read_text().splitlines()
        # Arrays are shared, not copied: none held after round 2 may change.
        layers = [server.shared, server.head] + [
            layer for c in clients.values() for layer in (c.params.shared, c.params.head)
        ]
        held = [a for layer in layers if layer is not None for a in (layer.weight, layer.bias)]
        for store in [server.global_protos] + [c.local_protos for c in clients.values()]:
            held.extend(store.values())
        frozen = [a.copy() for a in held]
        # Each broadcast prototype set keeps its classes and vectors.
        broadcasts = [
            (protos, {c: v.copy() for c, v in protos.items()})
            for protos in (m.payload["global_prototypes"] for m in messages
                           if m.direction == "server_to_client")
        ]
        for k in (3, 4):
            run_round(server, clients, config, k, messages)
        dump_message_log(messages, tmp_path / "all.jsonl")
        assert (tmp_path / "all.jsonl").read_text().splitlines()[: len(early)] == early
        assert all(np.array_equal(a, f) for a, f in zip(held, frozen))
        for protos, want in broadcasts:
            assert sorted(protos) == sorted(want)
            assert all(np.array_equal(protos[c], v) for c, v in want.items())

    def test_message_log_dump_is_json_lines(self, tmp_path):
        config = tiny_config(rounds=1)
        messages, _ = self.run_with_log(config)
        path = tmp_path / "messages.jsonl"
        dump_message_log(messages, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(messages)
        parsed = json.loads(lines[0])
        assert parsed["version"] == 1
        assert parsed["direction"] == "server_to_client"

    @pytest.mark.parametrize("inference_mode", INFERENCE_MODES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_dump_matches_reference_encoder(self, algorithm, inference_mode, tmp_path):
        config = tiny_config(algorithm=algorithm, inference_mode=inference_mode, rounds=3)
        messages, _ = self.run_with_log(config)
        path = tmp_path / "messages.jsonl"
        dump_message_log(messages, path)
        want = "".join(reference_message_line(m) + "\n" for m in messages)
        assert path.read_bytes() == want.encode()

    @settings(max_examples=100, deadline=None)
    @given(pool=st.lists(_payloads, min_size=1, max_size=4), data=st.data())
    def test_dump_matches_reference_on_hand_built_logs(self, pool, data, tmp_path_factory):
        # The first payload object is repeated non-adjacently and last. Its
        # class keys cross 10 ("10" sorts before "2" as JSON text).
        edge = {
            "global_prototypes": {2: np.array([-0.0, 1e-300]), 10: np.array([1e16, 0.5])},
            "class_counts": {2: 3, 10: 1},
            "shared": LayerParams(np.array([[-0.0]]), np.array([1e16])),
        }
        picks = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        senders = st.sampled_from(["server", 0, 3, 12])
        messages = []
        for i, payload in enumerate([edge, pool[0], *picks, edge]):
            sender = data.draw(senders)
            if sender == "server":
                direction, receiver = "server_to_client", data.draw(st.integers(0, 12))
            else:
                direction, receiver = "client_to_server", "server"
            messages.append(RoundMessage(direction, sender, receiver, 1 + i // 3, 1 + i % 3, payload))
        path = tmp_path_factory.mktemp("dump") / "messages.jsonl"
        dump_message_log(messages, path)
        want = "".join(reference_message_line(m) + "\n" for m in messages)
        assert path.read_bytes() == want.encode()

    def test_dump_encodes_each_payload_object_once(self, monkeypatch, tmp_path):
        encoded = []
        encode = federation._encode_payload

        def counting(payload):
            encoded.append(id(payload))
            return encode(payload)

        monkeypatch.setattr(federation, "_encode_payload", counting)
        messages, _ = self.run_with_log(tiny_config(rounds=2))
        path = tmp_path / "messages.jsonl"
        dump_message_log(messages, path)
        distinct = {id(m.payload) for m in messages}
        assert sorted(encoded) == sorted(distinct)
        assert len(distinct) < len(messages)
        assert len(path.read_text().splitlines()) == len(messages)

    def test_dump_releases_each_text_after_its_last_message(self, tmp_path):
        # 30 broadcasts of ~100 KB text, each sent twice around an upload:
        # holding every text would peak above 30 texts, releasing holds one.
        rng = np.random.default_rng(0)
        messages = []
        for stage in range(1, 31):
            broadcast = {"global_prototypes": {0: rng.standard_normal(5000)}}
            messages += [
                RoundMessage("server_to_client", "server", 0, 1, stage, broadcast),
                RoundMessage("client_to_server", 0, "server", 1, stage, {"shared": np.zeros(2)}),
                RoundMessage("server_to_client", "server", 1, 1, stage, broadcast),
            ]
        path = tmp_path / "messages.jsonl"
        tracemalloc.start()
        try:
            dump_message_log(messages, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text_bytes = len(path.read_text().splitlines()[0])
        assert peak < 15 * text_bytes


class TestConfigValidation:
    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            tiny_config(algorithm="FedFoo")

    def test_clients_per_round_bounds(self):
        with pytest.raises(ConfigError):
            tiny_config(clients_per_round=9)

    def test_inference_mode(self):
        with pytest.raises(ConfigError):
            tiny_config(inference_mode="global")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            tiny_config(seed=-1)

    @pytest.mark.parametrize("build, name", [
        (OptimizerConfig, "step_size"),
        (OptimizerConfig, "weight_decay"),
        (LossWeights, "temperature"),
        (tiny_config, "fedprox_coeff"),
    ])
    def test_nan_setting_is_rejected(self, build, name):
        # NaN fails every comparison, so each range check must be one that NaN fails.
        with pytest.raises(ConfigError, match=rf"^{name} must be .*, got nan$") as caught:
            build(**{name: float("nan")})
        assert caught.value.field == name

    def test_with_seed_rekeys_nested_components(self):
        def partition(seed):
            _, clients = initialize_experiment(tiny_config().with_seed(seed))
            return [
                (s.train.inputs.tolist(), s.test.inputs.tolist())
                for c in sorted(clients) for s in clients[c].timeline.stages
            ]

        assert tiny_config().with_seed(9).seed == 9
        assert partition(9) == partition(9)
        assert partition(9) != partition(10)
