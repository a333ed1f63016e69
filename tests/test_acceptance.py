"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure report) and asserts the criterion at its stated tolerance.
The trend criteria run the shipped desk-scale configuration over seeds
0..4; all runs are deterministic, so the asserted margins are exact
reproductions, not statistical luck.
"""

import logging
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import finite_difference_grad, random_configuration, timeline_of
from trend_runs import cached_run, select

from gldpsim.cli import run
from gldpsim.datagen import (
    DatasetSpec,
    apply_longtail,
    longtail_class_counts,
    make_synthetic_dataset,
)
from gldpsim.federation import (
    ExperimentConfig,
    audit_message_log,
    initialize_experiment,
    run_round,
)
from gldpsim.metrics import acc_sel_prototypes, forgetting
from gldpsim.model import LossWeights, OptimizerConfig, grad_total, relation_targets
from gldpsim.prototypes import (
    compute,
    compute_counts,
    update_global,
    update_local,
)

logging.disable(logging.WARNING)

SEEDS = (0, 1, 2, 3, 4)
POINT = 0.01  # one accuracy point


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def desk_config(algorithm: str, num_stages: int, **overrides) -> ExperimentConfig:
    base = ExperimentConfig(algorithm=algorithm, rounds=30)
    config = replace(base, plan=replace(base.plan, num_stages=num_stages), **overrides)
    return config


def final_metric(config: ExperimentConfig, metric: str) -> float:
    mlog = cached_run(config)
    rows = sorted(select(mlog, metric, "ALL"), key=lambda r: (r.round_index, r.stage_index))
    return rows[-1].value


def final_stage_asel(config: ExperimentConfig, window: int = 10) -> float:
    """Final-stage A_sel averaged over the last ``window`` rounds.

    The tail-window mean is the steady-state estimator matching how the
    staged runs are reported (last-10-round curves); it damps the small
    per-round evaluation noise of desk-scale test sets.
    """
    mlog = cached_run(config)
    rows = select(mlog, "A_sel", "ALL")
    last_stage = max(r.stage_index for r in rows)
    per_round = {r.round_index: r.value for r in rows if r.stage_index == last_stage}
    tail = sorted(per_round)[-window:]
    return float(np.mean([per_round[k] for k in tail]))


def seed_mean(config: ExperimentConfig, metric: str) -> float:
    return float(np.mean([final_metric(config.with_seed(s), metric) for s in SEEDS]))


def seed_mean_asel(config: ExperimentConfig) -> float:
    return float(np.mean([final_stage_asel(config.with_seed(s)) for s in SEEDS]))


@pytest.fixture(scope="module")
def trend_results():
    """Shared five-seed runs for the three trend criteria."""
    started = time.perf_counter()
    spatial = {
        "GLDP": seed_mean(desk_config("GLDP", 1), "A_loc"),
        "FedAvg": seed_mean(desk_config("FedAvg", 1), "A_loc"),
    }
    spatial_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    temporal = {
        "full": seed_mean_asel(desk_config("GLDP", 5)),
        "no_local": seed_mean_asel(
            desk_config("GLDP", 5, weights=LossWeights(relation_mix=0.0))
        ),
        "no_global": seed_mean_asel(
            desk_config("GLDP", 5, weights=LossWeights(relation_mix=1.0))
        ),
        "both_off": seed_mean_asel(desk_config("FedRep", 5)),
    }
    temporal_elapsed = time.perf_counter() - started
    return spatial, spatial_elapsed, temporal, temporal_elapsed


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240917)
    worst = 0.0
    checked = 0
    for _ in range(7):
        config = random_configuration(rng)
        params, inputs, labels, old, glob = config
        for mix in (0.0, 0.5, 1.0):
            weights = LossWeights(relation_mix=mix)
            targets = relation_targets(old, weights.temperature, set(labels.tolist()))
            got = grad_total(params, inputs, labels, targets, glob, weights)
            want = finite_difference_grad(*config, weights, eps=1e-5)
            for got_arr, want_arr in zip(
                [got.shared.weight, got.shared.bias, got.head.weight, got.head.bias], want
            ):
                rel = np.abs(got_arr - want_arr) / np.maximum(np.abs(want_arr), 1e-6)
                worst = max(worst, float(rel.max()))
            checked += 1
    elapsed = time.perf_counter() - started
    ok = checked >= 20 and worst < 1e-4 and elapsed < 10.0
    report(1, "gradient-oracle", ok, f"{checked} configs, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert checked >= 20
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_2_prototype_algebra():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        momentum = float(rng.uniform())

        # computation (per-class mean) vs explicit sum
        count = int(rng.integers(1, 30))
        vectors = rng.standard_normal((count, dim))
        got = compute(vectors, np.zeros(count, dtype=np.int64))[0]
        want = sum(vectors[i] for i in range(count)) / count
        worst = max(worst, float(np.abs(got - want).max()))

        # client-store blend vs the moving-average formula
        old = rng.standard_normal(dim)
        fresh = rng.standard_normal(dim)
        blended = update_local({0: old.copy()}, {0: fresh}, momentum)[0]
        worst = max(
            worst, float(np.abs(blended - (momentum * old + (1 - momentum) * fresh)).max())
        )
        assert np.all(blended >= np.minimum(old, fresh))
        assert np.all(blended <= np.maximum(old, fresh))

        # server blend vs the upload-mean formula
        uploads = [(i, {0: rng.standard_normal(dim)}) for i in range(int(rng.integers(1, 6)))]
        server = update_global({0: old.copy()}, uploads, momentum)
        mean = sum(p[0] for _, p in uploads) / len(uploads)
        want = momentum * old + (1 - momentum) * mean
        worst = max(worst, float(np.abs(server[0] - want).max()))

    # degenerate coefficients hold bit-exactly
    vec_old, vec_new = rng.standard_normal(5), rng.standard_normal(5)
    keep = update_local({0: vec_old.copy()}, {0: vec_new}, 1.0)
    exact_keep = np.array_equal(keep[0], vec_old)
    swap = update_local({0: vec_old.copy()}, {0: vec_new}, 0.0)
    exact_swap = np.array_equal(swap[0], vec_new)

    ok = worst < 1e-12 and exact_keep and exact_swap
    report(2, "prototype-algebra", ok, f"100 instances, worst gap {worst:.2e}")
    assert worst < 1e-12
    assert exact_keep and exact_swap


def test_criterion_3_privacy_audit():
    config = desk_config("GLDP", 5, rounds=5)
    messages = []
    server, clients = initialize_experiment(config)
    for k in range(1, config.rounds + 1):
        run_round(server, clients, config, k, messages)
    uploads = [m for m in messages if m.direction == "client_to_server"]
    violations = audit_message_log(messages, clients, "GLDP")
    ok = len(violations) == 0 and len(uploads) > 0
    report(3, "privacy-audit", ok, f"{len(uploads)} uploads audited, {len(violations)} violations")
    assert uploads
    assert violations == []


def test_criterion_4_fixed_point():
    config = desk_config(
        "GLDP", 5,
        rounds=5,
        clients_per_round=20,
        opt=OptimizerConfig(step_size=0.0, shared_epochs=1, head_epochs=1, weight_decay=0.0),
        proto_momentum=1.0,
    )
    server, clients = initialize_experiment(config)
    snapshots = []
    for k in range(1, 6):
        run_round(server, clients, config, k)
        snapshots.append(replace(server))
    reference = snapshots[0]
    identical = True
    for later in snapshots[1:]:
        identical &= np.array_equal(reference.shared.weight, later.shared.weight)
        identical &= np.array_equal(reference.shared.bias, later.shared.bias)
        identical &= sorted(reference.global_protos) == sorted(later.global_protos)
        for c in sorted(reference.global_protos):
            identical &= np.array_equal(reference.global_protos[c], later.global_protos[c])
    report(4, "fixed-point", identical, "server state bit-identical across 5 rounds")
    assert identical


def test_criterion_5_longtail_counts():
    want = [100, 60, 36, 22, 13, 8, 5, 3, 2, 1]
    got_rule = longtail_class_counts(100, 100.0, 10)
    spec = DatasetSpec(num_classes=10, input_dim=16, samples_per_class=100)
    thinned = make_synthetic_dataset(spec, 3, apply_longtail(spec, 100.0, seed=3))
    got_applied = [compute_counts(thinned.labels)[k] for k in range(10)]
    ok = got_rule == want and got_applied == want
    report(5, "longtail-counts", ok, f"counts {got_applied}")
    assert got_rule == want
    assert got_applied == want


def test_criterion_6_spatial_trend(trend_results):
    spatial, elapsed, _, _ = trend_results
    gap = spatial["GLDP"] - spatial["FedAvg"]
    ok = gap >= 3 * POINT and elapsed < 300.0
    report(
        6, "spatial-trend", ok,
        f"A_loc GLDP {spatial['GLDP']:.3f} vs FedAvg {spatial['FedAvg']:.3f}, "
        f"gap {100 * gap:+.1f} pts, {elapsed:.0f}s",
    )
    assert gap >= 3 * POINT
    assert elapsed < 300.0


def test_criterion_7_temporal_trend(trend_results):
    _, _, temporal, elapsed = trend_results
    gap = temporal["full"] - temporal["both_off"]
    ok = gap >= 3 * POINT and elapsed < 600.0
    report(
        7, "temporal-trend", ok,
        f"final A_sel full {temporal['full']:.3f} vs relations-off {temporal['both_off']:.3f}, "
        f"gap {100 * gap:+.1f} pts, {elapsed:.0f}s",
    )
    assert gap >= 3 * POINT
    assert elapsed < 600.0


def test_criterion_8_ablation_ordering(trend_results):
    _, _, temporal, _ = trend_results
    full, both_off = temporal["full"], temporal["both_off"]
    singles = {k: temporal[k] for k in ("no_local", "no_global")}
    checks = [full >= v - POINT for v in singles.values()]
    checks += [v >= both_off - POINT for v in singles.values()]
    ok = all(checks)
    report(
        8, "ablation-ordering", ok,
        f"full {full:.3f} >= singles {singles['no_local']:.3f}/{singles['no_global']:.3f} "
        f">= both-off {both_off:.3f} (1pt ties)",
    )
    assert all(checks)


def test_criterion_9_determinism(tmp_path):
    config = desk_config("GLDP", 2, rounds=2, clients_per_round=4)
    config = replace(config, plan=replace(config.plan, num_clients=4))
    run([("det", config)], [0, 1], tmp_path / "a")
    run([("det", config)], [0, 1], tmp_path / "b")
    names = ["det_seed0.csv", "det_seed1.csv", "det_aggregate.csv", "combined_mean.csv"]
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes() for n in names
    )
    report(9, "determinism", identical, f"{len(names)} CSVs byte-identical")
    assert identical


def test_criterion_10_asel_bookkeeping():
    config = desk_config("GLDP", 1, rounds=3, clients_per_round=20)
    server, clients = initialize_experiment(config)
    for k in range(1, config.rounds + 1):
        run_round(server, clients, config, k)

    worst_gap = 0.0
    drops = []
    for client in clients.values():
        stage = client.timeline.stages[0]
        degenerate = timeline_of(client.timeline.client_id, [stage] * 4)
        store = client.local_protos
        if len(store) == 0 or len(stage.test) == 0:
            continue
        per_stage = acc_sel_prototypes(client.params.shared, store, degenerate, 1)
        values = [
            acc_sel_prototypes(client.params.shared, store, degenerate, m) for m in (1, 2, 3, 4)
        ]
        worst_gap = max(worst_gap, max(abs(v - per_stage) for v in values))
        drops.append(forgetting(values))
    ok = worst_gap < 1e-9 and all(d == 0.0 for d in drops) and drops
    report(
        10, "asel-bookkeeping", ok,
        f"{len(drops)} clients, worst A_sel gap {worst_gap:.1e}, forgetting all zero",
    )
    assert drops
    assert worst_gap < 1e-9
    assert all(d == 0.0 for d in drops)
