"""Self-tests of the benchmark at tiny sizes.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import logging
import shutil
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import hostspeed
import run
import spans
import workloads as wl

# Tiny versions of the workloads: one seed per run, a few rounds, small
# data and population.
SHRINK = {
    "desk": {"rounds": 2},
    "fullbatch": {"rounds": 2, "samples_per_class": 300},
    "population": {"rounds": 2, "samples_per_class": 300, "num_clients": 60},
    "audit": {"rounds": 1},
}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    silenced = logging.root.manager.disable
    yield tmp_path
    logging.disable(silenced)  # main() silences the simulator's warnings


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["end_to_end"][0] == {"name": "setup_s", "unit": "s", "better": "lower",
                                     "bound": 0.25}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_workload_emits_every_metric(workload, trace, out_dir, capsys, monkeypatch):
    monkeypatch.setitem(wl.WORKLOADS, workload, replace(wl.WORKLOADS[workload], seeds_per_run=1))
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv, shrink=SHRINK[workload]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if name.endswith(("_s", ".s", ".calls", "bytes", "rows")):
            assert metric["value"] >= 0, name
    if trace:
        assert result["metrics"]["model.grad_total.calls"]["value"] > 0
        assert (out_dir / f"{workload}-seed1-trace1-spans.csv").is_file()


def test_tracer_self_times_and_nesting():
    def leaf(x):
        return x + 1

    def middle(x):
        return ns.leaf(x) + ns.leaf(x)

    ns = SimpleNamespace(leaf=leaf, middle=middle)
    tracer = spans.Tracer()
    tracer.wrap(ns, "leaf", "leaf", lambda a, k, r: r)
    tracer.wrap(ns, "middle", "middle")
    tracer.experiment = "e"
    assert ns.middle(1) == 4
    with tracer.paused():
        ns.leaf(5)
    tracer.uninstall()
    assert ns.leaf is leaf and ns.middle is middle
    assert [(s[spans.NAME], s[spans.PARENT], s[spans.INFO]) for s in tracer.spans] == [
        ("middle", -1, None), ("leaf", 0, 2), ("leaf", 0, 2)]
    assert all(t >= 0 for t in tracer.self_times())
    assert tracer.problems() == []


def test_work_counts_match_desk_seed0():
    gs = run.load_gldpsim(run.ROOT)
    config = gs.cli.parse_config(run.ROOT / "configs" / "desk.cfg").with_seed(0)
    _, clients = gs.federation.initialize_experiment(config)
    counts = wl.work_counts(gs.federation.select_clients, config, clients)
    assert (counts.grad_calls, counts.sgd_rows) == (8568, 21078)


def test_unbuildable_experiment_seeds_are_replaced():
    gs = run.load_gldpsim(run.ROOT)
    config = gs.cli.parse_config(run.ROOT / "configs" / "desk.cfg")
    assert not run.builds(gs, config, 90) and run.builds(gs, config, 91)
    workload = replace(wl.WORKLOADS["desk"], seeds_per_run=4)
    assert wl.experiment_seeds(workload, 2, lambda s: s != 9) == [
        8, 9 + wl.REPLACEMENT_STRIDE, 10, 11]
    with pytest.raises(RuntimeError):
        wl.experiment_seeds(workload, 2, lambda s: s % wl.REPLACEMENT_STRIDE != 9)


def test_stopwatch_scales_each_span_by_the_kernels_around_it(monkeypatch):
    ref = hostspeed.REFERENCE_S
    kernels = iter([ref, ref, 3 * ref])
    speed = SimpleNamespace(kernel=lambda: next(kernels), scale=hostspeed.HostSpeed.scale)
    clock = iter([0.0, 1.0, 1.5, 3.5])  # start, mark, next span starts, stop
    monkeypatch.setattr(hostspeed.time, "perf_counter", lambda: next(clock))
    watch = hostspeed.Stopwatch(speed)
    watch.reset()
    watch.start()
    watch.mark()
    watch.stop()
    assert (watch.spans, watch.seconds) == (2, 3.0)
    assert watch.scaled == pytest.approx(1.0 + 2.0 / 2.0)


def test_audit_accuracy_matches_the_csv(tmp_path):
    gs = run.load_gldpsim(run.ROOT)
    config = wl.build_config(wl.WORKLOADS["desk"],
                             gs.cli.parse_config(run.ROOT / "configs" / "desk.cfg"),
                             **SHRINK["desk"])
    records = {}
    for name in ("desk", "audit"):
        bench = run.Bench(gs, wl.WORKLOADS[name], config, [2], tmp_path)
        bench.measure_setup(min_seconds=0.0)
        records[name] = [bench.experiment(a, 2, "timed") for a in wl.ALGORITHMS]
    for csv_record, audit_record in zip(records["desk"], records["audit"]):
        assert csv_record["problems"] == audit_record["problems"] == []
        assert csv_record["a_loc"] == audit_record["a_loc"]
        assert csv_record["a_sel"] == audit_record["a_sel"]


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
