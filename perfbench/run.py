"""Benchmark of the gldpsim simulator: four workloads, four algorithms.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time,
wall time per algorithm, SGD throughput, peak memory and the accuracy
guards. Timings are scaled to a reference host speed by a calibration
kernel run between the timed spans of every sample (see ``hostspeed.py``);
raw wall times are kept in the detail file. ``--trace 1`` runs one
untraced and one traced pass of the first experiment seed and reports
per-layer metrics, in raw wall time, from the span tracer. Every
experiment's outputs are checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Details (per
experiment timings with CSV sha256, environment, work counts, spans) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# Prefix of the desk GLDP seed-0 CSV sha256 on the platform where the
# simulator was first measured; reported for information, never gated.
DESK_REFERENCE_SHA = "0694818b2e8c6520"

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"run_s.{a}": "s" for a in wl.ALGORITHMS},
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    **{f"A_loc.{a}": "frac" for a in wl.ALGORITHMS},
    "A_sel.GLDP": "frac",
}

PER_LAYER_UNITS = {
    "model.grad_total.calls": "count",
    "model.grad_total.s": "s",
    "model.grad_total.us_per_call": "us",
    "model.grad_total.rows_per_call": "rows",
    "model.grad_total.rel_frac": "frac",
    "model.grad_total.gflop": "GFLOP",
    "model.grad_total.gflop_per_s": "GFLOP/s",
    "model.local_update.calls": "count",
    "model.local_update.self_s": "s",
    "model.joint_update.calls": "count",
    "model.joint_update.self_s": "s",
    **{f"prototypes.{f}.{k}": u
       for f in ("compute", "compute_counts", "update_local", "update_global",
                 "inference_store", "predict_batch")
       for k, u in (("calls", "count"), ("s", "s"))},
    "prototypes.predict_batch.rows": "rows",
    **{f"metrics.{f}.{k}": u
       for f in ("acc_global", "acc_local", "acc_sel")
       for k, u in (("calls", "count"), ("s", "s"))},
    "metrics.eval_rows": "rows",
    "metrics.to_csv.s": "s",
    "metrics.to_csv.bytes": "B",
    "datagen.make_synthetic_dataset.s": "s",
    "datagen.apply_longtail.s": "s",
    "datagen.partition_clients.s": "s",
    "datagen.test_union.calls": "count",
    "datagen.test_union.s": "s",
    "datagen.test_union.rebuild_frac": "frac",
    "datagen.empty_stage_frac": "frac",
    "federation.run_stage.calls": "count",
    "federation.run_stage.self_s": "s",
    "federation.participation_frac": "frac",
    "federation.aggregate_shared.calls": "count",
    "federation.aggregate_shared.s": "s",
    "federation.messages": "count",
    "federation.upload_bytes": "B",
    "federation.download_bytes": "B",
    "federation.audit_message_log.s": "s",
    "federation.dump_message_log.s": "s",
    "federation.dump_message_log.bytes": "B",
    "cli.parse_config.s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_frac": "frac",
    "share.model.GLDP": "frac",
    "share.eval.GLDP": "frac",
    "share.audit.GLDP": "frac",
}

# Values that are computed from shapes, sizes or the partition rather than
# timed or counted by the tracer.
COMPUTED = {
    "samples_per_s": "SGD rows computed from the partition and client selection, "
                     "over scaled time",
    "model.grad_total.gflop": "computed from the matmul shapes",
    "model.grad_total.gflop_per_s": "computed FLOPs over traced time",
    "datagen.empty_stage_frac": "computed from the partition",
    "federation.upload_bytes": "computed from payload nbytes",
    "federation.download_bytes": "computed from payload nbytes",
}

# Span names whose time counts towards each share of a traced GLDP run.
SHARES = {
    "model": ("model.local_update", "model.joint_update"),
    "eval": ("metrics.acc_global", "metrics.acc_local", "metrics.acc_sel",
             "prototypes.inference_store", "prototypes.predict_batch", "datagen.test_union"),
    "audit": ("federation.audit_message_log", "federation.dump_message_log"),
}

SETUP_MIN_SECONDS = 1.0
SETUP_MIN_REPEATS = 3
WARM_UP_ROUNDS = 2


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or config)."""


def load_gldpsim(root: Path) -> SimpleNamespace:
    """Import gldpsim from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "gldpsim" / "__init__.py").is_file():
        raise BenchError(f"no gldpsim sources under {src}")
    if not (root / "configs" / "desk.cfg").is_file():
        raise BenchError(f"missing {root / 'configs' / 'desk.cfg'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gldpsim
    from gldpsim import cli, datagen, errors, federation, metrics, model, prototypes

    if Path(gldpsim.__file__).resolve().parent != (src / "gldpsim").resolve():
        raise BenchError(f"imported gldpsim from {gldpsim.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, datagen=datagen, errors=errors, federation=federation,
                           metrics=metrics, model=model, prototypes=prototypes)


def builds(gs, config, seed: int) -> bool:
    """Whether ``initialize_experiment`` accepts the data of this seed."""
    try:
        gs.federation.initialize_experiment(config.with_seed(seed))
    except gs.errors.DataError:
        return False
    return True


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it exposes one."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def timing_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values) if values else math.nan, "n": len(values)}
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            out[f"p{p}"] = cuts[p - 1]
            break
    return out


class Bench:
    """Runs one workload's experiments and keeps a record of each."""

    def __init__(self, gs, workload: wl.Workload, config, seeds: list[int], work_dir: Path):
        self.gs = gs
        self.workload = workload
        self.config = config
        self.seeds = seeds
        self.work_dir = work_dir
        self.records: list[dict] = []
        self.setup_seconds: list[float] = []  # raw wall time
        self.setup_scaled: list[float] = []  # scaled to the reference host speed
        self.speed = hostspeed.HostSpeed()
        self.watch = hostspeed.Stopwatch(self.speed)
        self.partitions: dict[int, dict] = {}
        self._first_sha: dict[tuple, str] = {}

    def measure_setup(self, min_seconds: float) -> None:
        """Time ``initialize_experiment`` repeatedly over the run's seeds.

        Each set-up runs between two calibration kernels and is scaled by them.
        """
        init = self.gs.federation.initialize_experiment
        init(self.config.with_seed(self.seeds[0]))  # lazy imports and first allocations
        started = time.perf_counter()
        while (len(self.setup_seconds) < SETUP_MIN_REPEATS * len(self.seeds)
               or time.perf_counter() - started < min_seconds):
            seed = self.seeds[len(self.setup_seconds) % len(self.seeds)]
            self.watch.reset()
            self.watch.start()
            _, clients = init(self.config.with_seed(seed))
            self.watch.stop()
            self.setup_seconds.append(self.watch.seconds)
            self.setup_scaled.append(self.watch.scaled)
            self.partitions[seed] = clients

    def counts(self, config) -> wl.WorkCounts:
        return wl.work_counts(self.gs.federation.select_clients, config,
                              self.partitions[config.seed])

    def experiment(self, algorithm: str, seed: int, phase: str, rounds: int | None = None,
                   tracer: spans.Tracer | None = None) -> dict:
        """Run and check one (algorithm, seed) experiment; append its record."""
        config = replace(self.config, algorithm=algorithm,
                         rounds=self.config.rounds if rounds is None else rounds)
        counts = self.counts(config.with_seed(seed))
        record = {"phase": phase, "algorithm": algorithm, "seed": seed,
                  "rounds": config.rounds, "sgd_rows": counts.sgd_rows, "problems": []}
        if tracer is not None:
            tracer.experiment = f"{phase}/{algorithm}/{seed}"
        self.watch.reset()
        try:
            if self.workload.audit:
                self._audit(config.with_seed(seed), counts, record, tracer)
            else:
                with self.round_marks() if phase == "timed" else nullcontext():
                    self._csv(config, seed, counts, record)
        except Exception as exc:  # a failing experiment is counted, not fatal
            record["problems"].append(
                f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=3)}")
        key = (algorithm, seed, config.rounds)
        if "sha256" in record:
            first = self._first_sha.setdefault(key, record["sha256"])
            if first != record["sha256"]:
                record["problems"].append("output differs from an earlier run of this experiment")
        self.records.append(record)
        return record

    def _csv(self, config, seed: int, counts: wl.WorkCounts, record: dict) -> None:
        name = f"{self.workload.name}_{config.algorithm.lower()}"
        out = self.work_dir / f"run{len(self.records)}"
        self.watch.start()
        self.gs.cli.run([(name, config)], [seed], out)
        self.watch.stop()
        record["seconds"], record["scaled_s"] = self.watch.seconds, self.watch.scaled
        path = out / f"{name}_seed{seed}.csv"
        record["sha256"] = wl.sha256_file(path)
        record["a_loc"], record["a_sel"], problems = wl.check_csv(
            path, config.with_seed(seed), counts)
        record["problems"] += problems
        shutil.rmtree(out)

    def _audit(self, config, counts: wl.WorkCounts, record: dict, tracer) -> None:
        fed, metrics, prototypes = self.gs.federation, self.gs.metrics, self.gs.prototypes
        untimed = tracer.paused if tracer is not None else nullcontext
        server, clients = fed.initialize_experiment(config)
        messages: list = []
        final_sel: dict[int, float] = {}
        for round_index in range(1, config.rounds + 1):
            self.watch.start()
            selected = fed.run_round(server, clients, config, round_index, messages)
            self.watch.stop()
            with untimed():
                value = wl.eval_final_stage_asel(metrics, prototypes, server, clients,
                                                 config, selected)
            if value is not None:
                final_sel[round_index] = value
        path = self.work_dir / "messages.jsonl"
        self.watch.start()
        violations = fed.audit_message_log(messages, clients, config.algorithm)
        self.watch.mark()
        fed.dump_message_log(messages, path)
        self.watch.stop()
        record["seconds"], record["scaled_s"] = self.watch.seconds, self.watch.scaled
        record["sha256"] = wl.sha256_file(path)
        record["dump_bytes"] = path.stat().st_size
        path.unlink()
        with untimed():
            record["a_loc"] = wl.eval_a_loc(metrics, prototypes, server, clients, config)
        record["a_sel"] = wl.asel_tail(final_sel) if final_sel else math.nan

        uploads = [m for m in messages if m.direction == "client_to_server"]
        record["messages"] = len(messages)
        record["upload_bytes"] = sum(wl.payload_bytes(m.payload) for m in uploads)
        record["download_bytes"] = sum(wl.payload_bytes(m.payload) for m in messages
                                       if m.direction == "server_to_client")
        problems = record["problems"]
        problems += violations
        if not uploads:
            problems.append("no client uploads to audit")
        if (len(uploads), len(messages)) != (counts.participants, counts.slots + counts.participants):
            problems.append(f"{len(uploads)} uploads / {len(messages)} messages, expected "
                            f"{counts.participants} / {counts.slots + counts.participants}")
        for key in ("a_loc", "a_sel"):
            if not 0.0 <= record[key] <= 1.0:  # also catches NaN
                problems.append(f"{key} {record[key]!r} outside [0, 1]")

    @contextmanager
    def round_marks(self):
        """Mark the stopwatch at every round boundary inside ``cli.run``.

        ``run_experiment`` calls ``select_clients`` once at the start of each
        round, through the ``federation`` module's globals.
        """
        fed = self.gs.federation
        original = fed.select_clients

        @functools.wraps(original)
        def marked(*args, **kwargs):
            self.watch.mark()
            return original(*args, **kwargs)

        fed.select_clients = marked
        try:
            yield
        finally:
            fed.select_clients = original

    def warm_up(self) -> None:
        """Short runs of every algorithm, so timing starts on warm code paths."""
        for algorithm in wl.ALGORITHMS:
            self.experiment(algorithm, self.seeds[0], "warmup",
                            rounds=min(WARM_UP_ROUNDS, self.config.rounds))

    def timed_passes(self, seconds: float) -> None:
        """Passes over all algorithms, one experiment seed per pass.

        Every seed gets at least one pass; more passes (cycling through the
        seeds) run while the next one is expected to end within ``seconds``.
        The algorithm order rotates from pass to pass.
        """
        started = time.perf_counter()
        durations = []
        while True:
            i = len(durations)
            if i >= len(self.seeds) and (time.perf_counter() - started
                                         + statistics.mean(durations) > seconds):
                break
            t0 = time.perf_counter()
            shift = i % len(wl.ALGORITHMS)
            order = wl.ALGORITHMS[shift:] + wl.ALGORITHMS[:shift]
            for algorithm in order:
                self.experiment(algorithm, self.seeds[i % len(self.seeds)], "timed")
            durations.append(time.perf_counter() - t0)

    def end_to_end(self) -> tuple[dict, dict]:
        """End-to-end metrics; timings scaled, with raw wall medians alongside."""
        timed = [r for r in self.records if r["phase"] == "timed" and "scaled_s" in r]
        summaries = {"setup_s": timing_summary(self.setup_scaled)}
        summaries["setup_s"]["wall_median"] = statistics.median(self.setup_seconds)
        for algorithm in wl.ALGORITHMS:
            mine = [r for r in timed if r["algorithm"] == algorithm]
            summaries[f"run_s.{algorithm}"] = timing_summary([r["scaled_s"] for r in mine])
            summaries[f"run_s.{algorithm}"]["wall_median"] = (
                statistics.median(r["seconds"] for r in mine) if mine else math.nan)
        values = {name: s["median"] for name, s in summaries.items()}
        values["samples_per_s"] = (sum(r["sgd_rows"] for r in timed)
                                   / (sum(r["scaled_s"] for r in timed) or math.nan))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = {}
        for r in self.records:
            if r["phase"] == "timed":
                first.setdefault((r["algorithm"], r["seed"]), r)
        for algorithm in wl.ALGORITHMS:
            values[f"A_loc.{algorithm}"] = statistics.mean(
                first[(algorithm, s)].get("a_loc", math.nan) for s in self.seeds)
        values["A_sel.GLDP"] = statistics.mean(
            first[("GLDP", s)].get("a_sel", math.nan) for s in self.seeds)
        return values, summaries

    def traced_pass(self) -> tuple[dict, spans.Tracer]:
        """One untraced and one traced pass of the first seed; per-layer metrics."""
        gs, seed = self.gs, self.seeds[0]
        plain = {a: self.experiment(a, seed, "untraced") for a in wl.ALGORITHMS}
        tracer = spans.Tracer()
        spans.install(tracer, gs.cli, gs.datagen, gs.federation, gs.metrics, gs.model)
        try:
            tracer.experiment = "parse_config"
            gs.cli.parse_config(ROOT / "configs" / "desk.cfg")
            traced = {a: self.experiment(a, seed, "traced", tracer=tracer) for a in wl.ALGORITHMS}
        finally:
            tracer.uninstall()

        counts = self.counts(self.config.with_seed(seed))
        for algorithm, record in traced.items():
            if record.get("sha256") != plain[algorithm].get("sha256"):
                record["problems"].append("traced output differs from the untraced run")
        layer = layer_metrics(tracer, traced)
        problems = tracer.problems()[:20]
        expect = (len(wl.ALGORITHMS) * counts.grad_calls, len(wl.ALGORITHMS) * counts.sgd_rows)
        got = (layer["model.grad_total.calls"],
               sum(s[spans.INFO][0] for s in tracer.spans if s[spans.NAME] == "model.grad_total"))
        if got != expect:
            problems.append(f"traced grad_total calls/rows {got}, computed {expect}")
        traced["GLDP"]["problems"] += problems
        layer["trace.overhead_frac"] = (sum(r.get("seconds", math.nan) for r in traced.values())
                                        / sum(r.get("seconds", math.nan) for r in plain.values())
                                        - 1.0)
        layer["datagen.empty_stage_frac"] = counts.empty_stage_frac
        return layer, tracer


def layer_metrics(tracer: spans.Tracer, traced: dict) -> dict:
    """Per-layer totals over the traced experiments."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    info = defaultdict(list)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name = span[spans.NAME]
        calls[name] += 1
        total[name] += span[spans.END] - span[spans.START]
        own[name] += self_s
        if span[spans.INFO] is not None:
            info[name].append((span[spans.EXPERIMENT], span[spans.INFO]))

    out = {}
    grad = [i for _, i in info["model.grad_total"]]
    g_calls, g_s = calls["model.grad_total"], total["model.grad_total"]
    gflop = sum(i[2] for i in grad) / 1e9
    out.update({
        "model.grad_total.calls": g_calls,
        "model.grad_total.s": g_s,
        "model.grad_total.us_per_call": g_s / g_calls * 1e6 if g_calls else 0.0,
        "model.grad_total.rows_per_call": sum(i[0] for i in grad) / g_calls if g_calls else 0.0,
        "model.grad_total.rel_frac": sum(i[1] for i in grad) / g_calls if g_calls else 0.0,
        "model.grad_total.gflop": gflop,
        "model.grad_total.gflop_per_s": gflop / g_s if g_s else 0.0,
    })
    for name in ("model.local_update", "model.joint_update", "federation.run_stage"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    for name in ("prototypes.compute", "prototypes.compute_counts", "prototypes.update_local",
                 "prototypes.update_global", "prototypes.inference_store",
                 "prototypes.predict_batch", "metrics.acc_global", "metrics.acc_local",
                 "metrics.acc_sel", "datagen.test_union", "federation.aggregate_shared"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    for name in ("metrics.to_csv", "datagen.make_synthetic_dataset", "datagen.apply_longtail",
                 "datagen.partition_clients", "federation.audit_message_log",
                 "federation.dump_message_log", "cli.parse_config"):
        out[f"{name}.s"] = total[name]
    out["prototypes.predict_batch.rows"] = sum(i for _, i in info["prototypes.predict_batch"])
    out["metrics.eval_rows"] = sum(i for n in ("metrics.acc_global", "metrics.acc_local",
                                               "metrics.acc_sel") for _, i in info[n])
    out["metrics.to_csv.bytes"] = sum(i for _, i in info["metrics.to_csv"])
    out["federation.dump_message_log.bytes"] = sum(i for _, i in info["federation.dump_message_log"])
    unions = info["datagen.test_union"]
    out["datagen.test_union.rebuild_frac"] = (
        (len(unions) - len(set(unions))) / len(unions) if unions else 0.0)
    stages = [i for _, i in info["federation.run_stage"]]
    out["federation.participation_frac"] = (
        sum(p for p, _ in stages) / sum(s for _, s in stages) if stages else 0.0)
    for key in ("messages", "upload_bytes", "download_bytes"):
        out[f"federation.{key}"] = sum(r.get(key, 0) for r in traced.values())
    out["cli.run.self_s"] = own["cli.run"]

    gldp = f"traced/GLDP/{traced['GLDP']['seed']}"
    gldp_seconds = traced["GLDP"].get("seconds", math.nan)
    for share, names in SHARES.items():
        out[f"share.{share}.GLDP"] = covered(tracer, gldp, names) / gldp_seconds
    return out


def covered(tracer: spans.Tracer, experiment: str, names) -> float:
    """Time in spans named ``names`` of one experiment, nested ones counted once."""
    names = set(names)
    seconds = 0.0
    for span in tracer.spans:
        if span[spans.EXPERIMENT] != experiment or span[spans.NAME] not in names:
            continue
        parent = span[spans.PARENT]
        while parent >= 0 and tracer.spans[parent][spans.NAME] not in names:
            parent = tracer.spans[parent][spans.PARENT]
        if parent < 0:
            seconds += span[spans.END] - span[spans.START]
    return seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, shrink: dict | None = None) -> int:
    """Run one workload; ``shrink`` overrides workload sizes (self-tests)."""
    args = parse_args(argv)
    try:
        gs = load_gldpsim(ROOT)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    logging.disable(logging.WARNING)  # the simulator warns per empty stage
    env = environment()
    workload = wl.WORKLOADS[args.workload]
    config = wl.build_config(workload, gs.cli.parse_config(ROOT / "configs" / "desk.cfg"),
                             **(shrink or {}))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    seeds = wl.experiment_seeds(workload, args.seed, lambda s: builds(gs, config, s))
    bench = Bench(gs, workload, config, seeds,
                  OUT_DIR / f"work-{os.getpid()}")
    bench.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench.measure_setup(min(SETUP_MIN_SECONDS, args.seconds / 20))
        bench.warm_up()
        if args.trace:
            metrics, tracer = bench.traced_pass()
            summaries, units = {}, PER_LAYER_UNITS
            tracer.write_csv(OUT_DIR / f"{stem}-spans.csv")
        else:
            bench.timed_passes(args.seconds)
            (metrics, summaries), units = bench.end_to_end(), END_TO_END_UNITS
    finally:
        shutil.rmtree(bench.work_dir, ignore_errors=True)
    report(bench, args, env, {n: (metrics[n], u) for n, u in units.items()}, summaries, stem)
    return 0


def report(bench: Bench, args, env: dict, metrics: dict, summaries: dict, stem: str) -> None:
    """Write the detail file, print the metric table and the result line."""
    attempted = len(bench.records)
    failed = sum(1 for r in bench.records if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    reference = [r["sha256"] for r in bench.records if bench.workload.name == "desk"
                 and (r["algorithm"], r["seed"], r["rounds"]) == ("GLDP", 0, 30) and "sha256" in r]
    work = {s: vars(bench.counts(bench.config.with_seed(s))) for s in bench.partitions}
    detail = {
        "workload": bench.workload.name, "why": bench.workload.why,
        "benchmark_seed": args.seed, "experiment_seeds": bench.seeds,
        "default_seeds": wl.DEFAULT_SEEDS, "held_out_seeds": wl.HELD_OUT_SEEDS,
        "layer_to_end_to_end": wl.LAYER_METRICS,
        "config": bench.gs.cli.print_config(bench.config), "environment": env,
        "work_counts": work,
        "desk_reference_sha_prefix": DESK_REFERENCE_SHA,
        "desk_reference_match": (reference[0].startswith(DESK_REFERENCE_SHA)
                                 if reference else None),
        "failed_frac": failed / attempted,
        "calibration": {"reference_s": hostspeed.REFERENCE_S,
                        "kernel_s": bench.speed.kernel_seconds},
        "timings": summaries, "records": bench.records, "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))

    print(f"# gldpsim benchmark: workload {bench.workload.name}, seeds {bench.seeds}, "
          f"{'traced' if args.trace else 'untraced'}")
    print(f"# python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"blas threads {env['blas_threads']}, cpus {env['cpu_count']} "
          f"(affinity {env['affinity']}), load {env['loadavg_at_start']}")
    print(f"# calibration kernel median {statistics.median(bench.speed.kernel_seconds) * 1e3:.4g} ms "
          f"over {len(bench.speed.kernel_seconds)} runs; timings below are scaled to "
          f"{hostspeed.REFERENCE_S * 1e3:.4g} ms")
    for seed, counts in work.items():
        print(f"# seed {seed}: {counts['grad_calls']} grad_total calls, "
              f"{counts['sgd_rows']} SGD rows per experiment (computed)")
    for name, (value, unit) in metrics.items():
        s = summaries.get(name)
        extra = f"  ({COMPUTED[name]})" if name in COMPUTED else ""
        if s:
            tail = [f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p")]
            extra = (f"  (median of n={s['n']}{', ' + tail[0] if tail else ''}; "
                     f"raw wall median {s['wall_median']:.6g} s)")
        print(f"{name:40s} {value:.6g} {unit}{extra}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} frac  ({failed} of {attempted} experiments)")
    for r in bench.records:
        for problem in r["problems"]:
            print(f"# FAILED {r['phase']} {r['algorithm']} seed {r['seed']}: {problem}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
