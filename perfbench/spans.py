"""Outside-in span tracer for the gldpsim benchmark.

The tracer replaces public gldpsim functions with thin wrappers, each
installed on the exact name its caller looks up (a module global or a class
attribute), so the simulator itself is not modified. Every wrapped call
records one span in memory: name, start, end, parent span, experiment id and
an optional measurement taken from the call's arguments and result. Spans
are turned into per-layer totals and self times only after the run, and can
be written out as CSV.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from contextlib import contextmanager

NAME, START, END, PARENT, EXPERIMENT, INFO = range(6)


class Tracer:
    """Records nested spans of wrapped calls; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.experiment: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``info(args, kwargs, result)`` runs after the span has ended, so its
        own cost falls on the parent span and shows as tracing overhead.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.experiment, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run the block without recording (benchmark-side bookkeeping)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child_time)]

    def problems(self) -> list[str]:
        """Consistency violations: negative self time, child outside parent."""
        out = []
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            if own < 0.0:
                out.append(f"span {i} {span[NAME]}: negative self time {own!r}")
            if span[PARENT] >= 0:
                parent = self.spans[span[PARENT]]
                if span[START] < parent[START] or span[END] > parent[END]:
                    out.append(f"span {i} {span[NAME]}: outside parent {parent[NAME]}")
        return out

    def write_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "experiment", "info"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, span[NAME], repr(span[START]), repr(span[END]),
                                 span[PARENT], span[EXPERIMENT], span[INFO]])


def install(tracer: Tracer, cli, datagen, federation, metrics, model) -> None:
    """Wrap every public function the benchmark reports on.

    ``federation`` imports its model, prototype, metric and datagen helpers
    by name, ``model`` calls ``grad_total`` through its own globals and
    ``prototypes.compute`` as ``compute_prototypes``, ``metrics`` imports
    ``predict_batch`` and ``cli`` imports ``run_experiment``, so each wrapper
    goes on that module's name rather than on the defining module.
    """
    w = tracer.wrap
    w(model, "grad_total", "model.grad_total", _grad_info)
    w(model, "compute_prototypes", "prototypes.compute")
    w(federation, "local_update", "model.local_update")
    w(federation, "joint_update", "model.joint_update")
    for fn in ("compute_counts", "update_local", "update_global", "inference_store"):
        w(federation, fn, f"prototypes.{fn}")
    w(metrics, "predict_batch", "prototypes.predict_batch", lambda a, k, r: len(a[0]))
    for fn in ("acc_global", "acc_global_softmax"):
        w(federation, fn, "metrics.acc_global", _test_sets_rows)
    for fn in ("acc_local", "acc_local_softmax"):
        w(federation, fn, "metrics.acc_local", _test_sets_rows)
    for fn in ("acc_sel_prototypes", "acc_sel_softmax"):
        w(federation, fn, "metrics.acc_sel", _sel_rows)
    w(metrics.MetricsLog, "to_csv", "metrics.to_csv", lambda a, k, r: os.path.getsize(a[1]))
    for fn in ("make_synthetic_dataset", "apply_longtail", "partition_clients"):
        w(federation, fn, f"datagen.{fn}")
    w(datagen.ClientTimeline, "test_union", "datagen.test_union", _union_key)
    w(federation, "initialize_experiment", "federation.initialize_experiment")
    w(federation, "run_round", "federation.run_round")
    w(federation, "run_stage", "federation.run_stage", lambda a, k, r: (len(r), len(a[2])))
    w(federation, "aggregate_shared", "federation.aggregate_shared")
    w(federation, "audit_message_log", "federation.audit_message_log")
    w(federation, "dump_message_log", "federation.dump_message_log",
      lambda a, k, r: os.path.getsize(a[1]))
    w(cli, "run_experiment", "federation.run_experiment")
    w(cli, "parse_config", "cli.parse_config")
    w(cli, "run", "cli.run")


def _grad_info(args, kwargs, result):
    """(rows, relation term on, computed FLOPs of the five matmuls)."""
    params, labels, weights = args[0], args[2], args[5]
    d_in, hidden = params.shared.weight.shape
    classes = params.head.weight.shape[1]
    rows = len(labels)
    relation = weights.local_coeff > 0.0 or weights.global_coeff > 0.0
    return rows, relation, rows * (4 * d_in * hidden + 6 * hidden * classes)


def _test_sets_rows(args, kwargs, result):
    return sum(len(ts) for ts in args[-1])


def _sel_rows(args, kwargs, result):
    # test_union de-duplicates by id; stage test sets are disjoint, so the
    # union size is the sum of the stage sizes.
    timeline, stage_index = args[-2], args[-1]
    return sum(len(s.test) for s in timeline.stages[:stage_index])


def _union_key(args, kwargs, result):
    upto = args[1] if len(args) > 1 else kwargs.get("upto_stage")
    return (args[0].client_id, upto)
