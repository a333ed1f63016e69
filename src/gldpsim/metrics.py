"""Accuracy measures over clients, stages, and rounds.

Three accuracies are tracked: A_glo (global model over every client's test
data), A_loc (each personalized model on its own test data), and A_sel (a
participant's model on the union of its test sets up to its current
stage), plus a forgetting diagnostic derived from the A_sel trajectory.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .datagen import ClientTimeline, LabeledSet
from .errors import ProtocolError
from .model import LayerParams, ModelParams, embed, forward
from .prototypes import predict_batch

A_GLOBAL = "A_glo"
A_LOCAL = "A_loc"
A_SELECTED = "A_sel"
FORGETTING = "forgetting"

CSV_HEADER = ["round", "stage", "algorithm", "metric", "scope", "value"]


@dataclass
class MetricRow:
    round_index: int
    stage_index: int
    algorithm: str
    metric: str
    scope: str
    value: float


@dataclass
class MetricsLog:
    rows: list[MetricRow] = field(default_factory=list)

    def add(self, round_index, stage_index, algorithm, metric, scope, value) -> None:
        self.rows.append(
            MetricRow(int(round_index), int(stage_index), algorithm, metric, str(scope), float(value))
        )

    def select(self, metric: str, scope: str | None = None) -> list[MetricRow]:
        return [
            r
            for r in self.rows
            if r.metric == metric and (scope is None or r.scope == scope)
        ]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow(
                    [r.round_index, r.stage_index, r.algorithm, r.metric, r.scope, repr(r.value)]
                )


def accuracy_prototypes(
    shared: LayerParams, store: dict[int, np.ndarray], data: LabeledSet
) -> float | None:
    """Nearest-prototype accuracy on one labeled set; None when empty."""
    if len(data) == 0:
        return None
    predicted = predict_batch(embed(shared, data.inputs), store)
    return float((predicted == data.labels).mean())


def accuracy_softmax(params: ModelParams, data: LabeledSet) -> float | None:
    if len(data) == 0:
        return None
    _, logits = forward(params, data.inputs)
    return float((logits.argmax(axis=1) == data.labels).mean())


def _mean(values: list[float | None]) -> float:
    present = [v for v in values if v is not None]
    if not present:
        raise ProtocolError("no client's test data can be evaluated: none has prototypes yet")
    return float(np.mean(present))


def acc_global(
    shared: LayerParams, global_protos: dict[int, np.ndarray], test_sets: Sequence[LabeledSet]
) -> float:
    """Mean per-client accuracy of the global model with global prototypes.

    Each non-empty test set is embedded on its own (one stacked matmul
    would not be bit-identical), and all rows are then scored in one
    :func:`predict_batch` pass; empty test sets are skipped.
    """
    present = [ts for ts in test_sets if len(ts)]
    if not present:
        return _mean([])
    embeddings = np.concatenate([embed(shared, ts.inputs) for ts in present])
    hits = predict_batch(embeddings, global_protos) == np.concatenate([ts.labels for ts in present])
    sizes = np.array([len(ts) for ts in present])
    counts = np.add.reduceat(hits, np.cumsum(sizes) - sizes, dtype=np.int64)
    return _mean([float(c / n) for c, n in zip(counts, sizes)])


def acc_global_softmax(
    params_per_client: Sequence[ModelParams], test_sets: Sequence[LabeledSet]
) -> float:
    """Mean per-client softmax accuracy of the model given for each client."""
    return _mean(
        [accuracy_softmax(p, ts) for p, ts in zip(params_per_client, test_sets)]
    )


def _reuse(memo: dict, key: int, classes: list[int], inputs: tuple, compute):
    """The value held under ``key``, or ``compute()`` (then held) if an input changed.

    Inputs are unchanged when ``classes`` equals the held list and every
    object in ``inputs`` *is* the held one. That is sound because nothing
    writes into a parameter, prototype vector or test set once made (the
    write rule in :mod:`gldpsim.federation`); holding the inputs keeps their
    ids from being reused.
    """
    held = memo.get(key)
    if held is None or held[0] != classes or any(a is not b for a, b in zip(held[1], inputs)):
        held = memo[key] = (classes, inputs, compute())
    return held[2]


def acc_local(
    models: Sequence[tuple[LayerParams, dict[int, np.ndarray]]], test_sets: Sequence[LabeledSet],
    *, memo: dict | None = None,
) -> float:
    """Mean accuracy of each personalized model on its own test data.

    Clients whose resolved store is still empty (never trained, nothing
    global to fall back on) are skipped. ``memo`` carries each position's
    value to the next call, until its shared layer, test set or store
    vectors are replaced.
    """
    memo = {} if memo is None else memo
    values = []
    for i, ((shared, store), ts) in enumerate(zip(models, test_sets)):
        classes = sorted(store)
        values.append(_reuse(memo, i, classes, (shared, ts, *(store[c] for c in classes)),
                             lambda: accuracy_prototypes(shared, store, ts) if store else None))
    return _mean(values)


def acc_local_softmax(
    params_per_client: Sequence[ModelParams], test_sets: Sequence[LabeledSet],
    *, memo: dict | None = None,
) -> float:
    """Mean softmax accuracy of each client's own model; ``memo`` as in :func:`acc_local`."""
    memo = {} if memo is None else memo
    return _mean([_reuse(memo, i, [], (p, ts), lambda: accuracy_softmax(p, ts))
                  for i, (p, ts) in enumerate(zip(params_per_client, test_sets))])


def acc_sel_prototypes(
    shared: LayerParams, store: dict[int, np.ndarray], timeline: ClientTimeline, stage_index: int
) -> float | None:
    """Accuracy on the union of the client's test sets for stages 1..m."""
    if len(store) == 0:
        return None
    return accuracy_prototypes(shared, store, timeline.test_union(stage_index))


def acc_sel_softmax(
    params: ModelParams, timeline: ClientTimeline, stage_index: int
) -> float | None:
    return accuracy_softmax(params, timeline.test_union(stage_index))


def forgetting(asel_history: Sequence[float]) -> float:
    """Largest drop from any earlier A_sel value to the latest, floored at 0."""
    if len(asel_history) < 2:
        return 0.0
    return max(0.0, max(asel_history[:-1]) - asel_history[-1])
