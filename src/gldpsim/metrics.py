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
from .prototypes import nearest, predict_batch

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
    """Nearest-prototype accuracy on one labeled set; None when the set or
    the store is empty, so a client without prototypes is skipped."""
    if len(data) == 0 or not store:
        return None
    embedded = embed(shared, data.inputs)
    return np.count_nonzero(predict_batch(embedded, store) == data.labels) / len(data)


def accuracy_softmax(params: ModelParams, data: LabeledSet) -> float | None:
    if len(data) == 0:
        return None
    _, logits = forward(params, data.inputs)
    return np.count_nonzero(logits.argmax(axis=1) == data.labels) / len(data)


def _mean(values: list[float | None]) -> float:
    present = [v for v in values if v is not None]
    if not present:
        raise ProtocolError("no client's test data can be evaluated: none has prototypes yet")
    return float(np.mean(present))


def _size_groups(test_sets: Sequence[LabeledSet]) -> list[tuple]:
    """The non-empty test sets grouped by row count, in order of first size.

    Each group is ``(positions, inputs (g, M, input_dim), labels (g, M))``:
    the positions of its ``g`` sets of ``M`` rows in ``test_sets``, and
    their rows stacked along a new first axis.
    """
    by_size: dict[int, list[int]] = {}
    for i, ts in enumerate(test_sets):
        if len(ts):
            by_size.setdefault(len(ts), []).append(i)
    return [(positions, np.stack([test_sets[i].inputs for i in positions]),
             np.stack([test_sets[i].labels for i in positions]))
            for positions in by_size.values()]


def _group_mean(groups: list[tuple], hits: Sequence[np.ndarray], count: int) -> float:
    """:func:`_mean` of each set's hit rate, in the order of the ``count`` test sets.

    ``hits[k]`` is the ``(g, M)`` hit array of ``groups[k]``. The rates go
    back in client order first: ``np.mean`` over a list depends on order.
    """
    values: list[float | None] = [None] * count
    for (positions, _, labels), group_hits in zip(groups, hits):
        for i, rate in zip(positions, group_hits.sum(axis=1) / labels.shape[1]):
            values[i] = rate
    return _mean(values)


def acc_global(
    shared: LayerParams, global_protos: dict[int, np.ndarray], test_sets: Sequence[LabeledSet],
    *, memo: dict | None = None,
) -> float:
    """Mean per-client accuracy of the global model with global prototypes.

    The non-empty test sets are grouped by row count, and each group of
    ``g`` sets of ``M`` rows is embedded in one matmul over its
    ``(g, M, input_dim)`` stack. numpy's matmul runs one BLAS call per
    slice of a stack, with that slice's own shapes, so each set's
    embedding is the one it gets alone. All rows are then scored in one
    :func:`predict_batch` pass; empty test sets are skipped. ``memo``
    carries the groups to the next call, while every test set is the held
    object.
    """
    memo = {} if memo is None else memo
    groups = _reuse(memo, "groups", tuple(test_sets), lambda: _size_groups(test_sets))
    if not groups:
        return _mean([])
    embedded = np.concatenate([embed(shared, inputs).reshape(labels.size, -1)
                               for _, inputs, labels in groups])
    predicted = predict_batch(embedded, global_protos)
    hits, start = [], 0
    for _, _, labels in groups:
        hits.append(predicted[start:start + labels.size].reshape(labels.shape) == labels)
        start += labels.size
    return _group_mean(groups, hits, len(test_sets))


def acc_global_softmax(
    shared: LayerParams, heads: Sequence[LayerParams], test_sets: Sequence[LabeledSet],
    *, memo: dict | None = None,
) -> float:
    """Mean per-client softmax accuracy of ``shared`` with each client's head.

    Groups and ``memo`` as in :func:`acc_global`; each group's logits are
    one matmul of its embedding stack with its clients' heads. One head
    object for every client (a server head) meets each stack as it is.
    Otherwise the heads are stacked once, in group order, so each group's
    are one slice (one concatenation and a reshape: ``np.stack`` costs more
    per array).
    """
    memo = {} if memo is None else memo
    groups = _reuse(memo, "groups", tuple(test_sets), lambda: _size_groups(test_sets))
    if not groups:
        return _mean([])
    if all(head is heads[0] for head in heads):
        group_heads = [(heads[0].weight, heads[0].bias)] * len(groups)
    else:
        order = [i for positions, _, _ in groups for i in positions]
        weights = np.concatenate([heads[i].weight for i in order]).reshape(
            len(order), shared.weight.shape[1], -1)
        biases = np.concatenate([heads[i].bias for i in order]).reshape(len(order), 1, -1)
        bounds = np.cumsum([0, *(len(positions) for positions, _, _ in groups)]).tolist()
        group_heads = [(weights[a:b], biases[a:b]) for a, b in zip(bounds, bounds[1:])]
    hits = [(embed(shared, inputs) @ weight + bias).argmax(axis=2) == labels
            for (_, inputs, labels), (weight, bias) in zip(groups, group_heads)]
    return _group_mean(groups, hits, len(test_sets))


def _reuse(memo: dict, key, inputs: tuple, compute):
    """The value held under ``key``, or ``compute()`` (then held) if an input changed.

    Inputs are unchanged when every object in ``inputs`` *is* the held one.
    That is sound because nothing writes into a parameter, prototype store
    or test set once made (the write rule in :mod:`gldpsim.federation`);
    holding the inputs keeps their ids from being reused.
    """
    held = memo.get(key)
    if held is None or len(held[0]) != len(inputs) or any(a is not b for a, b in zip(held[0], inputs)):
        held = memo[key] = (inputs, compute())
    return held[1]


def _score_block(members: list[tuple], global_protos: dict[int, np.ndarray], memo: dict) -> list:
    """Hit rate, or None when its scope holds no global class, of each ``(position, shared,
    test set, scope)`` in ``members`` (test sets not empty) with the ``global_protos`` of its scope.

    ``memo["block"]`` holds one entry per member, ``(position, shared, test set, scope,
    embedded rows, scope classes)``. A member keeps its entry while its shared layer, test
    set and scope are the held objects; any other member is embedded alone, and members that
    leave are dropped. Each call assembles the entries into one block (rows, labels, sizes
    and a rows x classes scope mask): the block changes almost every round, so it is not
    held. Every row is scored by :func:`~gldpsim.prototypes.nearest` over the ascending
    classes of its scope, the routine :func:`predict_batch` calls, so ties break to the
    lowest class, as there.
    """
    held = {e[0]: e for e in memo.get("block", ())}
    entries = []
    for i, shared, ts, scope in members:
        e = held.get(i)
        if e is None or e[1] is not shared or e[2] is not ts or e[3] is not scope:
            e = (i, shared, ts, scope, embed(shared, ts.inputs), np.fromiter(scope, np.intp, len(scope)))
        entries.append(e)
    memo["block"] = entries
    sizes = np.array([len(e[2]) for e in entries])
    scopes = np.concatenate([e[5] for e in entries])
    mask = np.zeros((len(entries), 1 + scopes.max(initial=-1)), dtype=bool)
    mask[np.repeat(np.arange(len(entries)), [len(e[5]) for e in entries]), scopes] = True
    mask = np.repeat(mask, sizes, axis=0)
    embedded = np.concatenate([e[4] for e in entries])
    labels = np.concatenate([e[2].labels for e in entries])
    classes = [c for c in sorted(global_protos) if c < mask.shape[1]]
    if not classes:
        return [None] * len(members)
    in_store = mask[:, classes]
    picks = nearest(embedded, np.array([global_protos[c] for c in classes]), in_store)
    starts = np.cumsum(sizes) - sizes
    hits = np.add.reduceat(np.array(classes)[picks] == labels, starts)
    return [rate if any_held else None for rate, any_held
            in zip((hits / sizes).tolist(), in_store[starts].any(axis=1).tolist())]


def acc_local(
    models: Sequence[tuple[LayerParams, dict[int, np.ndarray] | frozenset[int]]],
    test_sets: Sequence[LabeledSet],
    *, global_protos: dict[int, np.ndarray] | None = None, memo: dict | None = None,
) -> float:
    """Mean accuracy of each personalized model on its own test data.

    A model is ``(shared, store)``, or ``(shared, scope)`` for a client whose
    store is the ``global_protos`` vectors of the frozenset ``scope``:
    :func:`_score_block` scores those as one block. Clients whose resolved
    store is empty are skipped. ``memo`` carries each other position's value
    to the next call, until its shared layer, test set or store dict is
    replaced.
    """
    memo = {} if memo is None else memo
    values, members = [], []
    for i, ((shared, store), ts) in enumerate(zip(models, test_sets)):
        if isinstance(store, frozenset):
            values.append(None)
            members += [(i, shared, ts, store)] if len(ts) else []
            continue
        values.append(_reuse(memo, i, (shared, ts, store), lambda: accuracy_prototypes(shared, store, ts)))
    if members:
        for (i, *_), value in zip(members, _score_block(members, global_protos or {}, memo)):
            values[i] = value
    else:
        memo.pop("block", None)
    return _mean(values)


def acc_local_softmax(
    params_per_client: Sequence[ModelParams], test_sets: Sequence[LabeledSet],
    *, memo: dict | None = None,
) -> float:
    """Mean softmax accuracy of each client's own model; ``memo`` as in :func:`acc_local`."""
    memo = {} if memo is None else memo
    return _mean([_reuse(memo, i, (p, ts), lambda: accuracy_softmax(p, ts))
                  for i, (p, ts) in enumerate(zip(params_per_client, test_sets))])


def acc_sel_prototypes(
    shared: LayerParams, store: dict[int, np.ndarray], timeline: ClientTimeline, stage_index: int
) -> float | None:
    """Accuracy on the union of the client's test sets for stages 1..m."""
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
