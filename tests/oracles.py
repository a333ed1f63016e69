"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes expectations from first principles (finite
differences, explicit sums) without touching the implementation paths it
checks.
"""

from __future__ import annotations

import json

import numpy as np

from gldpsim.datagen import LabeledSet
from gldpsim.errors import ProtocolError
from gldpsim.model import LayerParams, embed, init_params, loss_total


def finite_difference_grad(params, inputs, labels, old, glob, weights, eps=1e-5):
    """Central-difference gradient of loss_total, coordinate by coordinate."""
    arrays = [params.shared.weight, params.shared.bias, params.head.weight, params.head.bias]
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            hi = loss_total(params, inputs, labels, old, glob, weights)
            arr[idx] = orig - eps
            lo = loss_total(params, inputs, labels, old, glob, weights)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def random_configuration(rng, with_protos=True):
    """A small random (params, batch, prototypes) tuple, kept away from
    the relu kink so finite differences stay clean."""
    input_dim, hidden, classes, batch = 5, 4, 3, 8
    params = init_params(input_dim, hidden, classes, [int(rng.integers(2**31)), 7])
    inputs = rng.standard_normal((batch, input_dim))
    labels = rng.integers(0, classes, batch)
    pre = inputs @ params.shared.weight + params.shared.bias
    params.shared.bias += 2e-3 * np.sign(pre).sum(axis=0).clip(-1, 1) + 3e-3
    old, glob = {}, {}
    if with_protos:
        present = [int(c) for c in np.unique(labels)]
        old = {c: rng.standard_normal(hidden) for c in present[: max(1, len(present) - 1)]}
        glob = {c: rng.standard_normal(hidden) for c in present}
    return params, inputs, labels, old, glob


def rebuild_test_union(timeline, upto_stage=None):
    """Test union of stages[:upto_stage], rebuilt from the stage test sets:
    their concatenation in stage order."""
    stages = timeline.stages if upto_stage is None else timeline.stages[:upto_stage]
    if not stages:
        first = timeline.stages[0].test
        return LabeledSet(np.empty((0, first.inputs.shape[1]), first.inputs.dtype),
                          np.empty(0, first.labels.dtype))
    return LabeledSet(np.concatenate([s.test.inputs for s in stages]),
                      np.concatenate([s.test.labels for s in stages]))


def reference_predict_batch(embeddings, store):
    """Nearest prototype per row from one (rows, classes, dim) gap array;
    ties go to the lowest class."""
    if not store:
        raise ProtocolError("no prototypes available")
    classes = sorted(store)
    matrix = np.stack([store[c] for c in classes])
    gaps = embeddings[:, None, :] - matrix[None, :, :]
    distances = np.sqrt((gaps**2).sum(axis=-1))
    return np.array(classes, dtype=np.int64)[distances.argmin(axis=1)]


def reference_acc_global(shared, global_protos, test_sets):
    """Mean over clients with test data of each client's own hit rate,
    scored client by client."""
    values = [
        float((reference_predict_batch(embed(shared, ts.inputs), global_protos) == ts.labels).mean())
        for ts in test_sets
        if len(ts)
    ]
    if not values:
        raise ProtocolError("no client's test data can be evaluated")
    return float(np.mean(values))


def _reference_jsonify(value):
    if isinstance(value, LayerParams):
        return {"weight": value.weight.tolist(), "bias": value.bias.tolist()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _reference_jsonify(v) for k, v in sorted(value.items())}
    return value


def reference_message_dict(msg):
    """One logged message as a JSON-ready dict of version-1 fields."""
    return {
        "version": 1,
        "direction": msg.direction,
        "sender": msg.sender,
        "receiver": msg.receiver,
        "round": msg.round_index,
        "stage": msg.stage_index,
        "payload": {k: _reference_jsonify(v) for k, v in sorted(msg.payload.items())},
    }


def reference_message_line(msg):
    """One dump line, encoded from scratch for every message."""
    return json.dumps(reference_message_dict(msg), sort_keys=True)


def reconstruct_input(shared, prototype):
    """The input x whose embedding ``relu(x @ W + b)`` matches ``prototype``
    on its active units, by least squares: the closed-form inversion of a
    prototype formed from one sample."""
    active = prototype > 0.0
    solution, *_ = np.linalg.lstsq(
        shared.weight[:, active].T, prototype[active] - shared.bias[active], rcond=None
    )
    return solution
