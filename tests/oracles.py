"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes expectations from first principles (finite
differences, explicit sums) without touching the implementation paths it
checks.
"""

from __future__ import annotations

import numpy as np

from gldpsim.datagen import LabeledSet
from gldpsim.model import init_params, loss_total


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
