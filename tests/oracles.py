"""Independent oracles shared by the unit and acceptance suites.

Everything here recomputes expectations from first principles (finite
differences, explicit sums) without touching the implementation paths it
checks.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

import numpy as np

from gldpsim.datagen import (
    _TAG_CENTERS,
    _TAG_LONGTAIL,
    _TAG_PARTITION,
    _TAG_SAMPLES,
    _TRAIN_FRACTION,
    ClientTimeline,
    DatasetSpec,
    LabeledSet,
    PartitionPlan,
    StageTask,
    _stage_class_sets,
    log,
    longtail_class_counts,
)
from gldpsim.errors import ConfigError, DataError, ProtocolError
from gldpsim.federation import (
    PERSONALIZED_ALGORITHMS,
    ClientState,
    ExperimentConfig,
    ServerState,
    initialize_experiment,
    run_round,
)
from gldpsim.metrics import (
    A_GLOBAL,
    A_LOCAL,
    A_SELECTED,
    FORGETTING,
    MetricsLog,
    acc_local_softmax,
    acc_sel_prototypes,
    acc_sel_softmax,
    forgetting,
)
from gldpsim.model import LayerParams, ModelParams, embed, forward, init_params, loss_total
from gldpsim.prototypes import compute_counts, inference_store, predict_batch


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
    return _concat_tests(stages)


def _concat_tests(stages):
    return LabeledSet(np.concatenate([s.test.inputs for s in stages]),
                      np.concatenate([s.test.labels for s in stages]))


def timeline_of(client_id, stages):
    """A ``ClientTimeline`` of ``stages`` filled in from them: ``tests`` is
    their test sets concatenated in stage order, ``classes`` the union of
    their class sets."""
    stages = tuple(stages)
    return ClientTimeline(client_id, stages, _concat_tests(stages),
                          frozenset().union(*(s.class_set for s in stages)))


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


def reference_softmax(logits):
    """``model.softmax`` before its in-place rewrite."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def reference_grad_total(params, inputs, labels, old_protos, global_protos, weights,
                         layers=("shared", "head")):
    """``model.grad_total`` with ``np.unique`` classes and ``ndarray.mean``/``sum``."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    batch = len(labels)

    pre_act = inputs @ params.shared.weight + params.shared.bias
    embedding = np.maximum(pre_act, 0.0)
    logits = embedding @ params.head.weight + params.head.bias

    d_logits = reference_softmax(logits)
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    head = None
    if "head" in layers:
        head = LayerParams(embedding.T @ d_logits, d_logits.sum(axis=0))
    if "shared" not in layers:
        return ModelParams(shared=None, head=head)
    d_embedding = d_logits @ params.head.weight.T

    local_c, global_c = weights.local_coeff, weights.global_coeff
    # A relation term acts only on classes that have a stored prototype.
    if (local_c > 0.0 and old_protos) or (global_c > 0.0 and global_protos):
        batch_classes = [int(c) for c in np.unique(labels)]
        masks = {c: labels == c for c in batch_classes}
        protos = {c: embedding[masks[c]].mean(axis=0) for c in batch_classes}

        if local_c > 0.0:
            overlap = [c for c in batch_classes if c in old_protos]
            for c in overlap:
                t = weights.temperature
                s_new = reference_softmax(protos[c] / t)
                s_old = reference_softmax(np.asarray(old_protos[c], dtype=np.float64) / t)
                d_proto = local_c * (s_new - s_old) / (t * len(overlap))
                d_embedding[masks[c]] += d_proto / masks[c].sum()
        if global_c > 0.0:
            dim = embedding.shape[1]
            for c in batch_classes:
                if c not in global_protos:
                    continue
                # weight (B_c/B) and the 1/B_c mean factor cancel to 1/B
                d_proto = global_c * (2.0 / (dim * batch)) * (protos[c] - global_protos[c])
                d_embedding[masks[c]] += d_proto

    d_pre = d_embedding * (pre_act > 0.0)
    return ModelParams(shared=LayerParams(inputs.T @ d_pre, d_pre.sum(axis=0)), head=head)


def reference_sgd_step(layer, grad, step_size, weight_decay):
    """``model._sgd_step`` out of place: ``grad`` is left as it is."""
    layer.weight -= step_size * (grad.weight + weight_decay * layer.weight)
    layer.bias -= step_size * (grad.bias + weight_decay * layer.bias)


def reference_train(params, stage, phases, old_protos, global_protos, opt, weights, rng,
                    prox_coeff=0.0):
    """``model._train`` per array: a copy of each parameter array, a fresh
    gradient per step, and the pull and step written array by array."""
    if len(stage.train) == 0:
        raise DataError(f"stage {stage.stage_index} training set is empty")
    received = params
    params = ModelParams(params.shared.copy(), params.head.copy())
    inputs, labels = stage.train.inputs, stage.train.labels
    n = len(labels)

    for layers, epochs in phases:
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, opt.batch_size):
                sel = order[start : start + opt.batch_size]
                grads = reference_grad_total(
                    params, inputs[sel], labels[sel], old_protos, global_protos, weights, layers
                )
                for name in layers:
                    layer, grad = getattr(params, name), getattr(grads, name)
                    if prox_coeff > 0.0:
                        anchor = getattr(received, name)
                        grad.weight += prox_coeff * (layer.weight - anchor.weight)
                        grad.bias += prox_coeff * (layer.bias - anchor.bias)
                    reference_sgd_step(layer, grad, opt.step_size, opt.weight_decay)
    return params


def reference_compute(embeddings, labels):
    """``prototypes.compute`` over ``np.unique`` classes with ``ndarray.mean``."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    result = {}
    for c in np.unique(labels):
        result[int(c)] = embeddings[labels == c].mean(axis=0)
    return result


def reference_compute_counts(labels):
    """``prototypes.compute_counts`` by ``np.unique``."""
    values, counts = np.unique(np.asarray(labels), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _reference_client_mean(values):
    """The mean of the per-client values, in client order, with the run's error."""
    if not values:
        raise ProtocolError("no client's test data can be evaluated: none has prototypes yet")
    return float(np.mean(values))


def reference_acc_global(shared, global_protos, test_sets):
    """Mean over clients with test data of each client's own hit rate,
    scored client by client."""
    return _reference_client_mean([
        float((reference_predict_batch(embed(shared, ts.inputs), global_protos) == ts.labels).mean())
        for ts in test_sets
        if len(ts)
    ])


def reference_acc_local(models, test_sets):
    """Mean over clients with test data and a non-empty resolved store of
    each client's hit rate with its own ``(shared, store)``, scored client
    by client with :func:`reference_predict_batch`; no memo."""
    return _reference_client_mean([
        float((reference_predict_batch(embed(shared, ts.inputs), store) == ts.labels).mean())
        for (shared, store), ts in zip(models, test_sets)
        if len(ts) and store
    ])


def reference_acc_global_softmax(params_per_client, test_sets):
    """Mean over clients with test data of the softmax hit rate of the model
    given for each client, scored client by client."""
    return _reference_client_mean([
        reference_accuracy_softmax(params, ts)
        for params, ts in zip(params_per_client, test_sets)
        if len(ts)
    ])


def reference_accuracy_prototypes(shared, store, data):
    """Nearest-prototype accuracy as the mean of the hit array."""
    if len(data) == 0 or not store:
        return None
    predicted = predict_batch(embed(shared, data.inputs), store)
    return float((predicted == data.labels).mean())


def reference_accuracy_softmax(params, data):
    """Softmax accuracy as the mean of the hit array."""
    if len(data) == 0:
        return None
    _, logits = forward(params, data.inputs)
    return float((logits.argmax(axis=1) == data.labels).mean())


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


# The generator as it was while it drew one block per class and concatenated
# them, verbatim but for its name: the in-place one must give the same bytes.
def reference_make_synthetic_dataset(spec: DatasetSpec, seed: int) -> LabeledSet:
    center_rng = np.random.default_rng([seed, _TAG_CENTERS])
    centers = center_rng.standard_normal((spec.num_classes, spec.input_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge scale overflows: rejected below
        centers *= spec.class_center_scale
        gaps = centers[:, None, :] - centers[None, :, :]
        distances = np.sqrt((gaps**2).sum(axis=-1))
    overflow = not np.isfinite(distances).all()  # inf, or NaN from inf - inf
    np.fill_diagonal(distances, np.inf)
    if overflow or not distances.min() > 0.0:
        raise DataError("class centers coincide or overflow")

    sample_rng = np.random.default_rng([seed, _TAG_SAMPLES])
    n = spec.samples_per_class
    blocks = []
    for c in range(spec.num_classes):
        noise = sample_rng.standard_normal((n, spec.input_dim)) * spec.noise_sigma
        blocks.append(centers[c] + noise)
    inputs = np.concatenate(blocks)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n)
    return LabeledSet(inputs, labels)


# The long-tailed set as it was made while the balanced set was drawn whole
# and then thinned: both steps verbatim, one after the other. The class-block
# draw must give the same bytes and raise the same errors.
def reference_longtail(spec: DatasetSpec, imbalance_factor: float, seed: int) -> LabeledSet:
    center_rng = np.random.default_rng([seed, _TAG_CENTERS])
    centers = center_rng.standard_normal((spec.num_classes, spec.input_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # a huge scale overflows: rejected below
        centers *= spec.class_center_scale
        gaps = centers[:, None, :] - centers[None, :, :]
        distances = np.sqrt((gaps**2).sum(axis=-1))
    overflow = not np.isfinite(distances).all()  # inf, or NaN from inf - inf
    np.fill_diagonal(distances, np.inf)
    if overflow or not distances.min() > 0.0:
        raise DataError("class centers coincide or overflow")

    # Each class's block is drawn, scaled and shifted in place in one array:
    # the same draws, products and sums as ``centers[c] + noise * sigma``.
    sample_rng = np.random.default_rng([seed, _TAG_SAMPLES])
    n = spec.samples_per_class
    inputs = np.empty((spec.num_classes * n, spec.input_dim))
    try:
        with np.errstate(over="raise"):
            for c in range(spec.num_classes):
                block = inputs[c * n:(c + 1) * n]
                sample_rng.standard_normal(out=block)
                block *= spec.noise_sigma
                block += centers[c]
    except FloatingPointError:
        raise DataError("samples overflow: noise_sigma is too large") from None
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n)
    data = LabeledSet(inputs, labels)

    per_class = compute_counts(data.labels)
    num_classes = len(per_class)
    sizes = set(per_class.values())
    if len(sizes) != 1:
        raise DataError(f"apply_longtail requires balanced input, got counts {per_class}")
    n_max = sizes.pop()
    counts = longtail_class_counts(n_max, imbalance_factor, num_classes)

    rng = np.random.default_rng([seed, _TAG_LONGTAIL])
    keep_indices = []
    for c in range(num_classes):
        idx = np.where(data.labels == c)[0]
        chosen = rng.choice(idx, size=counts[c], replace=False)
        keep_indices.append(np.sort(chosen))
    return data.subset(np.concatenate(keep_indices))


# The partitioner as it was while it split with np.array_split, verbatim but
# for its name: the slicing one must give the same stages from the same draws.
def reference_partition_clients(data: LabeledSet, plan: PartitionPlan, seed: int) -> list[ClientTimeline]:
    """Carve a dataset into per-client multi-stage timelines.

    Every client draws ``classes_per_client`` distinct classes (redrawn
    until each class has at least one assignee; ``ExperimentConfig`` checks
    that the plan can cover the classes); each class's samples are split
    disjointly among its assignees; each client's share is then spread
    over its stages, with an 80/20 train/test split per stage.
    A stage left without training samples is tolerated here, and the
    training protocol skips it; one warning per partition names every such
    (client, stage) pair. A partition in which no client holds any test
    sample raises ``DataError``: no accuracy could be measured.
    """
    num_classes = int(data.labels.max()) + 1
    n, s, m = plan.num_clients, plan.classes_per_client, plan.num_stages

    rng = np.random.default_rng([seed, _TAG_PARTITION])
    for _ in range(1000):
        assignments = [rng.choice(num_classes, size=s, replace=False) for _ in range(n)]
        covered: set[int] = set()
        for a in assignments:
            covered.update(int(c) for c in a)
        if len(covered) == num_classes:
            break
    else:
        raise ConfigError(
            f"failed to cover all {num_classes} classes with {n} clients x {s} classes"
        )

    # Split each class's samples disjointly among the clients holding it.
    shares: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]
    assignment_sets = [set(int(c) for c in a) for a in assignments]
    for c in range(num_classes):
        holders = [i for i in range(n) if c in assignment_sets[i]]
        idx = np.where(data.labels == c)[0]
        idx = rng.permutation(idx)
        parts = np.array_split(idx, len(holders))
        roll = int(rng.integers(len(holders)))
        for j, holder in enumerate(holders):
            shares[holder][c] = parts[(j + roll) % len(holders)]

    timelines = []
    empty: list[str] = []
    for i in range(n):
        drawn_order = [int(c) for c in assignments[i]]
        effective = [c for c in drawn_order if shares[i][c].size > 0]
        if not effective:
            raise DataError(f"client {i} received no samples for any of its classes")
        stage_classes = _stage_class_sets(effective, m)

        per_stage: list[list[np.ndarray]] = [[] for _ in range(m)]
        for c in effective:
            with_c = [j for j in range(m) if c in stage_classes[j]]
            chunk = shares[i][c]
            parts = np.array_split(chunk, len(with_c))
            roll = int(rng.integers(len(with_c))) if len(with_c) > 1 else 0
            for j, stage_j in enumerate(with_c):
                part = parts[(j + roll) % len(with_c)]
                if part.size:
                    per_stage[stage_j].append(part)

        stages = []
        for j in range(m):
            train_parts, test_parts = [], []
            for part in per_stage[j]:
                n_train = max(1, int(math.floor(_TRAIN_FRACTION * part.size + 0.5)))
                train_parts.append(part[:n_train])
                test_parts.append(part[n_train:])
            train_idx = np.concatenate(train_parts) if train_parts else np.empty(0, dtype=np.int64)
            test_idx = np.concatenate(test_parts) if test_parts else np.empty(0, dtype=np.int64)
            if train_idx.size == 0:
                empty.append(f"{i}:{j + 1}")
            stages.append(
                StageTask(
                    stage_index=j + 1,
                    train=data.subset(train_idx),
                    test=data.subset(test_idx),
                    class_set=frozenset(stage_classes[j]),
                )
            )
        timelines.append(timeline_of(i, stages))
    if empty:
        log.warning("%d of %d stages have no training samples and are skipped (client:stage): %s",
                    len(empty), n * m, " ".join(empty))
    if not any(len(stage.test) for t in timelines for stage in t.stages):
        raise DataError(
            f"no client holds any test sample: {len(data)} samples over {n} clients x {m} "
            "stages leave stage parts of 1-2 samples, which go wholly to training; "
            "use fewer clients or stages, or more samples"
        )
    return timelines


# The evaluation as it was while four pieces shared it (run_experiment, its
# per-round closure, _client_sel_accuracy and _log_round_metrics), verbatim
# but for the names and for A_glo and A_loc, which are scored client by
# client without a memo: the single-place evaluation, with its grouped A_glo
# and its block of never-trained clients in A_loc, must log the same rows.
def _reference_client_store(
    client: ClientState, server: ServerState, config: ExperimentConfig
) -> dict[int, np.ndarray]:
    """The store a GLDP client predicts with; its scope is every class it holds."""
    return inference_store(
        client.local_protos, server.global_protos, config.inference_mode,
        scope=client.timeline.classes,
    )


def _reference_client_sel_accuracy(
    client: ClientState, server: ServerState, config: ExperimentConfig, stage_index: int
) -> float | None:
    if config.algorithm == "GLDP":
        store = _reference_client_store(client, server, config)
        return acc_sel_prototypes(client.params.shared, store, client.timeline, stage_index)
    return acc_sel_softmax(client.params, client.timeline, stage_index)


def _reference_log_round_metrics(
    mlog: MetricsLog,
    server: ServerState,
    clients: dict[int, ClientState],
    config: ExperimentConfig,
    round_index: int,
    a_loc_memo: dict,
) -> None:
    algorithm = config.algorithm
    stage_count = config.plan.num_stages
    order = sorted(clients)
    test_sets = [clients[c].timeline.test_union() for c in order]

    if algorithm == "GLDP":
        a_glo = reference_acc_global(server.shared, server.global_protos, test_sets)
        models = [(clients[c].params.shared, _reference_client_store(clients[c], server, config))
                  for c in order]
        a_loc = reference_acc_local(models, test_sets)
    else:
        if algorithm in PERSONALIZED_ALGORITHMS:  # FedRep: each client's own head
            global_models = [ModelParams(server.shared, clients[c].params.head) for c in order]
        else:
            global_models = [ModelParams(server.shared, server.head) for _ in order]
        a_glo = reference_acc_global_softmax(global_models, test_sets)
        a_loc = acc_local_softmax([clients[c].params for c in order], test_sets, memo=a_loc_memo)

    mlog.add(round_index, stage_count, algorithm, A_GLOBAL, "ALL", a_glo)
    mlog.add(round_index, stage_count, algorithm, A_LOCAL, "ALL", a_loc)


def reference_run_experiment(config: ExperimentConfig) -> MetricsLog:
    """Run the full protocol and return the metrics log.

    Fully deterministic in the config.
    """
    server, clients = initialize_experiment(config)
    mlog = MetricsLog()
    algorithm = config.algorithm
    stage_count = config.plan.num_stages
    a_loc_memo: dict = {}  # this run's A_loc values; only selected clients retrain
    for round_index in range(1, config.rounds + 1):
        sel_history: dict[int, list[float]] = defaultdict(list)

        def log_sel(stage_index: int, participants: list[int]) -> None:
            stage_values = []
            for cid in participants:
                value = _reference_client_sel_accuracy(clients[cid], server, config, stage_index)
                if value is None:
                    continue
                mlog.add(round_index, stage_index, algorithm, A_SELECTED, cid, value)
                sel_history[cid].append(value)
                stage_values.append(value)
            if stage_values:
                mlog.add(
                    round_index, stage_index, algorithm, A_SELECTED, "ALL",
                    float(np.mean(stage_values)),
                )

        selected = run_round(server, clients, config, round_index, after_stage=log_sel)
        drops = []
        for cid in selected:
            if sel_history[cid]:
                drop = forgetting(sel_history[cid])
                mlog.add(round_index, stage_count, algorithm, FORGETTING, cid, drop)
                drops.append(drop)
        if drops:
            mlog.add(round_index, stage_count, algorithm, FORGETTING, "ALL", float(np.mean(drops)))
        _reference_log_round_metrics(mlog, server, clients, config, round_index, a_loc_memo)
    return mlog
