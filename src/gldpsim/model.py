"""Split two-layer network: shared representation plus personalized head.

The shared layer maps inputs to a ReLU embedding; the head maps embeddings
to class logits. Training combines cross-entropy with two prototype
relation terms, and the gradients are derived by hand (no autodiff):

    total = CE + mix * local_relation + (1 - mix) * global_relation

where the local relation is a temperature-softened KL divergence between a
remembered class prototype and the current batch's class-mean embedding,
and the global relation is a count-weighted MSE pulling batch prototypes
toward the server's global ones.

Both relation terms act on the class-mean embeddings of classes that have
a stored prototype. So only cross-entropy reaches the head, a head-only
training phase never reaches the relation terms, and an update under empty
prototype stores (every baseline's) is cross-entropy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import StageTask
from .errors import DataError, require
from .prototypes import compute as compute_prototypes


@dataclass
class LayerParams:
    """Affine layer weights: weight (in_dim, out_dim) and bias (out_dim,)."""

    weight: np.ndarray
    bias: np.ndarray

    def copy(self) -> "LayerParams":
        return LayerParams(self.weight.copy(), self.bias.copy())


@dataclass
class ModelParams:
    shared: LayerParams
    head: LayerParams


@dataclass(frozen=True)
class OptimizerConfig:
    """Staged SGD settings: shared-layer epochs run before head epochs."""

    step_size: float = 0.01
    shared_epochs: int = 2
    head_epochs: int = 4
    weight_decay: float = 1e-4
    batch_size: int = 32

    def __post_init__(self) -> None:
        require(not self.step_size < 0, "step_size", f"must be non-negative, got {self.step_size}")
        require(self.shared_epochs >= 1, "shared_epochs",
                f"must be positive, got {self.shared_epochs}")
        require(self.head_epochs >= 1, "head_epochs", f"must be positive, got {self.head_epochs}")
        require(not self.weight_decay < 0, "weight_decay",
                f"must be non-negative, got {self.weight_decay}")
        require(self.batch_size >= 1, "batch_size", f"must be positive, got {self.batch_size}")


@dataclass(frozen=True)
class LossWeights:
    """Mix and shaping of the prototype relation terms.

    ``relation_mix`` weighs the local (stage-memory) relation; its
    complement weighs the global alignment relation. A mix of 0 or 1
    removes the global or the local term; under empty stores neither acts.
    """

    relation_mix: float = 0.5
    temperature: float = 1.0

    def __post_init__(self) -> None:
        require(0.0 <= self.relation_mix <= 1.0, "relation_mix",
                f"must be in [0, 1], got {self.relation_mix}")
        require(not self.temperature <= 0, "temperature",
                f"must be positive, got {self.temperature}")

    @property
    def local_coeff(self) -> float:
        return self.relation_mix

    @property
    def global_coeff(self) -> float:
        return 1.0 - self.relation_mix


def init_params(input_dim: int, embedding_dim: int, num_classes: int, seed_key) -> ModelParams:
    """He-style random init, deterministic in the seed key."""
    rng = np.random.default_rng(seed_key)
    shared_w = rng.standard_normal((input_dim, embedding_dim)) * np.sqrt(2.0 / input_dim)
    head_w = rng.standard_normal((embedding_dim, num_classes)) * np.sqrt(1.0 / embedding_dim)
    return ModelParams(
        shared=LayerParams(shared_w, np.zeros(embedding_dim)),
        head=LayerParams(head_w, np.zeros(num_classes)),
    )


def embed(shared: LayerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != shared.weight.shape[0]:
        raise DataError(
            f"input dim {x.shape[-1]} does not match shared layer dim {shared.weight.shape[0]}"
        )
    return np.maximum(x @ shared.weight + shared.bias, 0.0)


def forward(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (embedding, logits) for a single input vector or a batch."""
    embedding = embed(params.shared, x)
    logits = embedding @ params.head.weight + params.head.bias
    return embedding, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    exps = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    exps /= np.add.reduce(exps, axis=-1, keepdims=True)
    return exps


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_ce(logits: np.ndarray, labels: np.ndarray | int) -> float:
    """Mean cross-entropy, -log softmax(logits)[label]."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    return float(-log_softmax(logits)[np.arange(len(labels)), labels].mean())


def loss_local_relation(
    old_proto: np.ndarray, new_proto: np.ndarray, temperature: float
) -> float:
    """KL(softmax(old/T) || softmax(new/T)), from log-probabilities (finite at small T)."""
    log_p = log_softmax(np.asarray(old_proto, dtype=np.float64) / temperature)
    log_q = log_softmax(np.asarray(new_proto, dtype=np.float64) / temperature)
    return float(np.sum(np.exp(log_p) * (log_p - log_q)))


def loss_global_relation(
    local_protos: dict[int, np.ndarray],
    global_protos: dict[int, np.ndarray],
    class_counts: dict[int, int],
    total_count: int,
) -> float:
    """Count-weighted MSE between local and global prototypes.

    Classes without a global prototype are skipped.
    """
    total = 0.0
    for c in sorted(local_protos):
        if c not in global_protos:
            continue
        gap = local_protos[c] - global_protos[c]
        total += (class_counts[c] / total_count) * float((gap**2).mean())
    return total


def loss_total(
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    old_protos: dict[int, np.ndarray],
    global_protos: dict[int, np.ndarray],
    weights: LossWeights,
) -> float:
    embedding, logits = forward(params, inputs)
    total = loss_ce(logits, labels)
    local_c, global_c = weights.local_coeff, weights.global_coeff
    batch_protos = compute_prototypes(embedding, labels)
    if local_c > 0.0:
        overlap = [c for c in sorted(batch_protos) if c in old_protos]
        if overlap:
            kl_sum = sum(
                loss_local_relation(old_protos[c], batch_protos[c], weights.temperature)
                for c in overlap
            )
            total += local_c * kl_sum / len(overlap)
    if global_c > 0.0:
        counts = {c: int((labels == c).sum()) for c in batch_protos}
        total += global_c * loss_global_relation(
            batch_protos, global_protos, counts, len(labels)
        )
    return total


def grad_total(
    params: ModelParams,
    inputs: np.ndarray,
    labels: np.ndarray,
    old_protos: dict[int, np.ndarray],
    global_protos: dict[int, np.ndarray],
    weights: LossWeights,
    layers: tuple[str, ...] = ("shared", "head"),
    out: ModelParams | None = None,
) -> ModelParams:
    """Analytic gradient of :func:`loss_total`, shaped like ModelParams.

    Both relation terms reach the shared layer through the batch class-mean
    embeddings; only cross-entropy touches the head. Only the gradients of
    ``layers`` are computed; the other field is None.

    With ``out``, the gradients are written into ``out``'s arrays (a layer
    not in ``layers`` is left as it is) and ``out`` itself is returned.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    batch = len(labels)
    dst = out or ModelParams(LayerParams(None, None), LayerParams(None, None))

    pre_act = inputs @ params.shared.weight + params.shared.bias
    embedding = np.maximum(pre_act, 0.0)
    logits = embedding @ params.head.weight + params.head.bias

    d_logits = softmax(logits)
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    head = None
    if "head" in layers:
        head = LayerParams(np.matmul(embedding.T, d_logits, out=dst.head.weight),
                           np.add.reduce(d_logits, axis=0, out=dst.head.bias))
    if "shared" not in layers:
        return out or ModelParams(shared=None, head=head)
    d_embedding = d_logits @ params.head.weight.T

    local_c, global_c = weights.local_coeff, weights.global_coeff
    # A relation term acts only on classes that have a stored prototype.
    if (local_c > 0.0 and old_protos) or (global_c > 0.0 and global_protos):
        batch_classes = sorted(set(labels.tolist()))
        overlap = [c for c in batch_classes if c in old_protos] if local_c > 0.0 else []
        pulled = global_protos if global_c > 0.0 else {}
        t, dim = weights.temperature, embedding.shape[1]
        for c in batch_classes:
            if c not in overlap and c not in pulled:
                continue
            # One gather and one write-back per class; local term before global.
            mask = labels == c
            rows = d_embedding[mask]
            count = len(rows)
            # add-reduce over count is what ndarray.mean computes, bit for bit
            proto = np.add.reduce(embedding[mask], axis=0) / count
            if c in overlap:
                s_new = softmax(proto / t)
                s_old = softmax(np.asarray(old_protos[c], dtype=np.float64) / t)
                rows += local_c * (s_new - s_old) / (t * len(overlap)) / count
            if c in pulled:
                # weight (B_c/B) and the 1/B_c mean factor cancel to 1/B
                rows += global_c * (2.0 / (dim * batch)) * (proto - pulled[c])
            d_embedding[mask] = rows

    d_pre = d_embedding * (pre_act > 0.0)
    shared = LayerParams(np.matmul(inputs.T, d_pre, out=dst.shared.weight),
                         np.add.reduce(d_pre, axis=0, out=dst.shared.bias))
    return out or ModelParams(shared=shared, head=head)


def _sgd_step(param: np.ndarray, grad: np.ndarray, step_size: float, weight_decay: float) -> None:
    # In place in ``grad``. + and * commute, so the bits are param -= step_size * (grad + wd * param)
    grad += weight_decay * param
    grad *= step_size
    param -= grad


def _views(buffer: np.ndarray, like: tuple[np.ndarray, ...]) -> ModelParams:
    """ModelParams of views into ``buffer``, holding the four arrays ``like`` end to end."""
    views, start = [], 0
    for array in like:
        views.append(buffer[start : start + array.size].reshape(array.shape))
        start += array.size
    return ModelParams(LayerParams(*views[:2]), LayerParams(*views[2:]))


def _train(
    params: ModelParams,
    stage: StageTask,
    phases: tuple[tuple[tuple[str, ...], int], ...],
    old_protos: dict[int, np.ndarray],
    global_protos: dict[int, np.ndarray],
    opt: OptimizerConfig,
    weights: LossWeights,
    rng: np.random.Generator,
    prox_coeff: float = 0.0,
) -> ModelParams:
    """Minibatch SGD from ``params`` over ``(layers, epochs)`` phases.

    Each step computes the gradient of the phase's layers only
    (``"shared"``/``"head"``) and moves them, in order: a frozen layer's
    gradient is never formed, and a head-only step skips the backward pass
    through the shared layer. With ``prox_coeff > 0``, each stepped layer
    is also pulled toward the received ``params`` (FedProx's proximal
    term). Only cross-entropy reaches the head, so a head-only phase forms
    the head gradient alone and never reaches the relation terms.

    Writes only two flat buffers of its own, laid out as shared weight,
    shared bias, head weight, head bias: the parameters, and the gradients
    ``grad_total`` writes through ``out``. A phase's layers are one slice,
    so the pull, weight decay and step are one elementwise op each on it.
    Returns copies that own their memory (see :mod:`gldpsim.federation`).
    """
    if len(stage.train) == 0:
        raise DataError(f"stage {stage.stage_index} training set is empty")
    arrays = (params.shared.weight, params.shared.bias, params.head.weight, params.head.bias)
    flat = np.concatenate([a.ravel() for a in arrays])
    grad_flat = np.empty_like(flat)
    trained, grads = _views(flat, arrays), _views(grad_flat, arrays)
    received = flat.copy()  # FedProx's anchor
    split = arrays[0].size + arrays[1].size
    inputs, labels = stage.train.inputs, stage.train.labels
    n = len(labels)

    for layers, epochs in phases:
        span = slice(0 if "shared" in layers else split, None if "head" in layers else split)
        param, grad, anchor = flat[span], grad_flat[span], received[span]
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, opt.batch_size):
                sel = order[start : start + opt.batch_size]
                grad_total(trained, inputs[sel], labels[sel], old_protos, global_protos,
                           weights, layers, out=grads)
                if prox_coeff > 0.0:
                    grad += prox_coeff * (param - anchor)
                _sgd_step(param, grad, opt.step_size, opt.weight_decay)
    return ModelParams(trained.shared.copy(), trained.head.copy())


def local_update(
    params: ModelParams,
    stage: StageTask,
    old_protos: dict[int, np.ndarray],
    global_protos: dict[int, np.ndarray],
    opt: OptimizerConfig,
    weights: LossWeights,
    rng: np.random.Generator,
) -> ModelParams:
    """Train on one stage task: shared-layer epochs, then head epochs.

    During the shared phase the head is frozen and vice versa.
    """
    phases = ((("shared",), opt.shared_epochs), (("head",), opt.head_epochs))
    return _train(params, stage, phases, old_protos, global_protos, opt, weights, rng)


def stage_prototypes(shared: LayerParams, stage: StageTask) -> dict[int, np.ndarray]:
    """Per-class prototypes of the stage training set under ``shared``."""
    return compute_prototypes(embed(shared, stage.train.inputs), stage.train.labels)


def joint_update(
    params: ModelParams,
    stage: StageTask,
    opt: OptimizerConfig,
    rng: np.random.Generator,
    prox_coeff: float = 0.0,
) -> ModelParams:
    """Plain SGD on cross-entropy over all parameters (baseline updates).

    With ``prox_coeff > 0``, each step also pulls every parameter toward
    the received model ``params`` (FedProx).
    """
    phases = ((("shared", "head"), opt.shared_epochs + opt.head_epochs),)
    return _train(params, stage, phases, {}, {}, opt, LossWeights(), rng, prox_coeff)
