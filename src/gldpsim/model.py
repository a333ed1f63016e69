"""Split two-layer network: shared representation plus personalized head.

The shared layer maps inputs to a ReLU embedding; the head maps embeddings
to class logits. Training combines cross-entropy with two prototype
relation terms, and the gradients are derived by hand (no autodiff):

    total = CE + mix * local_relation + (1 - mix) * global_relation

where the local relation is a temperature-softened KL divergence between a
remembered class prototype and the current batch's class-mean embedding,
and the global relation is a count-weighted MSE pulling batch prototypes
toward the server's global ones.

Both relation terms act on the class-mean embeddings, so only
cross-entropy reaches the head. Training phases that step the head alone
therefore run under ``CE_ONLY``; their steps are bit-identical to those
taken under the full loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import StageTask
from .errors import ConfigError, DataError
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

    def copy(self) -> "ModelParams":
        return ModelParams(self.shared.copy(), self.head.copy())


@dataclass(frozen=True)
class OptimizerConfig:
    """Staged SGD settings: shared-layer epochs run before head epochs."""

    step_size: float = 0.01
    shared_epochs: int = 2
    head_epochs: int = 4
    weight_decay: float = 1e-4
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.step_size < 0:
            raise ConfigError(f"step_size must be non-negative, got {self.step_size}")
        if self.shared_epochs < 1:
            raise ConfigError(f"shared_epochs must be positive, got {self.shared_epochs}")
        if self.head_epochs < 1:
            raise ConfigError(f"head_epochs must be positive, got {self.head_epochs}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")


@dataclass(frozen=True)
class LossWeights:
    """Mix and shaping of the prototype relation terms.

    ``relation_mix`` weighs the local (stage-memory) relation; its
    complement weighs the global alignment relation. A mix of 0 or 1
    removes the global or the local term; removing both is ``CE_ONLY``.
    """

    relation_mix: float = 0.5
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.relation_mix <= 1.0:
            raise ConfigError(f"relation_mix must be in [0, 1], got {self.relation_mix}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    @property
    def local_coeff(self) -> float:
        return self.relation_mix

    @property
    def global_coeff(self) -> float:
        return 1.0 - self.relation_mix


class _CrossEntropyOnly(LossWeights):
    """Both relation terms removed, whatever the mix."""

    local_coeff = 0.0
    global_coeff = 0.0


# Cross-entropy alone: the loss of the baseline updates.
CE_ONLY = _CrossEntropyOnly()


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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


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
    if local_c == 0.0 and global_c == 0.0:
        return total

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
) -> ModelParams:
    """Analytic gradient of :func:`loss_total`, shaped like ModelParams.

    Both relation terms reach the shared layer through the batch class-mean
    embeddings; only cross-entropy touches the head. Only the gradients of
    ``layers`` are computed; the other field is None.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    batch = len(labels)

    pre_act = inputs @ params.shared.weight + params.shared.bias
    embedding = np.maximum(pre_act, 0.0)
    logits = embedding @ params.head.weight + params.head.bias

    d_logits = softmax(logits)
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    head = None
    if "head" in layers:
        head = LayerParams(embedding.T @ d_logits, d_logits.sum(axis=0))
    if "shared" not in layers:
        return ModelParams(shared=None, head=head)
    d_embedding = d_logits @ params.head.weight.T

    local_c, global_c = weights.local_coeff, weights.global_coeff
    if local_c > 0.0 or global_c > 0.0:
        batch_classes = [int(c) for c in np.unique(labels)]
        masks = {c: labels == c for c in batch_classes}
        protos = {c: embedding[masks[c]].mean(axis=0) for c in batch_classes}

        if local_c > 0.0:
            overlap = [c for c in batch_classes if c in old_protos]
            for c in overlap:
                t = weights.temperature
                s_new = softmax(protos[c] / t)
                s_old = softmax(np.asarray(old_protos[c], dtype=np.float64) / t)
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


def _sgd_step(layer: LayerParams, grad: LayerParams, step_size: float, weight_decay: float) -> None:
    layer.weight -= step_size * (grad.weight + weight_decay * layer.weight)
    layer.bias -= step_size * (grad.bias + weight_decay * layer.bias)


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
    """Minibatch SGD on a copy of ``params`` over ``(layers, epochs)`` phases.

    Each step computes the gradient of the phase's layers only
    (``"shared"``/``"head"``) and moves them, in order: a frozen layer's
    gradient is never formed, and a head-only step skips the backward pass
    through the shared layer. With ``prox_coeff > 0``, each stepped layer
    is also pulled toward the received ``params`` (FedProx's proximal
    term). Only cross-entropy reaches the head, so a phase that does not
    step ``"shared"`` takes its gradients under ``CE_ONLY``: the head
    gradients are bit-identical and the relation terms are not computed.

    The only writer of arrays in the package, and only into the copy of
    ``params`` made on entry. Every other array is shared by reference, no
    function mutates a dict it was given, and state changes are field
    reassignments in ``run_stage`` (see :mod:`gldpsim.federation`).
    """
    if len(stage.train) == 0:
        raise DataError(f"stage {stage.stage_index} training set is empty")
    received, params = params, params.copy()
    inputs, labels = stage.train.inputs, stage.train.labels
    n = len(labels)

    for layers, epochs in phases:
        phase_weights = weights if "shared" in layers else CE_ONLY
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, opt.batch_size):
                sel = order[start : start + opt.batch_size]
                grads = grad_total(
                    params, inputs[sel], labels[sel], old_protos, global_protos, phase_weights,
                    layers,
                )
                for name in layers:
                    layer, grad = getattr(params, name), getattr(grads, name)
                    if prox_coeff > 0.0:
                        anchor = getattr(received, name)
                        grad.weight += prox_coeff * (layer.weight - anchor.weight)
                        grad.bias += prox_coeff * (layer.bias - anchor.bias)
                    _sgd_step(layer, grad, opt.step_size, opt.weight_decay)
    return params


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
    return _train(params, stage, phases, {}, {}, opt, CE_ONLY, rng, prox_coeff)
