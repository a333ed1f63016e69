"""Class prototypes: computation, moving-average maintenance, inference.

A prototype is the arithmetic mean of the embedding vectors of one class.
Clients keep a local store across their stage tasks; the server keeps a
global store blended from client uploads. Prediction is nearest-prototype
by Euclidean distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ProtocolError


@dataclass
class PrototypeStore:
    """Per-class prototype vectors with a moving-average blend coefficient.

    ``momentum`` is the weight kept on the existing vector when a class is
    refreshed: new = momentum * old + (1 - momentum) * fresh. Vectors are
    shared, never written in place: a refresh replaces the dict value.
    """

    momentum: float = 0.5
    entries: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum <= 1.0:
            raise ConfigError(f"momentum must be in [0, 1], got {self.momentum}")

    def classes(self) -> list[int]:
        return sorted(self.entries)

    def vectors(self) -> dict[int, np.ndarray]:
        """A new class-sorted dict of the (shared) vectors."""
        return {c: self.entries[c] for c in self.classes()}

    def __len__(self) -> int:
        return len(self.entries)

    def copy(self) -> "PrototypeStore":
        return PrototypeStore(self.momentum, dict(self.entries))


def _blend(old: np.ndarray, fresh: np.ndarray, momentum: float) -> np.ndarray:
    # Degenerate coefficients must hold bit-exactly; the incremental form
    # plus clipping keeps the blend idempotent and coordinate-wise convex.
    if momentum == 0.0:
        return fresh
    if momentum == 1.0:
        return old
    blended = old + (1.0 - momentum) * (fresh - old)
    return np.clip(blended, np.minimum(old, fresh), np.maximum(old, fresh))


def compute(embeddings: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Per-class arithmetic mean of embedding vectors.

    Empty input gives an empty map.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    result: dict[int, np.ndarray] = {}
    for c in np.unique(labels):
        result[int(c)] = embeddings[labels == c].mean(axis=0)
    return result


def compute_counts(labels: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(np.asarray(labels), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def update_local(store: PrototypeStore, fresh: dict[int, np.ndarray]) -> PrototypeStore:
    """Fold freshly computed prototypes into a store (client or server).

    Classes already present are moving-averaged; new classes are inserted
    verbatim; classes absent from ``fresh`` are left untouched.
    """
    for c in sorted(fresh):
        old = store.entries.get(c)
        store.entries[c] = fresh[c] if old is None else _blend(old, fresh[c], store.momentum)
    return store


def update_global(
    store: PrototypeStore,
    uploads: list[tuple[int, dict[int, np.ndarray]]],
) -> PrototypeStore:
    """Blend client prototype uploads into the server store.

    Per class, the fresh value is the plain mean over the uploading
    clients, folded in by :func:`update_local`. Every upload must match one
    dim (the store's, or else the first uploaded vector's); a mismatch
    raises before the store changes.
    """
    dim = next((v.shape[0] for v in store.entries.values()), None)
    by_class: dict[int, list[np.ndarray]] = {}
    for client_id, protos in sorted(uploads, key=lambda u: u[0]):
        for c in sorted(protos):
            vec = np.asarray(protos[c], dtype=np.float64)
            dim = vec.shape[0] if dim is None else dim
            if vec.shape != (dim,):
                raise ProtocolError(
                    f"client {client_id} uploaded class {c} prototype with dim "
                    f"{vec.shape[0]}, expected {dim}"
                )
            by_class.setdefault(int(c), []).append(vec)
    return update_local(store, {c: np.stack(v).mean(axis=0) for c, v in by_class.items()})


def predict_batch(embeddings: np.ndarray, store: PrototypeStore) -> np.ndarray:
    """Nearest-prototype class per row; ties break to the lowest class index."""
    if not store.entries:
        raise ProtocolError("no prototypes available")
    classes = np.array(store.classes(), dtype=np.int64)
    matrix = np.stack([store.entries[int(c)] for c in classes])
    gaps = embeddings[:, None, :] - matrix[None, :, :]
    distances = np.sqrt((gaps**2).sum(axis=-1))
    return classes[distances.argmin(axis=1)]


def inference_store(
    local: PrototypeStore,
    global_store: PrototypeStore,
    mode: str,
    scope: set[int] | None = None,
) -> PrototypeStore:
    """Resolve the store used at test time.

    ``gp`` uses the global store exclusively. ``lp`` uses the client's own
    prototypes, falling back to the global prototype for any class in
    ``scope`` (the client's known label space) that the client has not
    formed yet; without a scope, every global class is eligible.
    """
    if mode == "gp":
        return global_store
    if mode == "lp":
        fallback = global_store.classes() if scope is None else scope
        merged = {c: global_store.entries[c] for c in fallback if c in global_store.entries}
        return PrototypeStore(local.momentum, {**merged, **local.entries})
    raise ConfigError(f"inference mode must be 'gp' or 'lp', got {mode!r}")
