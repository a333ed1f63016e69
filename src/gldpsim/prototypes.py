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
class PrototypeEntry:
    vector: np.ndarray


@dataclass
class PrototypeStore:
    """Per-class prototype vectors with a moving-average blend coefficient.

    ``momentum`` is the weight kept on the existing vector when a class is
    refreshed: new = momentum * old + (1 - momentum) * fresh.
    """

    momentum: float = 0.5
    entries: dict[int, PrototypeEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum <= 1.0:
            raise ConfigError(f"momentum must be in [0, 1], got {self.momentum}")

    def classes(self) -> list[int]:
        return sorted(self.entries)

    def vectors(self) -> dict[int, np.ndarray]:
        return {c: self.entries[c].vector.copy() for c in self.classes()}

    def __len__(self) -> int:
        return len(self.entries)

    def dim(self) -> int | None:
        for entry in self.entries.values():
            return int(entry.vector.shape[0])
        return None

    def copy(self) -> "PrototypeStore":
        return PrototypeStore(
            momentum=self.momentum,
            entries={c: PrototypeEntry(e.vector.copy()) for c, e in self.entries.items()},
        )


def _blend(old: np.ndarray, fresh: np.ndarray, momentum: float) -> np.ndarray:
    # Degenerate coefficients must hold bit-exactly; the incremental form
    # plus clipping keeps the blend idempotent and coordinate-wise convex.
    if momentum == 0.0:
        return fresh.copy()
    if momentum == 1.0:
        return old.copy()
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
    """Fold freshly computed stage prototypes into a client's store.

    Classes already present are moving-averaged; new classes are inserted
    verbatim; classes absent from ``fresh`` are left untouched.
    """
    for c in sorted(fresh):
        vector = np.asarray(fresh[c], dtype=np.float64)
        if c in store.entries:
            entry = store.entries[c]
            entry.vector = _blend(entry.vector, vector, store.momentum)
        else:
            store.entries[c] = PrototypeEntry(vector.copy())
    return store


def update_global(
    store: PrototypeStore,
    uploads: list[tuple[int, dict[int, np.ndarray]]],
) -> PrototypeStore:
    """Blend client prototype uploads into the server store.

    Per class, the fresh value is the plain mean over the uploading
    clients. A class never seen before is added directly; otherwise the
    store's moving average applies.
    """
    by_class: dict[int, list[np.ndarray]] = {}
    for client_id, protos in sorted(uploads, key=lambda u: u[0]):
        for c in sorted(protos):
            vec = np.asarray(protos[c], dtype=np.float64)
            bucket = by_class.setdefault(int(c), [])
            if bucket and bucket[0].shape != vec.shape:
                raise ProtocolError(
                    f"client {client_id} uploaded class {c} prototype with dim "
                    f"{vec.shape[0]}, expected {bucket[0].shape[0]}"
                )
            bucket.append(vec)

    dim = store.dim()
    for c in sorted(by_class):
        stacked = np.stack(by_class[c])
        if dim is not None and stacked.shape[1] != dim:
            raise ProtocolError(
                f"class {c} prototype dim {stacked.shape[1]} does not match store dim {dim}"
            )
        fresh = stacked.mean(axis=0)
        if c in store.entries:
            entry = store.entries[c]
            entry.vector = _blend(entry.vector, fresh, store.momentum)
        else:
            store.entries[c] = PrototypeEntry(fresh)
    return store


def predict_batch(embeddings: np.ndarray, store: PrototypeStore) -> np.ndarray:
    """Nearest-prototype class per row; ties break to the lowest class index."""
    if not store.entries:
        raise ProtocolError("no prototypes available")
    classes = np.array(store.classes(), dtype=np.int64)
    matrix = np.stack([store.entries[int(c)].vector for c in classes])
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
        merged = PrototypeStore(momentum=local.momentum)
        for c, entry in local.entries.items():
            merged.entries[c] = PrototypeEntry(entry.vector.copy())
        fallback = global_store.classes() if scope is None else sorted(scope)
        for c in fallback:
            if c not in merged.entries and c in global_store.entries:
                entry = global_store.entries[c]
                merged.entries[c] = PrototypeEntry(entry.vector.copy())
        return merged
    raise ConfigError(f"inference mode must be 'gp' or 'lp', got {mode!r}")
