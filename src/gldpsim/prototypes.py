"""Class prototypes: computation, moving-average maintenance, inference.

A prototype is the arithmetic mean of the embedding vectors of one class.
Every prototype set is a plain ``dict[int, np.ndarray]`` from class to
vector: client and server stores, upload payloads, freshly computed
prototypes and the stores used at test time. Clients keep a local store
across their stage tasks; the server keeps a global store blended from
client uploads. Stores are values: the folds below return a new dict and
never change the one they are given. Prediction is nearest-prototype by
Euclidean distance.
"""

from __future__ import annotations

import numpy as np

from .errors import ProtocolError


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

    Each mean is an add-reduce over the count, which is what
    ``ndarray.mean`` computes, bit for bit. Empty input gives an empty map.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    result: dict[int, np.ndarray] = {}
    for c in sorted(set(labels.tolist())):
        mask = labels == c
        result[c] = np.add.reduce(embeddings[mask], axis=0) / np.count_nonzero(mask)
    return result


def compute_counts(labels: np.ndarray) -> dict[int, int]:
    """Rows per class present, keyed in ascending class order."""
    return {c: n for c, n in enumerate(np.bincount(np.asarray(labels)).tolist()) if n}


def update_local(
    store: dict[int, np.ndarray], fresh: dict[int, np.ndarray], momentum: float
) -> dict[int, np.ndarray]:
    """Fold freshly computed prototypes into a store (client or server).

    ``momentum`` is the weight kept on the existing vector when a class is
    refreshed: new = momentum * old + (1 - momentum) * fresh. Classes
    already present are moving-averaged; new classes are inserted
    verbatim; classes absent from ``fresh`` are carried over. Returns a new
    store and leaves ``store`` unchanged.
    """
    folded = dict(store)
    for c in sorted(fresh):
        old = store.get(c)
        folded[c] = fresh[c] if old is None else _blend(old, fresh[c], momentum)
    return folded


def update_global(
    store: dict[int, np.ndarray],
    uploads: list[tuple[int, dict[int, np.ndarray]]],
    momentum: float,
) -> dict[int, np.ndarray]:
    """Blend client prototype uploads into the server store.

    Per class, the fresh value is the plain mean over the uploading
    clients, folded in by :func:`update_local`, which returns the new
    store. Every upload must match one dim (the store's, or else the first
    uploaded vector's); a mismatch raises a ProtocolError.
    """
    dim = next((v.shape[0] for v in store.values()), None)
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
    return update_local(store, {c: np.stack(v).mean(axis=0) for c, v in by_class.items()}, momentum)


# Rows scored per block in predict_batch: bounds its (rows, classes, dim)
# gap temporary, whatever the number of rows in one call.
_BLOCK_ROWS = 64


def predict_batch(embeddings: np.ndarray, store: dict[int, np.ndarray]) -> np.ndarray:
    """Nearest-prototype class per row; ties break to the lowest class index.

    Rows are scored in blocks of ``_BLOCK_ROWS``. Each row's distances are
    computed from that row alone, so the blocking never changes a
    prediction.
    """
    if not store:
        raise ProtocolError("no prototypes available")
    classes = sorted(store)
    matrix = np.array([store[c] for c in classes])
    nearest = np.empty(len(embeddings), dtype=np.intp)
    for start in range(0, len(embeddings), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        gaps = embeddings[block, None, :] - matrix
        np.multiply(gaps, gaps, out=gaps)
        nearest[block] = np.sqrt(gaps.sum(axis=-1)).argmin(axis=1)
    return np.array(classes, dtype=np.int64)[nearest]


def inference_store(
    local: dict[int, np.ndarray],
    global_store: dict[int, np.ndarray],
    mode: str,
    scope: frozenset[int],
) -> dict[int, np.ndarray]:
    """Resolve the store used at test time.

    ``gp`` uses the global store exclusively. Any other mode is ``lp``: the
    client's own prototypes, falling back to the global prototype for any
    class in ``scope`` (the client's known label space) that the client has
    not formed yet.
    """
    if mode == "gp":
        return global_store
    fallback = {c: global_store[c] for c in scope if c in global_store}
    return {**fallback, **local}
