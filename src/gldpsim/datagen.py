"""Synthetic data generation and long-tailed, multi-stage client partitioning.

Builds Gaussian-mixture classification data, thins it into a long-tailed
class profile controlled by an imbalance factor, and carves it into
per-client timelines of stage tasks whose class composition shifts over
time. All outputs are pure functions of (spec, plan, seed); the seed is an
argument of each seeded step, not a field of the spec or plan.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, require
from .prototypes import compute_counts

log = logging.getLogger(__name__)

# Sub-stream tags keep the rng draws for independent construction steps
# decoupled from each other.
_TAG_CENTERS = 11
_TAG_SAMPLES = 12
_TAG_LONGTAIL = 21
_TAG_PARTITION = 31

_TRAIN_FRACTION = 0.8


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a balanced synthetic classification dataset."""

    num_classes: int
    input_dim: int
    samples_per_class: int
    class_center_scale: float = 2.0
    noise_sigma: float = 1.0

    def __post_init__(self) -> None:
        require(self.num_classes >= 2, "num_classes", f"must be >= 2, got {self.num_classes}")
        require(self.input_dim >= 2, "input_dim", f"must be >= 2, got {self.input_dim}")
        require(self.samples_per_class >= 1, "samples_per_class",
                f"must be >= 1, got {self.samples_per_class}")
        require(self.class_center_scale > 0, "class_center_scale",
                f"must be positive, got {self.class_center_scale}")
        require(self.noise_sigma > 0, "noise_sigma", f"must be positive, got {self.noise_sigma}")


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Feature matrix with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"inputs rows ({self.inputs.shape[0]}) != labels length ({self.labels.shape[0]})"
            )

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, index: np.ndarray) -> "LabeledSet":
        return LabeledSet(self.inputs[index], self.labels[index])


@dataclass(frozen=True)
class PartitionPlan:
    """Client/stage layout: N clients, S classes each, M stage tasks."""

    num_clients: int
    classes_per_client: int
    num_stages: int
    imbalance_factor: float = 1.0

    def __post_init__(self) -> None:
        require(self.num_clients >= 1, "num_clients", f"must be >= 1, got {self.num_clients}")
        require(self.classes_per_client >= 1, "classes_per_client",
                f"must be >= 1, got {self.classes_per_client}")
        require(self.num_stages >= 1, "num_stages", f"must be >= 1, got {self.num_stages}")
        require(self.imbalance_factor >= 1, "imbalance_factor",
                f"must be >= 1, got {self.imbalance_factor}")


@dataclass(frozen=True)
class StageTask:
    """One stage of a client's timeline: train/test split over a class subset."""

    stage_index: int
    train: LabeledSet
    test: LabeledSet
    class_set: frozenset[int]

    def __post_init__(self) -> None:
        for name, part in (("train", self.train), ("test", self.test)):
            labels = part.labels.tolist()
            if not self.class_set.issuperset(labels):
                raise DataError(
                    f"stage {self.stage_index} {name} labels {sorted(set(labels))} "
                    f"outside class set {sorted(self.class_set)}"
                )


def _read_only(data: LabeledSet) -> LabeledSet:
    for array in (data.inputs, data.labels):
        array.flags.writeable = False
    return data


@dataclass(frozen=True)
class ClientTimeline:
    """A client's stage tasks, fixed once built.

    The test union of all stages is built on first use and shared by every
    caller, so its arrays are read-only; the union of stages 1..m is a
    read-only view of its first rows.
    """

    client_id: int
    stages: tuple[StageTask, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    @cached_property
    def classes(self) -> frozenset[int]:
        """Every class any stage holds."""
        return frozenset().union(*(stage.class_set for stage in self.stages))

    @cached_property
    def _test_union_sizes(self) -> tuple[LabeledSet, tuple[int, ...]]:
        """The test sets of all stages concatenated in stage order, and the
        size of the union of stages 1..k for k = 0..M.

        ``partition_clients`` gives a client's stages disjoint samples, so
        the concatenation is the union, and the union of stages 1..k is
        its first rows.
        """
        tests = [s.test for s in self.stages]
        union = _read_only(LabeledSet(np.concatenate([t.inputs for t in tests]),
                                      np.concatenate([t.labels for t in tests])))
        return union, tuple(np.cumsum([0, *map(len, tests)]).tolist())

    def test_union(self, upto_stage: int | None = None) -> LabeledSet:
        """Union of test sets for stages 1..upto_stage.

        ``upto_stage`` slices the stages as ``stages[:upto_stage]`` does.
        """
        union, sizes = self._test_union_sizes
        size = sizes[len(self.stages[:upto_stage])]
        if size == len(union):
            return union
        # Made per call: holding one per stage of every client raised the
        # population workload's peak RSS by ~2%.
        return LabeledSet(union.inputs[:size], union.labels[:size])


def make_synthetic_dataset(spec: DatasetSpec, seed: int) -> LabeledSet:
    """Draw a balanced Gaussian-mixture dataset, grouped by class.

    Each class gets an isotropic Gaussian cloud of ``samples_per_class``
    points around a per-class center drawn once from a scaled standard
    Gaussian. Deterministic in ``seed``. Samples that overflow raise
    ``DataError``.
    """
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
    return LabeledSet(inputs, labels)


def longtail_class_counts(samples_per_class: int, imbalance_factor: float, num_classes: int) -> list[int]:
    """Per-class retention counts under an exponential long-tail profile.

    Class k keeps round(n_max * IF^(-k / (z-1))) samples (round half up),
    never fewer than one. Class 0 always keeps all its samples.
    """
    counts = []
    for k in range(num_classes):
        raw = samples_per_class * imbalance_factor ** (-k / (num_classes - 1))
        counts.append(max(1, int(math.floor(raw + 0.5))))
    return counts


def apply_longtail(data: LabeledSet, imbalance_factor: float, seed: int) -> LabeledSet:
    """Uniformly subsample each class down to its long-tail count.

    Requires balanced input (equal per-class counts).
    """
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


def _stage_class_sets(classes: list[int], num_stages: int) -> list[list[int]]:
    """Deal a client's classes to its stages.

    With at least as many classes as stages, classes are dealt round-robin
    so the stages partition them. With fewer classes than stages, stages
    cycle through the classes with a width-2 window so later stages both
    introduce classes and revisit earlier ones.
    """
    count = len(classes)
    if count >= num_stages:
        return [[classes[i] for i in range(count) if i % num_stages == j] for j in range(num_stages)]
    if count >= 3:
        return [[classes[j % count], classes[(j + 1) % count]] for j in range(num_stages)]
    # One or two classes: alternate singletons (degenerate but well-defined).
    return [[classes[j % count]] for j in range(num_stages)]


def _split(index: np.ndarray, sections: int) -> list[np.ndarray]:
    """``np.array_split(index, sections)`` as plain slices: the first
    ``len(index) % sections`` parts hold one element more."""
    size, extra = divmod(len(index), sections)
    bounds = [j * size + min(j, extra) for j in range(sections + 1)]
    return [index[a:b] for a, b in zip(bounds, bounds[1:])]


def partition_clients(data: LabeledSet, plan: PartitionPlan, seed: int) -> list[ClientTimeline]:
    """Carve a dataset into per-client multi-stage timelines.

    Every client draws ``classes_per_client`` distinct classes (redrawn
    until each class has at least one assignee; ``ExperimentConfig`` checks
    that the plan can cover the classes); each class's samples are split
    disjointly among its assignees; each client's share is then spread
    over its stages, with an 80/20 train/test split per stage. The stage
    sets are read-only row slices of one gathered pair of arrays.
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
        parts = _split(idx, len(holders))
        roll = int(rng.integers(len(holders)))
        for j, holder in enumerate(holders):
            shares[holder][c] = parts[(j + roll) % len(holders)]

    # Deal each share to its client's stages; a part is a slice of its
    # class permutation, recorded with its (client, stage) slot.
    parts: list[np.ndarray] = []
    slots: list[int] = []
    stage_classes = []
    for i in range(n):
        effective = [c for c in map(int, assignments[i]) if shares[i][c].size > 0]
        if not effective:
            raise DataError(f"client {i} received no samples for any of its classes")
        stage_classes.append(_stage_class_sets(effective, m))
        for c in effective:
            with_c = [j for j in range(m) if c in stage_classes[i][j]]
            chunk_parts = _split(shares[i][c], len(with_c))
            roll = int(rng.integers(len(with_c))) if len(with_c) > 1 else 0
            for j, stage_j in enumerate(with_c):
                part = chunk_parts[(j + roll) % len(with_c)]
                if part.size:
                    parts.append(part)
                    slots.append(i * m + stage_j)

    # Cut every part 80/20 and order all rows by (slot, train before test)
    # with a stable sort, so a stage's parts keep the client's class order.
    # One gather then holds every stage's rows; stage sets are slices of it.
    sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    n_train = np.maximum(1, np.floor(_TRAIN_FRACTION * sizes + 0.5).astype(np.int64))
    within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    key = np.repeat(2 * np.array(slots), sizes) + (within >= np.repeat(n_train, sizes))
    rows = np.concatenate(parts)[np.argsort(key, kind="stable")]
    pool = _read_only(data.subset(rows))
    cuts = [0, *np.cumsum(np.bincount(key, minlength=2 * n * m)).tolist()]

    timelines = []
    empty: list[str] = []
    for i in range(n):
        stages = []
        for j in range(m):
            lo, mid, hi = cuts[2 * (i * m + j):2 * (i * m + j) + 3]
            if lo == mid:
                empty.append(f"{i}:{j + 1}")
            train, test = pool.subset(slice(lo, mid)), pool.subset(slice(mid, hi))
            stages.append(StageTask(j + 1, train, test, frozenset(stage_classes[i][j])))
        timelines.append(ClientTimeline(client_id=i, stages=stages))
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
