"""Round/stage protocol: selection, local updates, server aggregation.

Each global round selects a subset of clients and walks their stage tasks
in order. Per stage, the server broadcasts the shared layer (and prototype
snapshot), selected clients train locally and upload, and the server
averages shared layers and folds prototype uploads into the global store.
The shared layer carries from one stage into the next within a round.

FedAvg, FedRep, and FedProx run on the same state machine with different
local updates, payloads, and inference.

One write rule keeps logged messages snapshots and lets
:func:`run_experiment` reuse a client's A_loc value while its inputs are
the same objects. Only ``model._train`` writes into arrays: into its
two flat buffers, of the parameters and of the gradients ``grad_total``
writes through ``out``, before it returns copies that own their memory.
All other arrays (parameters, prototypes, payloads, and the
``LayerParams``/``ModelParams`` holding them) are shared by reference.
No function mutates a dict it was given: prototype stores are replaced
by the new dict the folds return. State changes are field reassignments
of the client and server states in :func:`run_stage`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .datagen import (
    ClientTimeline,
    DatasetSpec,
    PartitionPlan,
    apply_longtail,
    make_synthetic_dataset,
    partition_clients,
)
from .errors import ProtocolError, require
from .metrics import (
    A_GLOBAL,
    A_LOCAL,
    A_SELECTED,
    FORGETTING,
    MetricsLog,
    acc_global,
    acc_global_softmax,
    acc_local,
    acc_local_softmax,
    acc_sel_prototypes,
    acc_sel_softmax,
    forgetting,
)
from .model import (
    LayerParams,
    LossWeights,
    ModelParams,
    OptimizerConfig,
    init_params,
    joint_update,
    local_update,
    stage_prototypes,
)
from .prototypes import (
    compute_counts,
    inference_store,
    update_global,
    update_local,
)

ALGORITHMS = ("GLDP", "FedAvg", "FedRep", "FedProx")
# Algorithms whose head never leaves the client.
PERSONALIZED_ALGORITHMS = ("GLDP", "FedRep")
INFERENCE_MODES = ("gp", "lp")

MESSAGE_FORMAT_VERSION = 1

_TAG_INIT = 43
_TAG_SELECT = 44
_TAG_CLIENT = 45


@dataclass
class ServerState:
    shared: LayerParams
    global_protos: dict[int, np.ndarray]
    head: LayerParams | None = None


@dataclass
class ClientState:
    params: ModelParams
    local_protos: dict[int, np.ndarray]
    timeline: ClientTimeline


@dataclass
class RoundMessage:
    direction: str  # "server_to_client" | "client_to_server"
    sender: int | str
    receiver: int | str
    round_index: int
    stage_index: int
    payload: dict


def _jsonify(value):
    if isinstance(value, LayerParams):
        return {"weight": value.weight.tolist(), "bias": value.bias.tolist()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _encode_payload(payload: dict) -> str:
    return json.dumps(_jsonify(payload), sort_keys=True)


def dump_message_log(messages: list[RoundMessage], path: str | Path) -> None:
    """Write one JSON object per message, suitable for offline audits.

    Each line holds the message fields and its payload, keys sorted. A
    stage logs each client's download before its upload, so keeping the
    last download's text by ``id`` (``messages`` keeps every payload
    alive, so no id is reused) encodes each broadcast once. Uploads are
    encoded as they come.
    """
    down_key, down_text = None, ""
    with open(path, "w") as fh:
        for msg in messages:
            down = msg.direction == "server_to_client"
            if down and id(msg.payload) == down_key:
                text = down_text
            else:
                text = _encode_payload(msg.payload)
                if down:
                    down_key, down_text = id(msg.payload), text
            fields = {
                "receiver": msg.receiver, "round": msg.round_index, "sender": msg.sender,
                "stage": msg.stage_index, "version": MESSAGE_FORMAT_VERSION,
            }
            # Sorted keys: direction, payload, then the other fields.
            fh.write(f'{{"direction": {json.dumps(msg.direction)}, "payload": {text}, '
                     f'{json.dumps(fields, sort_keys=True)[1:]}\n')


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "GLDP"
    rounds: int = 50
    clients_per_round: int = 10
    dataset: DatasetSpec = field(
        default_factory=lambda: DatasetSpec(
            num_classes=10, input_dim=16, samples_per_class=100,
            class_center_scale=2.0, noise_sigma=2.5,
        )
    )
    plan: PartitionPlan = field(
        default_factory=lambda: PartitionPlan(
            num_clients=20, classes_per_client=4, num_stages=5,
            imbalance_factor=50.0,
        )
    )
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    embedding_dim: int = 64
    proto_momentum: float = 0.5
    fedprox_coeff: float = 0.01
    inference_mode: str = "lp"
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.algorithm in ALGORITHMS, "algorithm",
                f"must be one of {ALGORITHMS}, got {self.algorithm!r}")
        require(self.rounds >= 1, "rounds", f"must be positive, got {self.rounds}")
        clients = self.plan.num_clients
        require(1 <= self.clients_per_round <= clients, "clients_per_round",
                f"must be in [1, {clients}], got {self.clients_per_round}")
        # The partition limits: the one check that sees dataset and plan together.
        classes, per_client = self.dataset.num_classes, self.plan.classes_per_client
        require(per_client <= classes, "classes_per_client",
                f"must be at most num_classes ({classes}), got {per_client}")
        require(clients * per_client >= classes, "num_clients",
                f"x classes_per_client ({clients} x {per_client}) must cover num_classes ({classes})")
        require(self.embedding_dim >= 1, "embedding_dim",
                f"must be positive, got {self.embedding_dim}")
        require(0.0 <= self.proto_momentum <= 1.0, "proto_momentum",
                f"must be in [0, 1], got {self.proto_momentum}")
        require(self.fedprox_coeff >= 0, "fedprox_coeff",
                f"must be non-negative, got {self.fedprox_coeff}")
        require(self.inference_mode in INFERENCE_MODES, "inference_mode",
                f"must be one of {INFERENCE_MODES}, got {self.inference_mode!r}")
        require(self.seed >= 0, "seed", f"must be a non-negative integer, got {self.seed}")

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Re-key every seeded component of the experiment."""
        return replace(self, seed=seed)


def select_clients(num_clients: int, count: int, seed: int, round_index: int) -> list[int]:
    """Uniform sample without replacement, deterministic in (seed, round)."""
    rng = np.random.default_rng([seed, _TAG_SELECT, round_index])
    chosen = rng.choice(num_clients, size=count, replace=False)
    return sorted(int(c) for c in chosen)


def aggregate_shared(uploads: list[LayerParams]) -> LayerParams:
    """Coordinate-wise unweighted mean of uploaded layer parameters.

    All-identical uploads short-circuit to the first upload itself so that
    a zero-step-size protocol round is a bit-exact fixed point regardless
    of the participant count.
    """
    if not uploads:
        raise ProtocolError("cannot aggregate an empty upload list")
    shape = (uploads[0].weight.shape, uploads[0].bias.shape)
    for up in uploads[1:]:
        if (up.weight.shape, up.bias.shape) != shape:
            raise ProtocolError(
                f"upload shape {(up.weight.shape, up.bias.shape)} does not match {shape}"
            )
    if all(
        np.array_equal(up.weight, uploads[0].weight) and np.array_equal(up.bias, uploads[0].bias)
        for up in uploads[1:]
    ):
        return uploads[0]
    weight = np.mean(np.stack([u.weight for u in uploads]), axis=0)
    bias = np.mean(np.stack([u.bias for u in uploads]), axis=0)
    return LayerParams(weight, bias)


def run_stage(
    server: ServerState,
    clients: dict[int, ClientState],
    selected: list[int],
    round_index: int,
    stage_index: int,
    config: ExperimentConfig,
    message_log: list[RoundMessage] | None = None,
) -> list[int]:
    """Run one stage task for the selected clients and aggregate.

    Every selected client is sent the broadcast; a client whose stage
    training set is empty sends no upload (one warning from
    :func:`~gldpsim.datagen.partition_clients` names it).
    The result is independent of the order of ``selected``: client rng
    streams are keyed by (seed, round, stage, client) and the reduction
    iterates clients in ascending id order. Returns the participants.
    """
    algorithm = config.algorithm
    full_model = algorithm not in PERSONALIZED_ALGORITHMS
    # One broadcast serves every client of the stage (arrays are shared).
    down_payload: dict = {
        "shared": server.shared,
        "global_prototypes": server.global_protos,
    }
    if full_model:
        down_payload["head"] = server.head
    uploads: dict[int, dict] = {}

    # An overflow or invalid value anywhere in a client's update raises,
    # whatever the warnings filter; underflow stays ignored.
    with np.errstate(over="raise", invalid="raise"):
        for cid in selected:
            client = clients[cid]
            stage = client.timeline.stages[stage_index - 1]
            if message_log is not None:
                message_log.append(RoundMessage("server_to_client", "server", cid,
                                                round_index, stage_index, down_payload))

            if len(stage.train) == 0:
                continue

            try:
                rng = np.random.default_rng(
                    [config.seed, _TAG_CLIENT, round_index, stage_index, cid]
                )
                start = ModelParams(server.shared,
                                    server.head if full_model else client.params.head)
                if full_model:
                    coeff = config.fedprox_coeff if algorithm == "FedProx" else 0.0
                    client.params = joint_update(start, stage, config.opt, rng, prox_coeff=coeff)
                    up_payload = {"shared": client.params.shared, "head": client.params.head}
                else:
                    client.params = local_update(
                        start, stage, client.local_protos, server.global_protos,
                        config.opt, config.weights, rng,
                    )
                    up_payload = {"shared": client.params.shared}
                if algorithm == "GLDP":
                    fresh = stage_prototypes(client.params.shared, stage)
                    up_payload["prototypes"] = fresh
                    up_payload["class_counts"] = compute_counts(stage.train.labels)
                    client.local_protos = update_local(client.local_protos, fresh,
                                                       config.proto_momentum)
                finite = all(np.isfinite(a).all() for a in _payload_arrays(up_payload))
            except FloatingPointError:
                finite = False
            if not finite:
                raise ProtocolError(
                    f"round {round_index} stage {stage_index}: client {cid} update is not finite"
                )

            if message_log is not None:
                message_log.append(RoundMessage("client_to_server", cid, "server",
                                                round_index, stage_index, up_payload))
            uploads[cid] = up_payload

    order = sorted(uploads)
    if order:
        server.shared = aggregate_shared([uploads[c]["shared"] for c in order])
        if full_model:
            server.head = aggregate_shared([uploads[c]["head"] for c in order])
        if algorithm == "GLDP":
            protos = [(c, uploads[c]["prototypes"]) for c in order]
            server.global_protos = update_global(server.global_protos, protos, config.proto_momentum)
    return order


def initialize_experiment(
    config: ExperimentConfig,
) -> tuple[ServerState, dict[int, ClientState]]:
    """Build data, timelines, and one initial model shared by every client."""
    # The long tail's rows are chosen first, so the balanced set is never held.
    keep = apply_longtail(config.dataset, config.plan.imbalance_factor, config.seed)
    longtailed = make_synthetic_dataset(config.dataset, config.seed, keep)
    timelines = partition_clients(longtailed, config.plan, config.seed)

    init = init_params(
        config.dataset.input_dim, config.embedding_dim, config.dataset.num_classes,
        [config.seed, _TAG_INIT],
    )
    clients = {
        t.client_id: ClientState(params=init, local_protos={}, timeline=t) for t in timelines
    }
    server = ServerState(
        shared=init.shared,
        global_protos={},
        head=None if config.algorithm in PERSONALIZED_ALGORITHMS else init.head,
    )
    return server, clients


def run_round(
    server: ServerState,
    clients: dict[int, ClientState],
    config: ExperimentConfig,
    round_index: int,
    message_log: list[RoundMessage] | None = None,
    after_stage: Callable[[int, list[int]], None] | None = None,
) -> list[int]:
    """One global round: select clients, then walk every stage in order.

    ``after_stage(stage_index, participants)`` runs after each stage's
    aggregation. Returns the selected clients.
    """
    selected = select_clients(
        config.plan.num_clients, config.clients_per_round, config.seed, round_index
    )
    for stage_index in range(1, config.plan.num_stages + 1):
        participants = run_stage(server, clients, selected, round_index, stage_index, config, message_log)
        if after_stage is not None:
            after_stage(stage_index, participants)
    return selected


def run_experiment(config: ExperimentConfig) -> MetricsLog:
    """Run the full protocol and return the metrics log; deterministic in the config.

    The one place a run is evaluated. Each client's test union is built once:
    a timeline never changes within a run.
    """
    server, clients = initialize_experiment(config)
    initial, every_class = server.shared, frozenset(range(config.dataset.num_classes))
    mlog = MetricsLog()
    algorithm = config.algorithm
    stage_count = config.plan.num_stages
    order = sorted(clients)
    test_sets = [clients[c].timeline.test_union() for c in order]
    a_loc_memo: dict = {}  # this run's A_loc values; only selected clients retrain
    a_glo_memo: dict = {}  # the size groups A_glo scores, fixed for the run

    def store(client: ClientState) -> dict[int, np.ndarray]:
        """The store a GLDP client predicts with; its scope is every class it holds."""
        return inference_store(
            client.local_protos, server.global_protos, config.inference_mode,
            scope=client.timeline.classes,
        )

    def local_model(client: ClientState) -> tuple:
        """``(shared, store)``; a never-trained client gives its scope instead,
        and ``acc_local`` scores those with the global store as one block."""
        if client.params.shared is not initial:  # only an update gives local prototypes
            return client.params.shared, store(client)
        return initial, every_class if config.inference_mode == "gp" else client.timeline.classes

    def log(round_index: int, stage_index: int, metric: str, values: dict) -> None:
        """One row per client, then the ALL mean when there is any."""
        for cid, value in values.items():
            mlog.add(round_index, stage_index, algorithm, metric, cid, value)
        if values:
            mlog.add(round_index, stage_index, algorithm, metric, "ALL", np.mean(list(values.values())))

    for round_index in range(1, config.rounds + 1):
        sel_history: dict[int, list[float]] = defaultdict(list)

        def log_sel(stage_index: int, participants: list[int]) -> None:
            values = {}
            for cid in participants:
                client = clients[cid]
                if algorithm == "GLDP":
                    value = acc_sel_prototypes(
                        client.params.shared, store(client), client.timeline, stage_index
                    )
                else:
                    value = acc_sel_softmax(client.params, client.timeline, stage_index)
                if value is not None:
                    values[cid] = value
                    sel_history[cid].append(value)
            log(round_index, stage_index, A_SELECTED, values)

        selected = run_round(server, clients, config, round_index, after_stage=log_sel)
        drops = {c: forgetting(sel_history[c]) for c in selected if sel_history[c]}
        log(round_index, stage_count, FORGETTING, drops)
        if algorithm == "GLDP":
            a_glo = acc_global(server.shared, server.global_protos, test_sets, memo=a_glo_memo)
            models = [local_model(clients[c]) for c in order]
            a_loc = acc_local(models, test_sets, global_protos=server.global_protos,
                              memo=a_loc_memo)
        else:
            # FedRep's server holds no head: each client's own stands in.
            heads = [server.head or clients[c].params.head for c in order]
            a_glo = acc_global_softmax(server.shared, heads, test_sets, memo=a_glo_memo)
            a_loc = acc_local_softmax([clients[c].params for c in order], test_sets, memo=a_loc_memo)
        mlog.add(round_index, stage_count, algorithm, A_GLOBAL, "ALL", a_glo)
        mlog.add(round_index, stage_count, algorithm, A_LOCAL, "ALL", a_loc)
    return mlog


def audit_message_log(
    messages: list[RoundMessage], clients: dict[int, ClientState], algorithm: str
) -> list[str]:
    """Check client uploads only for *exact copies* of head parameters, raw
    inputs, or labels; an upload that an input can be computed from passes.

    Returns a list of human-readable violations (empty when clean). The
    allowed upload schema depends on the algorithm: personalized
    algorithms never upload the head.
    """
    personalizes = algorithm in PERSONALIZED_ALGORITHMS
    allowed = {"shared"} if personalizes else {"shared", "head"}
    if algorithm == "GLDP":
        allowed |= {"prototypes", "class_counts"}

    violations = []
    for i, msg in enumerate(messages):
        if msg.direction != "client_to_server":
            continue
        extra = set(msg.payload) - allowed
        if extra:
            violations.append(f"message {i}: unexpected payload keys {sorted(extra)}")
        client = clients[msg.sender]
        head = client.params.head
        for key, value in msg.payload.items():
            for array in _payload_arrays(value):
                if personalizes and array.shape == head.weight.shape and np.array_equal(array, head.weight):
                    violations.append(f"message {i}: key {key!r} carries head weights")
                if personalizes and array.shape == head.bias.shape and np.array_equal(array, head.bias):
                    violations.append(f"message {i}: key {key!r} carries head bias")
                for stage in client.timeline.stages:
                    for part_name, part in (("train", stage.train), ("test", stage.test)):
                        if array.shape == part.inputs.shape and array.size and np.array_equal(array, part.inputs):
                            violations.append(
                                f"message {i}: key {key!r} carries raw {part_name} inputs"
                            )
                        if (
                            array.shape == part.labels.shape
                            and array.size
                            and np.issubdtype(array.dtype, np.integer)
                            and np.array_equal(array, part.labels)
                        ):
                            violations.append(
                                f"message {i}: key {key!r} carries {part_name} labels"
                            )
    return violations


def _payload_arrays(value) -> list[np.ndarray]:
    if isinstance(value, LayerParams):
        return [value.weight, value.bias]
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return [array for v in value.values() for array in _payload_arrays(v)]
    return []
