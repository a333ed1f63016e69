"""Deterministic simulator for federated learning with global-local
dynamic prototypes on staged, long-tailed, non-iid client data."""

from .datagen import (
    ClientTimeline,
    DatasetSpec,
    LabeledSet,
    PartitionPlan,
    StageTask,
    apply_longtail,
    longtail_class_counts,
    make_synthetic_dataset,
    partition_clients,
)
from .errors import ConfigError, DataError, ProtocolError, SimulationError
from .federation import (
    ALGORITHMS,
    ClientState,
    ExperimentConfig,
    RoundMessage,
    ServerState,
    aggregate_shared,
    audit_message_log,
    dump_message_log,
    initialize_experiment,
    run_experiment,
    run_round,
    run_stage,
    select_clients,
)
from .metrics import (
    MetricsLog,
    acc_global,
    acc_local,
    acc_sel_prototypes,
    acc_sel_softmax,
    forgetting,
)
from .model import (
    LayerParams,
    LossWeights,
    ModelParams,
    OptimizerConfig,
    forward,
    grad_total,
    init_params,
    local_update,
    loss_ce,
    loss_global_relation,
    loss_local_relation,
    loss_total,
)
from .prototypes import (
    compute,
    inference_store,
    update_global,
    update_local,
)

__version__ = "0.1.0"
