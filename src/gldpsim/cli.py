"""Config-driven experiment runner: CSV metrics and loss ablations.

Config files are flat ``key = value`` lines (``#`` comments), read as
UTF-8. Command-line flags override the config file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import replace
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .errors import ConfigError, SimulationError
from .datagen import DatasetSpec, PartitionPlan
from .federation import ALGORITHMS, INFERENCE_MODES, ExperimentConfig, run_experiment
from .metrics import MetricsLog
from .model import LossWeights, OptimizerConfig

_EXIT_IO = 5


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


# key -> (ExperimentConfig attribute path, parser); order fixed for canonical printing
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "algorithm": ("algorithm", str),
    "rounds": ("rounds", int),
    "clients_per_round": ("clients_per_round", int),
    "num_clients": ("plan.num_clients", int),
    "classes_per_client": ("plan.classes_per_client", int),
    "num_stages": ("plan.num_stages", int),
    "imbalance_factor": ("plan.imbalance_factor", _parse_float),
    "num_classes": ("dataset.num_classes", int),
    "input_dim": ("dataset.input_dim", int),
    "samples_per_class": ("dataset.samples_per_class", int),
    "center_scale": ("dataset.class_center_scale", _parse_float),
    "noise_sigma": ("dataset.noise_sigma", _parse_float),
    "hidden_dim": ("embedding_dim", int),
    "step_size": ("opt.step_size", _parse_float),
    "shared_epochs": ("opt.shared_epochs", int),
    "head_epochs": ("opt.head_epochs", int),
    "weight_decay": ("opt.weight_decay", _parse_float),
    "batch_size": ("opt.batch_size", int),
    "lambda": ("weights.relation_mix", _parse_float),
    "kl_temperature": ("weights.temperature", _parse_float),
    "beta": ("proto_momentum", _parse_float),
    "fedprox_mu": ("fedprox_coeff", _parse_float),
    "inference": ("inference_mode", str),
    "seed": ("seed", int),
}


# dataclass field -> config key, to report range errors under the key written
_FIELD_KEYS = {path.rpartition(".")[2]: key for key, (path, _) in _CONFIG_KEYS.items()}


def _config_to_values(config: ExperimentConfig) -> dict[str, object]:
    return {key: attrgetter(path)(config) for key, (path, _) in _CONFIG_KEYS.items()}


def _values_to_config(values: dict[str, object]) -> ExperimentConfig:
    """Build a config from key values."""
    fields: dict[str, dict[str, object]] = defaultdict(dict)
    for key, (path, _) in _CONFIG_KEYS.items():
        owner, _, attr = path.rpartition(".")
        fields[owner][attr] = values[key]
    return ExperimentConfig(
        **fields[""],
        dataset=DatasetSpec(**fields["dataset"]),
        plan=PartitionPlan(**fields["plan"]),
        opt=OptimizerConfig(**fields["opt"]),
        weights=LossWeights(**fields["weights"]),
    )


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read a ``key = value`` config file, filling defaults for absent keys."""
    values = _config_to_values(ExperimentConfig())
    key_lines: dict[str, int] = {}
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(
                f"{path}:{lineno}: repeated key {key!r} (first set on line {key_lines[key]})"
            )
        _, parser = _CONFIG_KEYS[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key!r}: {exc}") from exc
        key_lines[key] = lineno
    try:
        return _values_to_config(values)
    except ConfigError as exc:
        # Range checks name the dataclass field first; report the key instead.
        key = _FIELD_KEYS.get(exc.field)
        if key is None:
            raise ConfigError(f"{path}: {exc}") from exc
        rest = str(exc).removeprefix(f"{exc.field} ")
        if key == "clients_per_round" and key not in key_lines and "num_clients" in key_lines:
            # Only the num_clients the file set can put the default out of range.
            key = "num_clients"
            rest = (
                f"must be at least clients_per_round ({values['clients_per_round']}), "
                f"got {values[key]}"
            )
        where = f"{path}:{key_lines[key]}" if key in key_lines else str(path)
        raise ConfigError(f"{where}: {key} {rest}") from exc


def print_config(config: ExperimentConfig) -> str:
    """Canonical text form; ``parse_config`` of this text is a fixpoint."""
    return "".join(
        f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
        for key, value in _config_to_values(config).items()
    )


def ablation_variants(base: ExperimentConfig) -> list[tuple[str, ExperimentConfig]]:
    """The four loss-ablation rows: full, each relation removed, both removed.

    Removing both relation terms reduces the update to split-phase
    cross-entropy with softmax inference, i.e. the FedRep baseline.
    """
    full = replace(base, algorithm="GLDP")
    return [
        ("full", full),
        ("no_local_relation", replace(full, weights=replace(base.weights, relation_mix=0.0))),
        ("no_global_relation", replace(full, weights=replace(base.weights, relation_mix=1.0))),
        ("no_relations", replace(base, algorithm="FedRep")),
    ]


def _aggregate_rows(logs: list[MetricsLog]) -> list[tuple[int, int, str, str, float, float]]:
    """Mean/stddev of ALL-scope rows across seeds, keyed by (round, stage, metric)."""
    grouped: dict[tuple[int, int, str, str], list[float]] = {}
    for mlog in logs:
        for row in mlog.rows:
            if row.scope != "ALL":
                continue
            grouped.setdefault(
                (row.round_index, row.stage_index, row.algorithm, row.metric), []
            ).append(row.value)
    out = []
    for (round_index, stage_index, algorithm, metric), values in sorted(grouped.items()):
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / n
        out.append((round_index, stage_index, algorithm, metric, mean, var**0.5))
    return out


def run(
    named_configs: list[tuple[str, ExperimentConfig]],
    seeds: list[int],
    out_dir: str | Path,
) -> dict:
    """Execute configs x seeds, writing per-run and aggregate CSVs.

    Returns the dict written to ``manifest.json``. Re-running the same
    manifest reproduces byte-identical CSVs.
    """
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    # Seeded configs are checked before the output directory exists.
    seeded = [(name, [config.with_seed(seed) for seed in seeds]) for name, config in named_configs]
    hasher = hashlib.sha256()
    for name, config in named_configs:
        hasher.update(name.encode())
        hasher.update(print_config(config).encode())
    hasher.update(json.dumps(seeds).encode())

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc
    manifest = {"config_hash": hasher.hexdigest(), "seeds": list(seeds),
                "output_dir": str(out), "runs": []}

    combined = MetricsLog()
    for name, configs in seeded:
        logs = []
        for seed, config in zip(seeds, configs):
            started = time.perf_counter()
            mlog = run_experiment(config)
            elapsed = time.perf_counter() - started
            csv_path = out / f"{name}_seed{seed}.csv"
            mlog.to_csv(csv_path)
            manifest["runs"].append(
                {
                    "config": name,
                    "seed": seed,
                    "csv": str(csv_path),
                    "wall_clock_sec": round(elapsed, 3),
                }
            )
            logs.append(mlog)

        aggregate_path = out / f"{name}_aggregate.csv"
        with open(aggregate_path, "w", newline="") as fh:
            fh.write("round,stage,algorithm,metric,scope,mean,stddev\n")
            for round_index, stage_index, algorithm, metric, mean, std in _aggregate_rows(logs):
                fh.write(
                    f"{round_index},{stage_index},{algorithm},{metric},ALL,{mean!r},{std!r}\n"
                )
                # Mean curves keyed by config name so plots separate ablation variants.
                combined.add(round_index, stage_index, name, metric, "ALL", mean)

    combined.to_csv(out / "combined_mean.csv")
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldpsim",
        description="Deterministic federated-learning simulator with prototype exchange.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--seeds", help="comma-separated experiment seeds (default: the config file's seed)"
    )
    parser.add_argument("--algorithm", choices=ALGORITHMS, help="override the algorithm")
    parser.add_argument(
        "--ablation", action="store_true",
        help="run the four loss-ablation variants of the config",
    )
    parser.add_argument("--inference", choices=INFERENCE_MODES, help="prototype inference mode")
    parser.add_argument("--out", default="runs", help="output directory (default: runs)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = parse_config(args.config)
            base_name = Path(args.config).stem
        else:
            config = ExperimentConfig()
            base_name = "experiment"
        if args.algorithm is not None:
            config = replace(config, algorithm=args.algorithm)
        if args.inference is not None:
            config = replace(config, inference_mode=args.inference)

        try:
            seeds = [config.seed] if args.seeds is None else [int(s) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise ConfigError(f"invalid --seeds value {args.seeds!r}: {exc}") from exc

        if args.ablation:
            named = [(f"{base_name}_{v}", cfg) for v, cfg in ablation_variants(config)]
        else:
            named = [(f"{base_name}_{config.algorithm.lower()}", config)]
        manifest = run(named, seeds, args.out)
        print(f"wrote {len(manifest['runs'])} run(s) to {manifest['output_dir']}")
        return 0
    except SimulationError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
