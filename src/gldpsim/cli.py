"""Config-driven experiment runner: CSV metrics, ablations, SVG curves.

Config files are flat ``key = value`` lines (``#`` comments). Every flag
can also be supplied through an environment variable with the ``GLDPSIM_``
prefix (e.g. ``GLDPSIM_SEEDS=0,1,2``); explicit flags win over environment
values, which win over the config file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .errors import ConfigError, SimulationError
from .datagen import DatasetSpec, PartitionPlan
from .federation import ALGORITHMS, ExperimentConfig, run_experiment
from .metrics import MetricsLog
from .model import LossWeights, OptimizerConfig

ENV_PREFIX = "GLDPSIM_"

_EXIT_IO = 5


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# key -> (ExperimentConfig attribute path, parser, description); order fixed
# for canonical printing
_CONFIG_KEYS: dict[str, tuple[str, Callable[[str], object], str]] = {
    "algorithm": ("algorithm", str, "GLDP | FedAvg | FedRep | FedProx"),
    "rounds": ("rounds", int, "global training rounds"),
    "clients_per_round": ("clients_per_round", int, "clients selected per round"),
    "num_clients": ("plan.num_clients", int, "total clients"),
    "classes_per_client": ("plan.classes_per_client", int, "classes assigned to each client"),
    "num_stages": ("plan.num_stages", int, "stage tasks per client"),
    "imbalance_factor": ("plan.imbalance_factor", float, "long-tail imbalance factor"),
    "num_classes": ("dataset.num_classes", int, "classes in the dataset"),
    "input_dim": ("dataset.input_dim", int, "input feature dimension"),
    "samples_per_class": ("dataset.samples_per_class", int, "samples per class before long-tailing"),
    "center_scale": ("dataset.class_center_scale", float, "class center spread"),
    "noise_sigma": ("dataset.noise_sigma", float, "within-class noise"),
    "hidden_dim": ("embedding_dim", int, "embedding dimension"),
    "step_size": ("opt.step_size", float, "SGD step size"),
    "shared_epochs": ("opt.shared_epochs", int, "epochs on the shared layer"),
    "head_epochs": ("opt.head_epochs", int, "epochs on the head"),
    "weight_decay": ("opt.weight_decay", float, "SGD weight decay"),
    "batch_size": ("opt.batch_size", int, "mini-batch size"),
    "lambda": ("weights.relation_mix", float, "mix of the local relation loss, in [0, 1]"),
    "kl_temperature": ("weights.temperature", float, "softmax temperature of the local relation"),
    "use_local_relation": ("weights.use_local_relation", _parse_bool, "enable the local relation term"),
    "use_global_relation": ("weights.use_global_relation", _parse_bool, "enable the global relation term"),
    "beta": ("proto_momentum", float, "prototype moving-average retention, in [0, 1]"),
    "fedprox_mu": ("fedprox_coeff", float, "FedProx proximal coefficient"),
    "inference": ("inference_mode", str, "gp | lp"),
    "seed": ("seed", int, "experiment seed"),
}


def _config_to_values(config: ExperimentConfig) -> dict[str, object]:
    return {key: attrgetter(path)(config) for key, (path, _, _) in _CONFIG_KEYS.items()}


def _values_to_config(values: dict[str, object]) -> ExperimentConfig:
    """Build a config from key values."""
    fields: dict[str, dict[str, object]] = defaultdict(dict)
    for key, (path, _, _) in _CONFIG_KEYS.items():
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
    path = Path(path)
    with open(path) as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        _, parser, _ = _CONFIG_KEYS[key]
        try:
            values[key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key!r}: {exc}") from exc
    try:
        return _values_to_config(values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def print_config(config: ExperimentConfig) -> str:
    """Canonical text form; ``parse_config`` of this text is a fixpoint."""
    values = _config_to_values(config)
    lines = []
    for key in _CONFIG_KEYS:
        value = values[key]
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


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


@dataclass
class RunManifest:
    config_hash: str
    seeds: list[int]
    output_dir: str
    runs: list[dict] = field(default_factory=list)

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


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
    emit_curves: bool = False,
) -> RunManifest:
    """Execute configs x seeds, writing per-run and aggregate CSVs.

    Re-running the same manifest reproduces byte-identical CSVs.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    hasher = hashlib.sha256()
    for name, config in named_configs:
        hasher.update(name.encode())
        hasher.update(print_config(config).encode())
    hasher.update(json.dumps(seeds).encode())
    manifest = RunManifest(
        config_hash=hasher.hexdigest(), seeds=list(seeds), output_dir=str(out)
    )

    combined = MetricsLog()
    for name, config in named_configs:
        logs = []
        for seed in seeds:
            started = time.perf_counter()
            mlog = run_experiment(config.with_seed(seed))
            elapsed = time.perf_counter() - started
            csv_path = out / f"{name}_seed{seed}.csv"
            mlog.to_csv(csv_path)
            manifest.runs.append(
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

    combined_path = out / "combined_mean.csv"
    combined.to_csv(combined_path)
    if emit_curves:
        emit_svg(combined_path, "A_sel", out / "A_sel.svg")
    manifest.save(out / "manifest.json")
    return manifest


_SVG_WIDTH, _SVG_HEIGHT = 640, 400
_SVG_LEFT, _SVG_RIGHT, _SVG_TOP, _SVG_BOTTOM = 60, 20, 20, 45
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def svg_point(
    round_index: float, value: float, round_min: float, round_max: float
) -> tuple[float, float]:
    """Affine data-to-pixel mapping used by :func:`emit_svg`."""
    span = max(1.0, round_max - round_min)
    x = _SVG_LEFT + (round_index - round_min) * (_SVG_WIDTH - _SVG_LEFT - _SVG_RIGHT) / span
    y = (_SVG_HEIGHT - _SVG_BOTTOM) - value * (_SVG_HEIGHT - _SVG_TOP - _SVG_BOTTOM)
    return x, y


def emit_svg(csv_path: str | Path, metric: str, out_path: str | Path) -> Path:
    """Plot one polyline per algorithm for an ALL-scope metric.

    When a round logs the metric at several stages, the last stage's value
    is used, giving one point per round.
    """
    mlog = MetricsLog.from_csv(csv_path)
    series: dict[str, dict[int, tuple[int, float]]] = {}
    for row in mlog.select(metric, "ALL"):
        per_round = series.setdefault(row.algorithm, {})
        current = per_round.get(row.round_index)
        if current is None or row.stage_index >= current[0]:
            per_round[row.round_index] = (row.stage_index, row.value)

    rounds = sorted({k for s in series.values() for k in s})
    round_min = float(rounds[0]) if rounds else 0.0
    round_max = float(rounds[-1]) if rounds else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{_SVG_LEFT}" y1="{_SVG_HEIGHT - _SVG_BOTTOM}" '
        f'x2="{_SVG_WIDTH - _SVG_RIGHT}" y2="{_SVG_HEIGHT - _SVG_BOTTOM}" stroke="black"/>',
        f'<line x1="{_SVG_LEFT}" y1="{_SVG_TOP}" x2="{_SVG_LEFT}" '
        f'y2="{_SVG_HEIGHT - _SVG_BOTTOM}" stroke="black"/>',
    ]
    for tick in range(6):
        value = tick / 5.0
        _, y = svg_point(round_min, value, round_min, round_max)
        parts.append(
            f'<text x="{_SVG_LEFT - 8}" y="{y:.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-size="11">{value:.1f}</text>'
        )
        parts.append(
            f'<line x1="{_SVG_LEFT - 4}" y1="{y:.2f}" x2="{_SVG_LEFT}" y2="{y:.2f}" stroke="black"/>'
        )
    if rounds:
        tick_step = max(1, (rounds[-1] - rounds[0]) // 8 or 1)
        for r in range(rounds[0], rounds[-1] + 1, tick_step):
            x, _ = svg_point(float(r), 0.0, round_min, round_max)
            base_y = _SVG_HEIGHT - _SVG_BOTTOM
            parts.append(
                f'<line x1="{x:.2f}" y1="{base_y}" x2="{x:.2f}" y2="{base_y + 4}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{base_y + 16}" text-anchor="middle" font-size="11">{r}</text>'
            )
    parts.append(
        f'<text x="{(_SVG_LEFT + _SVG_WIDTH - _SVG_RIGHT) / 2:.2f}" '
        f'y="{_SVG_HEIGHT - 8}" text-anchor="middle" font-size="12">round</text>'
    )
    parts.append(
        f'<text x="14" y="{(_SVG_TOP + _SVG_HEIGHT - _SVG_BOTTOM) / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{(_SVG_TOP + _SVG_HEIGHT - _SVG_BOTTOM) / 2:.2f})">{metric}</text>'
    )
    for idx, name in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{x:.2f},{y:.2f}"
            for x, y in (
                svg_point(float(r), series[name][r][1], round_min, round_max)
                for r in sorted(series[name])
            )
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{_SVG_WIDTH - _SVG_RIGHT - 4}" y="{_SVG_TOP + 14 + 14 * idx}" '
            f'text-anchor="end" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    out_path = Path(out_path)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _env_flag(name: str) -> bool:
    """Boolean environment mirror of a flag; unset or empty means off."""
    raw = _env(name)
    if not raw:
        return False
    try:
        return _parse_bool(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid {ENV_PREFIX}{name} value: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldpsim",
        description="Deterministic federated-learning simulator with prototype exchange.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seeds", help="comma-separated experiment seeds (default: 0)")
    parser.add_argument("--algorithm", choices=ALGORITHMS, help="override the algorithm")
    parser.add_argument(
        "--ablation", action="store_true", default=None,
        help="run the four loss-ablation variants of the config",
    )
    parser.add_argument("--inference", choices=["gp", "lp"], help="prototype inference mode")
    parser.add_argument("--out", help="output directory (default: runs)")
    parser.add_argument(
        "--emit-svg", action="store_true", default=None,
        help="write an A_sel-vs-round SVG next to the CSVs",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config_path = args.config if args.config is not None else _env("CONFIG")
        if config_path is not None:
            config = parse_config(config_path)
            base_name = Path(config_path).stem
        else:
            config = ExperimentConfig()
            base_name = "experiment"

        algorithm = args.algorithm or _env("ALGORITHM")
        if algorithm is not None:
            config = replace(config, algorithm=algorithm)
        inference = args.inference or _env("INFERENCE")
        if inference is not None:
            config = replace(config, inference_mode=inference)

        seeds_raw = args.seeds if args.seeds is not None else _env("SEEDS")
        try:
            seeds = [int(s) for s in seeds_raw.split(",")] if seeds_raw else [config.seed]
        except ValueError as exc:
            raise ConfigError(f"invalid --seeds value {seeds_raw!r}: {exc}") from exc

        out_dir = args.out if args.out is not None else (_env("OUT") or "runs")
        ablation = args.ablation if args.ablation is not None else _env_flag("ABLATION")
        emit_curves = args.emit_svg if args.emit_svg is not None else _env_flag("EMIT_SVG")

        if ablation:
            named = [(f"{base_name}_{v}", cfg) for v, cfg in ablation_variants(config)]
        else:
            named = [(f"{base_name}_{config.algorithm.lower()}", config)]
        manifest = run(named, seeds, out_dir, emit_curves=emit_curves)
        print(f"wrote {len(manifest.runs)} run(s) to {manifest.output_dir}")
        return 0
    except SimulationError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
