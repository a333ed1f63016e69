"""Print one sha256 line per reference output, for byte-identity checks.

Run it on two trees (or twice on one) and diff the outputs:

    PYTHONPATH=src python tests/identity.py > identity.txt

It covers the 28 desk CSVs (`--algorithm {GLDP,FedAvg,FedRep,FedProx}
--seeds 0,1`, `--ablation --seeds 0`, `--inference gp --seeds 0`), the 6
manifest config hashes of those runs, the 8 message dumps (6 desk rounds x
4 algorithms x seeds 0,1), the one-stage desk CSV, desk_large seed 0
for GLDP and FedRep, the stage sets of the population-size partition
(desk with 500 clients and 5000 samples per class, seed 0), and that
population's 10-round GLDP CSV under lp and under gp inference: 54 lines.
Digests hold on one platform only. pytest does not collect this file; a
run takes about half a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from gldpsim import cli
from gldpsim.datagen import apply_longtail, make_synthetic_dataset, partition_clients
from gldpsim.federation import (
    ALGORITHMS,
    dump_message_log,
    initialize_experiment,
    run_experiment,
    run_round,
)

ROOT = Path(__file__).resolve().parents[1]
DESK = ROOT / "configs" / "desk.cfg"


def cli_runs(work: Path) -> list[tuple[str, list[str]]]:
    """(output directory, CLI arguments) of every CLI run the check covers."""
    one_stage = work / "desk_one.cfg"
    one_stage.write_text(DESK.read_text().replace("num_stages = 5", "num_stages = 1"))
    runs = [(alg, ["--config", str(DESK), "--algorithm", alg, "--seeds", "0,1"])
            for alg in ALGORITHMS]
    runs += [
        ("ablation", ["--config", str(DESK), "--ablation", "--seeds", "0"]),
        ("gp", ["--config", str(DESK), "--inference", "gp", "--seeds", "0"]),
        ("one_stage", ["--config", str(one_stage), "--seeds", "0"]),
    ]
    runs += [(f"large_{alg}", ["--config", str(ROOT / "configs" / "desk_large.cfg"),
                               "--algorithm", alg, "--seeds", "0"])
             for alg in ("GLDP", "FedRep")]
    return runs


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def partition_digest() -> str:
    """sha256 over every stage's train and test inputs and labels, in client
    and stage order, of the population-size partition at seed 0."""
    desk = cli.parse_config(DESK)
    plan = replace(desk.plan, num_clients=500)
    data = make_synthetic_dataset(replace(desk.dataset, samples_per_class=5000), 0)
    sha = hashlib.sha256()
    for timeline in partition_clients(apply_longtail(data, plan.imbalance_factor, 0), plan, 0):
        for stage in timeline.stages:
            for part in (stage.train, stage.test):
                for array in (part.inputs, part.labels):
                    sha.update(repr(array.shape).encode())
                    sha.update(array.tobytes())
    return sha.hexdigest()


def population_digest(work: Path, mode: str) -> str:
    """sha256 of the GLDP CSV of the population-size run (the partition
    above), 10 rounds at seed 0, under inference ``mode``."""
    desk = cli.parse_config(DESK)
    config = replace(desk, rounds=10, inference_mode=mode,
                     plan=replace(desk.plan, num_clients=500),
                     dataset=replace(desk.dataset, samples_per_class=5000)).with_seed(0)
    path = work / f"population_gldp_{mode}_seed0.csv"
    run_experiment(config).to_csv(path)
    return digest(path)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, argv in cli_runs(work):
            out = work / name
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv + ["--out", str(out)]) != 0:
                    sys.exit(f"run {name} failed")
            for csv in sorted(out.glob("*.csv")):
                print(f"{digest(csv)}  {name}/{csv.name}")
            if name in ALGORITHMS or name in ("ablation", "gp"):
                config_hash = json.loads((out / "manifest.json").read_text())["config_hash"]
                print(f"{config_hash}  {name}/config_hash")

        desk = cli.parse_config(DESK)
        for alg in ALGORITHMS:
            for seed in (0, 1):
                config = replace(desk, algorithm=alg, rounds=6).with_seed(seed)
                server, clients = initialize_experiment(config)
                log: list = []
                for k in range(1, config.rounds + 1):
                    run_round(server, clients, config, k, log)
                dump = work / f"messages-{alg}-seed{seed}.jsonl"
                dump_message_log(log, dump)
                print(f"{digest(dump)}  {dump.name}")
    print(f"{partition_digest()}  partition-population-seed0")
    # Most population clients never train, so these runs score A_loc's block.
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("lp", "gp"):
            print(f"{population_digest(Path(tmp), mode)}  population_gldp_{mode}_seed0.csv")


if __name__ == "__main__":
    main()
