import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gldpsim.cli import _CONFIG_KEYS, ablation_variants, main, parse_config, print_config, run
from gldpsim.datagen import DatasetSpec, PartitionPlan
from gldpsim.errors import ConfigError
from gldpsim.federation import ALGORITHMS, INFERENCE_MODES, ExperimentConfig
from gldpsim.model import LossWeights, OptimizerConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def fast_config() -> ExperimentConfig:
    return ExperimentConfig(
        rounds=1,
        clients_per_round=2,
        dataset=DatasetSpec(num_classes=4, input_dim=5, samples_per_class=20),
        plan=PartitionPlan(num_clients=3, classes_per_client=2, num_stages=2),
        opt=OptimizerConfig(step_size=0.02, shared_epochs=1, head_epochs=1, batch_size=16),
        embedding_dim=6,
        seed=0,
    )


FAST_FILE = """
# fast desk test
rounds = 1
clients_per_round = 2
num_clients = 3
classes_per_client = 2
num_stages = 2
imbalance_factor = 1.0
num_classes = 4
input_dim = 5
samples_per_class = 20
hidden_dim = 6
shared_epochs = 1
head_epochs = 1
step_size = 0.02
batch_size = 16
"""

# Every config key with a non-default value and the ExperimentConfig
# attribute it must set, in canonical print order.
KEY_CASES = [
    ("algorithm", "FedProx", "algorithm", "FedProx"),
    ("rounds", "3", "rounds", 3),
    ("clients_per_round", "5", "clients_per_round", 5),
    ("num_clients", "30", "plan.num_clients", 30),
    ("classes_per_client", "3", "plan.classes_per_client", 3),
    ("num_stages", "4", "plan.num_stages", 4),
    ("imbalance_factor", "10", "plan.imbalance_factor", 10.0),
    ("num_classes", "8", "dataset.num_classes", 8),
    ("input_dim", "12", "dataset.input_dim", 12),
    ("samples_per_class", "50", "dataset.samples_per_class", 50),
    ("center_scale", "3.5", "dataset.class_center_scale", 3.5),
    ("noise_sigma", "1.5", "dataset.noise_sigma", 1.5),
    ("hidden_dim", "32", "embedding_dim", 32),
    ("step_size", "0.05", "opt.step_size", 0.05),
    ("shared_epochs", "3", "opt.shared_epochs", 3),
    ("head_epochs", "5", "opt.head_epochs", 5),
    ("weight_decay", "0.001", "opt.weight_decay", 0.001),
    ("batch_size", "16", "opt.batch_size", 16),
    ("lambda", "0.25", "weights.relation_mix", 0.25),
    ("kl_temperature", "2.0", "weights.temperature", 2.0),
    ("beta", "0.75", "proto_momentum", 0.75),
    ("fedprox_mu", "0.1", "fedprox_coeff", 0.1),
    ("inference", "gp", "inference_mode", "gp"),
    ("seed", "7", "seed", 7),
]


FLOAT_KEYS = [case[0] for case in KEY_CASES if isinstance(case[3], float)]

# Every key with a range check on its value alone: (key, bad value, the rest
# of the message after the key).
RANGE_CASES = [
    ("algorithm", "SGD", "must be one of ('GLDP', 'FedAvg', 'FedRep', 'FedProx'), got 'SGD'"),
    ("rounds", "0", "must be positive, got 0"),
    ("clients_per_round", "0", "must be in [1, 20], got 0"),
    ("num_clients", "0", "must be >= 1, got 0"),
    ("classes_per_client", "0", "must be >= 1, got 0"),
    ("num_stages", "0", "must be >= 1, got 0"),
    ("imbalance_factor", "0.5", "must be >= 1, got 0.5"),
    ("num_classes", "1", "must be >= 2, got 1"),
    ("input_dim", "1", "must be >= 2, got 1"),
    ("samples_per_class", "0", "must be >= 1, got 0"),
    ("center_scale", "0", "must be positive, got 0.0"),
    ("noise_sigma", "-1", "must be positive, got -1.0"),
    ("hidden_dim", "0", "must be positive, got 0"),
    ("step_size", "-0.5", "must be non-negative, got -0.5"),
    ("shared_epochs", "0", "must be positive, got 0"),
    ("head_epochs", "0", "must be positive, got 0"),
    ("weight_decay", "-1", "must be non-negative, got -1.0"),
    ("batch_size", "0", "must be positive, got 0"),
    ("lambda", "1.3", "must be in [0, 1], got 1.3"),
    ("kl_temperature", "0", "must be positive, got 0.0"),
    ("beta", "1.5", "must be in [0, 1], got 1.5"),
    ("fedprox_mu", "-0.1", "must be non-negative, got -0.1"),
    ("inference", "knn", "must be one of ('gp', 'lp'), got 'knn'"),
    ("seed", "-1", "must be a non-negative integer, got -1"),
]


def with_attribute(config: ExperimentConfig, path: str, value) -> ExperimentConfig:
    owner, _, attr = path.partition(".")
    if not attr:
        return replace(config, **{owner: value})
    return replace(config, **{owner: replace(getattr(config, owner), **{attr: value})})


def finite_floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    """Any config that passes every range check, over the full value ranges."""
    positive_ints = st.integers(1, 10**6)
    positive = finite_floats(min_value=0.0, exclude_min=True)
    non_negative = finite_floats(min_value=0.0)
    unit = finite_floats(min_value=0.0, max_value=1.0)
    num_classes = draw(st.integers(2, 10**6))
    # the partition limits: at most every class, and enough to cover them
    classes_per_client = draw(st.integers(1, num_classes))
    num_clients = draw(st.integers(-(-num_classes // classes_per_client), 10**6))
    return ExperimentConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        rounds=draw(positive_ints),
        clients_per_round=draw(st.integers(1, num_clients)),
        dataset=DatasetSpec(
            num_classes=num_classes,
            input_dim=draw(st.integers(2, 10**6)),
            samples_per_class=draw(positive_ints),
            class_center_scale=draw(positive),
            noise_sigma=draw(positive),
        ),
        plan=PartitionPlan(
            num_clients=num_clients,
            classes_per_client=classes_per_client,
            num_stages=draw(positive_ints),
            imbalance_factor=draw(finite_floats(min_value=1.0)),
        ),
        opt=OptimizerConfig(
            step_size=draw(non_negative),
            shared_epochs=draw(positive_ints),
            head_epochs=draw(positive_ints),
            weight_decay=draw(non_negative),
            batch_size=draw(positive_ints),
        ),
        weights=LossWeights(relation_mix=draw(unit), temperature=draw(positive)),
        embedding_dim=draw(positive_ints),
        proto_momentum=draw(unit),
        fedprox_coeff=draw(non_negative),
        inference_mode=draw(st.sampled_from(INFERENCE_MODES)),
        seed=draw(st.integers(0, 2**63)),
    )


class TestParseConfig:
    def test_key_cases_cover_every_printed_key(self):
        printed = [line.split(" = ")[0] for line in print_config(ExperimentConfig()).splitlines()]
        assert [case[0] for case in KEY_CASES] == printed

    def test_key_cases_cover_every_config_field(self):
        # A field without a key would be dropped by print_config and the
        # manifest config hash.
        def leaves(obj, prefix=""):
            for f in fields(obj):
                value = getattr(obj, f.name)
                if is_dataclass(value):
                    yield from leaves(value, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        assert sorted(leaves(ExperimentConfig())) == sorted(case[2] for case in KEY_CASES)

    @pytest.mark.parametrize("key, text, path, value", KEY_CASES, ids=[c[0] for c in KEY_CASES])
    def test_each_key_sets_only_its_attribute(self, tmp_path, key, text, path, value):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {text}\n")
        config = parse_config(cfg)
        assert config != ExperimentConfig()
        assert config == with_attribute(ExperimentConfig(), path, value)

    def test_minimal_file_fills_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("algorithm = GLDP\n")
        config = parse_config(path)
        assert config.opt.step_size == 0.01
        assert config.weights.relation_mix == 0.5
        assert config.proto_momentum == 0.5
        assert config.rounds == 50
        assert config.opt.shared_epochs + config.opt.head_epochs == 6

    def test_out_of_range_value_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 1.3\n")
        with pytest.raises(ConfigError, match="relation_mix|lambda"):
            parse_config(path)

    def test_range_cases_cover_every_key(self):
        assert [case[0] for case in RANGE_CASES] == [case[0] for case in KEY_CASES]

    @pytest.mark.parametrize("key, text, rest", RANGE_CASES, ids=[c[0] for c in RANGE_CASES])
    def test_range_error_names_key_and_line(self, tmp_path, capsys, key, text, rest):
        path = tmp_path / "r.cfg"
        other = "seed = 0" if key == "rounds" else "rounds = 3"  # a key is set once
        path.write_text(f"# range check\n{other}\n{key} = {text}\n")
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {path}:3: {key} {rest}\n"

    def test_unknown_key_names_line(self, tmp_path, capsys):
        # lambda = 0 / 1 and FedRep remove the relation terms; no key switches them.
        for key, text in (
            ("shrink_factor", "2"), ("use_local_relation", "false"), ("use_global_relation", "no"),
        ):
            path = tmp_path / "bad.cfg"
            path.write_text(f"rounds = 3\n{key} = {text}\n")
            with pytest.raises(ConfigError, match=rf"bad\.cfg:2: unknown key '{key}'"):
                parse_config(path)
            code = main(["--config", str(path), "--out", str(tmp_path / "out")])
            assert code == 2
            assert capsys.readouterr().err == (
                f"configuration error: {path}:2: unknown key '{key}'\n"
            )

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("rounds = 3\n# again\nrounds = 5\n")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {path}:3: repeated key 'rounds' (first set on line 1)\n"
        )
        assert not out.exists()

    def test_default_clients_per_round_over_num_clients_names_num_clients(self, tmp_path, capsys):
        path = tmp_path / "x.cfg"
        path.write_text("rounds = 2\nnum_clients = 5\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {path}:2: num_clients must be at least "
            "clients_per_round (10), got 5\n"
        )
        # A clients_per_round the file set stays the key named.
        path.write_text("clients_per_round = 8\nnum_clients = 5\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {path}:1: clients_per_round must be in [1, 5], got 8\n"
        )

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("classes_per_client = 11\n", ":1",
             "classes_per_client must be at most num_classes (10), got 11"),
            ("num_clients = 2\nclients_per_round = 2\nclasses_per_client = 4\n", ":1",
             "num_clients x classes_per_client (2 x 4) must cover num_classes (10)"),
            # The file set only num_classes, so no line holds the key named.
            ("num_classes = 3\n", "",
             "classes_per_client must be at most num_classes (3), got 4"),
        ],
        ids=["classes_per_client", "coverage", "defaulted_key"],
    )
    def test_partition_limits_fail_at_parse_time(self, tmp_path, capsys, text, where, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {path}{where}: {message}\n"
        assert not out.exists()

    def test_malformed_value_names_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("rounds = many\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            parse_config(path)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_non_finite_float_names_line(self, tmp_path, key, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"rounds = 3\n{key} = {text}\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:2: invalid value for '{key}'"):
            parse_config(path)

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "utf16.cfg"
        path.write_bytes(b"\xff\xfe" + "rounds = 3\n".encode("utf-16-le"))
        with pytest.raises(ConfigError, match=r"utf16\.cfg: not a UTF-8 text file"):
            parse_config(path)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Some editors save UTF-8 with a leading BOM; it is not part of the first key.
        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + desk.read_bytes())
        assert parse_config(path) == parse_config(desk)
        assert print_config(parse_config(path)) == print_config(parse_config(desk))

    def test_parse_print_fixpoint_on_desk_config(self, tmp_path):
        path = tmp_path / "desk.cfg"
        path.write_text(
            "num_clients = 20\nclasses_per_client = 4\nnum_stages = 5\n"
            "imbalance_factor = 50\nrounds = 30\nclients_per_round = 10\n"
        )
        config = parse_config(path)
        canonical = print_config(config)
        reparsed_path = tmp_path / "canonical.cfg"
        reparsed_path.write_text(canonical)
        reparsed = parse_config(reparsed_path)
        assert reparsed == config
        assert print_config(reparsed) == canonical

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=valid_configs())
    def test_print_parse_round_trips_valid_configs(self, tmp_path, config):
        path = tmp_path / "printed.cfg"
        text = print_config(config)
        path.write_text(text)
        assert parse_config(path) == config
        assert print_config(parse_config(path)) == text

    def test_readme_config_table_lists_every_key(self):
        section = README.read_text().split("### Config files", 1)[1].split("\n## ", 1)[0]
        first_cells = [line.split(" | ")[0] for line in section.splitlines() if line.startswith("| `")]
        keys = [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]
        assert sorted(keys) == sorted(_CONFIG_KEYS)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\n# comment\nrounds = 2  # trailing\n\n")
        assert parse_config(path).rounds == 2


class TestRun:
    def test_three_seeds_make_three_csvs_plus_aggregate(self, tmp_path):
        manifest = run([("fast", fast_config())], [0, 1, 2], tmp_path / "out")
        assert len(manifest["runs"]) == 3
        for entry in manifest["runs"]:
            assert (tmp_path / "out" / f"fast_seed{entry['seed']}.csv").exists()
        aggregate = (tmp_path / "out" / "fast_aggregate.csv").read_text().splitlines()
        assert aggregate[0] == "round,stage,algorithm,metric,scope,mean,stddev"
        assert len(aggregate) > 1
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        run([("fast", fast_config())], [0, 1], tmp_path / "a")
        run([("fast", fast_config())], [0, 1], tmp_path / "b")
        for name in ("fast_seed0.csv", "fast_seed1.csv", "fast_aggregate.csv", "combined_mean.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unwritable_output_dir_fails_before_compute(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            run([("fast", fast_config())], [0], blocker / "nested")

    def test_ablation_variants_cover_table_rows(self):
        variants = dict(ablation_variants(fast_config()))
        assert set(variants) == {"full", "no_local_relation", "no_global_relation", "no_relations"}
        assert variants["full"].algorithm == "GLDP"
        assert variants["no_local_relation"].weights.relation_mix == 0.0
        assert variants["no_global_relation"].weights.relation_mix == 1.0
        assert variants["no_relations"].algorithm == "FedRep"


def write_fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_FILE)
    return path


class TestMainEntry:
    def test_successful_run_returns_zero(self, tmp_path, capsys):
        path = write_fast_config(tmp_path)
        code = main(["--config", str(path), "--seeds", "0", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "fast_gldp_seed0.csv").exists()
        assert "wrote 1 run(s)" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda = 7\n")
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        path = write_fast_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["--config", str(path), "--out", str(blocker / "nested")])
        assert code == 5

    def test_divergent_training_exit_code(self, tmp_path, capsys):
        path = tmp_path / "divergent.cfg"
        path.write_text(FAST_FILE.replace("step_size = 0.02", "step_size = 1e200"))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "update is not finite" in capsys.readouterr().err

    def test_overflowing_center_scale_exit_code(self, tmp_path, capsys):
        # On desk, squared gaps between centers of scale 1e200 overflow to inf:
        # a data error before any training, and no numpy warning on the way.
        desk = (Path(__file__).resolve().parents[1] / "configs" / "desk.cfg").read_text()
        path = tmp_path / "huge.cfg"
        path.write_text(desk.replace("center_scale = 2.0", "center_scale = 1e200"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "class centers coincide or overflow" in capsys.readouterr().err

    def test_overflowing_noise_exit_code(self, tmp_path, capsys):
        # On desk, noise of scale 1e308 overflows the samples to +-inf: a data
        # error before any training, and no numpy warning on the way.
        desk = (Path(__file__).resolve().parents[1] / "configs" / "desk.cfg").read_text()
        path = tmp_path / "noisy.cfg"
        path.write_text(desk.replace("noise_sigma = 2.5", "noise_sigma = 1e308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "samples overflow" in capsys.readouterr().err

    def test_huge_finite_noise_fails_in_training(self, tmp_path, capsys):
        # Noise of scale 1e305 leaves the samples finite; training then
        # overflows, and the protocol error names round, stage and client.
        desk = (Path(__file__).resolve().parents[1] / "configs" / "desk.cfg").read_text()
        path = tmp_path / "noisy.cfg"
        path.write_text(desk.replace("noise_sigma = 2.5", "noise_sigma = 1e305"))
        with np.errstate(all="ignore"):
            code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        assert re.search(r"round \d+ stage \d+: client \d+ update is not finite",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]])
    def test_huge_finite_noise_exits_4_whatever_the_warnings_filter(self, tmp_path, flags):
        # The overflow raises inside the client's update, so warnings that
        # are errors change nothing: no traceback, the protocol exit code.
        root = Path(__file__).resolve().parents[1]
        desk = (root / "configs" / "desk.cfg").read_text()
        path = tmp_path / "noisy.cfg"
        path.write_text(desk.replace("noise_sigma = 2.5", "noise_sigma = 1e305"))
        paths = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        done = subprocess.run(
            [sys.executable, *flags, "-m", "gldpsim.cli", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 4, done.stderr
        assert re.search(r"round 1 stage 1: client \d+ update is not finite", done.stderr)
        assert "Traceback" not in done.stderr

    def test_no_test_data_exit_code(self, tmp_path, capsys):
        # desk.cfg spread over 20 stages: every stage part holds 1-2 samples,
        # all of them training samples, so no accuracy can be measured.
        desk = (Path(__file__).resolve().parents[1] / "configs" / "desk.cfg").read_text()
        thin = desk.replace("rounds = 30", "rounds = 1")
        thin = thin.replace("num_stages = 5", "num_stages = 20")
        assert "\nrounds = 1\n" in thin and "\nnum_stages = 20\n" in thin
        path = tmp_path / "thin.cfg"
        path.write_text(thin)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "no client holds any test sample" in capsys.readouterr().err

    def test_algorithm_override_flag(self, tmp_path):
        path = write_fast_config(tmp_path)
        code = main(
            ["--config", str(path), "--algorithm", "FedAvg", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "fast_fedavg_seed0.csv").exists()

    def test_ablation_flag_emits_four_variants(self, tmp_path):
        path = write_fast_config(tmp_path)
        code = main(
            ["--config", str(path), "--ablation", "--seeds", "0", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        for variant in ("full", "no_local_relation", "no_global_relation", "no_relations"):
            assert (tmp_path / "out" / f"fast_{variant}_seed0.csv").exists()

    def test_repeated_seed_is_config_error(self, tmp_path, capsys):
        path = write_fast_config(tmp_path)
        for seeds, message in (("0,1,0", "seeds must be distinct"),
                               ("-1", "seed must be a non-negative integer, got -1"),
                               ("", "invalid --seeds value ''")):
            code = main(["--config", str(path), f"--seeds={seeds}", "--out", str(tmp_path / "out")])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_seeds_default_is_config_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "(default: 0)" not in help_text
        assert "(default: the config file's seed)" in help_text
        path = tmp_path / "seven.cfg"
        path.write_text(FAST_FILE + "seed = 7\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "out").glob("*_seed*.csv")) == [
            "seven_gldp_seed7.csv"
        ]

    def test_manifest_records_runs(self, tmp_path):
        path = write_fast_config(tmp_path)
        main(["--config", str(path), "--seeds", "0,1", "--out", str(tmp_path / "out")])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]
        assert len(manifest["runs"]) == 2
        assert all("wall_clock_sec" in entry for entry in manifest["runs"])
