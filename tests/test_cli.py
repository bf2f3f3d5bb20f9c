"""Tests for the command-line entry point: flags, config file, exit codes."""

import dataclasses
import re
from pathlib import Path

import pytest

import popbo.cli as cli
from popbo.cli import main
from popbo.errors import EvaluationFailedError, TrainingDivergedError
from popbo.harness import ExperimentConfig, read_trace_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(tmp_path, *extra):
    args = ["--benchmark", "branin", "--method", "random-search",
            "--seeds", "0", "--iters", "3", "--init", "2",
            "--out", str(tmp_path)]
    args.extend(extra)
    return main(args)


class TestUsageErrors:
    def test_missing_required_settings(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_benchmark(self, tmp_path):
        assert main(["--benchmark", "nope", "--method", "random-search",
                     "--out", str(tmp_path)]) == 2

    def test_unknown_method(self, tmp_path):
        assert main(["--benchmark", "branin", "--method", "nope",
                     "--out", str(tmp_path)]) == 2

    def test_malformed_seeds(self, tmp_path):
        assert run_cli(tmp_path, "--seeds", "a,b") == 2

    def test_noise_on_table_rejected(self, tmp_path, capsys):
        table = tmp_path / "grid.csv"
        table.write_text("a,value\n1,0.5\n2,0.25\n", encoding="utf-8")
        assert main(["--benchmark", str(table), "--method", "random-search",
                     "--noise-sigma", "0.5", "--out", str(tmp_path)]) == 2
        assert "noise" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, kind", [
        ("iters", "abc", "an integer"),
        ("q", "high", "a number"),
    ])
    def test_unconvertible_flag_is_usage_error(self, tmp_path, capsys, flag, value, kind):
        assert run_cli(tmp_path, f"--{flag}", value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"--{flag}" in err and f"{value!r}" in err and kind in err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("flag, value", [("q", "7"), ("kmax", "-1"), ("beta", "-3"),
                                             ("beta", "nan")])
    def test_acquisition_settings_checked_for_every_method(self, tmp_path, capsys, flag,
                                                            value):
        errors = []
        for method in ("popbo-rlcb", "random-search"):
            assert run_cli(tmp_path, "--method", method, f"--{flag}", value) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ")
        assert list(tmp_path.glob("*.csv")) == []

    def test_repeated_seeds(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--seeds", "0,0,1") == 2
        assert capsys.readouterr().err.startswith("error: seeds must be distinct")
        assert list(tmp_path.glob("*.csv")) == []

    def test_negative_seed(self, tmp_path, capsys):
        assert run_cli(tmp_path, "--seeds=-1") == 2
        assert capsys.readouterr().err.startswith("error: seeds must be integers >= 0")
        assert list(tmp_path.glob("*.csv")) == []

    def test_unreadable_config_file(self, tmp_path):
        assert run_cli(tmp_path, "--config", str(tmp_path / "absent.ini")) == 1

    def test_eri_k_max_above_init_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--benchmark", "branin", "--method", "popbo-eri", "--init", "3",
                     "--kmax", "5", "--iters", "2", "--out", str(out)]) == 2
        assert "k_max=5 exceeds n_init=3" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


class TestRunFailures:
    @pytest.mark.parametrize("error", [
        TrainingDivergedError(3),
        EvaluationFailedError(None, ValueError("non-finite observation")),
        OSError("disk full"),
    ])
    def test_run_failure_exits_1(self, tmp_path, monkeypatch, capsys, error):
        def fail(cfg):
            raise error

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert run_cli(tmp_path) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestSettings:
    def test_defaults_come_from_experiment_config(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
        monkeypatch.delenv("POPBO_OUT", raising=False)
        assert main(["--benchmark", "branin", "--method", "popbo-eri"]) == 0
        monkeypatch.setenv("POPBO_OUT", "runs")
        assert main(["--benchmark", "branin", "--method", "popbo-eri"]) == 0
        expected = ExperimentConfig("branin", "popbo-eri")
        assert seen == [expected, dataclasses.replace(expected, out_dir="runs")]

    def test_readme_lists_exactly_the_parser_flags(self):
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        listed = re.findall(r"^\| `(--[a-z-]+)` \|", section.split("\n## ", 1)[0], re.M)
        flags = [action.option_strings[-1] for action in cli._build_parser()._actions
                 if action.dest != "help"]
        assert listed == flags


class TestHappyPath:
    def test_writes_traces_and_prints_paths(self, tmp_path, capsys):
        assert run_cli(tmp_path) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed == [
            (tmp_path / "random-search_branin_seed0.csv").as_posix(),
            (tmp_path / "random-search_branin_summary.csv").as_posix(),
        ]
        _, rows = read_trace_csv(printed[0])
        assert len(rows) == 5  # init 2 + iters 3

    def test_multiple_seeds(self, tmp_path):
        assert run_cli(tmp_path, "--seeds", "0,1,2") == 0
        for s in range(3):
            assert (tmp_path / f"random-search_branin_seed{s}.csv").exists()

    def test_model_method(self, tmp_path):
        assert main(["--benchmark", "branin", "--method", "popbo-rlcb",
                     "--seeds", "0", "--iters", "1", "--init", "3",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "popbo-rlcb_branin_seed0.csv").exists()

    def test_noise_flag(self, tmp_path):
        assert run_cli(tmp_path, "--noise-sigma", "0.5") == 0


class TestConfigFile:
    def write_ini(self, tmp_path, body):
        path = tmp_path / "run.ini"
        path.write_text(body, encoding="utf-8")
        return str(path)

    def test_settings_from_file(self, tmp_path, capsys):
        ini = self.write_ini(tmp_path, "\n".join([
            "[popbo]",
            "benchmark = branin",
            "method = random-search",
            "seeds = 0",
            "iters = 2",
            "init = 2",
            f"out = {tmp_path}",
        ]))
        assert main(["--config", ini]) == 0
        _, rows = read_trace_csv(tmp_path / "random-search_branin_seed0.csv")
        assert len(rows) == 4

    def test_flags_override_file(self, tmp_path):
        ini = self.write_ini(tmp_path, "\n".join([
            "[popbo]",
            "benchmark = branin",
            "method = random-search",
            "iters = 50",
            "init = 2",
            f"out = {tmp_path}",
        ]))
        assert main(["--config", ini, "--iters", "1"]) == 0
        _, rows = read_trace_csv(tmp_path / "random-search_branin_seed0.csv")
        assert len(rows) == 3

    def test_unknown_key_rejected(self, tmp_path):
        ini = self.write_ini(tmp_path, "[popbo]\nbanchmark = branin\n")
        assert main(["--config", ini]) == 2

    def test_missing_section_rejected(self, tmp_path):
        ini = self.write_ini(tmp_path, "[other]\nbenchmark = branin\n")
        assert main(["--config", ini]) == 2

    @pytest.mark.parametrize("key, value, kind", [
        ("iters", "abc", "an integer"),
        ("workers", "1.5", "an integer"),
        ("q", "high", "a number"),
        ("out", "100%", "'%%'"),
    ])
    def test_unconvertible_value_is_usage_error(self, tmp_path, capsys, key, value, kind):
        ini = self.write_ini(tmp_path, "\n".join([
            "[popbo]", "benchmark = branin", "method = random-search",
            f"{key} = {value}"]))
        assert main(["--config", ini]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{key!r}" in err and f"{value!r}" in err and kind in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        ini = self.write_ini(tmp_path, "benchmark = branin\n")
        assert main(["--config", ini]) == 2
        assert capsys.readouterr().err.startswith("error: malformed config file")


class TestEnvironment:
    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POPBO_OUT", str(tmp_path))
        assert main(["--benchmark", "branin", "--method", "random-search",
                     "--seeds", "0", "--iters", "2", "--init", "2"]) == 0
        assert (tmp_path / "random-search_branin_seed0.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        monkeypatch.setenv("POPBO_OUT", str(env_dir))
        assert run_cli(flag_dir) == 0
        assert (flag_dir / "random-search_branin_seed0.csv").exists()
        assert not (env_dir / "random-search_branin_seed0.csv").exists()
