"""CLI as a thin Session adapter: --config/--set/--version, help goldens."""

from __future__ import annotations

import contextlib
import io
import pathlib

import numpy as np
import pytest

import repro
from repro.api import RunConfig, Session
from repro.api.config import tomllib
from repro.cli import build_config, build_parser, main
from repro.engine import faults

HELP_DIR = pathlib.Path(__file__).parent / "data" / "cli_help"

#: golden-file name -> argv producing that help text
HELP_CASES = {
    "root": ["--help"],
    "density": ["density", "--help"],
    "simulate": ["simulate", "--help"],
    "sweep": ["sweep", "--help"],
    "scaling": ["scaling", "--help"],
    "run": ["run", "--help"],
    "batch": ["batch", "--help"],
    "serve": ["serve", "--help"],
    "submit": ["submit", "--help"],
    "stream": ["stream", "--help"],
    "cache": ["cache", "--help"],
    "cache_stats": ["cache", "stats", "--help"],
    "tradeoff": ["tradeoff", "--help"],
    "config": ["config", "--help"],
    "config_dump": ["config", "dump", "--help"],
}


def _capture_exit(argv: list[str]) -> tuple[str, int]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
    return buffer.getvalue(), excinfo.value.code or 0


class TestVersion:
    def test_version_flag(self):
        out, code = _capture_exit(["--version"])
        assert code == 0
        assert out.strip() == f"repro {repro.__version__}"

    def test_short_flag(self):
        out, _ = _capture_exit(["-V"])
        assert out.startswith("repro ")

    def test_matches_package_metadata_when_installed(self):
        from importlib import metadata

        try:
            installed = metadata.version("prosperity-repro")
        except metadata.PackageNotFoundError:
            pytest.skip("package not installed (bare checkout)")
        out, _ = _capture_exit(["--version"])
        assert out.strip() == f"repro {installed}"


class TestHelpGoldens:
    """Every subcommand's --help surface is pinned; flag drift must be
    deliberate (regenerate via tests/data/cli_help/README.md)."""

    @pytest.mark.parametrize("name", sorted(HELP_CASES))
    def test_help_matches_golden(self, name, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        out, code = _capture_exit(HELP_CASES[name])
        assert code == 0
        golden = (HELP_DIR / f"{name}.txt").read_text()
        assert out == golden, (
            f"--help drift for {name!r}; if intentional, regenerate "
            "tests/data/cli_help (see its README.md)"
        )


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        path = RunConfig().with_overrides(
            {"engine.backend": "reference"}
        ).to_file(tmp_path / "run.json")
        cfg = build_config(
            ["run", "--config", str(path), "--backend", "fused"]
        )
        assert cfg.engine.backend == "fused"

    def test_set_overrides_flags(self):
        cfg = build_config(
            ["run", "--backend", "reference", "--set", "engine.backend=fused"]
        )
        assert cfg.engine.backend == "fused"

    def test_defaults_without_flags(self):
        cfg = build_config(["run"])
        assert cfg == RunConfig()

    def test_workers_rejected_at_config_time(self):
        with pytest.raises(SystemExit, match="unknown key.*'workers'"):
            build_config(["run", "--set", "engine.workers=2"])

    def test_bad_flag_combo_exits_cleanly(self):
        with pytest.raises(
            SystemExit, match="repro: error: cache_size must be >= 0"
        ):
            build_config(["run", "--cache-size", "-1"])

    def test_missing_config_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="repro: error: --config"):
            build_config(["run", "--config", "does-not-exist.toml"])

    def test_bad_set_value_exits_cleanly(self):
        with pytest.raises(SystemExit, match="repro: error: unknown backend"):
            build_config(["run", "--set", "engine.backend=bogus"])


class TestConfigDump:
    def test_dump_round_trips(self, capsys):
        assert main(["config", "dump", "--set", "workload.model=lenet5"]) == 0
        out = capsys.readouterr().out
        if tomllib is None:
            pytest.skip("no TOML reader on this Python")
        loaded = RunConfig.from_dict(tomllib.loads(out))
        assert loaded.workload.model == "lenet5"
        assert loaded == RunConfig().with_overrides({"workload.model": "lenet5"})

    def test_dump_json(self, capsys):
        import json

        assert main(["config", "dump", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["engine"]["backend"] == "fused"
        assert "plan" not in parsed["engine"]

    def test_dump_then_config_flag(self, capsys, tmp_path):
        """`repro config dump > f.toml; repro run --config f.toml` works."""
        if tomllib is None:
            pytest.skip("no TOML reader on this Python")
        assert main(["config", "dump", "--set", "workload.model=lenet5",
                     "--set", "workload.dataset=mnist"]) == 0
        path = tmp_path / "run.toml"
        path.write_text(capsys.readouterr().out)
        assert main(["run", "--config", str(path)]) == 0
        assert "lenet5/mnist" in capsys.readouterr().out


class TestBatchCommand:
    """`repro batch`: many configs through one shared scheduler."""

    def _write_config(self, tmp_path, name, **overrides):
        cfg = RunConfig().with_overrides({
            "workload.model": "lenet5", "workload.dataset": "mnist",
            "engine.backend": "fused", **overrides,
        })
        return str(cfg.to_file(tmp_path / name))

    def test_batch_runs_all_configs(self, capsys, tmp_path):
        a = self._write_config(tmp_path, "a.json")
        b = self._write_config(tmp_path, "b.json")
        assert main(["batch", "--config", a, "--config", b]) == 0
        out = capsys.readouterr().out
        assert "2 job(s) through one scheduler" in out
        assert out.count("lenet5/mnist") == 2
        assert "2 coalesced across 1 planner batch(es)" in out

    def test_batch_set_applies_to_every_job(self, capsys, tmp_path):
        a = self._write_config(tmp_path, "a.json")
        b = self._write_config(tmp_path, "b.json")
        assert main(["batch", "--config", a, "--config", b,
                     "--set", "engine.backend=reference"]) == 0
        out = capsys.readouterr().out
        assert out.count("reference") == 2

    def test_batch_records_match_serial_run(self, tmp_path, capsys):
        """Acceptance: the batch path is bit-identical to `repro run`
        on the same config (both print the same tiles table rows)."""
        import numpy as np

        from repro.api import Job, Scheduler, Session

        path = self._write_config(tmp_path, "a.json")
        cfg = RunConfig.from_file(path)
        with Session(cfg) as session:
            serial = session.run().report
        with Scheduler(cfg) as scheduler:
            mine, twin = scheduler.gather([Job(config=cfg), Job(config=cfg)])
        for result in (mine, twin):
            assert result.report.total_tiles == serial.total_tiles
            for run_a, run_b in zip(result.report.runs, serial.runs):
                assert np.array_equal(run_a.records, run_b.records)

    def test_batch_other_kind(self, capsys, tmp_path):
        path = self._write_config(tmp_path, "a.json")
        assert main(["batch", "--config", path, "--kind", "tradeoff"]) == 0
        out = capsys.readouterr().out
        assert "tradeoff" in out

    def test_batch_failed_job_exits_nonzero(self, capsys, tmp_path):
        good = self._write_config(tmp_path, "good.json")
        bad = self._write_config(tmp_path, "bad.json",
                                 **{"workload.model": "no-such-model"})
        assert main(["batch", "--config", good, "--config", bad]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "batch job failed" in captured.err

    def test_batch_bad_config_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="repro: error: --config"):
            main(["batch", "--config", "missing.toml"])

    def test_batch_requires_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch"])


class TestRunErrors:
    def test_injected_fault_is_a_one_line_error(self, capsys):
        """A failed ``repro run`` exits nonzero with one stderr line."""
        argv = ["run", "--model", "lenet5", "--dataset", "mnist",
                "--set", "resilience.faults=engine_error"]
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
        finally:
            faults.clear()
        message = excinfo.value.code
        assert isinstance(message, str)  # printed to stderr, exit status 1
        assert message.startswith("repro: error: FaultInjected: ")
        assert "fused.compute_records" in message
        assert "\n" not in message
        assert capsys.readouterr().out == ""


class TestConfigFileEquivalence:
    """Acceptance: a config file alone reproduces the flag invocation."""

    FLAGS = ["--model", "lenet5", "--dataset", "mnist", "--backend", "fused"]

    def test_run_records_bit_identical(self, tmp_path):
        flag_cfg = build_config(["run", *self.FLAGS])
        path = flag_cfg.to_file(tmp_path / "run.json")
        file_cfg = build_config(["run", "--config", str(path)])
        assert file_cfg == flag_cfg
        with Session(flag_cfg) as a, Session(file_cfg) as b:
            mine, theirs = a.run().report, b.run().report
        assert mine.total_tiles == theirs.total_tiles
        for run_a, run_b in zip(mine.runs, theirs.runs):
            assert run_a.name == run_b.name
            assert np.array_equal(run_a.records, run_b.records)

    @pytest.mark.parametrize("command", ["density", "tradeoff", "scaling"])
    def test_deterministic_commands_print_identically(
        self, command, capsys, tmp_path
    ):
        argv = [command, "--model", "lenet5", "--dataset", "mnist",
                "--max-tiles", "4"] if command != "tradeoff" else [command]
        assert main(argv) == 0
        from_flags = capsys.readouterr().out
        path = build_config(argv).to_file(tmp_path / "cfg.json")
        assert main([command, "--config", str(path)]) == 0
        assert capsys.readouterr().out == from_flags

    def test_cli_run_with_config_file(self, capsys, tmp_path):
        path = build_config(["run", *self.FLAGS]).to_file(tmp_path / "r.json")
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "backend=fused" in out
        assert "plan: trace" in out


class TestRemovedSurface:
    """Deleted knobs fail through the existing unknown-key, unknown-backend
    and unknown-flag errors — there is no table of removed names."""

    REMOVED_KEYS = {
        "engine": ("workers", "plan", "batch"),
        "resilience": ("max_pool_rebuilds", "degrade_on_pool_failure"),
    }
    CASES = [
        *[("toml", f"{section}.{key}") for section, keys in REMOVED_KEYS.items()
          for key in keys],
        *[("set", f"{section}.{key}") for section, keys in REMOVED_KEYS.items()
          for key in keys],
        *[("backend", name) for name in ("vectorized", "sharded", "compiled")],
        *[("flag", flag) for flag in ("--workers", "--plan", "--batch")],
    ]

    @pytest.mark.parametrize(
        ("kind", "name"), CASES, ids=[f"{kind}:{name}" for kind, name in CASES]
    )
    def test_rejected(self, kind, name, tmp_path, capsys):
        section, _, key = name.partition(".")
        if kind == "toml":
            path = tmp_path / "run.toml"
            path.write_text(f"[{section}]\n{key} = 2\n")
            argv = ["run", "--config", str(path)]
        elif kind == "set":
            argv = ["run", "--set", f"{name}=2"]
        elif kind == "backend":
            argv = ["run", "--backend", name]
        else:
            argv = ["run", name, "2"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        if kind in ("toml", "set"):
            if kind == "toml" and tomllib is None:
                pytest.skip("no TOML reader on this Python")
            assert "repro: error:" in str(code)
            assert "unknown key" in str(code) and repr(key) in str(code)
            assert f"[{section}]" in str(code)
        else:
            assert code == 2
            err = capsys.readouterr().err
            if kind == "backend":
                assert "invalid choice" in err
                assert "(choose from 'fused', 'reference')" in err
            else:
                assert f"unrecognized arguments: {name}" in err
