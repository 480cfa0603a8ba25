"""RunConfig: validation, TOML/JSON round-trips, immutable overrides."""

from __future__ import annotations

import json

import pytest

from repro.api import RunConfig
from repro.api.config import tomllib


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.engine.backend == "fused"
        assert cfg.workload.model == "vgg16"

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig().with_overrides({"engine.backend": "bogus"})

    def test_workers_on_non_sharded_backend(self):
        """Execution is in-process: no backend takes a worker count."""
        with pytest.raises(ValueError, match="unknown key.*'workers'"):
            RunConfig().with_overrides(
                {"engine.backend": "fused", "engine.workers": 2}
            )

    def test_bad_plan(self):
        """There is one plan, so ``engine.plan`` is no config key."""
        with pytest.raises(ValueError, match="unknown key.*'plan'"):
            RunConfig().with_overrides({"engine.plan": "matrix"})

    def test_bad_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            RunConfig().with_overrides({"workload.preset": "huge"})

    def test_bad_batch(self):
        """The planner batches the whole trace; ``engine.batch`` is gone."""
        with pytest.raises(ValueError, match="unknown key.*'batch'"):
            RunConfig.from_dict({"engine": {"batch": 8}})

    def test_bad_tile_shape(self):
        with pytest.raises(ValueError):
            RunConfig().with_overrides({"engine.tile_k": 0})

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            RunConfig().with_overrides({"simulator.mode": "warp"})

    def test_unknown_baseline(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            RunConfig().with_overrides({"simulator.baselines": ("tpu",)})

    def test_empty_baselines(self):
        with pytest.raises(ValueError, match="at least one accelerator"):
            RunConfig().with_overrides({"simulator.baselines": ()})
        with pytest.raises(ValueError, match="at least one accelerator"):
            RunConfig().with_sets(["simulator.baselines="])

    def test_negative_max_tiles(self):
        with pytest.raises(ValueError, match="max_tiles must be >= 0"):
            RunConfig().with_overrides({"sampling.max_tiles": -1})

    def test_empty_sweep_axis(self):
        with pytest.raises(ValueError, match="m_values"):
            RunConfig().with_overrides({"sweep.m_values": ()})

    def test_scheduler_defaults(self):
        sched = RunConfig().scheduler
        assert sched.max_inflight >= 1
        assert sched.coalesce_window_ms >= 0
        assert sched.stream_chunk >= 1

    def test_bad_max_inflight(self):
        with pytest.raises(ValueError, match="max_inflight must be >= 1"):
            RunConfig().with_overrides({"scheduler.max_inflight": 0})

    def test_bad_coalesce_window(self):
        with pytest.raises(ValueError, match="coalesce_window_ms must be >= 0"):
            RunConfig().with_overrides({"scheduler.coalesce_window_ms": -1.0})

    def test_bad_stream_chunk(self):
        with pytest.raises(ValueError, match="stream_chunk must be >= 1"):
            RunConfig().with_overrides({"scheduler.stream_chunk": 0})

    def test_negative_sparsity_increase(self):
        with pytest.raises(ValueError, match="sparsity_increase"):
            RunConfig().with_overrides({"tradeoff.sparsity_increase": -0.5})


class TestDictRoundTrip:
    def test_to_dict_from_dict_identity(self):
        cfg = RunConfig().with_overrides(
            {"engine.backend": "reference", "engine.cache_size": 0,
             "workload.model": "lenet5", "sweep.k_values": (8, 16)}
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_section(self):
        with pytest.raises(ValueError, match="unknown config section"):
            RunConfig.from_dict({"warp": {}})

    def test_unknown_key(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\).*\[engine\]"):
            RunConfig.from_dict({"engine": {"speed": 11}})

    def test_partial_dict_fills_defaults(self):
        cfg = RunConfig.from_dict({"workload": {"model": "lenet5"}})
        assert cfg.workload.model == "lenet5"
        assert cfg.workload.dataset == "cifar10"
        assert cfg.engine == RunConfig().engine


@pytest.mark.skipif(tomllib is None, reason="no TOML reader on this Python")
class TestFileRoundTrip:
    CFG = {
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "engine.backend": "fused",
        "engine.cache_size": 0,
        "sampling.max_tiles": 0,
        "sweep.m_values": (64, 128),
    }

    def test_toml_round_trip_idempotent(self, tmp_path):
        cfg = RunConfig().with_overrides(self.CFG)
        path = tmp_path / "run.toml"
        cfg.to_file(path)
        loaded = RunConfig.from_file(path)
        assert loaded == cfg
        # Idempotence: dumping the loaded config reproduces the bytes.
        assert loaded.to_toml() == path.read_text()

    def test_json_round_trip_idempotent(self, tmp_path):
        cfg = RunConfig().with_overrides(self.CFG)
        path = tmp_path / "run.json"
        cfg.to_file(path)
        loaded = RunConfig.from_file(path)
        assert loaded == cfg
        assert loaded.to_json() == path.read_text()

    def test_toml_and_json_agree(self, tmp_path):
        cfg = RunConfig().with_overrides(self.CFG)
        toml_path = cfg.to_file(tmp_path / "a.toml")
        json_path = cfg.to_file(tmp_path / "a.json")
        assert RunConfig.from_file(toml_path) == RunConfig.from_file(json_path)

    def test_emitted_toml_is_valid_toml(self):
        parsed = tomllib.loads(RunConfig().to_toml())
        assert parsed["workload"]["model"] == "vgg16"
        assert parsed["sweep"]["m_values"] == [64, 128, 256, 512]

    def test_emitted_json_is_valid_json(self):
        parsed = json.loads(RunConfig().to_json())
        assert parsed["engine"]["backend"] == "fused"
        assert parsed["engine"]["cache_size"] == 4096

    def test_unsupported_suffix(self, tmp_path):
        with pytest.raises(ValueError, match=".toml or .json"):
            RunConfig().to_file(tmp_path / "run.yaml")
        with pytest.raises(ValueError, match=".toml or .json"):
            RunConfig.from_file(tmp_path / "run.yaml")


class TestTomlEmitterEdgeCases:
    """Satellite contract: the hand-rolled TOML emitter survives strings
    needing escaping/quotes, booleans, empty sections, and ``--set``
    values containing ``=`` — and every round-trip stays idempotent."""

    def _round_trip(self, cfg: RunConfig) -> RunConfig:
        if tomllib is None:
            pytest.skip("no TOML reader on this Python")
        text = cfg.to_toml()
        loaded = RunConfig.from_dict(tomllib.loads(text))
        # Idempotent: emitting the parsed config reproduces the text.
        assert loaded.to_toml() == text
        return loaded

    @pytest.mark.parametrize("model", [
        'say "hi"',                 # double quotes
        "back\\slash",              # backslash
        "tab\there",                # control character
        "newline\nhere",            # must escape, not break the line
        "uniécode",            # non-ASCII passes through
        "equals=inside",            # '=' in a value
        "#not-a-comment",           # comment introducer in a value
        "[not.a.section]",          # section introducer in a value
    ])
    def test_string_escaping_round_trips(self, model):
        cfg = RunConfig().with_overrides({"workload.model": model})
        assert self._round_trip(cfg).workload.model == model

    def test_booleans_round_trip(self):
        for verify in (True, False):
            cfg = RunConfig().with_overrides({"engine.verify": verify})
            assert "verify = true" in cfg.to_toml() or not verify
            assert self._round_trip(cfg).engine.verify is verify

    def test_empty_section_reads_as_defaults(self):
        if tomllib is None:
            pytest.skip("no TOML reader on this Python")
        text = "[workload]\n\n[engine]\nbackend = \"fused\"\n"
        loaded = RunConfig.from_dict(tomllib.loads(text))
        assert loaded.workload == RunConfig().workload
        assert loaded.engine.backend == "fused"

    def test_empty_entries_emit_bare_header(self):
        from repro.api.config import _toml_value

        # The emitter writes a bare [section] header for an empty
        # section; tomllib reads it back as an empty table.
        assert _toml_value("x") == '"x"'
        cfg = RunConfig()
        headers = [
            line for line in cfg.to_toml().splitlines()
            if line.startswith("[")
        ]
        assert headers == [f"[{name}]" for name in cfg.to_dict()]

    def test_set_value_containing_equals(self):
        cfg = RunConfig().with_sets(["workload.model=resnet=18"])
        assert cfg.workload.model == "resnet=18"
        cfg = RunConfig().with_sets(["workload.dataset=a=b=c"])
        assert cfg.workload.dataset == "a=b=c"
        # ...and such a value still survives the file round-trip.
        assert self._round_trip(cfg).workload.dataset == "a=b=c"

    def test_unserializable_value_rejected(self):
        from repro.api.config import _toml_value

        with pytest.raises(TypeError, match="cannot serialize"):
            _toml_value(object())

    def test_float_and_int_round_trip(self):
        cfg = RunConfig().with_overrides({
            "tradeoff.sparsity_increase": 0.25,
            "scheduler.coalesce_window_ms": 12.5,
            "scheduler.max_inflight": 7,
        })
        loaded = self._round_trip(cfg)
        assert loaded.tradeoff.sparsity_increase == 0.25
        assert loaded.scheduler.coalesce_window_ms == 12.5
        assert loaded.scheduler.max_inflight == 7


class TestOverrides:
    def test_with_overrides_returns_new_instance(self):
        base = RunConfig()
        derived = base.with_overrides({"engine.backend": "reference"})
        assert derived.engine.backend == "reference"
        assert base.engine.backend == "fused"  # immutability
        assert derived is not base

    def test_frozen_sections(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.engine.backend = "fused"  # type: ignore[misc]
        with pytest.raises(AttributeError):
            cfg.workload = cfg.workload  # type: ignore[misc]

    def test_section_kwargs(self):
        cfg = RunConfig().with_overrides(workload={"model": "lenet5",
                                                   "dataset": "mnist"})
        assert (cfg.workload.model, cfg.workload.dataset) == ("lenet5", "mnist")

    def test_bad_dotted_key(self):
        with pytest.raises(ValueError, match="section.key"):
            RunConfig().with_overrides({"backend": "fused"})

    def test_unknown_override_key(self):
        with pytest.raises(ValueError, match=r"unknown key\(s\)"):
            RunConfig().with_overrides({"engine.speed": 11})

    def test_list_coerced_to_tuple(self):
        cfg = RunConfig().with_overrides({"sweep.m_values": [32, 64]})
        assert cfg.sweep.m_values == (32, 64)


class TestWithSets:
    def test_type_coercion(self):
        cfg = RunConfig().with_sets([
            "engine.backend=reference",
            "engine.cache_size=0",
            "engine.verify=true",
            "sampling.max_tiles=0",
            "sweep.m_values=64,128",
            "tradeoff.sparsity_increase=0.2",
        ])
        assert cfg.engine.backend == "reference"
        assert cfg.engine.cache_size == 0
        assert cfg.engine.verify is True
        assert cfg.sampling.max_tiles == 0
        assert cfg.sampling.effective is None
        assert cfg.sweep.m_values == (64, 128)
        assert cfg.tradeoff.sparsity_increase == pytest.approx(0.2)

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="section.key=value"):
            RunConfig().with_sets(["engine.backend"])

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            RunConfig().with_sets(["engine.speed=11"])

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="boolean"):
            RunConfig().with_sets(["engine.verify=maybe"])


class TestResilienceSection:
    def test_defaults(self):
        res = RunConfig().resilience
        assert res.overload_policy == "block"
        assert res.shed_timeout_ms == 100.0
        assert res.deadline_ms == 0.0
        assert res.retries == 1
        assert res.retry_backoff_ms == 10.0
        assert res.faults == ""

    def test_overrides_and_round_trip(self):
        cfg = RunConfig().with_overrides({
            "resilience.overload_policy": "shed",
            "resilience.shed_timeout_ms": 250.0,
            "resilience.deadline_ms": 5000.0,
            "resilience.retries": 3,
            "resilience.retry_backoff_ms": 0.0,
            "resilience.faults": "engine_error:times=2",
        })
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.skipif(tomllib is None, reason="no TOML reader")
    def test_toml_section_round_trip(self, tmp_path):
        cfg = RunConfig().with_overrides({
            "resilience.overload_policy": "shed",
            "resilience.faults": "poison_job:match=bad",
        })
        path = cfg.to_file(tmp_path / "run.toml")
        loaded = RunConfig.from_file(path)
        assert loaded == cfg
        assert loaded.resilience.faults == "poison_job:match=bad"
        parsed = tomllib.loads(cfg.to_toml())
        assert parsed["resilience"]["overload_policy"] == "shed"

    def test_with_sets_coercion(self):
        cfg = RunConfig().with_sets([
            "resilience.overload_policy=shed",
            "resilience.shed_timeout_ms=75",
            "resilience.retries=0",
        ])
        assert cfg.resilience.overload_policy == "shed"
        assert cfg.resilience.shed_timeout_ms == 75.0
        assert cfg.resilience.retries == 0

    def test_bad_overload_policy(self):
        with pytest.raises(ValueError, match="unknown overload_policy"):
            RunConfig().with_overrides({"resilience.overload_policy": "panic"})

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="shed_timeout_ms"):
            RunConfig().with_overrides({"resilience.shed_timeout_ms": -1.0})
        with pytest.raises(ValueError, match="deadline_ms"):
            RunConfig().with_overrides({"resilience.deadline_ms": -1.0})
        with pytest.raises(ValueError, match="retries must be >= 0"):
            RunConfig().with_overrides({"resilience.retries": -1})

    def test_bad_fault_spec_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            RunConfig().with_overrides({"resilience.faults": "meteor_strike"})
        with pytest.raises(ValueError, match="requires match"):
            RunConfig().with_overrides({"resilience.faults": "poison_job"})
