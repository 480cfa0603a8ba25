"""Deterministic fault-injection harness.

Contract: fault points are provably inert when disabled; the spec
grammar parses well-formed plans and rejects malformed ones eagerly;
triggers honour their ``after``/``times`` budgets; ``REPRO_FAULTS`` is
read on first use and never written back.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.spike_matrix import random_spike_matrix
from repro.engine import FaultInjected, FaultPlan, FaultSpec
from repro.engine import faults
from repro.engine.fused import FusedBackend


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no plan and a scrubbed env."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


class TestFaultSpec:
    def test_parse_options(self):
        spec = FaultSpec.parse("engine_error:after=2:times=3")
        assert (spec.kind, spec.after, spec.times) == ("engine_error", 2, 3)

    def test_parse_defaults(self):
        spec = FaultSpec.parse("engine_error")
        assert (spec.after, spec.times) == (0, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("disk_full")

    def test_bad_option_key(self):
        with pytest.raises(ValueError, match="bad fault option"):
            FaultSpec.parse("engine_error:when=later")

    def test_bad_option_value(self):
        with pytest.raises(ValueError, match="bad fault option value"):
            FaultSpec.parse("slow_kernel:seconds=soon")

    def test_poison_requires_match(self):
        with pytest.raises(ValueError, match="requires match"):
            FaultSpec.parse("poison_job")

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="after must be >= 0"):
            FaultSpec(kind="engine_error", after=-1)
        with pytest.raises(ValueError, match="times must be >= 0"):
            FaultSpec(kind="engine_error", times=-1)
        with pytest.raises(ValueError, match="seconds must be >= 0"):
            FaultSpec(kind="slow_kernel", seconds=-0.1)

    def test_should_fire_honors_after_and_times(self):
        spec = FaultSpec(kind="engine_error", after=1, times=2)
        assert [spec.should_fire() for _ in range(4)] == [
            False, True, True, False,
        ]
        assert spec.exhausted

    def test_times_zero_is_unlimited(self):
        spec = FaultSpec(kind="engine_error", times=0)
        assert all(spec.should_fire() for _ in range(10))
        assert not spec.exhausted

    def test_parse_equals_constructed(self):
        for text, spec in (
            ("engine_error:after=2:times=3",
             FaultSpec("engine_error", after=2, times=3)),
            ("slow_kernel:seconds=0.5", FaultSpec("slow_kernel", seconds=0.5)),
            ("poison_job:match=bad", FaultSpec("poison_job", match="bad")),
        ):
            assert FaultSpec.parse(text) == spec


class TestFaultPlan:
    def test_blank_means_no_plan(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  , ") is None

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault kind"):
            FaultPlan.parse("engine_error,engine_error:times=2")

    def test_parse_keys_specs_by_kind(self):
        plan = FaultPlan.parse("engine_error:times=2,poison_job:match=bad")
        assert list(plan.specs) == ["engine_error", "poison_job"]
        assert plan.get("engine_error").times == 2
        assert plan.get("poison_job").match == "bad"
        assert plan.get("slow_kernel") is None


class TestActivation:
    def test_install_leaves_env_alone(self):
        faults.install("engine_error:times=2")
        assert faults.active_plan().get("engine_error").times == 2
        assert faults.ENV_VAR not in os.environ
        faults.clear()
        assert faults.active_plan() is None

    def test_injected_restores_previous_state(self):
        faults.install("slow_kernel:seconds=0.5")
        with faults.injected("engine_error"):
            assert faults.active_plan().get("engine_error") is not None
            assert faults.active_plan().get("slow_kernel") is None
        plan = faults.active_plan()
        assert plan.get("slow_kernel") is not None
        assert plan.get("engine_error") is None

    def test_refresh_resolves_from_env(self, monkeypatch):
        faults.clear()
        monkeypatch.setenv(faults.ENV_VAR, "engine_error:times=4")
        plan = faults.refresh()
        assert plan is not None and plan.get("engine_error").times == 4

    def test_bad_env_spec_raises_on_resolve(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "nonsense")
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.refresh()
        monkeypatch.delenv(faults.ENV_VAR)
        faults.refresh()


class TestInertWhenDisabled:
    """The acceptance bar: fault points provably do nothing by default."""

    def test_no_plan_resolves_to_none(self):
        assert faults.active_plan() is None

    def test_hooks_are_noops(self):
        for _ in range(100):
            faults.kernel_fault("test.site")
            faults.poison_fault(["any", "labels"], site="test")
        assert faults.active_plan() is None

    def test_backend_results_identical_with_harness_imported(self, rng):
        matrix = random_spike_matrix(64 * 4, 16, 0.3, rng, 0.2)
        backend = FusedBackend()
        expected = backend.matrix_records(matrix, 64, 16)
        again = backend.matrix_records(matrix, 64, 16)
        assert np.array_equal(expected, again)


class TestKernelFaults:
    def test_engine_error_is_transient_and_burns_out(self):
        faults.install("engine_error:times=1")
        with pytest.raises(FaultInjected) as err:
            faults.kernel_fault("unit.site")
        assert err.value.transient is True
        assert err.value.site == "unit.site"
        faults.kernel_fault("unit.site")  # budget spent: no-op now

    def test_slow_kernel_sleeps(self):
        faults.install("slow_kernel:seconds=0.05:times=1")
        start = time.perf_counter()
        faults.kernel_fault()
        assert time.perf_counter() - start >= 0.04
        start = time.perf_counter()
        faults.kernel_fault()
        assert time.perf_counter() - start < 0.04

    def test_poison_matches_label_substring_persistently(self):
        faults.install("poison_job:match=bad")
        faults.poison_fault(["good", "fine"])  # no match: no-op
        for _ in range(2):  # poison never burns out
            with pytest.raises(FaultInjected) as err:
                faults.poison_fault(["good", "very-bad-job"])
            assert err.value.transient is False
            assert "very-bad-job" in str(err.value)

    def test_empty_labels_never_poisoned(self):
        faults.install("poison_job:match=bad")
        faults.poison_fault([""])
        faults.poison_fault([])


class TestRequestFaults:
    """Server-side drill kinds (ISSUE 9): ``reject_request`` turns one
    request into a clean refusal, ``slow_request`` delays it; ``match``
    scopes both to a request-path substring."""

    def test_reject_fires_then_burns_out(self):
        faults.install("reject_request:times=1")
        assert faults.request_fault(site="server/v1/jobs") == "reject"
        assert faults.request_fault(site="server/v1/jobs") is None

    def test_match_scopes_to_path_substring(self):
        faults.install("reject_request:match=jobs")
        assert faults.request_fault(site="server/healthz") is None
        assert faults.request_fault(site="server/v1/jobs") == "reject"

    def test_slow_request_sleeps(self):
        faults.install("slow_request:seconds=0.05:times=1")
        started = time.perf_counter()
        assert faults.request_fault(site="server/v1/jobs") is None
        assert time.perf_counter() - started >= 0.05
        started = time.perf_counter()
        assert faults.request_fault(site="server/v1/jobs") is None
        assert time.perf_counter() - started < 0.05  # budget burned out

    def test_slow_then_reject_compose(self):
        faults.install("slow_request:seconds=0.01,reject_request:times=1")
        started = time.perf_counter()
        assert faults.request_fault(site="server/v1/jobs") == "reject"
        assert time.perf_counter() - started >= 0.01

    def test_inert_without_plan(self):
        assert faults.request_fault(site="server/v1/jobs") is None
