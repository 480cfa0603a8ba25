"""EngineReport.profile contract: stages are real, nested wall-clock.

For every backend and plan mode that reports a profile, stage times must
be non-negative, cover exactly the declared stage set, and — because
every stage timer is nested inside the run's timed window (including the
sharded backend's proportional worker attribution) — sum to no more
than the run's total wall-clock.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.spike_matrix import random_spike_matrix
from repro.engine import ProsperityEngine, ShardedBackend
from repro.engine.fused import PROFILE_STAGES
from repro.engine.planner import PLANNED_PROFILE_STAGES
from repro.snn.trace import GeMMWorkload

#: Float slop for comparing a sum of nested perf_counter intervals
#: against the enclosing interval.
EPS = 1e-6


def _trace(rng):
    return [
        GeMMWorkload(
            name=f"w{i}",
            spikes=random_spike_matrix(rows, cols, density, rng, 0.4),
            n=8,
        )
        for i, (rows, cols, density) in enumerate(
            [(512, 32, 0.3), (130, 17, 0.2), (256, 16, 0.5)]
        )
    ]


@pytest.fixture(scope="module")
def pooled_sharded():
    backend = ShardedBackend(workers=2)
    yield backend
    backend.close()


def _run(backend, plan, trace):
    engine = ProsperityEngine(backend=backend, tile_m=64, tile_k=16, plan=plan)
    start = time.perf_counter()
    report = engine.run(trace, batch=4)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _assert_profile_contract(report, elapsed, declared):
    assert set(report.profile) == set(declared)
    for stage, seconds in report.profile.items():
        assert seconds >= 0.0, stage
    total_stage_seconds = sum(report.profile.values())
    # Stage timers nest inside the per-group windows that make up
    # total_seconds, which itself nests inside the outer wall-clock.
    assert total_stage_seconds <= report.total_seconds + EPS
    assert report.total_seconds <= elapsed + EPS


class TestProfileContract:
    @pytest.mark.parametrize("plan", ["matrix", "trace"])
    def test_fused(self, rng, plan):
        report, elapsed = _run("fused", plan, _trace(rng))
        declared = PLANNED_PROFILE_STAGES if plan == "trace" else PROFILE_STAGES
        _assert_profile_contract(report, elapsed, declared)

    @pytest.mark.parametrize("plan", ["matrix", "trace"])
    def test_sharded_worker_attribution(self, rng, plan, pooled_sharded):
        """Sharded select/record are scaled to parent wall-clock, so the
        sum stays bounded even though workers overlap."""
        # Enough tiles that the pool path engages (>= 2 shards).
        trace = [
            GeMMWorkload(
                name="big",
                spikes=random_spike_matrix(64 * 40, 16, 0.3, rng, 0.2),
                n=8,
            )
        ]
        report, elapsed = _run(pooled_sharded, plan, trace)
        declared = PLANNED_PROFILE_STAGES if plan == "trace" else PROFILE_STAGES
        _assert_profile_contract(report, elapsed, declared)
        assert report.workers == 2
        assert report.profile["select"] > 0.0

    def test_vectorized_matrix_mode_has_no_profile(self, rng):
        """Backends without stage instrumentation report an empty profile."""
        report, _ = _run("vectorized", "matrix", _trace(rng))
        assert report.profile == {}

    def test_vectorized_trace_mode_reports_planner_stages(self, rng):
        """The planner's own stages are engine-timed for any backend."""
        report, elapsed = _run("vectorized", "trace", _trace(rng))
        _assert_profile_contract(report, elapsed, PLANNED_PROFILE_STAGES)
        assert report.profile["pack"] > 0.0
        assert report.profile["record"] > 0.0  # kernel loop engine-timed

    def test_stage_sum_close_to_total_for_fused(self, rng):
        """Stages should account for most of the run, not just a sliver."""
        report, _ = _run("fused", "trace", _trace(rng))
        assert sum(report.profile.values()) >= 0.5 * report.total_seconds

    def test_profile_isolated_between_runs(self, rng):
        """Per-run profiles are deltas, not lifetime accumulations."""
        engine = ProsperityEngine(
            backend="fused", tile_m=64, tile_k=16, plan="matrix"
        )
        trace = _trace(rng)
        first = engine.run(trace, batch=4)
        second = engine.run(trace, batch=4)
        for stage in PROFILE_STAGES:
            # A lifetime accumulation would roughly double; a delta stays
            # in the same ballpark (10x headroom for scheduler noise).
            assert second.profile[stage] <= max(
                10.0 * first.profile[stage], 1e-3
            ), stage

    def test_workload_seconds_sum_to_total(self, rng):
        report, _ = _run("fused", "trace", _trace(rng))
        assert report.total_seconds == pytest.approx(
            sum(run.seconds for run in report.runs)
        )
        assert all(run.seconds >= 0.0 for run in report.runs)
        assert np.isfinite(report.tiles_per_sec)
