"""EngineReport.profile contract: one stage schema, real nested wall-clock.

Every surface that returns an engine report — ``ProsperityEngine.run``,
a coalesced scheduler batch, a sliding-window stream — reports exactly
the stage keys of :data:`repro.engine.planner.PROFILE_STAGES`. Stage
times must be non-negative and, because every stage timer is nested
inside the run's timed window, sum to no more than the run's total
wall-clock.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import Job, RunConfig, Scheduler, Session
from repro.core.spike_matrix import random_spike_matrix
from repro.engine import ProsperityEngine
from repro.engine.planner import PROFILE_STAGES
from repro.snn.trace import GeMMWorkload

#: Float slop for comparing a sum of nested perf_counter intervals
#: against the enclosing interval.
EPS = 1e-6

LENET = {"workload.model": "lenet5", "workload.dataset": "mnist"}


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


def _run(backend, trace):
    engine = ProsperityEngine(backend=backend, tile_m=64, tile_k=16)
    start = time.perf_counter()
    report = engine.run(trace)
    elapsed = time.perf_counter() - start
    return report, elapsed


def _assert_profile_contract(report, elapsed):
    assert set(report.profile) == set(PROFILE_STAGES)
    for stage, seconds in report.profile.items():
        assert seconds >= 0.0, stage
    total_stage_seconds = sum(report.profile.values())
    # Stage timers nest inside the window that makes up total_seconds,
    # which itself nests inside the outer wall-clock.
    assert total_stage_seconds <= report.total_seconds + EPS
    assert report.total_seconds <= elapsed + EPS


def _run_report(backend):
    config = RunConfig().with_overrides({**LENET, "engine.backend": backend})
    with Session(config) as session:
        return session.run().report


def _scheduler_report(backend):
    config = RunConfig().with_overrides({**LENET, "engine.backend": backend})
    with Scheduler(config) as scheduler:
        handles = scheduler.submit_many([Job(config=config) for _ in range(2)])
        reports = [handle.result().report for handle in handles]
        assert scheduler.batches == 1  # one coalesced planner batch
    return reports[0]


def _stream_report(backend):
    config = RunConfig().with_overrides(
        {**LENET, "engine.backend": backend, "streaming.window": 2}
    )
    with Session(config) as session:
        generator = session.stream_source()
        while True:
            try:
                next(generator)
            except StopIteration as stop:
                return stop.value.report


class TestProfileContract:
    @pytest.mark.parametrize("backend", ["fused", "reference"])
    @pytest.mark.parametrize(
        "surface", [_run_report, _scheduler_report, _stream_report],
        ids=["run", "scheduler", "stream"],
    )
    def test_stage_schema(self, surface, backend):
        """The exact key set, on every surface and backend."""
        report = surface(backend)
        assert list(report.profile) == list(PROFILE_STAGES)
        assert all(seconds >= 0.0 for seconds in report.profile.values())

    @pytest.mark.parametrize("plan", ["matrix", "trace"])
    def test_fused(self, rng, plan):
        """The contract holds for a whole-trace plan and for one plan per
        workload (``"matrix"``)."""
        trace = _trace(rng)
        runs = [trace] if plan == "trace" else [[workload] for workload in trace]
        for workloads in runs:
            report, elapsed = _run("fused", workloads)
            _assert_profile_contract(report, elapsed)
            assert report.profile["select"] > 0.0

    def test_reference_backend_reports_planner_stages(self, rng):
        """The planner's own stages are engine-timed for any backend."""
        report, elapsed = _run("reference", _trace(rng))
        _assert_profile_contract(report, elapsed)
        assert report.profile["pack"] > 0.0
        assert report.profile["record"] > 0.0  # kernel loop engine-timed

    def test_stage_sum_close_to_total_for_fused(self, rng):
        """Stages should account for most of the run, not just a sliver."""
        report, _ = _run("fused", _trace(rng))
        assert sum(report.profile.values()) >= 0.5 * report.total_seconds

    def test_profile_isolated_between_runs(self, rng):
        """Per-run profiles are deltas, not lifetime accumulations."""
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16, cache_size=0)
        trace = _trace(rng)
        first = engine.run(trace)
        second = engine.run(trace)
        for stage in PROFILE_STAGES:
            # A lifetime accumulation would roughly double; a delta stays
            # in the same ballpark (10x headroom for scheduler noise).
            assert second.profile[stage] <= max(
                10.0 * first.profile[stage], 1e-3
            ), stage

    def test_workload_seconds_sum_to_total(self, rng):
        report, _ = _run("fused", _trace(rng))
        assert report.total_seconds == pytest.approx(
            sum(run.seconds for run in report.runs)
        )
        assert all(run.seconds >= 0.0 for run in report.runs)
        assert np.isfinite(report.tiles_per_sec)
