"""Serving resilience: isolation, retries, admission control, deadlines.

Acceptance contract:

* a transient ``engine_error`` mid-batch → the dispatch retries, results
  stay bit-identical, and the retry is counted in ``Scheduler.stats``;
* one poison job in an 8-job coalesced batch fails alone with a typed
  :class:`BatchExecutionError` naming it, while the other 7 jobs return
  results bit-identical to their standalone runs;
* under ``overload_policy="shed"`` a saturating submit raises
  :class:`SchedulerSaturated` within the configured timeout and counts
  in the stats; ``"block"`` (the default) preserves the pre-resilience
  blocking behavior;
* an expired per-job deadline fails with :class:`DeadlineExceeded`
  before the job ever runs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.api import (
    BatchExecutionError,
    DeadlineExceeded,
    EngineRunResult,
    Job,
    RunConfig,
    Scheduler,
    SchedulerSaturated,
    Session,
)
from repro.engine import FaultInjected, faults

LENET = {
    "workload.model": "lenet5",
    "workload.dataset": "mnist",
    "sampling.max_tiles": 4,
}


def lenet_config(**extra) -> RunConfig:
    return RunConfig().with_overrides({**LENET, **extra})


def serial_run(config: RunConfig) -> EngineRunResult:
    """The no-faults baseline every recovered result must match."""
    with Session(config) as session:
        return session.run()


def assert_records_equal(mine, theirs) -> None:
    assert mine.report.total_tiles == theirs.report.total_tiles
    for a, b in zip(mine.report.runs, theirs.report.runs):
        assert a.name == b.name
        assert np.array_equal(a.records, b.records)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


class TestPoisonIsolation:
    def test_poison_job_fails_alone_in_batch_of_8(self):
        """The headline acceptance test: 1 poisoned, 7 healthy."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        jobs = [Job(config=cfg, label=f"client-{i}") for i in range(7)]
        jobs.append(Job(config=cfg, label="poison-7"))
        with Scheduler(cfg) as scheduler:
            with faults.injected("poison_job:match=poison"):
                handles = scheduler.submit_many(jobs)
                healthy, poisoned = handles[:7], handles[7]
                with pytest.raises(BatchExecutionError) as err:
                    poisoned.result(timeout=300)
                for handle in healthy:
                    assert_records_equal(handle.result(timeout=300), serial)
            # Every job was re-dispatched alone after the batch failure.
            assert scheduler.isolation_reruns == 8
            assert scheduler.stats["isolation_reruns"] == 8
        assert err.value.job_id == poisoned.id
        assert err.value.label == "poison-7"
        assert err.value.batch_size == 8
        assert isinstance(err.value.__cause__, FaultInjected)
        assert err.value.__cause__.transient is False

    def test_each_failed_handle_gets_its_own_exception(self):
        """Satellite 1: no shared exception object fan-out — every handle
        carries a distinct instance naming its own job."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        jobs = [Job(config=cfg, label=f"client-{i}") for i in range(4)]
        with Scheduler(cfg) as scheduler:
            with faults.injected("poison_job:match=client"):
                handles = scheduler.submit_many(jobs)
                errors = [handle.exception(timeout=300) for handle in handles]
        assert len({id(error) for error in errors}) == len(errors)
        for handle, error in zip(handles, errors):
            assert isinstance(error, BatchExecutionError)
            assert error.job_id == handle.id
            assert error.label == handle.job.label
            assert f"#{handle.id}" in str(error)

    def test_poisoned_single_job_fails_without_batch_wrapper(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            with faults.injected("poison_job:match=solo"):
                handle = scheduler.submit(Job(config=cfg, label="solo-job"))
                error = handle.exception(timeout=300)
        assert isinstance(error, FaultInjected)
        assert not isinstance(error, BatchExecutionError)


class TestTransientRetry:
    def test_coalesced_batch_retries_transient_failure(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            with faults.injected("engine_error:times=1"):
                handles = scheduler.submit_many([Job(config=cfg)] * 4)
                for handle in handles:
                    assert_records_equal(handle.result(timeout=300), serial)
            assert scheduler.jobs_retried == 4
            assert scheduler.isolation_reruns == 0

    def test_single_job_retries_transient_failure(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            with faults.injected("engine_error:times=1"):
                result = scheduler.submit(Job(config=cfg)).result(timeout=300)
            assert_records_equal(result, serial)
            assert scheduler.jobs_retried == 1

    def test_retries_exhausted_delivers_final_error(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            with faults.injected("engine_error:times=0"):
                error = scheduler.submit(Job(config=cfg)).exception(timeout=300)
        assert isinstance(error, FaultInjected)

    def test_exhausted_coalesced_batch_blames_every_job(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            with faults.injected("engine_error:times=0"):
                handles = scheduler.submit_many([Job(config=cfg)] * 2)
                errors = [handle.exception(timeout=300) for handle in handles]
        for handle, error in zip(handles, errors):
            assert isinstance(error, BatchExecutionError)
            assert error.job_id == handle.id
            assert isinstance(error.__cause__, FaultInjected)

    def test_retry_budget_zero_fails_fast(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "resilience.retries": 0,
        })
        with Scheduler(cfg) as scheduler:
            with faults.injected("engine_error:times=1"):
                error = scheduler.submit(Job(config=cfg)).exception(timeout=300)
            assert isinstance(error, FaultInjected)
            assert scheduler.jobs_retried == 0


class TestAdmissionControl:
    def _slow_config(self, **extra) -> RunConfig:
        # A wide window keeps jobs queued long enough to saturate.
        return lenet_config(**{
            "engine.backend": "fused",
            "scheduler.max_inflight": 2,
            "scheduler.coalesce_window_ms": 3000.0,
            **extra,
        })

    def test_shed_policy_raises_within_timeout(self):
        cfg = self._slow_config(**{
            "resilience.overload_policy": "shed",
            "resilience.shed_timeout_ms": 50.0,
        })
        with Scheduler(cfg) as scheduler:
            scheduler.submit(Job(config=cfg))
            scheduler.submit(Job(config=cfg))
            start = time.monotonic()
            with pytest.raises(SchedulerSaturated, match="shed"):
                scheduler.submit(Job(config=cfg))
            elapsed = time.monotonic() - start
            assert 0.04 <= elapsed < 2.0
            assert scheduler.jobs_shed == 1
            assert scheduler.stats["jobs_shed"] == 1

    def test_explicit_timeout_overrides_block_policy(self):
        cfg = self._slow_config()  # default block policy
        with Scheduler(cfg) as scheduler:
            scheduler.submit(Job(config=cfg))
            scheduler.submit(Job(config=cfg))
            with pytest.raises(SchedulerSaturated):
                scheduler.submit(Job(config=cfg), timeout=0.05)
            assert scheduler.jobs_shed == 1

    def test_block_policy_waits_indefinitely(self):
        """The default policy is the pre-resilience behavior: block until
        the dispatcher frees queue space, never raise."""
        cfg = self._slow_config(**{"scheduler.coalesce_window_ms": 50.0})
        with Scheduler(cfg) as scheduler:
            scheduler.submit(Job(config=cfg))
            scheduler.submit(Job(config=cfg))
            handle = scheduler.submit(Job(config=cfg))  # blocks, then queues
            assert isinstance(handle.result(timeout=300), EngineRunResult)
            assert scheduler.jobs_shed == 0

    def test_shed_batch_rejected_whole(self):
        cfg = self._slow_config(**{
            "resilience.overload_policy": "shed",
            "resilience.shed_timeout_ms": 50.0,
        })
        with Scheduler(cfg) as scheduler:
            scheduler.submit(Job(config=cfg))
            scheduler.submit(Job(config=cfg))
            submitted = scheduler.jobs_submitted
            with pytest.raises(SchedulerSaturated):
                scheduler.submit_many([Job(config=cfg)] * 3)
            assert scheduler.jobs_shed == 3
            assert scheduler.jobs_submitted == submitted


class TestDeadlines:
    def test_expired_job_never_runs(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "scheduler.coalesce_window_ms": 300.0,
        })
        with Scheduler(cfg) as scheduler:
            handle = scheduler.submit(Job(config=cfg, deadline_ms=20.0))
            with pytest.raises(DeadlineExceeded) as err:
                handle.result(timeout=300)
            assert scheduler.jobs_expired == 1
        assert err.value.job_id == handle.id
        assert "20 ms" in str(err.value)

    def test_config_deadline_applies_to_streaming_jobs(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "scheduler.coalesce_window_ms": 300.0,
            "resilience.deadline_ms": 20.0,
        })
        with Scheduler(cfg) as scheduler:
            handle = scheduler.submit(Job(config=cfg), stream=True)
            # The stream terminates with the sentinel, then raises.
            with pytest.raises(DeadlineExceeded):
                while handle.next_chunk(timeout=300) is not None:
                    pass
            assert scheduler.jobs_expired == 1

    def test_generous_deadline_runs_normally(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            handle = scheduler.submit(Job(config=cfg, deadline_ms=600000.0))
            assert_records_equal(handle.result(timeout=300), serial)
            assert scheduler.jobs_expired == 0

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            Job(deadline_ms=0)
        with pytest.raises(ValueError, match="deadline_ms"):
            Job(deadline_ms=-5.0)


class TestFaultsFromConfig:
    def test_scheduler_installs_configured_plan(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "resilience.faults": "engine_error:times=1",
        })
        serial = serial_run(lenet_config(**{"engine.backend": "fused"}))
        try:
            with Scheduler(cfg) as scheduler:
                assert faults.active_plan() is not None
                result = scheduler.submit(Job(config=cfg)).result(timeout=300)
                assert_records_equal(result, serial)
                assert scheduler.jobs_retried == 1
        finally:
            faults.clear()

    def test_session_installs_configured_plan(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "resilience.faults": "engine_error:times=1",
        })
        serial = serial_run(lenet_config(**{"engine.backend": "fused"}))
        try:
            with Session(cfg) as session:
                assert faults.active_plan() is not None
                # Session.run has no retry layer; the injected error
                # surfaces, then the burned-out plan lets a rerun pass.
                with pytest.raises(FaultInjected):
                    session.run()
                assert_records_equal(session.run(), serial)
        finally:
            faults.clear()

    def test_empty_spec_leaves_harness_off(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg):
            assert faults.active_plan() is None


class TestCliFooter:
    def test_batch_footer_reports_retries(self, capsys, tmp_path):
        """The chaos drill CI runs: a CLI batch job hit by an injected
        transient engine error retries, succeeds, and prints the count."""
        from repro.cli import main

        path = lenet_config().to_file(tmp_path / "job.json")
        args = ["batch", "--config", str(path),
                "--set", "resilience.faults=engine_error:times=1"]
        try:
            assert main(args) == 0
        finally:
            faults.clear()
        out = capsys.readouterr().out
        assert "resilience: jobs retried: 1" in out

    def test_run_footer_silent_when_healthy(self, capsys):
        from repro.cli import main

        args = ["run", "--model", "lenet5", "--dataset", "mnist",
                "--backend", "fused"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resilience:" not in out
        assert "degraded" not in out


class TestStreamingUnderFailure:
    def test_failed_streaming_job_gets_terminal_sentinel(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            with faults.injected("poison_job:match=bad"):
                handle = scheduler.submit(
                    Job(config=cfg, label="bad-stream"), stream=True
                )
                with pytest.raises(BatchExecutionError):
                    while handle.next_chunk(timeout=300) is not None:
                        pass

    def test_recovered_streaming_job_still_streams(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            with faults.injected("engine_error:times=1"):
                handle = scheduler.submit(Job(config=cfg), stream=True)
                chunks = list(handle.chunks())
                result = handle.result(timeout=300)
        assert_records_equal(result, serial)
        # The documented restart semantics: the re-dispatched job's
        # stream starts over (chunk indices back at 0), and the chunks
        # from the restart onward cover every workload with exact
        # records (completion order, as for any stream).
        restart = max(
            i for i, chunk in enumerate(chunks) if chunk.index == 0
        )
        streamed = {
            run.name: run.records
            for chunk in chunks[restart:]
            for run in chunk.runs
        }
        assert sorted(streamed) == sorted(
            run.name for run in serial.report.runs
        )
        for run in serial.report.runs:
            assert np.array_equal(streamed[run.name], run.records)


class TestCancelVsDispatchRace:
    """Satellite 3: cancellation racing the dispatcher either fully
    cancels or fully runs — never an unresolved future, and streaming
    handles always receive the terminal sentinel."""

    def test_race_resolves_every_future(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "scheduler.coalesce_window_ms": 0.0,
        })
        outcomes = {"cancelled": 0, "ran": 0}
        for _ in range(12):
            with Scheduler(cfg) as scheduler:
                handle = scheduler.submit(Job(config=cfg), stream=True)
                cancelled = []
                thread = threading.Thread(
                    target=lambda: cancelled.append(handle.cancel())
                )
                thread.start()
                thread.join()
                # Fully cancelled or fully run — nothing in between.
                if cancelled[0]:
                    outcomes["cancelled"] += 1
                    assert handle.cancelled()
                    with pytest.raises(CancelledError):
                        handle.result(timeout=300)
                else:
                    outcomes["ran"] += 1
                    assert isinstance(
                        handle.result(timeout=300), EngineRunResult
                    )
                # Streaming handles always get the terminal sentinel:
                # draining must terminate (no hang), even if the drain
                # ends by raising the job's terminal state.
                try:
                    while handle.next_chunk(timeout=60) is not None:
                        pass
                except BaseException as exc:  # noqa: BLE001 - cancelled path
                    assert handle.cancelled(), exc
                assert handle.done()
        assert sum(outcomes.values()) == 12
