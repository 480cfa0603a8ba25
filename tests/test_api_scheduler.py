"""Serving scheduler: coalesced batches, streaming, async, cancellation.

Acceptance contract: coalesced concurrent execution is bit-identical to
serial execution for every backend; concurrent jobs on one scheduler
share one engine (and its cache); no job waits more than one coalescing
window; and the Future-based ``Session.submit`` contract is preserved.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.api import (
    AsyncSession,
    EngineRunResult,
    Job,
    RunChunk,
    RunConfig,
    Scheduler,
    Session,
    StreamTimeoutError,
)

LENET = {
    "workload.model": "lenet5",
    "workload.dataset": "mnist",
    "sampling.max_tiles": 4,
}


def lenet_config(**extra) -> RunConfig:
    return RunConfig().with_overrides({**LENET, **extra})


def serial_run(config: RunConfig) -> EngineRunResult:
    """The serial baseline every coalesced result must match bit-for-bit."""
    with Session(config) as session:
        return session.run()


def assert_records_equal(mine, theirs) -> None:
    assert mine.report.total_tiles == theirs.report.total_tiles
    for a, b in zip(mine.report.runs, theirs.report.runs):
        assert a.name == b.name
        assert np.array_equal(a.records, b.records)


class TestJob:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            Job(kind="fly")

    def test_of_coercions(self):
        cfg = lenet_config()
        assert Job.of("density").kind == "density"
        assert Job.of(cfg).config is cfg
        job = Job(kind="run", config=cfg)
        assert Job.of(job) is job
        with pytest.raises(TypeError, match="expected Job"):
            Job.of(42)

    def test_stream_only_for_run(self):
        with Scheduler(lenet_config()) as scheduler:
            with pytest.raises(ValueError, match="only supported for 'run'"):
                scheduler.submit("density", stream=True)


class TestCoalescing:
    def test_submit_many_coalesces_into_one_batch(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            handles = scheduler.submit_many([Job(config=cfg) for _ in range(4)])
            results = [handle.result() for handle in handles]
            assert scheduler.batches == 1
            assert scheduler.jobs_coalesced == 4
        for result in results:
            assert_records_equal(result, serial)
            assert result.report.plan == "trace"
            # Batch-scoped dedup: 4 identical jobs collapse >= 4x.
            assert result.report.dedup_ratio >= 4.0

    @pytest.mark.parametrize(
        "backend,max_tiles",
        [("reference", None), ("fused", None), ("fused", 0)],
    )
    def test_coalesced_bit_identical_every_backend(self, backend, max_tiles):
        """Acceptance: coalesced == serial for every backend, sampled
        (``None`` keeps the suite's 4-tile cap) and exact (``0``)."""
        overrides = {"engine.backend": backend}
        if max_tiles is not None:
            overrides["sampling.max_tiles"] = max_tiles
        cfg = lenet_config(**overrides)
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            results = scheduler.gather([cfg, cfg, cfg])
        for result in results:
            assert_records_equal(result, serial)

    def test_mixed_workloads_scatter_back_per_job(self):
        """Different models in one batch: each job gets its own records."""
        lenet = lenet_config(**{"engine.backend": "fused"})
        vgg = RunConfig().with_overrides({
            "workload.model": "vgg16", "workload.dataset": "cifar10",
            "engine.backend": "fused",
        })
        serial_lenet, serial_vgg = serial_run(lenet), serial_run(vgg)
        with Scheduler(lenet) as scheduler:
            mine_lenet, mine_vgg = scheduler.gather([lenet, vgg])
            assert scheduler.batches == 1  # same engine signature
        assert_records_equal(mine_lenet, serial_lenet)
        assert_records_equal(mine_vgg, serial_vgg)

    def test_incompatible_engines_run_separately(self):
        """Different signatures never share a batch, results stay exact."""
        fused = lenet_config(**{"engine.backend": "fused"})
        reference = lenet_config(**{"engine.backend": "reference"})
        with Scheduler(fused) as scheduler:
            a, b = scheduler.gather([fused, reference])
            assert scheduler.jobs_coalesced == 0  # two single-job groups
        assert_records_equal(a, serial_run(fused))
        assert_records_equal(b, serial_run(reference))
        assert a.report.backend == "fused"
        assert b.report.backend == "reference"

    def test_single_job_matches_session_exactly(self):
        """A lone non-streaming job takes the plain Session.run path."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            result = scheduler.submit("run").result()
        assert result.report.plan == "trace"
        assert_records_equal(result, serial_run(cfg))

    def test_verify_flag_respected_in_batch(self):
        cfg = lenet_config(**{"engine.backend": "fused", "engine.verify": True})
        with Scheduler(cfg) as scheduler:
            results = scheduler.gather([cfg, cfg])
        assert all(result.verified is True for result in results)

    def test_default_config_used_for_bare_submit(self):
        cfg = lenet_config()
        with Scheduler(cfg) as scheduler:
            result = scheduler.submit("tradeoff").result()
        assert result.config is cfg


class TestMixedKinds:
    def test_non_engine_jobs_ride_along(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            run_handle = scheduler.submit("run")
            density_handle = scheduler.submit("density")
            tradeoff_handle = scheduler.submit("tradeoff")
            assert run_handle.result().report.total_tiles > 0
            assert density_handle.result().report.product_density > 0
            assert tradeoff_handle.result().result.profitable


class TestQueueBounds:
    def test_submit_blocks_until_space_frees(self):
        cfg = lenet_config()
        scheduler = Scheduler(cfg, max_inflight=1, coalesce_window_ms=50)
        try:
            first = scheduler.submit("tradeoff")
            done = threading.Event()
            extra = []

            def blocked_submit():
                extra.append(scheduler.submit("tradeoff"))
                done.set()

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            assert done.wait(timeout=30)
            thread.join()
            assert first.result().result is not None
            assert extra[0].result().result is not None
            assert scheduler.jobs_submitted == 2
        finally:
            scheduler.close()

    def test_submit_after_close_raises(self):
        scheduler = Scheduler(lenet_config())
        scheduler.close()
        scheduler.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit("run")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_inflight"):
            Scheduler(lenet_config(), max_inflight=0)
        with pytest.raises(ValueError, match="coalesce_window_ms"):
            Scheduler(lenet_config(), coalesce_window_ms=-1)


class TestCancellation:
    def test_cancel_queued_job(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        # A long window guarantees the jobs are still queued when we cancel.
        scheduler = Scheduler(cfg, coalesce_window_ms=2000)
        try:
            keep = scheduler.submit(Job(config=cfg))
            drop = scheduler.submit(Job(config=cfg))
            assert drop.cancel()
            assert drop.cancelled()
            assert_records_equal(keep.result(), serial_run(cfg))
            with pytest.raises(CancelledError):
                drop.result()
        finally:
            scheduler.close()

    def test_cancel_after_completion_fails(self):
        with Scheduler(lenet_config()) as scheduler:
            handle = scheduler.submit("tradeoff")
            handle.result()
            assert not handle.cancel()

    def test_cancelled_stream_terminates(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        scheduler = Scheduler(cfg, coalesce_window_ms=2000)
        try:
            handle = scheduler.submit("run", stream=True)
            assert handle.cancel()
            with pytest.raises(CancelledError):
                list(handle.chunks())
        finally:
            scheduler.close()


class TestFairness:
    def test_no_job_waits_more_than_one_window(self):
        """Every queued job is drained at the end of each window: a burst
        larger than any grouping heuristic completes in one dispatch."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg, coalesce_window_ms=100) as scheduler:
            handles = scheduler.submit_many([Job(config=cfg) for _ in range(6)])
            start = time.perf_counter()
            for handle in handles:
                handle.result(timeout=60)
            elapsed = time.perf_counter() - start
            assert scheduler.batches == 1  # one window, one batch
        # Not a tight bound — just "did not serialize into 6 windows".
        assert elapsed < 60


class TestStreaming:
    def test_chunks_cover_run_bit_identically(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            handle = scheduler.submit("run", stream=True)
            chunks = list(handle.chunks())
            final = handle.result()
        assert all(isinstance(chunk, RunChunk) for chunk in chunks)
        assert sum(chunk.tiles for chunk in chunks) == serial.report.total_tiles
        # Every workload appears exactly once across chunks, records exact.
        streamed = {
            run.name: run.records for chunk in chunks for run in chunk.runs
        }
        assert sorted(streamed) == sorted(
            run.name for run in serial.report.runs
        )
        for run in serial.report.runs:
            assert np.array_equal(streamed[run.name], run.records)
        assert_records_equal(final, serial)

    def test_chunk_grouping(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        workloads = serial_run(cfg).report.runs
        with Scheduler(cfg) as scheduler:
            handle = scheduler.submit("run", stream=True, chunk=3)
            chunks = list(handle.chunks())
        assert len(chunks) == -(-len(workloads) // 3)
        assert [chunk.index for chunk in chunks] == list(range(len(chunks)))
        assert chunks[0].stats.tiles == chunks[0].tiles

    def test_streaming_rides_in_coalesced_batch(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg) as scheduler:
            stream_handle = scheduler.submit("run", config=cfg, stream=True)
            plain = scheduler.submit_many([Job(config=cfg)])[0]
            chunks = list(stream_handle.chunks())
            assert sum(c.tiles for c in chunks) == serial.report.total_tiles
            assert_records_equal(plain.result(), serial)

    def test_non_streaming_handle_rejects_chunks(self):
        with Scheduler(lenet_config()) as scheduler:
            handle = scheduler.submit("tradeoff")
            handle.result()
            with pytest.raises(RuntimeError, match="stream=True"):
                handle.next_chunk()

    def test_next_chunk_timeout_is_a_timeout_error(self):
        """The documented contract: a timed-out ``next_chunk`` raises
        ``TimeoutError`` (same family as ``result(timeout=)``)."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        scheduler = Scheduler(cfg, coalesce_window_ms=5000)
        try:
            handle = scheduler.submit("run", stream=True)
            with pytest.raises(TimeoutError) as err:
                handle.next_chunk(timeout=0.05)
            assert isinstance(err.value, StreamTimeoutError)
            assert f"#{handle.id}" in str(err.value)
            handle.cancel()
        finally:
            scheduler.close(wait=False)

    def test_next_chunk_timeout_is_not_queue_empty(self):
        """The pre-1.4 ``queue.Empty`` bridge is gone: the exception is
        a plain ``TimeoutError`` subclass and nothing else."""
        import queue

        assert not issubclass(StreamTimeoutError, queue.Empty)


class TestSharedResources:
    def test_one_engine_across_coalesced_batches(self):
        """Acceptance: one engine (and its cache) serves every batch and
        job: after the first batch, nothing misses the cache."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Scheduler(cfg) as scheduler:
            first = scheduler.gather([cfg, cfg, cfg])
            later = scheduler.gather([cfg, cfg]) + [scheduler.submit("run").result()]
            assert first[0].report.cache_misses > 0
            assert all(result.report.cache_misses == 0 for result in later)
            assert scheduler.batches == 2  # the lone submit runs unbatched

    def test_adopted_engine_stays_open(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            engine = session.engine
            scheduler = Scheduler(cfg)
            scheduler.adopt_engine(cfg, engine)
            result = scheduler.submit("run").result()
            assert result.report.total_tiles > 0
            scheduler.close()
            # The session's engine survived the scheduler's close.
            assert session.run().report.total_tiles > 0

    def test_errors_delivered_via_future(self):
        bad = lenet_config(**{"workload.model": "no-such-model"})
        with Scheduler(lenet_config()) as scheduler:
            handles = scheduler.submit_many([Job(config=bad), Job(config=bad)])
            for handle in handles:
                with pytest.raises(Exception, match="no-such-model"):
                    handle.result()

    def test_bad_job_does_not_poison_its_batch(self):
        """Per-job isolation: a job whose trace cannot be built fails
        alone; the compatible jobs sharing its batch still succeed."""
        good = lenet_config(**{"engine.backend": "fused"})
        bad = good.with_overrides({"workload.model": "no-such-model"})
        serial = serial_run(good)
        with Scheduler(good) as scheduler:
            handles = scheduler.submit_many(
                [Job(config=good), Job(config=bad), Job(config=good)]
            )
            with pytest.raises(Exception, match="no-such-model"):
                handles[1].result()
            assert_records_equal(handles[0].result(), serial)
            assert_records_equal(handles[2].result(), serial)


class TestConcurrencySmoke:
    """The CI concurrency job: 8 simultaneous clients on one scheduler."""

    N_JOBS = 8

    def test_eight_concurrent_submits(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)
        with Scheduler(cfg, coalesce_window_ms=200) as scheduler:
            handles: list = [None] * self.N_JOBS
            barrier = threading.Barrier(self.N_JOBS)

            def client(slot: int) -> None:
                barrier.wait()
                handles[slot] = scheduler.submit(Job(config=cfg))

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(self.N_JOBS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [handle.result(timeout=120) for handle in handles]
        for result in results:
            assert_records_equal(result, serial)

    def test_eight_async_jobs(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)

        async def main():
            async with AsyncSession(cfg) as session:
                return await session.gather(*[cfg] * self.N_JOBS)

        results = asyncio.run(main())
        assert len(results) == self.N_JOBS
        for result in results:
            assert_records_equal(result, serial)


class TestAsyncSession:
    def test_await_run_and_kinds(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)

        async def main():
            async with AsyncSession(cfg) as session:
                run = await session.run()
                tradeoff = await session.tradeoff()
                return run, tradeoff

        run, tradeoff = asyncio.run(main())
        assert_records_equal(run, serial)
        assert tradeoff.result.profitable

    def test_gather_coalesces(self):
        cfg = lenet_config(**{"engine.backend": "fused"})

        async def main():
            async with AsyncSession(cfg) as session:
                results = await session.gather(cfg, cfg, cfg)
                return results, session.scheduler.batches

        results, batches = asyncio.run(main())
        assert batches == 1
        assert len(results) == 3

    def test_async_stream(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        serial = serial_run(cfg)

        async def main():
            async with AsyncSession(cfg) as session:
                return [chunk async for chunk in session.stream()]

        chunks = asyncio.run(main())
        assert sum(chunk.tiles for chunk in chunks) == serial.report.total_tiles

    def test_shared_scheduler_not_closed(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        scheduler = Scheduler(cfg)
        try:
            async def main():
                async with AsyncSession(cfg, scheduler=scheduler) as session:
                    await session.run()

            asyncio.run(main())
            # Still usable after the async session exits.
            assert scheduler.submit("tradeoff").result().result is not None
        finally:
            scheduler.close()
