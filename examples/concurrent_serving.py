"""Concurrent serving: many clients, one scheduler, shared dedup.

Prosperity's product-sparsity reuse gets *stronger* with more concurrent
work: the trace planner dedups identical tiles globally, so coalescing
many clients' requests into one planner batch means the shared tiles are
computed once for everyone. This example serves the same workloads three
ways through the canonical :mod:`repro.api` entry point:

1. serially, one :class:`~repro.api.Session` run per request;
2. coalesced, all requests through one :class:`~repro.api.Scheduler`
   batch (``submit_many`` -> one global dedup, one kernel per bucket);
3. asynchronously, ``await``-ing the same scheduler from asyncio tasks,
   plus a streaming run that yields per-workload chunks as the
   planner's shape buckets complete.

Run:  python examples/concurrent_serving.py
"""

import asyncio
import time

import numpy as np

from repro.api import AsyncSession, Job, RunConfig, Scheduler, Session

N_CLIENTS = 8


def make_requests() -> list[RunConfig]:
    """Eight client requests: two models, shared engine signature."""
    base = RunConfig().with_overrides({
        "workload.dataset": "mnist",
        "engine.backend": "fused",
        "scheduler.coalesce_window_ms": 20.0,
    })
    lenet = base.with_overrides({"workload.model": "lenet5"})
    return [lenet] * N_CLIENTS


def main() -> None:
    requests = make_requests()

    # 1. Serial baseline: each request pays its own full run.
    start = time.perf_counter()
    serial = []
    for config in requests:
        with Session(config) as session:
            serial.append(session.run())
    serial_seconds = time.perf_counter() - start
    tiles = sum(result.report.total_tiles for result in serial)
    print(f"serial    : {len(requests)} runs, {tiles} tiles in "
          f"{serial_seconds * 1e3:7.1f} ms "
          f"({tiles / serial_seconds:,.0f} tiles/sec aggregate)")

    # 2. Coalesced: one scheduler, one planner batch, one global dedup.
    start = time.perf_counter()
    with Scheduler(requests[0]) as scheduler:
        handles = scheduler.submit_many([Job(config=c) for c in requests])
        coalesced = [handle.result() for handle in handles]
        batches, shared = scheduler.batches, scheduler.jobs_coalesced
    coalesced_seconds = time.perf_counter() - start
    print(f"coalesced : {shared} jobs in {batches} planner batch(es) in "
          f"{coalesced_seconds * 1e3:7.1f} ms "
          f"({tiles / coalesced_seconds:,.0f} tiles/sec aggregate, "
          f"{serial_seconds / coalesced_seconds:.2f}x, "
          f"{coalesced[0].report.dedup_ratio:.1f}x cross-request dedup)")

    # Records are bit-identical to the serial runs, client for client.
    for mine, theirs in zip(coalesced, serial):
        for run_a, run_b in zip(mine.report.runs, theirs.report.runs):
            assert np.array_equal(run_a.records, run_b.records)
    print("identity  : coalesced records == serial records  [OK]")

    # 3. Async clients + streaming results over the same machinery.
    async def serve() -> None:
        async with AsyncSession(requests[0]) as session:
            results = await session.gather(*requests)
            print(f"async     : {len(results)} awaited jobs, "
                  f"{session.scheduler.batches} batch(es) total")
            chunks = 0
            async for chunk in session.stream(chunk=4):
                chunks += 1
                print(f"  stream chunk {chunk.index}: "
                      f"{len(chunk.runs)} workloads, {chunk.tiles} tiles "
                      f"at +{chunk.seconds * 1e3:.1f} ms")
            assert chunks > 0

    asyncio.run(serve())


if __name__ == "__main__":
    main()
