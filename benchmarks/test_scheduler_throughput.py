"""Serving-scheduler throughput: coalesced micro-batches vs serial runs.

The acceptance contract for the concurrent serving API (ISSUE 5): eight
small-workload jobs coalesced through one :class:`~repro.api.Scheduler`
batch deliver >= 1.3x the aggregate tiles/sec of the same jobs run
serially through ``Session.run()`` — and every job's records stay
bit-identical to its serial run. The speedup is product sparsity at
serving scope: one planner batch dedups identical tiles across *all*
clients (a cross-request dedup ratio near the job count here), so the
shared kernel computes each distinct tile once for everyone.

With ``--record-trajectory``, numbers are appended to the
``BENCH_engine.json`` trajectory (workload
``lenet5/mnist[jobs8]``, backends ``session-serial`` /
``scheduler-coalesced``) under the same regression guard as the engine
grid; ``--quick`` runs one repetition for the CI smoke.
"""

from __future__ import annotations

import json
import time

import numpy as np

from benchmarks.conftest import save_result
from benchmarks.test_engine_throughput import _append_trajectory, _best_of
from repro.analysis.report import format_ratio, format_table
from repro.api import Job, RunConfig, Scheduler, Session
from repro.engine import faults
from repro.workloads import get_trace

#: Contract minimum: coalesced aggregate throughput over serial Session
#: runs for N_JOBS small-workload jobs (this PR's acceptance bar).
MIN_COALESCE_SPEEDUP = 1.3

#: Concurrent client requests per batch.
N_JOBS = 8

#: Contract maximum: fraction of a coalesced batch the disabled fault
#: hooks may cost (ISSUE 7's resilience-overhead bar).
MAX_RESILIENCE_OVERHEAD = 0.02


def _serving_config() -> RunConfig:
    return RunConfig().with_overrides({
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "engine.backend": "fused",
        # submit_many() enqueues atomically, so one batch is guaranteed
        # without widening the coalescing window; a tiny window keeps the
        # serving latency out of the measured kernel time.
        "scheduler.coalesce_window_ms": 1.0,
    })


def _run_serial(config: RunConfig) -> list:
    """The baseline: each client request pays its own Session run."""
    results = []
    for _ in range(N_JOBS):
        with Session(config) as session:
            results.append(session.run())
    return results


def _run_coalesced(config: RunConfig) -> tuple[list, int, int]:
    """All requests through one scheduler: one batch, shared dedup."""
    with Scheduler(config) as scheduler:
        handles = scheduler.submit_many(
            [Job(config=config) for _ in range(N_JOBS)]
        )
        results = [handle.result() for handle in handles]
        return results, scheduler.batches, scheduler.jobs_coalesced


def test_scheduler_coalesced_throughput(results_dir, request):
    quick = request.config.getoption("--quick")
    repeats = 1 if quick else 3
    config = _serving_config()
    workload_cfg = config.workload
    # Build the trace once up front so neither side pays tracing time.
    get_trace(workload_cfg.model, workload_cfg.dataset,
              workload_cfg.preset, workload_cfg.seed)

    # Correctness first: every coalesced job's records must equal its
    # serial run bit for bit.
    serial_results = _run_serial(config)
    coalesced_results, batches, coalesced_jobs = _run_coalesced(config)
    assert batches == 1, f"expected one coalesced batch, got {batches}"
    assert coalesced_jobs == N_JOBS
    for mine, theirs in zip(coalesced_results, serial_results):
        assert mine.report.total_tiles == theirs.report.total_tiles
        for run_a, run_b in zip(mine.report.runs, theirs.report.runs):
            assert np.array_equal(run_a.records, run_b.records), run_a.name
    dedup_ratio = coalesced_results[0].report.dedup_ratio
    assert dedup_ratio >= N_JOBS * 0.9, (
        f"identical concurrent jobs should dedup ~{N_JOBS}x, got "
        f"{dedup_ratio:.2f}x"
    )

    serial_seconds = _best_of(lambda: _run_serial(config), repeats)
    coalesced_seconds = _best_of(lambda: _run_coalesced(config), repeats)
    if serial_seconds / coalesced_seconds < MIN_COALESCE_SPEEDUP:
        # Noisy-neighbor guard, as for the engine-grid contracts.
        serial_seconds = _best_of(lambda: _run_serial(config), repeats + 2)
        coalesced_seconds = _best_of(
            lambda: _run_coalesced(config), repeats + 2
        )
    speedup = serial_seconds / coalesced_seconds
    tiles = sum(result.report.total_tiles for result in serial_results)
    workload = f"{workload_cfg.model}/{workload_cfg.dataset}[jobs{N_JOBS}]"

    payload = {
        "workload": workload,
        "jobs": N_JOBS,
        "tiles": int(tiles),
        "serial_tiles_per_sec": tiles / serial_seconds,
        "coalesced_tiles_per_sec": tiles / coalesced_seconds,
        "coalesce_speedup_vs_serial": speedup,
        "dedup_ratio": dedup_ratio,
        "batches": batches,
    }
    (results_dir / "scheduler_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_result(
        "scheduler_throughput",
        format_table(
            ["workload", "jobs", "tiles", "serial t/s", "coalesced t/s",
             "speedup", "dedup"],
            [[
                workload,
                N_JOBS,
                tiles,
                f"{tiles / serial_seconds:,.0f}",
                f"{tiles / coalesced_seconds:,.0f}",
                format_ratio(speedup),
                format_ratio(dedup_ratio),
            ]],
            title=(
                "serving scheduler — coalesced micro-batch vs serial "
                f"Session runs ({N_JOBS} concurrent jobs)"
            ),
        ),
    )
    # Normalized against serial fused Session runs — recorded under the
    # speedup_vs_fused field so the regression guard compares like for
    # like (the reference backend is never timed here).
    _append_trajectory(
        [
            {
                "workload": workload,
                "backend": "session-serial",
                "tiles": int(tiles),
                "tiles_per_sec": tiles / serial_seconds,
            },
            {
                "workload": workload,
                "backend": "scheduler-coalesced",
                "tiles": int(tiles),
                "tiles_per_sec": tiles / coalesced_seconds,
                "speedup_vs_fused": speedup,
            },
        ],
        request.config,
    )

    assert speedup >= MIN_COALESCE_SPEEDUP, (
        f"coalesced scheduler speedup {speedup:.2f}x over serial "
        f"Session.run() on {workload}, below the "
        f"{MIN_COALESCE_SPEEDUP}x contract"
    )


def test_concurrent_submission_overhead(request):
    """Threaded submission adds no meaningful overhead: 8 clients racing
    submit() complete, coalesce, and stay bit-identical."""
    import threading

    config = _serving_config()
    with Session(config) as session:
        serial = session.run()
    start = time.perf_counter()
    with Scheduler(config) as scheduler:
        handles: list = [None] * N_JOBS
        barrier = threading.Barrier(N_JOBS)

        def client(slot: int) -> None:
            barrier.wait()
            handles[slot] = scheduler.submit(Job(config=config))

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(N_JOBS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [handle.result(timeout=300) for handle in handles]
    elapsed = time.perf_counter() - start
    for result in results:
        for run_a, run_b in zip(result.report.runs, serial.report.runs):
            assert np.array_equal(run_a.records, run_b.records)
    assert elapsed < 300  # completes promptly; the real gate is above


#: Hook calls a coalesced batch may make (one per kernel launch / batch
#: dispatch); the overhead bar charges 10x the counted calls.
MAX_HOOK_CALLS = 100
HOOK_HEADROOM = 10


def _count_hook_calls(config: RunConfig, monkeypatch) -> int:
    """``kernel_fault`` + ``poison_fault`` calls of one coalesced batch."""
    calls = []
    for name in ("kernel_fault", "poison_fault"):
        hook = getattr(faults, name)

        def counted(*args, _hook=hook, **kwargs):
            calls.append(1)
            return _hook(*args, **kwargs)

        monkeypatch.setattr(faults, name, counted)
    try:
        _run_coalesced(config)
    finally:
        monkeypatch.undo()
    return len(calls)


def test_resilience_overhead(results_dir, request, monkeypatch):
    """The resilience layer is free when idle: with no fault plan
    installed, the hot-path hooks the engine calls on every kernel
    dispatch cost (well) under ``MAX_RESILIENCE_OVERHEAD`` of one
    coalesced serving batch.

    The hook calls one coalesced batch actually makes are counted (and
    must stay under ``MAX_HOOK_CALLS``); the bar charges
    ``HOOK_HEADROOM`` times that count, at the cost of one
    ``kernel_fault`` + ``poison_fault`` pair per call, against the
    measured batch time.
    """
    quick = request.config.getoption("--quick")
    assert faults.active_plan() is None, "fault harness must be off"

    # Direct cost of one disabled hook (amortized over many calls).
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        faults.kernel_fault("bench.site")
        faults.poison_fault(("bench-label",), site="bench")
    per_check = (time.perf_counter() - start) / calls

    config = _serving_config()
    workload_cfg = config.workload
    get_trace(workload_cfg.model, workload_cfg.dataset,
              workload_cfg.preset, workload_cfg.seed)
    results, _, _ = _run_coalesced(config)
    tiles = sum(result.report.total_tiles for result in results)
    hook_calls = _count_hook_calls(config, monkeypatch)
    assert 0 < hook_calls < MAX_HOOK_CALLS, (
        f"one coalesced batch made {hook_calls} fault-hook calls; "
        f"expected between 1 and {MAX_HOOK_CALLS}"
    )
    coalesced_seconds = _best_of(
        lambda: _run_coalesced(config), 1 if quick else 3
    )

    charged_checks = HOOK_HEADROOM * hook_calls
    overhead = per_check * charged_checks / coalesced_seconds
    workload = f"{workload_cfg.model}/{workload_cfg.dataset}[jobs{N_JOBS}]"

    payload = {
        "workload": workload,
        "per_check_ns": per_check * 1e9,
        "hook_calls": hook_calls,
        "charged_checks": charged_checks,
        "coalesced_seconds": coalesced_seconds,
        "overhead_fraction": overhead,
        "max_overhead_fraction": MAX_RESILIENCE_OVERHEAD,
    }
    (results_dir / "resilience_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_result(
        "resilience_overhead",
        format_table(
            ["workload", "check cost", "charged checks", "batch time",
             "overhead", "bar"],
            [[
                workload,
                f"{per_check * 1e9:,.0f} ns",
                charged_checks,
                f"{coalesced_seconds * 1e3:,.1f} ms",
                f"{overhead * 100:.4f}%",
                f"< {MAX_RESILIENCE_OVERHEAD * 100:.0f}%",
            ]],
            title="resilience layer overhead with fault hooks disabled",
        ),
    )
    _append_trajectory(
        [
            {
                "workload": workload,
                "backend": "scheduler-resilience-off",
                "tiles": int(tiles),
                "tiles_per_sec": tiles / coalesced_seconds,
            },
        ],
        request.config,
    )

    assert overhead < MAX_RESILIENCE_OVERHEAD, (
        f"disabled fault hooks cost {overhead * 100:.3f}% of a coalesced "
        f"batch ({per_check * 1e9:.0f} ns/check), above the "
        f"{MAX_RESILIENCE_OVERHEAD * 100:.0f}% resilience-overhead bar"
    )
