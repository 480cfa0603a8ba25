"""Network serving throughput: thousands of jobs through the wire path.

The acceptance contract for the serving front end (ISSUE 9): a mixed
tenant/priority flood of jobs submitted through real sockets —
:class:`~repro.api.ServeClient` connections into a live
:class:`~repro.server.ReproServer` — still engages the scheduler's
coalescing, delivering aggregate throughput >= 2x the same jobs run
serially through ``Session.run()``. The HTTP layer adds threads and
JSON framing, but each coalesce window still merges the concurrent
requests into one planner batch, so product-sparsity dedup keeps
working across tenants exactly as it does in-process.

With ``--record-trajectory``, numbers are appended to the
``BENCH_engine.json`` trajectory (workload
``lenet5/mnist[serveN]``, backends ``session-serial`` /
``serve-coalesced``) under the same regression guard as the engine
grid; ``--quick`` shrinks the flood for the CI smoke.
"""

from __future__ import annotations

import json
import threading
import time

from benchmarks.conftest import save_result
from benchmarks.test_engine_throughput import _append_trajectory, _best_of
from repro.analysis.report import format_ratio, format_table
from repro.api import RunConfig, ServeClient, Session
from repro.server import ReproServer
from repro.workloads import get_trace

#: Contract minimum: aggregate wire-path throughput over serial Session
#: runs (the ISSUE 9 acceptance bar).
MIN_SERVE_SPEEDUP = 2.0

#: Total jobs pushed through the server (full mode).
N_JOBS = 2048

#: Concurrent client connections (each its own thread + ServeClient).
N_CLIENTS = 16

#: Serial Session runs timed to establish the per-job baseline.
SERIAL_SAMPLE = 32

TENANTS = ("acme", "globex", "initech")
PRIORITIES = ("interactive", "batch")


def _serving_config() -> RunConfig:
    return RunConfig().with_overrides({
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "engine.backend": "fused",
        # Wide enough that one wave of concurrent requests lands in one
        # window, small enough that the window itself stays off the
        # measured throughput.
        "scheduler.coalesce_window_ms": 5.0,
    })


def _run_serial_sample(config: RunConfig) -> None:
    """The baseline: each client request pays its own Session run."""
    for _ in range(SERIAL_SAMPLE):
        with Session(config) as session:
            session.run()


def _run_wire_flood(config: RunConfig, jobs: int) -> tuple[float, dict]:
    """All jobs through real sockets; returns (seconds, /metrics doc)."""
    per_client = jobs // N_CLIENTS
    errors: list[BaseException] = []
    with ReproServer(config) as server:
        barrier = threading.Barrier(N_CLIENTS)

        def client(slot: int) -> None:
            try:
                with ServeClient(server.url, timeout=600.0) as conn:
                    barrier.wait()
                    for index in range(per_client):
                        conn.submit(
                            "run",
                            tenant=TENANTS[(slot + index) % len(TENANTS)],
                            priority=PRIORITIES[index % len(PRIORITIES)],
                            records="digest",
                        )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not errors, errors[:3]
        with ServeClient(server.url) as conn:
            metrics = conn.metrics()
    return elapsed, metrics


def test_serve_wire_throughput(results_dir, request):
    quick = request.config.getoption("--quick")
    repeats = 1 if quick else 3
    jobs = 256 if quick else N_JOBS
    jobs -= jobs % N_CLIENTS
    config = _serving_config()
    workload_cfg = config.workload
    # Build the trace once up front so neither side pays tracing time.
    get_trace(workload_cfg.model, workload_cfg.dataset,
              workload_cfg.preset, workload_cfg.seed)
    with Session(config) as session:
        tiles_per_job = session.run().report.total_tiles

    serial_seconds = _best_of(lambda: _run_serial_sample(config), repeats)
    wire_seconds, metrics = _run_wire_flood(config, jobs)

    serial_tps = SERIAL_SAMPLE * tiles_per_job / serial_seconds
    wire_tps = jobs * tiles_per_job / wire_seconds
    if wire_tps / serial_tps < MIN_SERVE_SPEEDUP:
        # Noisy-neighbor guard, as for the engine-grid contracts.
        serial_seconds = _best_of(
            lambda: _run_serial_sample(config), repeats + 2
        )
        wire_seconds, metrics = _run_wire_flood(config, jobs)
        serial_tps = SERIAL_SAMPLE * tiles_per_job / serial_seconds
        wire_tps = jobs * tiles_per_job / wire_seconds
    speedup = wire_tps / serial_tps

    # The flood must have exercised the serving semantics end to end:
    # every request answered 200, coalescing engaged (far fewer planner
    # batches than jobs), and the shared batches deduped across tenants.
    stats = metrics["scheduler"]
    assert metrics["server"]["requests_by_status"] == {"200": jobs}
    assert stats["jobs_submitted"] == jobs
    assert stats["jobs_by_tenant"].keys() >= set(TENANTS)
    assert stats["batches"] < jobs / 2, (
        f"{stats['batches']} planner batches for {jobs} jobs — "
        "coalescing did not engage over the wire"
    )
    assert metrics["server"]["dedup"]["best_ratio"] > 1.0

    workload = f"{workload_cfg.model}/{workload_cfg.dataset}[serve{jobs}]"
    payload = {
        "workload": workload,
        "jobs": jobs,
        "clients": N_CLIENTS,
        "tiles_per_job": int(tiles_per_job),
        "serial_tiles_per_sec": serial_tps,
        "wire_tiles_per_sec": wire_tps,
        "serve_speedup_vs_serial": speedup,
        "planner_batches": stats["batches"],
        "best_dedup_ratio": metrics["server"]["dedup"]["best_ratio"],
        "mean_request_ms": metrics["server"]["latency_ms"]["all"]["mean_ms"],
    }
    (results_dir / "serve_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_result(
        "serve_throughput",
        format_table(
            ["workload", "jobs", "clients", "serial t/s", "wire t/s",
             "speedup", "batches", "mean ms"],
            [[
                workload,
                jobs,
                N_CLIENTS,
                f"{serial_tps:,.0f}",
                f"{wire_tps:,.0f}",
                format_ratio(speedup),
                stats["batches"],
                f"{payload['mean_request_ms']:.1f}",
            ]],
            title=(
                "network serving — mixed-tenant flood through real "
                f"sockets vs serial Session runs ({N_CLIENTS} clients)"
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
                "tiles": int(jobs * tiles_per_job),
                "tiles_per_sec": serial_tps,
            },
            {
                "workload": workload,
                "backend": "serve-coalesced",
                "tiles": int(jobs * tiles_per_job),
                "tiles_per_sec": wire_tps,
                "speedup_vs_fused": speedup,
            },
        ],
        request.config,
    )

    assert speedup >= MIN_SERVE_SPEEDUP, (
        f"wire-path serving speedup {speedup:.2f}x over serial "
        f"Session.run() on {workload}, below the "
        f"{MIN_SERVE_SPEEDUP}x contract"
    )
