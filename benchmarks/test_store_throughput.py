"""Persistent result store: warm-hit speedup and cold overhead (ISSUE 8).

Two wall-clocks per configuration, because the async writer splits the
cost in two:

* **run** — what the caller waits for (``engine.run`` returns; puts
  are buffered and publishing overlaps the idle time that follows).
* **run+drain** — run plus ``store.close()``: the writer publishes and
  fsyncs every entry, i.e. the full cost of turning an empty store
  into a durable one.

Contracts: a *warm* VGG-16 run (every tile content already published)
beats the cold **populate-to-durable** cost by at least
``MIN_WARM_SPEEDUP`` — reading checksummed records must decisively
beat recomputing *and durably persisting* them, else the store is
pointless — and the cold **run** stays within ``MAX_COLD_OVERHEAD`` of
store-off, because the hot path only buffers (no IO, no fsync).

Every timed configuration is bit-identical to the reference transform;
numbers land in ``BENCH_engine.json`` (under ``--record-trajectory``)
under the shared regression guard, keyed as ``fused+store[cold]`` / ``fused+store[warm]``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from repro.analysis.report import format_ratio, format_table
from repro.engine import ProsperityEngine
from repro.engine.store import ResultStore
from repro.workloads import get_trace

from benchmarks.conftest import save_result
from benchmarks.test_engine_throughput import (
    TILE_K,
    TILE_M,
    _append_trajectory,
    _best_of,
    _check_regression,
    _reference_records,
)

#: Warm store must at least halve the cold populate-to-durable
#: wall-clock (run + writer drain) on VGG-16.
MIN_WARM_SPEEDUP = 2.0

#: Cold-with-store wall-clock may exceed store-off by at most this
#: factor (async publishes keep fsync off the kernel hot path).
MAX_COLD_OVERHEAD = 1.10


def _store_run(trace, store_path):
    """One engine run against a fresh store handle + fresh memory tier.

    Returns both the caller-visible run wall-clock and the run+drain
    wall-clock (``store.close()`` included — publishes + fsync landed).
    """
    store = ResultStore(store_path)
    engine = ProsperityEngine(
        backend="fused", tile_m=TILE_M, tile_k=TILE_K, store=store
    )
    started = time.perf_counter()
    report = engine.run(trace)
    run_seconds = time.perf_counter() - started
    store.close()
    total_seconds = time.perf_counter() - started
    return report, run_seconds, total_seconds


def _best_store_run(trace, store_path, repeats, cold=False):
    best_run, best_total, last_report = float("inf"), float("inf"), None
    for _ in range(repeats):
        if cold:
            shutil.rmtree(store_path, ignore_errors=True)
        last_report, run_seconds, total_seconds = _store_run(trace, store_path)
        best_run = min(best_run, run_seconds)
        best_total = min(best_total, total_seconds)
    return last_report, best_run, best_total


def test_store_throughput(results_dir, request):
    quick = request.config.getoption("--quick")
    repeats = 1 if quick else 3
    trace = get_trace("vgg16", "cifar10", preset="small")
    workload = f"{trace.model}/{trace.dataset}"
    store_path = results_dir / "_store_bench"
    shutil.rmtree(store_path, ignore_errors=True)

    reference_records = _reference_records(trace)

    def check(report, label):
        for run, expected in zip(report.runs, reference_records):
            assert np.array_equal(run.records, expected), (
                f"{label}:{run.name} diverged from reference"
            )

    def off_run(trace):
        return ProsperityEngine(
            backend="fused", tile_m=TILE_M, tile_k=TILE_K
        ).run(trace)

    check(off_run(trace), "store-off")
    off_seconds = _best_of(lambda: off_run(trace), repeats)

    cold_report, cold_seconds, cold_total = _best_store_run(
        trace, store_path, repeats, cold=True
    )
    check(cold_report, "store-cold")
    assert cold_report.store_misses > 0 and cold_report.store_hits == 0

    # Warm store: ``REPRO_BENCH_STORE`` points at a directory that CI
    # caches across runs (genuinely cross-run warm); locally the store
    # the cold reps just populated serves. One unmeasured run tops the
    # persistent store up — a pure-hit no-op when the cache restored a
    # full one.
    persist = os.environ.get("REPRO_BENCH_STORE")
    warm_path = Path(persist) if persist else store_path
    _store_run(trace, warm_path)
    warm_report, warm_seconds, warm_total = _best_store_run(
        trace, warm_path, repeats
    )
    check(warm_report, "store-warm")
    assert warm_report.store_hits > 0, "warm run never touched the store"
    assert warm_report.store_corrupt == 0

    if (
        cold_total / warm_total < MIN_WARM_SPEEDUP
        or cold_seconds > off_seconds * MAX_COLD_OVERHEAD
    ):
        # Noisy-neighbor guard (same pattern as the engine grid): one
        # re-measure with more repetitions before declaring failure.
        off_seconds = _best_of(lambda: off_run(trace), repeats + 2)
        cold_report, cold_seconds, cold_total = _best_store_run(
            trace, store_path, repeats + 2, cold=True
        )
        warm_report, warm_seconds, warm_total = _best_store_run(
            trace, warm_path, repeats + 2
        )

    tiles = cold_report.total_tiles
    warm_speedup = cold_total / warm_total
    cold_overhead = cold_seconds / off_seconds
    rows = [
        ["store off", f"{tiles / off_seconds:,.0f}", "-", "-", "-"],
        [
            "store cold",
            f"{tiles / cold_seconds:,.0f}",
            format_ratio(off_seconds / cold_seconds),
            f"{cold_total * 1000:,.0f} ms",
            f"{cold_report.store_misses} misses",
        ],
        [
            "store warm",
            f"{tiles / warm_seconds:,.0f}",
            format_ratio(off_seconds / warm_seconds),
            f"{warm_total * 1000:,.0f} ms",
            f"{warm_report.store_hits} hits",
        ],
    ]
    table = format_table(
        ["configuration", "tiles/sec", "vs store-off", "run+drain", "store traffic"],
        rows,
        title=(
            f"persistent store — {workload} fused, warm {warm_speedup:.2f}x "
            f"over cold populate, cold run overhead {cold_overhead:.2f}x"
        ),
    )
    save_result("store_throughput", table)
    (results_dir / "store_throughput.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "tiles": int(tiles),
                "store_off_tiles_per_sec": tiles / off_seconds,
                "cold_tiles_per_sec": tiles / cold_seconds,
                "warm_tiles_per_sec": tiles / warm_seconds,
                "cold_run_plus_drain_sec": cold_total,
                "warm_run_plus_drain_sec": warm_total,
                "warm_speedup_vs_cold_populate": warm_speedup,
                "cold_run_overhead_vs_off": cold_overhead,
                "quick": quick,
            },
            indent=2,
        )
        + "\n"
    )
    entries = [
        {
            "workload": workload,
            "backend": "fused+store[cold]",
            "tiles": int(tiles),
            "tiles_per_sec": tiles / cold_seconds,
            "speedup_vs_fused": off_seconds / cold_seconds,
        },
        {
            "workload": workload,
            "backend": "fused+store[warm]",
            "tiles": int(tiles),
            "tiles_per_sec": tiles / warm_seconds,
            "speedup_vs_fused": off_seconds / warm_seconds,
        },
    ]
    _check_regression(entries)
    _append_trajectory(entries, request.config)
    shutil.rmtree(store_path, ignore_errors=True)

    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm store only {warm_speedup:.2f}x over cold populate-to-durable "
        f"on {workload}, below the {MIN_WARM_SPEEDUP}x contract"
    )
    assert cold_overhead <= MAX_COLD_OVERHEAD, (
        f"cold-with-store run cost {cold_overhead:.2f}x of store-off on "
        f"{workload}, above the {MAX_COLD_OVERHEAD}x budget"
    )
