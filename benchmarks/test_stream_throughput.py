"""Streaming throughput: sliding windows vs the batch planner path.

The acceptance contract for streaming inference (ISSUE 10): replaying a
workload trace through :class:`~repro.streaming.StreamRunner` — windows
packed into planner batches, tiles assembled at global matrix
boundaries, cross-window dedup through the shared forest cache — keeps
aggregate throughput >= ``MIN_STREAM_RATIO`` (0.8x) of the same trace
run through the batch trace planner. Streaming buys incremental,
bounded-latency results; this gate pins how much of the batch path's
throughput that costs. Bit-identity between the two paths is asserted
on every run before anything is timed.

With ``--record-trajectory``, numbers are appended to the
``BENCH_engine.json`` trajectory (backends
``batch-plan`` / ``stream[w<window>]``) under the same regression guard
as the engine grid; ``--quick`` swaps VGG-16 for LeNet-5 in the CI
smoke.
"""

from __future__ import annotations

import json

import numpy as np

from benchmarks.conftest import save_result
from benchmarks.test_engine_throughput import (
    _append_trajectory,
    _best_of,
    _check_regression,
)
from repro.analysis.report import format_ratio, format_table
from repro.api import RunConfig, Session

#: Contract minimum: streamed tiles/sec over batch-planner tiles/sec on
#: the same replayed trace (the ISSUE 10 acceptance bar).
MIN_STREAM_RATIO = 0.8

#: Window geometry for the measured stream (timesteps per planner batch).
WINDOW = 2


def _stream_config(model: str, dataset: str) -> RunConfig:
    return RunConfig().with_overrides({
        "workload.model": model,
        "workload.dataset": dataset,
        "engine.backend": "fused",
        "streaming.window": WINDOW,
    })


def _drain(generator):
    chunks = []
    while True:
        try:
            chunks.append(next(generator))
        except StopIteration as stop:
            return chunks, stop.value


def test_stream_throughput(results_dir, request):
    quick = request.config.getoption("--quick")
    model, dataset = ("lenet5", "mnist") if quick else ("vgg16", "cifar10")
    repeats = 1 if quick else 3
    config = _stream_config(model, dataset)
    workload = f"{model}/{dataset}"

    # Bit-identity first: the streamed records must equal the batch
    # planner's, workload for workload, before any timing is believed.
    with Session(config) as session:
        batch_report = session.run().report
        chunks, stream_result = _drain(session.stream_source())
    batch_records = {run.name: run.records for run in batch_report.runs}
    for run in stream_result.report.runs:
        assert np.array_equal(run.records, batch_records[run.name]), run.name

    # Fresh session per repetition: both paths start from a cold forest
    # cache, so the comparison is planner-vs-planner, not warm-vs-cold.
    def batch_run():
        with Session(config) as session:
            return session.run()

    def stream_run():
        with Session(config) as session:
            return _drain(session.stream_source())

    batch_seconds = _best_of(batch_run, repeats)
    stream_seconds = _best_of(stream_run, repeats)
    if stream_seconds > batch_seconds / MIN_STREAM_RATIO:
        # Noisy-neighbor guard, as for the engine contracts.
        batch_seconds = _best_of(batch_run, repeats + 2)
        stream_seconds = _best_of(stream_run, repeats + 2)

    tiles = batch_report.total_tiles
    ratio = batch_seconds / stream_seconds
    payload = {
        "workload": workload,
        "window": WINDOW,
        "windows": stream_result.windows,
        "steps": stream_result.steps,
        "tiles": int(tiles),
        "batch_tiles_per_sec": tiles / batch_seconds,
        "stream_tiles_per_sec": tiles / stream_seconds,
        "stream_vs_batch": ratio,
        "stream_dedup_ratio": stream_result.dedup_ratio,
    }
    (results_dir / "stream_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_result(
        "stream_throughput",
        format_table(
            ["workload", "tiles", "windows", "batch t/s", "stream t/s",
             "stream/batch", "dedup"],
            [[
                workload,
                tiles,
                stream_result.windows,
                f"{tiles / batch_seconds:,.0f}",
                f"{tiles / stream_seconds:,.0f}",
                format_ratio(ratio),
                format_ratio(stream_result.dedup_ratio),
            ]],
            title=(
                f"streaming throughput — window={WINDOW} sliding windows "
                "vs batch trace planner"
            ),
        ),
    )
    entries = [
        {
            "workload": workload,
            "backend": "batch-plan",
            "tiles": int(tiles),
            "tiles_per_sec": tiles / batch_seconds,
        },
        {
            "workload": workload,
            "backend": f"stream[w{WINDOW}]",
            "tiles": int(tiles),
            "tiles_per_sec": tiles / stream_seconds,
        },
    ]
    _check_regression(entries)
    _append_trajectory(entries, request.config)

    assert ratio >= MIN_STREAM_RATIO, (
        f"streaming throughput {ratio:.2f}x of the batch planner on "
        f"{workload}, below the {MIN_STREAM_RATIO}x contract"
    )
