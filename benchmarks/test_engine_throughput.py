"""Engine throughput: the trace-planned fused path against the oracle.

This is the perf gate for the engine subsystem. Every run re-checks that
the trace-planned ``fused`` records are bit-identical to the per-tile
:mod:`repro.core` oracle on each tier-1 workload, measures tiles/sec for
both, and asserts the contract speedups: on VGG-16 the trace-planned
fused path >= 9x over the core oracle, and on a multi-timestep trace one
whole-trace plan >= 1.5x over one ``transform_trace([w])`` per workload
(the per-matrix scope, without cross-workload dedup).

Results land in ``benchmarks/results/`` (rendered table + JSON) and the
machine-readable perf trajectory is *appended* to repo-root
``BENCH_engine.json`` when pytest runs with ``--record-trajectory``
(a plain run only reads it): one history record per (git SHA, date), each
holding one entry per (workload, backend) with tiles/sec and speedup —
the history survives across PRs so the trend is chartable. Before
appending, the current numbers are compared against the last committed
record: machine-normalized speedups that regress by more than 2x
hard-fail, absolute tiles/sec drops only warn (shared CI runners vary
too much for hard absolute gates); ``REPRO_BENCH_SKIP_REGRESSION=1``
disables the guard. (``pytest benchmarks/test_engine_throughput.py
--quick --record-trajectory`` is the CI smoke mode: one repetition,
VGG-16 only, recorded.)
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
import time
import warnings

import numpy as np
import pytest

from benchmarks.conftest import save_result
from repro.analysis.report import format_ratio, format_table
from repro.core.prosparsity import transform_matrix
from repro.core.spike_matrix import SpikeMatrix
from repro.engine import ProsperityEngine
from repro.snn.trace import GeMMWorkload, ModelTrace
from repro.workloads import get_trace

#: Tier-1 workloads: the model/dataset pairs the test suite exercises.
TIER1_GRID = (
    ("vgg16", "cifar10"),
    ("lenet5", "mnist"),
    ("spikformer", "cifar10"),
)

#: Contract minimum for trace-planned fused over the core oracle on
#: VGG-16: the product of the two 3x contracts it replaces (a bulk NumPy
#: path >= 3x over the oracle, tile-batched fused >= 3x over that).
MIN_VGG16_SPEEDUP = 9.0

#: Contract minimum for one whole-trace plan over one per-workload plan
#: per workload on a multi-timestep trace (the trace planner's contract).
MIN_PLAN_SPEEDUP = 1.5

#: Timesteps the multi-timestep planner benchmark unrolls.
PLAN_TIME_STEPS = 8

#: Regression-guard thresholds against the last committed trajectory
#: record: machine-normalized speedup_vs_reference drops beyond
#: ``HARD_REGRESSION`` fail; absolute tiles/sec drops beyond
#: ``SOFT_REGRESSION`` warn only (shared runners differ too much).
HARD_REGRESSION = 2.0
SOFT_REGRESSION = 1.3

TILE_M, TILE_K = 256, 16

#: Perf-trajectory file (repo root) uploaded as a CI artifact per PR.
BENCH_TRAJECTORY = pathlib.Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=BENCH_TRAJECTORY.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=10,
    ).stdout.strip()


def _git_sha() -> str:
    """HEAD's short SHA, with a ``-dirty`` marker for uncommitted code.

    Only paths that can change benchmark numbers count as dirty (the
    library and the benchmark modules — not results files or the
    trajectory itself, which this run rewrites), so numbers are never
    attributed to a commit that does not contain the measured code.
    """
    try:
        sha = _git("rev-parse", "--short", "HEAD")
    except Exception:
        return "unknown"
    try:
        dirty = _git("status", "--porcelain", "--", "src", "benchmarks/*.py")
    except Exception:
        dirty = ""
    return f"{sha}-dirty" if dirty else sha


#: Minimum entry shape the regression guard relies on; everything else
#: in an entry is provenance and passes through untouched.
ENTRY_REQUIRED = (("workload", str), ("backend", str), ("tiles_per_sec", (int, float)))


def entry_problem(entry) -> str | None:
    """Why ``entry`` cannot feed the regression guard, or ``None``."""
    if not isinstance(entry, dict):
        return f"not an object: {entry!r}"
    for name, kind in ENTRY_REQUIRED:
        value = entry.get(name)
        if isinstance(value, bool) or not isinstance(value, kind):
            return f"bad {name!r}: {value!r}"
    return None


def _sanitize_history(history: list) -> list[dict]:
    """Drop malformed records/entries with a warning.

    A hand-edited or badly-merged trajectory must not poison the
    regression guard (KeyError mid-compare) or be silently re-written
    as-is by the next append; ``benchmarks/lint_trajectory.py`` is the
    strict CI-facing version of the same rules.
    """
    clean = []
    for record in history:
        if not isinstance(record, dict) or not isinstance(
            record.get("entries"), list
        ):
            warnings.warn(
                f"{BENCH_TRAJECTORY}: skipping malformed history record: "
                f"{record!r}",
                stacklevel=3,
            )
            continue
        entries = []
        for entry in record["entries"]:
            problem = entry_problem(entry)
            if problem is None:
                entries.append(entry)
            else:
                warnings.warn(
                    f"{BENCH_TRAJECTORY}: skipping malformed entry "
                    f"({problem}) in record {record.get('sha')!r}",
                    stacklevel=3,
                )
        clean.append(dict(record, entries=entries))
    return clean


def _load_history() -> list[dict]:
    """Trajectory history, migrating the flat schema-1 layout in place.

    A present-but-unparsable file raises instead of returning ``[]``:
    silently starting an empty history would both disarm the regression
    guard and overwrite (destroy) every committed record on the next
    append. Only a genuinely absent file starts fresh. Records/entries
    that parse but do not satisfy the entry schema are skipped with a
    warning (they cannot feed the guard, but must not sink the rest of
    the history with them).
    """
    if not BENCH_TRAJECTORY.exists():
        return []
    try:
        data = json.loads(BENCH_TRAJECTORY.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise RuntimeError(
            f"{BENCH_TRAJECTORY} exists but cannot be parsed ({error}); "
            "refusing to overwrite the perf history — fix or remove the "
            "file (e.g. resolve merge-conflict markers) and re-run"
        ) from error
    if isinstance(data, dict) and isinstance(data.get("history"), list):
        return _sanitize_history(data["history"])
    if isinstance(data, dict) and "entries" in data:  # schema 1 (PR 2)
        return _sanitize_history(
            [
                {
                    "sha": "pre-history",
                    "date": None,
                    "quick": data.get("quick", False),
                    "entries": data["entries"],
                }
            ]
        )
    raise RuntimeError(
        f"{BENCH_TRAJECTORY} has an unrecognized layout; refusing to "
        "overwrite the perf history"
    )


def _append_trajectory(entries: list[dict], config: pytest.Config) -> None:
    """Merge entries into the history record keyed by (git SHA, date).

    Writes only under ``--record-trajectory``: a plain test run leaves
    the committed history untouched (the regression guard still reads
    it).
    Re-runs on the same commit and day update their record in place
    (keyed per workload/backend); everything older is preserved, so the
    perf history accumulates across PRs instead of being overwritten.
    Provenance is tracked per entry: a ``--quick`` (1-repetition) run
    never overwrites full-mode numbers for the same key, and a record
    counts as quick only while *all* of its entries are quick.
    """
    if not config.getoption("--record-trajectory"):
        return
    quick = config.getoption("--quick")
    entries = [dict(entry, quick=quick) for entry in entries]
    history = _load_history()
    key = (_git_sha(), datetime.date.today().isoformat())
    for record in history:
        if (record.get("sha"), record.get("date")) == key:
            index = {
                (entry["workload"], entry["backend"]): position
                for position, entry in enumerate(record["entries"])
            }
            for entry in entries:
                entry_key = (entry["workload"], entry["backend"])
                if entry_key not in index:
                    record["entries"].append(entry)
                elif not quick or record["entries"][index[entry_key]].get(
                    "quick", record.get("quick", False)
                ):
                    record["entries"][index[entry_key]] = entry
            record["quick"] = all(
                entry.get("quick", record.get("quick", False))
                for entry in record["entries"]
            )
            break
    else:
        history.append(
            {"sha": key[0], "date": key[1], "quick": quick, "entries": entries}
        )
    BENCH_TRAJECTORY.write_text(
        json.dumps({"schema": 2, "history": history}, indent=2) + "\n"
    )


def _previous_record() -> dict | None:
    """The last committed trajectory record from a *different* run key."""
    key = (_git_sha(), datetime.date.today().isoformat())
    for record in reversed(_load_history()):
        if (record.get("sha"), record.get("date")) != key:
            return record
    return None


#: Machine-normalized speedup fields the regression guard understands;
#: an entry carries whichever normalization is honest for its row.
#: ``speedup_vs_fused`` only appears in records from before the
#: per-matrix fused path was deleted; no new row carries it.
SPEEDUP_FIELDS = (
    "speedup_vs_reference",
    "speedup_vs_fused",
    "speedup_vs_per_workload",
)


def _check_regression(entries: list[dict]) -> None:
    """Benchmark regression guard against the last committed record.

    Machine-normalized speedup regressions (each of
    :data:`SPEEDUP_FIELDS`, compared like for like) beyond
    ``HARD_REGRESSION`` fail; absolute tiles/sec drops beyond
    ``SOFT_REGRESSION`` only warn, because shared CI runners routinely
    differ that much machine to machine.
    """
    if os.environ.get("REPRO_BENCH_SKIP_REGRESSION"):
        return
    previous = _previous_record()
    if previous is None:
        return
    baseline = {
        (entry["workload"], entry["backend"]): entry
        for entry in previous.get("entries", [])
    }
    failures = []
    for entry in entries:
        reference = baseline.get((entry["workload"], entry["backend"]))
        if reference is None:
            continue
        regressed_speedup = False
        for field in SPEEDUP_FIELDS:
            old_speedup = reference.get(field, 0.0)
            new_speedup = entry.get(field)
            if new_speedup is None or old_speedup <= 1.0:
                continue
            if new_speedup * HARD_REGRESSION < old_speedup:
                regressed_speedup = True
                failures.append(
                    f"{entry['workload']}/{entry['backend']}: {field} fell "
                    f"{old_speedup:.2f}x -> {new_speedup:.2f}x "
                    f"(> {HARD_REGRESSION}x regression vs {previous.get('sha')})"
                )
        if not regressed_speedup and (
            reference.get("tiles_per_sec", 0.0)
            > entry.get("tiles_per_sec", 0.0) * SOFT_REGRESSION
        ):
            warnings.warn(
                f"{entry['workload']}/{entry['backend']}: tiles/sec fell "
                f"{reference['tiles_per_sec']:,.0f} -> "
                f"{entry['tiles_per_sec']:,.0f} vs {previous.get('sha')} "
                "(warn-only: absolute throughput is machine-dependent)",
                stacklevel=2,
            )
    assert not failures, "; ".join(failures)


def _repeat_trace(trace: ModelTrace, repeats: int) -> ModelTrace:
    """Unroll a trace over timesteps with *distinct* matrix copies.

    Copies (rather than shared objects) make the multi-timestep
    benchmark honest: the planner must rediscover the redundancy by
    content, exactly as it would across real repeated timesteps.
    """
    return ModelTrace(
        model=f"{trace.model}[x{repeats}]",
        dataset=trace.dataset,
        workloads=[
            GeMMWorkload(
                name=f"t{step}.{workload.name}",
                spikes=SpikeMatrix(workload.spikes.bits.copy()),
                n=workload.n,
                kind=workload.kind,
                time_steps=workload.time_steps,
            )
            for step in range(repeats)
            for workload in trace.workloads
        ],
    )


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock over ``repeats`` runs (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _reference_records(trace) -> list[np.ndarray]:
    return [
        transform_matrix(
            w.spikes, TILE_M, TILE_K, keep_transforms=False
        ).tile_records
        for w in trace.workloads
    ]


def _planned_run(trace):
    """Whole-trace plan on a fresh engine (cold cache)."""
    return ProsperityEngine(backend="fused", tile_m=TILE_M, tile_k=TILE_K).run(trace)


def _per_workload_run(trace):
    """One ``transform_trace([w])`` per workload on a fresh engine: the
    per-matrix scope, with no cross-workload bucket or dedup."""
    engine = ProsperityEngine(backend="fused", tile_m=TILE_M, tile_k=TILE_K)
    return [engine.transform_trace([w])[0].tile_records for w in trace.workloads]


def _check_records(records, reference_records, label):
    assert len(records) == len(reference_records)
    for index, (mine, expected) in enumerate(zip(records, reference_records)):
        assert np.array_equal(mine, expected), (
            f"{label}:workload {index} diverged from the core oracle"
        )


def test_engine_throughput(results_dir, request):
    quick = request.config.getoption("--quick")
    grid = TIER1_GRID[:1] if quick else TIER1_GRID
    repeats = 1 if quick else 3

    rows = []
    payload = {"quick": quick, "tile_m": TILE_M, "tile_k": TILE_K}
    trajectory = []
    plan_speedups = {}
    for model, dataset in grid:
        trace = get_trace(model, dataset, preset="small")
        workload = f"{model}/{dataset}"

        # Correctness first: the trace-planned records must be
        # bit-identical to the core oracle on the whole trace.
        reference_records = _reference_records(trace)
        report = _planned_run(trace)
        _check_records(
            [run.records for run in report.runs], reference_records,
            f"fused+plan:{workload}",
        )

        ref_seconds = _best_of(lambda: _reference_records(trace), repeats)
        plan_seconds = _best_of(lambda: _planned_run(trace), repeats)
        if (model, dataset) == ("vgg16", "cifar10") and (
            ref_seconds / plan_seconds < MIN_VGG16_SPEEDUP
        ):
            # Guard the contract assert against a noisy neighbor: one
            # re-measure with more repetitions before declaring failure.
            ref_seconds = _best_of(lambda: _reference_records(trace), repeats + 2)
            plan_seconds = _best_of(lambda: _planned_run(trace), repeats + 2)
        tiles = report.total_tiles
        seconds = {"reference": ref_seconds, "fused+plan": plan_seconds}
        plan_speedups[(model, dataset)] = ref_seconds / plan_seconds
        rows.append(
            [
                workload,
                tiles,
                *(f"{tiles / s:,.0f}" for s in seconds.values()),
                format_ratio(plan_speedups[(model, dataset)]),
                format_ratio(report.dedup_ratio),
            ]
        )
        payload[workload] = {
            "tiles": int(tiles),
            **{
                f"{name}_tiles_per_sec": tiles / s
                for name, s in seconds.items()
            },
            "plan_speedup_vs_reference": plan_speedups[(model, dataset)],
            "plan_dedup_ratio": report.dedup_ratio,
            "cache_hit_rate": report.cache_hit_rate,
            "planned_profile": report.profile,
        }
        for name, s in seconds.items():
            trajectory.append(
                {
                    "workload": workload,
                    "backend": name,
                    "tiles": int(tiles),
                    "tiles_per_sec": tiles / s,
                    "speedup_vs_reference": ref_seconds / s,
                }
            )

    table = format_table(
        ["workload", "tiles", "ref t/s", "plan t/s", "plan/ref", "dedup"],
        rows,
        title="engine throughput — trace-planned fused vs the core oracle (tiles/sec)",
    )
    save_result("engine_throughput", table)
    (results_dir / "engine_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    _check_regression(trajectory)
    _append_trajectory(trajectory, request.config)

    assert plan_speedups[("vgg16", "cifar10")] >= MIN_VGG16_SPEEDUP, (
        "trace-planned fused speedup "
        f"{plan_speedups[('vgg16', 'cifar10')]:.2f}x over the core oracle, "
        f"below the {MIN_VGG16_SPEEDUP}x contract on VGG-16"
    )


def test_trace_planner_speedup(results_dir, request):
    """One whole-trace plan >= 1.5x over one per-workload plan per
    workload on a multi-timestep trace.

    The trace unrolls LeNet-5 over ``PLAN_TIME_STEPS`` timesteps with
    distinct matrix copies: exactly the small-workload regime where
    per-workload planning underutilizes (every layer re-packs, re-dedups,
    and launches its own underfilled kernels) and where whole-trace
    buckets + global content dedup pay off. Both sides run the same
    fused engine configuration from a cold cache; only the plan scope
    differs. Numbers are recorded into the ``BENCH_engine.json``
    trajectory alongside the single-trace grid.
    """
    quick = request.config.getoption("--quick")
    repeats = 2 if quick else 4
    base = get_trace("lenet5", "mnist", preset="small")
    trace = _repeat_trace(base, PLAN_TIME_STEPS)

    # Bit-identity first: both scopes equal the core oracle on the
    # unrolled trace, workload for workload.
    reference_records = _reference_records(trace)
    planned_report = _planned_run(trace)
    _check_records(
        [run.records for run in planned_report.runs], reference_records,
        "fused+plan",
    )
    _check_records(_per_workload_run(trace), reference_records, "per-workload")
    assert planned_report.dedup_ratio >= PLAN_TIME_STEPS * 0.9, (
        "unrolled timesteps should dedup to ~one copy, got "
        f"{planned_report.dedup_ratio:.2f}x"
    )

    workload_seconds = _best_of(lambda: _per_workload_run(trace), repeats)
    plan_seconds = _best_of(lambda: _planned_run(trace), repeats)
    if workload_seconds / plan_seconds < MIN_PLAN_SPEEDUP:
        # Noisy-neighbor guard, as for the VGG-16 contract.
        workload_seconds = _best_of(lambda: _per_workload_run(trace), repeats + 3)
        plan_seconds = _best_of(lambda: _planned_run(trace), repeats + 3)
    speedup = workload_seconds / plan_seconds
    tiles = planned_report.total_tiles
    workload = f"{trace.model}/{trace.dataset}"

    payload = {
        "workload": workload,
        "time_steps": PLAN_TIME_STEPS,
        "tiles": int(tiles),
        "per_workload_tiles_per_sec": tiles / workload_seconds,
        "plan_tiles_per_sec": tiles / plan_seconds,
        "plan_speedup_vs_per_workload": speedup,
        "dedup_ratio": planned_report.dedup_ratio,
        "planned_profile": planned_report.profile,
    }
    (results_dir / "engine_planner.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_result(
        "engine_planner",
        format_table(
            ["workload", "tiles", "per-workload t/s", "plan t/s", "plan/wl", "dedup"],
            [[
                workload,
                tiles,
                f"{tiles / workload_seconds:,.0f}",
                f"{tiles / plan_seconds:,.0f}",
                format_ratio(speedup),
                format_ratio(planned_report.dedup_ratio),
            ]],
            title=(
                "trace planner — multi-timestep trace "
                f"({PLAN_TIME_STEPS} timesteps, cross-workload dedup)"
            ),
        ),
    )
    # The reference oracle is never timed on the unrolled trace, so the
    # whole-trace row is normalized against the per-workload scope — a
    # distinct field, so charts and the guard never mix normalizations.
    # The guard compares it with earlier ``fused+plan`` rows only; the
    # per-workload row has its own key, never the old per-matrix
    # ``fused`` rows.
    _append_trajectory(
        [
            {
                "workload": workload,
                "backend": "fused+plan[per-workload]",
                "tiles": int(tiles),
                "tiles_per_sec": tiles / workload_seconds,
            },
            {
                "workload": workload,
                "backend": "fused+plan",
                "tiles": int(tiles),
                "tiles_per_sec": tiles / plan_seconds,
                "speedup_vs_per_workload": speedup,
            },
        ],
        request.config,
    )

    assert speedup >= MIN_PLAN_SPEEDUP, (
        f"whole-trace plan speedup {speedup:.2f}x over per-workload plans on "
        f"{workload}, below the {MIN_PLAN_SPEEDUP}x contract"
    )
