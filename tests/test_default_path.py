"""The fast path is the default at every entry point.

``fused`` (always trace-planned) is what ``RunConfig``, the engine, the
simulator and the sweeps pick when nothing is named, and the stats-only
call sites (density, LoAS, scaling) run on a default engine. Each must
still equal the :mod:`repro.core` oracle exactly, sampled and exact, on
the ``small`` Fig. 11 traces.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.analysis import sweep
from repro.analysis.density import trace_prosparsity_stats
from repro.api import RunConfig, Session
from repro.arch import ProsperitySimulator, scaling
from repro.baselines import activation_density_with_prosparsity
from repro.core import prosparsity
from repro.core.prosparsity import ProSparsityStats
from repro.engine import DEFAULT_BACKEND, ProsperityEngine
from repro.engine.planner import TracePlanner
from repro.workloads import FIG11_GRID, get_trace

SEED = 11


def test_every_entry_point_defaults_to_the_fast_path():
    assert DEFAULT_BACKEND == "fused"
    assert RunConfig().engine.backend == DEFAULT_BACKEND
    with ProsperityEngine() as engine:
        assert engine.backend.name == DEFAULT_BACKEND
    with ProsperitySimulator() as simulator:
        assert simulator.engine.backend.name == DEFAULT_BACKEND
    with Session(RunConfig()) as session:
        assert session.engine.backend.name == DEFAULT_BACKEND
    for function in (sweep.sweep_tile_sizes, sweep._latency_ratio):
        params = inspect.signature(function).parameters
        assert params["backend"].default == DEFAULT_BACKEND


def test_verify_trace_oracle_is_independent_of_the_planner(monkeypatch):
    """A planner bug must not reach the oracle side of ``verify_trace``."""
    trace = get_trace("lenet5", "mnist", "small")
    with ProsperityEngine() as engine:
        assert engine.verify_trace(trace)
        execute = TracePlanner._execute

        def reversed_records(self, *args, **kwargs):
            return [records[::-1] for records in execute(self, *args, **kwargs)]

        monkeypatch.setattr(TracePlanner, "_execute", reversed_records)
        assert not engine.verify_trace(trace)


@pytest.fixture(scope="module")
def fig11_traces():
    return [get_trace(model, dataset, "small") for model, dataset in FIG11_GRID]


@pytest.fixture(scope="module")
def forest_memo():
    """Content-keyed memo around the core's ``build_forest``.

    The oracle rebuilds every repeated tile otherwise (and the sampled
    pass re-draws tiles the exact pass already built); keying on the
    full packed content keeps it the core computation, only once.
    """
    memo = {}
    build = prosparsity.build_forest

    def build_once(tile):
        key = (tile.m, tile.k, tile.packed.tobytes())
        if key not in memo:
            memo[key] = build(tile)
        return memo[key]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prosparsity, "build_forest", build_once)
        yield


@pytest.fixture(scope="module", params=[None, 24], ids=["exact", "sampled"])
def oracle(request, fig11_traces, forest_memo):
    """Per-workload ``repro.core`` results, one shared RNG stream."""
    max_tiles = request.param
    rng = np.random.default_rng(SEED)
    results = [
        [
            prosparsity.transform_matrix(
                workload.spikes, 256, 16, keep_transforms=False,
                max_tiles=max_tiles, rng=rng,
            )
            for workload in trace.workloads
        ]
        for trace in fig11_traces
    ]
    return max_tiles, results


def _merged(results) -> ProSparsityStats:
    stats = ProSparsityStats()
    for result in results:
        stats.merge(result.stats)
    return stats


def test_trace_prosparsity_stats_match_reference(fig11_traces, oracle):
    max_tiles, expected = oracle
    rng = np.random.default_rng(SEED)
    for trace, results in zip(fig11_traces, expected):
        stats = trace_prosparsity_stats(trace, max_tiles=max_tiles, rng=rng)
        assert stats == _merged(results), trace.model


def test_loas_activation_density_matches_reference(fig11_traces, oracle):
    max_tiles, expected = oracle
    rng = np.random.default_rng(SEED)
    for trace, results in zip(fig11_traces, expected):
        merged = _merged(results)
        assert activation_density_with_prosparsity(
            trace, max_tiles=max_tiles, rng=rng
        ) == (merged.bit_density, merged.product_density), trace.model


class _Replay:
    """Stands in for the engine class: replays precomputed results."""

    def __init__(self, results):
        self.results = results

    def __call__(self, tile_m, tile_k):
        assert (tile_m, tile_k) == (256, 16)  # the oracle's tiling
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def transform_trace(self, workloads, max_tiles=None, rng=None):
        return self.results


def test_scaling_points_match_reference(fig11_traces, oracle, monkeypatch):
    max_tiles, expected = oracle
    rng = np.random.default_rng(SEED)
    actual = [
        scaling.scaling_study(trace, max_tiles=max_tiles, rng=rng)
        for trace in fig11_traces
    ]
    for trace, results, points in zip(fig11_traces, expected, actual):
        monkeypatch.setattr(scaling, "ProsperityEngine", _Replay(results))
        assert points == scaling.scaling_study(trace, max_tiles=max_tiles), (
            trace.model
        )
