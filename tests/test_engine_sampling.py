"""``max_tiles`` sampling composed with the trace planner.

Sampling must stay an unbiased, deterministic subset regardless of how
the records are computed: the sampled fraction is exact, sampled records
are a strict subset of the full-matrix records, and a fixed RNG seed
reproduces the core oracle's sample through every backend — whether a
workload is planned on its own (``"matrix"``) or behind another workload
in one trace plan that shares the generator (``"trace"``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.prosparsity import transform_matrix
from repro.core.spike_matrix import random_spike_matrix
from repro.engine import ProsperityEngine

TILE_M, TILE_K = 64, 16
MAX_TILES = 10

#: How a sampled workload is planned: alone, or last in a shared trace.
PLANS = ("matrix", "trace")


@pytest.fixture
def matrix(rng):
    # 20 row blocks x 3 col blocks = 60 tiles, ragged on both axes.
    return random_spike_matrix(TILE_M * 20 - 10, TILE_K * 3 - 5, 0.3, rng, 0.4)


def _engine(backend="fused"):
    return ProsperityEngine(backend=backend, tile_m=TILE_M, tile_k=TILE_K)


def _core_loop(matrices, rng=None):
    """Per-workload core transforms, sharing one generator like a trace."""
    return [
        transform_matrix(
            matrix, TILE_M, TILE_K, keep_transforms=False,
            max_tiles=MAX_TILES, rng=rng,
        )
        for matrix in matrices
    ]


def _sampled(engine, plan, matrix, seed):
    """``matrix`` sampled by a per-matrix call (``"matrix"``), or as the
    second workload of a two-workload trace plan (``"trace"``), where it
    draws from a generator the first workload already advanced."""
    rng = np.random.default_rng(seed)
    if plan == "matrix":
        return engine.transform_matrix(matrix, max_tiles=MAX_TILES, rng=rng)
    return engine.transform_trace(
        [matrix, matrix], max_tiles=MAX_TILES, rng=rng
    )[-1]


def _record_multiset(records):
    return sorted(map(tuple, records.tolist()))


class TestSampledFraction:
    @pytest.mark.parametrize("backend", ["fused", "reference"])
    @pytest.mark.parametrize("plan", PLANS)
    def test_fraction_exact(self, matrix, plan, backend):
        total = matrix.num_tiles(TILE_M, TILE_K)
        result = _sampled(_engine(backend), plan, matrix, 11)
        assert len(result.tile_records) == MAX_TILES
        assert result.stats.sample_fraction == MAX_TILES / total

    def test_no_sampling_when_under_cap(self, rng):
        small = random_spike_matrix(TILE_M, TILE_K, 0.3, rng)
        result = _engine().transform_matrix(
            small, max_tiles=MAX_TILES, rng=np.random.default_rng(11)
        )
        assert result.stats.sample_fraction == 1.0
        assert len(result.tile_records) == 1


class TestSampledSubset:
    @pytest.mark.parametrize("backend", ["fused", "reference"])
    @pytest.mark.parametrize("plan", PLANS)
    def test_records_strict_subset_of_full(self, matrix, plan, backend):
        engine = _engine(backend)
        sampled = _sampled(engine, plan, matrix, 11)
        full = engine.transform_matrix(matrix)
        assert len(sampled.tile_records) < len(full.tile_records)
        full_multiset = _record_multiset(full.tile_records)
        for record in map(tuple, sampled.tile_records.tolist()):
            assert record in full_multiset

    def test_sample_counts_bounded_by_full(self, matrix):
        """Each distinct record appears at most as often as in the full set."""
        engine = _engine()
        sampled = engine.transform_matrix(
            matrix, max_tiles=MAX_TILES, rng=np.random.default_rng(11)
        )
        full = engine.transform_matrix(matrix)
        from collections import Counter

        sampled_counts = Counter(map(tuple, sampled.tile_records.tolist()))
        full_counts = Counter(map(tuple, full.tile_records.tolist()))
        for record, count in sampled_counts.items():
            assert count <= full_counts[record]


class TestSampledDeterminism:
    @pytest.mark.parametrize("backend", ["fused", "reference"])
    @pytest.mark.parametrize("plan", PLANS)
    def test_fixed_seed_reproduces(self, matrix, plan, backend):
        engine = _engine(backend)
        first = _sampled(engine, plan, matrix, 42)
        second = _sampled(engine, plan, matrix, 42)
        assert np.array_equal(first.tile_records, second.tile_records)

    @pytest.mark.parametrize("plan", PLANS)
    def test_matches_core_sampled_path(self, matrix, plan):
        """Same seed, same tiles, same records as the core oracle path."""
        matrices = [matrix] if plan == "matrix" else [matrix, matrix]
        core = _core_loop(matrices, np.random.default_rng(7))[-1]
        engine = _sampled(_engine(), plan, matrix, 7)
        assert np.array_equal(core.tile_records, engine.tile_records)
        assert core.stats.sample_fraction == engine.stats.sample_fraction

    def test_plan_modes_sample_identically(self, matrix):
        """Per-matrix calls sharing one generator draw exactly the sample
        of one trace plan over the same workloads."""
        shared = np.random.default_rng(3)
        engine = _engine()
        per_matrix = [
            engine.transform_matrix(matrix, max_tiles=MAX_TILES, rng=shared)
            for _ in range(2)
        ]
        planned = _engine().transform_trace(
            [matrix, matrix], max_tiles=MAX_TILES, rng=np.random.default_rng(3)
        )
        for mine, theirs in zip(planned, per_matrix):
            assert np.array_equal(mine.tile_records, theirs.tile_records)

    def test_trace_samples_like_core_loop(self, matrix):
        """One generator shared across a trace draws the same RNG
        sequence as a core loop over its workloads, tile for tile."""
        planned = _engine().transform_trace(
            [matrix, matrix], max_tiles=MAX_TILES, rng=np.random.default_rng(3)
        )
        loop = _core_loop([matrix, matrix], np.random.default_rng(3))
        for mine, theirs in zip(planned, loop):
            assert np.array_equal(mine.tile_records, theirs.tile_records)
        # The second workload drew a different sample from the same stream.
        assert not np.array_equal(planned[0].tile_records, planned[1].tile_records)


class TestSampledTraceComposition:
    def test_default_rng_matches_per_workload_reseed(self, rng):
        """rng=None seeds default_rng(0) *per workload*, like the core.

        core.transform_matrix reseeds per call, so the trace plan must
        too — a single shared generator would diverge from workload 1 on.
        """
        matrices = [
            random_spike_matrix(TILE_M * 20, TILE_K * 2, 0.3, rng, 0.4)
            for _ in range(3)
        ]
        planned = _engine().transform_trace(
            matrices, max_tiles=MAX_TILES
        )
        loop = _core_loop(matrices)
        for mine, theirs in zip(planned, loop):
            assert np.array_equal(mine.tile_records, theirs.tile_records)

    def test_mixed_sampled_and_whole_workloads(self, rng):
        """transform_trace mixes sampled + exact workloads in one plan."""
        big = random_spike_matrix(TILE_M * 20, TILE_K * 2, 0.3, rng, 0.4)
        small = random_spike_matrix(TILE_M, TILE_K, 0.3, rng)
        engine = _engine()
        planned = engine.transform_trace(
            [big, small], max_tiles=MAX_TILES, rng=np.random.default_rng(5)
        )
        loop = _core_loop([big, small], np.random.default_rng(5))
        for mine, theirs in zip(planned, loop):
            assert np.array_equal(mine.tile_records, theirs.tile_records)
            assert mine.stats.sample_fraction == theirs.stats.sample_fraction
        assert planned[0].stats.sample_fraction < 1.0
        assert planned[1].stats.sample_fraction == 1.0
