"""Fused backend: tile-batched kernels must match the reference oracle.

Property-style sweeps pin the fused path — stacked same-shape tiles,
sorted-key triangle scan, content dedup, hoisted padding — bit-for-bit
against the per-tile :mod:`repro.core` oracle, across densities,
correlations, word widths, and ragged tile shapes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forest import build_forest
from repro.core.prosparsity import forest_record, transform_matrix
from repro.core.spike_matrix import SpikeMatrix, SpikeTile, random_spike_matrix
from repro.engine import FusedBackend, ProsperityEngine, get_backend
from repro.engine.backends import ReferenceBackend, available_backends
from repro.engine.fused import (
    build_tile_parts,
    dedup_tiles,
    max_chain_depth_batch,
    padded_codes,
    records_from_codes_batch,
    select_prefixes_batch,
)
from repro.utils.bitops import popcount_rows

DENSITIES = (0.0, 0.05, 0.2, 0.5, 0.95, 1.0)


def _fused_records(matrix, tile_m, tile_k):
    """Records of the trace-planned fused path, cache off."""
    engine = ProsperityEngine("fused", tile_m=tile_m, tile_k=tile_k, cache_size=0)
    return engine.transform_matrix(matrix).tile_records


def _codes(tile):
    return padded_codes(tile.packed)


def _random_cases(rng):
    """Shapes crossing word widths, ragged edges, and EM-rich inputs."""
    for density in DENSITIES:
        for rows, cols, correlation in (
            (64, 16, 0.0),
            (256, 16, 0.4),
            (100, 30, 0.7),    # ragged tiles in both dimensions
            (48, 130, 0.3),    # beyond one 64-bit word (W > 1)
            (5, 3, 0.0),       # smaller than any tile
        ):
            yield random_spike_matrix(rows, cols, density, rng, correlation)


class TestFusedEquivalence:
    def test_registered(self):
        assert "fused" in available_backends()
        assert isinstance(get_backend("fused"), FusedBackend)

    def test_matrix_records_match_reference(self, rng):
        oracle = ReferenceBackend()
        for matrix in _random_cases(rng):
            for tile_m, tile_k in ((64, 16), (32, 8), (17, 23)):
                expected = oracle.matrix_records(matrix, tile_m, tile_k)
                actual = _fused_records(matrix, tile_m, tile_k)
                assert np.array_equal(expected, actual), (tile_m, tile_k)

    def test_tile_record_matches_forest_record(self, rng):
        fused = FusedBackend()
        for matrix in _random_cases(rng):
            tile = SpikeTile(matrix.bits)
            assert fused.tile_record(tile) == forest_record(build_forest(tile))

    def test_paper_example(self, paper_tile):
        assert FusedBackend().tile_record(paper_tile) == forest_record(
            build_forest(paper_tile)
        )

    def test_duplicate_heavy_matrix(self, rng):
        """Dedup path: many identical tiles, computed once, scattered back."""
        tile_bits = rng.random((32, 16)) < 0.3
        stacked = SpikeMatrix(np.vstack([tile_bits] * 6))
        expected = ReferenceBackend().matrix_records(stacked, 32, 16)
        actual = _fused_records(stacked, 32, 16)
        assert np.array_equal(expected, actual)
        assert (expected == expected[0]).all()


class TestHoistedPadding:
    @pytest.mark.parametrize(
        "tile_k", [17, 24, 33, 40, 41, 48, 49, 56]
    )  # packed widths 3, 3, 5, 5, 6, 6, 7, 7 bytes
    def test_padded_codes_match_per_tile_pack(self, rng, tile_k):
        """Matrix-level padding must equal per-tile padding."""
        matrix = random_spike_matrix(96, 2 * tile_k + 5, 0.3, rng, 0.4)
        by_position = {}
        packed = np.packbits(matrix.bits, axis=1)
        for chunks in build_tile_parts(matrix, 32, tile_k, packed).values():
            for _, codes, _, _, positions in chunks:
                for i, position in enumerate(positions):
                    by_position[int(position)] = codes[i]
        for index, tile in enumerate(matrix.tile(32, tile_k)):
            expected = _codes(tile)
            actual = by_position[index]
            assert actual.dtype == expected.dtype, tile_k
            assert np.array_equal(actual, expected), (tile_k, index)

    @pytest.mark.parametrize("tile_k", [17, 33, 41, 49, 56])
    def test_records_at_non_power_of_two_widths(self, rng, tile_k):
        matrix = random_spike_matrix(80, 3 * tile_k - 4, 0.25, rng, 0.5)
        expected = ReferenceBackend().matrix_records(matrix, 32, tile_k)
        actual = _fused_records(matrix, 32, tile_k)
        assert np.array_equal(expected, actual)

    def test_padded_codes_identity_when_power_of_two(self, rng):
        packed = np.packbits(rng.random((10, 32)) < 0.5, axis=1)
        codes = padded_codes(packed)
        assert np.array_equal(codes, packed.view(np.uint32))


class TestBatchedKernels:
    def test_select_matches_per_tile(self, rng):
        for matrix in _random_cases(rng):
            tile = SpikeTile(matrix.bits)
            pops = popcount_rows(tile.packed)
            expected = build_forest(tile).prefix
            batched = select_prefixes_batch(_codes(tile)[None], pops[None])[0]
            assert np.array_equal(expected, batched)

    def test_select_stacked_tiles_independent(self, rng):
        """Each stacked tile's prefixes must ignore the other tiles."""
        tiles = [SpikeTile(rng.random((32, 16)) < d) for d in (0.1, 0.4, 0.8)]
        codes = np.stack([_codes(t) for t in tiles])
        pops = np.stack([popcount_rows(t.packed) for t in tiles])
        batched = select_prefixes_batch(codes, pops)
        for i, tile in enumerate(tiles):
            expected = build_forest(tile).prefix
            assert np.array_equal(batched[i], expected), i

    def test_select_large_popcounts_no_overflow(self):
        """Popcounts >= 2**15 must not wrap the packed int64 sort key."""
        bits = np.ones((6, 33000), dtype=bool)
        bits[0, :100] = False  # proper subsets of the full rows
        bits[1, :50] = False
        bits[5, :] = False     # and a zero row
        tile = SpikeTile(bits)
        pops = popcount_rows(tile.packed)
        expected = build_forest(tile).prefix
        batched = select_prefixes_batch(_codes(tile)[None], pops[None])[0]
        assert np.array_equal(batched, expected)

    def test_empty_batch(self):
        codes = np.zeros((0, 4, 1), dtype=np.uint8)
        pops = np.zeros((0, 4), dtype=np.int64)
        assert select_prefixes_batch(codes, pops).shape == (0, 4)
        assert max_chain_depth_batch(np.zeros((0, 4), np.int64)).shape == (0,)

    def test_depth_matches_per_tile(self, rng):
        for matrix in _random_cases(rng):
            tile = SpikeTile(matrix.bits)
            forest = build_forest(tile)
            batched = max_chain_depth_batch(forest.prefix[None])[0]
            assert batched == forest.depth()

    def test_depth_staircase(self):
        """Max-depth chain: prefix[i] = i - 1 for every row."""
        m = 16
        prefix = np.arange(-1, m - 1, dtype=np.int64)
        assert max_chain_depth_batch(prefix[None])[0] == m - 1

    def test_depth_cycle_detected(self):
        prefix = np.array([[1, 0]], dtype=np.int64)
        with pytest.raises(RuntimeError, match="cycle"):
            max_chain_depth_batch(prefix)

    def test_records_batch_matches_reference(self, rng):
        tiles = [SpikeTile(rng.random((48, 24)) < d) for d in (0.1, 0.3, 0.6)]
        codes = np.stack([_codes(t) for t in tiles])
        pops = np.stack([popcount_rows(t.packed) for t in tiles])
        records = records_from_codes_batch(codes, pops, 24)
        for i, tile in enumerate(tiles):
            assert tuple(records[i]) == forest_record(build_forest(tile)), i

    def test_dedup_tiles(self, rng):
        raw = (rng.random((6, 12)) < 0.5).astype(np.uint8)
        raw[3] = raw[0]
        raw[5] = raw[0]
        first, inverse = dedup_tiles(raw)
        assert len(first) == 4
        rebuilt = raw[first][inverse]
        assert np.array_equal(rebuilt, raw)


class TestFusedCacheAndProfile:
    def test_repeat_transform_hits_cache(self, rng):
        matrix = random_spike_matrix(128, 32, 0.2, rng, 0.3)
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16)
        first = engine.transform_matrix(matrix)
        misses = engine.cache.misses
        second = engine.transform_matrix(matrix)
        assert np.array_equal(first.tile_records, second.tile_records)
        assert engine.cache.misses == misses
        assert engine.cache.hits >= len(second.tile_records) // 2

    def test_intra_batch_duplicates_miss_once(self, rng):
        """Duplicate tiles inside one batch dedup before cache lookup."""
        tile_bits = rng.random((64, 16)) < 0.3
        stacked = SpikeMatrix(np.vstack([tile_bits] * 4))
        engine = ProsperityEngine("fused", tile_m=64, tile_k=16, cache_size=64)
        engine.transform_matrix(stacked)
        assert engine.cache.misses == 1
        assert engine.cache.hits == 0

    def test_cache_prefilled_by_per_tile_path(self, rng):
        """Planned lookups share content keys with the per-tile put path
        (``Backend.matrix_records``, the base per-tile loop)."""
        matrix = random_spike_matrix(64, 32, 0.25, rng, 0.2)
        engine = ProsperityEngine("fused", tile_m=32, tile_k=16, cache_size=256)
        expected = get_backend("reference").matrix_records(
            matrix, 32, 16, cache=engine.cache
        )
        misses = engine.cache.misses
        actual = engine.transform_matrix(matrix).tile_records
        assert np.array_equal(expected, actual)
        assert engine.cache.misses == misses  # every unique tile was a hit

    def test_profile_accumulates_stages(self, rng):
        """The kernel books select/record into the run's own profile."""
        from repro.snn.trace import GeMMWorkload

        matrix = random_spike_matrix(256, 64, 0.2, rng, 0.3)
        report = ProsperityEngine(FusedBackend(), tile_m=64, tile_k=16).run(
            [GeMMWorkload(name="w", spikes=matrix, n=8)]
        )
        assert report.profile["select"] > 0
        assert report.profile["record"] > 0

    def test_engine_report_profile(self, rng):
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16)
        from repro.snn.trace import GeMMWorkload

        trace = [
            GeMMWorkload(
                name="w", spikes=random_spike_matrix(128, 32, 0.3, rng), n=8
            )
        ]
        report = engine.run(trace)
        assert set(report.profile) >= {"select", "record"}
        assert all(seconds >= 0 for seconds in report.profile.values())
        assert report.backend == "fused"

    def test_engine_run_matches_core(self, vgg_trace):
        """The trace-planned run equals a per-workload core transform."""
        fused_report = ProsperityEngine(
            backend="fused", tile_m=256, tile_k=16
        ).run(vgg_trace)
        assert [r.name for r in fused_report.runs] == [
            w.name for w in vgg_trace.workloads
        ]
        for mine, workload in zip(fused_report.runs, vgg_trace.workloads):
            theirs = transform_matrix(workload.spikes, 256, 16, keep_transforms=False)
            assert np.array_equal(mine.records, theirs.tile_records), mine.name
            assert vars(mine.stats) == vars(theirs.stats)

    def test_verify_trace(self, rng):
        from repro.snn.trace import GeMMWorkload

        workloads = [
            GeMMWorkload(
                name="v", spikes=random_spike_matrix(96, 24, 0.25, rng), n=8
            )
        ]
        engine = ProsperityEngine(backend="fused", tile_m=32, tile_k=8)
        assert engine.verify_trace(workloads)
