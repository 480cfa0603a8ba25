"""Engine pipeline: forest cache, trace-planned runs, simulator integration."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.prosparsity import transform_matrix
from repro.core.spike_matrix import SpikeMatrix, SpikeTile, random_spike_matrix
from repro.engine import (
    ForestCache,
    ProsperityEngine,
    stats_from_records,
)
from repro.snn.trace import GeMMWorkload


def _workload(name, bits, n=8, kind="linear"):
    return GeMMWorkload(name=name, spikes=SpikeMatrix(bits), n=n, kind=kind)


class TestForestCache:
    def test_record_round_trip(self, rng):
        cache = ForestCache(capacity=4)
        tile = SpikeTile(rng.random((16, 8)) < 0.5)
        assert cache.get_record(tile.m, tile.k, tile.packed) is None
        cache.put_record(tile.m, tile.k, tile.packed, (1, 2, 3))
        assert cache.get_record(tile.m, tile.k, tile.packed) == (1, 2, 3)
        assert cache.hits == 1 and cache.misses == 1

    def test_content_addressing_ignores_coordinates(self, rng):
        """Same bits at different tile coordinates share one entry."""
        cache = ForestCache(capacity=4)
        bits = rng.random((16, 8)) < 0.5
        first = SpikeTile(bits)
        from repro.core.spike_matrix import TileCoord

        second = SpikeTile(bits, TileCoord(640, 32))
        cache.put_record(first.m, first.k, first.packed, (7,))
        assert cache.get_record(second.m, second.k, second.packed) == (7,)

    def test_lru_eviction(self, rng):
        cache = ForestCache(capacity=2)
        tiles = [SpikeTile(rng.random((8, 8)) < 0.5) for _ in range(3)]
        for i, tile in enumerate(tiles):
            cache.put_record(tile.m, tile.k, tile.packed, (i,))
        assert len(cache) == 2
        # Oldest entry evicted, newest two retained.
        assert cache.get_record(tiles[0].m, tiles[0].k, tiles[0].packed) is None
        assert cache.get_record(tiles[2].m, tiles[2].k, tiles[2].packed) == (2,)

    def test_forest_rebinds_to_new_tile(self, rng):
        engine = ProsperityEngine(backend="fused", tile_m=16, tile_k=8)
        bits = rng.random((16, 8)) < 0.4
        tile_a = SpikeTile(bits)
        forest_a = engine._forest_for(tile_a)
        from repro.core.spike_matrix import TileCoord

        tile_b = SpikeTile(bits, TileCoord(160, 8))
        forest_b = engine._forest_for(tile_b)
        assert forest_b.tile is tile_b
        assert np.array_equal(forest_a.prefix, forest_b.prefix)
        assert engine.cache.hits >= 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ForestCache(capacity=0)

    def test_eviction_under_capacity_pressure(self, rng):
        """Sustained over-capacity fills keep the LRU bounded and coherent."""
        cache = ForestCache(capacity=3)
        tiles = [SpikeTile(rng.random((8, 8)) < 0.5) for _ in range(10)]
        for i, tile in enumerate(tiles):
            cache.put_record(tile.m, tile.k, tile.packed, (i,))
            assert len(cache) <= 3
        # Only the newest three contents survive, in insertion order.
        for i, tile in enumerate(tiles):
            record = cache.get_record(tile.m, tile.k, tile.packed)
            assert record == ((i,) if i >= 7 else None), i
        # A get refreshes recency: 7 survives the next two fills, 8 dies.
        cache.get_record(tiles[7].m, tiles[7].k, tiles[7].packed)
        for i in (0, 1):
            cache.put_record(tiles[i].m, tiles[i].k, tiles[i].packed, (100 + i,))
        assert cache.get_record(tiles[7].m, tiles[7].k, tiles[7].packed) == (7,)
        assert cache.get_record(tiles[8].m, tiles[8].k, tiles[8].packed) is None

    def test_eviction_drops_both_slots(self, rng):
        """Evicting an entry loses its record and its forest together."""
        engine = ProsperityEngine(backend="fused", tile_m=8, tile_k=8,
                                  cache_size=1)
        tile_a = SpikeTile(rng.random((8, 8)) < 0.5)
        tile_b = SpikeTile(rng.random((8, 8)) < 0.5)
        engine._forest_for(tile_a)
        engine.cache.put_record(tile_a.m, tile_a.k, tile_a.packed, (1,))
        engine._forest_for(tile_b)  # evicts tile_a's entry entirely
        assert engine.cache.get_record(tile_a.m, tile_a.k, tile_a.packed) is None
        assert engine.cache.get_forest(tile_a) is None

    def test_dual_slot_fill_shares_one_entry(self, rng):
        """Record and forest slots for one content key share an entry."""
        cache = ForestCache(capacity=4)
        engine = ProsperityEngine(backend="fused", tile_m=16, tile_k=8,
                                  cache_size=0)
        tile = SpikeTile(rng.random((16, 8)) < 0.4)
        forest = engine.backend.forest(tile)

        # Fill the record slot first: the forest slot still misses.
        cache.put_record(tile.m, tile.k, tile.packed, (1, 2))
        assert len(cache) == 1
        assert cache.get_forest(tile) is None
        assert (cache.hits, cache.misses) == (0, 1)

        # Fill the forest slot from the other path: same entry, no growth.
        cache.put_forest(tile, forest)
        assert len(cache) == 1
        assert cache.get_record(tile.m, tile.k, tile.packed) == (1, 2)
        assert cache.get_forest(tile) is not None
        assert (cache.hits, cache.misses) == (2, 1)

    def test_key_based_access_matches_packed_access(self, rng):
        """get/put_record_by_key are aliases for the packed-array API."""
        cache = ForestCache(capacity=4)
        tile = SpikeTile(rng.random((16, 8)) < 0.4)
        key = cache.key(tile.m, tile.k, tile.packed)
        assert cache.get_record_by_key(key) is None
        cache.put_record_by_key(key, (9, 9))
        assert cache.get_record(tile.m, tile.k, tile.packed) == (9, 9)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_keys_hash_each_row_like_key(self, rng):
        rows = (rng.random((5, 24)) < 0.5).astype(np.uint8)
        keys = ForestCache.keys(16, 12, rows)
        assert keys == [ForestCache.key(16, 12, row) for row in rows]
        assert ForestCache.keys(16, 12, rows[:0]) == []

    def test_bucket_calls_match_per_key_calls(self, rng):
        """A mixed hit/miss bucket through get_many/put_many gives the
        records, counters and LRU eviction order of the per-key calls."""
        rows = (rng.random((9, 16)) < 0.5).astype(np.uint8)
        keys = ForestCache.keys(8, 8, rows)
        outcomes = []
        for mode in ("per_key", "bucket"):
            cache = ForestCache(capacity=4)
            for i in (0, 2, 4, 6):
                cache.put_record_by_key(keys[i], (i,))
            cache.get_record_by_key(keys[0])  # LRU order 2, 4, 6, 0
            bucket = [keys[i] for i in (1, 2, 3, 0, 5, 7)]
            if mode == "per_key":
                found = [cache.get_record_by_key(key) for key in bucket]
            else:
                found = cache.get_many(bucket)
            missing = [key for key, record in zip(bucket, found) if record is None]
            computed = [(100 + i,) for i in range(len(missing))]
            if mode == "per_key":
                for key, record in zip(missing, computed):
                    cache.put_record_by_key(key, record)
            else:
                cache.put_many(missing, computed)
            outcomes.append((found, cache.hits, cache.misses, list(cache._entries)))
        assert outcomes[0] == outcomes[1]
        found, hits, misses, lru = outcomes[1]
        assert found == [None, (2,), None, (0,), None, None]
        assert (hits, misses) == (3, 4)
        assert lru == [keys[1], keys[3], keys[5], keys[7]]


class TestEngineTransform:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_matches_core_transform(self, backend, rng):
        matrix = random_spike_matrix(200, 50, 0.2, rng, 0.4)
        core = transform_matrix(matrix, 64, 16, keep_transforms=False)
        engine = ProsperityEngine(backend=backend, tile_m=64, tile_k=16)
        mine = engine.transform_matrix(matrix)
        assert np.array_equal(core.tile_records, mine.tile_records)
        assert vars(core.stats) == vars(mine.stats)

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_sampled_matches_core(self, backend, rng):
        matrix = random_spike_matrix(400, 60, 0.15, rng, 0.3)
        core = transform_matrix(
            matrix, 64, 16, keep_transforms=False, max_tiles=6,
            rng=np.random.default_rng(9),
        )
        engine = ProsperityEngine(backend=backend, tile_m=64, tile_k=16)
        mine = engine.transform_matrix(
            matrix, max_tiles=6, rng=np.random.default_rng(9)
        )
        assert np.array_equal(core.tile_records, mine.tile_records)
        assert core.stats.sample_fraction == pytest.approx(
            mine.stats.sample_fraction
        )

    def test_keep_transforms_builds_plans(self, rng):
        matrix = random_spike_matrix(100, 20, 0.3, rng, 0.2)
        engine = ProsperityEngine(backend="fused", tile_m=32, tile_k=8)
        result = engine.transform_matrix(matrix, keep_transforms=True)
        core = transform_matrix(matrix, 32, 8, keep_transforms=True)
        assert len(result.transforms) == len(core.transforms)
        for mine, ref in zip(result.transforms, core.transforms):
            assert np.array_equal(mine.forest.prefix, ref.forest.prefix)
            assert mine.plan.verify_topological(mine.forest)

    def test_cache_accelerates_repeat_transform(self, rng):
        matrix = random_spike_matrix(128, 32, 0.2, rng, 0.3)
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16)
        first = engine.transform_matrix(matrix)
        misses_after_first = engine.cache.misses
        second = engine.transform_matrix(matrix)
        assert np.array_equal(first.tile_records, second.tile_records)
        # Second pass is all hits: no new misses.
        assert engine.cache.misses == misses_after_first
        assert engine.cache.hits >= len(second.tile_records)

    def test_stats_from_records_matches_merge(self, rng):
        matrix = random_spike_matrix(200, 40, 0.25, rng, 0.4)
        core = transform_matrix(matrix, 64, 16, keep_transforms=False)
        rebuilt = stats_from_records(core.tile_records)
        assert vars(rebuilt) == vars(core.stats)

    def test_invalid_tile_shapes_rejected(self, rng):
        with pytest.raises(ValueError, match="tile_m"):
            ProsperityEngine(tile_m=0, tile_k=16)
        engine = ProsperityEngine()
        matrix = random_spike_matrix(32, 16, 0.3, rng)
        for bad_m, bad_k in ((0, 16), (-4, 16), (16, 0), (16, -1)):
            with pytest.raises(ValueError, match="positive integer"):
                engine.transform_matrix(matrix, tile_m=bad_m, tile_k=bad_k)


class TestBatchedRun:
    def test_batching_preserves_records(self, rng):
        """Cross-workload bucket batching must equal workload-at-a-time
        core processing, across unaligned rows and mixed K."""
        workloads = [
            _workload("a", rng.random((128, 32)) < 0.2),
            _workload("b", rng.random((128, 32)) < 0.3),
            _workload("c", rng.random((96, 32)) < 0.25),   # unaligned rows
            _workload("d", rng.random((128, 16)) < 0.2),   # different K
            _workload("e", rng.random((128, 16)) < 0.4),
        ]
        engine_m = 64
        baseline = [
            transform_matrix(w.spikes, engine_m, 16, keep_transforms=False)
            for w in workloads
        ]
        engine = ProsperityEngine(backend="fused", tile_m=engine_m, tile_k=16)
        report = engine.run(workloads)
        assert [r.name for r in report.runs] == list("abcde")
        for run, ref in zip(report.runs, baseline):
            assert np.array_equal(run.records, ref.tile_records), run.name
            assert vars(run.stats) == vars(ref.stats)

    def test_batch_groups_respect_alignment(self, rng):
        """A ragged workload mid-trace neither splits nor shifts the
        tiles of the aligned workloads planned after it."""
        aligned = _workload("a", rng.random((128, 32)) < 0.2)
        ragged = _workload("r", rng.random((96, 32)) < 0.2)
        trace = [aligned, aligned, ragged, aligned]
        report = ProsperityEngine(backend="fused", tile_m=64, tile_k=16).run(trace)
        for run, workload in zip(report.runs, trace):
            core = transform_matrix(workload.spikes, 64, 16, keep_transforms=False)
            assert np.array_equal(run.records, core.tile_records), run.name
        # 3 x 4 aligned tiles fold onto one workload's 4; the ragged
        # workload adds 2 full and 2 partial-row tiles of its own.
        assert report.planned_tiles == 16
        assert report.unique_tiles == 8

    def test_run_report_totals(self, rng):
        trace_workloads = [
            _workload("x", rng.random((64, 16)) < 0.3),
            _workload("y", rng.random((64, 16)) < 0.3),
        ]
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16)
        report = engine.run(trace_workloads)
        assert report.total_tiles == sum(r.tiles for r in report.runs)
        assert report.tiles_per_sec > 0
        assert report.cache_hits + report.cache_misses > 0
        assert report.backend == "fused"

    def test_blocked_run_counts_only_its_own_lookups(self, rng):
        """A run that waits on the pass lock while another thread runs a
        trace reports one cache lookup per unique tile of its own."""
        trace_a = [_workload("a", rng.random((256, 64)) < 0.3)]
        trace_b = [_workload("b", rng.random((512, 64)) < 0.3)]
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16)
        reports = {}
        waiter = threading.Thread(
            target=lambda: reports.update(a=engine.run(trace_a))
        )
        with engine.exclusive():
            waiter.start()
            time.sleep(0.2)  # the waiter reaches the pass lock
            engine.run(trace_b)
        waiter.join()
        report = reports["a"]
        assert report.unique_tiles == 16
        assert report.cache_hits + report.cache_misses == report.unique_tiles

    def test_identical_timestep_tiles_hit_cache(self, rng):
        """Repeated spike tiles across timesteps compute once, then hit
        the cache on the next run; records stay the core path's."""
        bits = rng.random((64, 16)) < 0.3
        repeated = np.vstack([bits, bits, bits, bits])  # 4 "timesteps"
        engine = ProsperityEngine(backend="fused", tile_m=64, tile_k=16)
        first = engine.run([_workload("t", repeated)])
        assert (engine.cache.hits, engine.cache.misses) == (0, 1)
        second = engine.run([_workload("t", repeated)])
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        core = transform_matrix(repeated, 64, 16, keep_transforms=False)
        for report in (first, second):
            assert np.array_equal(report.runs[0].records, core.tile_records)

    def test_identical_timestep_tiles_dedup_under_trace_plan(self, rng):
        """The trace plan folds repeated timestep tiles before the kernel."""
        bits = rng.random((64, 16)) < 0.3
        repeated = np.vstack([bits, bits, bits, bits])  # 4 "timesteps"
        engine = ProsperityEngine(tile_m=64, tile_k=16)
        report = engine.run([_workload("t", repeated)])
        assert report.plan == "trace"
        assert report.planned_tiles == 4
        assert report.unique_tiles == 1

    def test_invalid_batch_rejected(self, rng):
        """Batching is the planner's job; there is no batch size to pass."""
        engine = ProsperityEngine()
        with pytest.raises(TypeError, match="batch"):
            engine.run([_workload("a", rng.random((8, 8)) < 0.5)], batch=4)

    def test_verify_trace_passes_for_fused(self, rng):
        workloads = [_workload("v", rng.random((96, 24)) < 0.25)]
        engine = ProsperityEngine(backend="fused", tile_m=32, tile_k=8)
        assert engine.verify_trace(workloads)
        assert engine.verify_trace(workloads, max_tiles=4)


class TestSimulatorIntegration:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_simulator_results_backend_independent(self, backend, vgg_trace):
        from repro.arch.simulator import ProsperitySimulator

        baseline = ProsperitySimulator(
            max_tiles_per_workload=6, rng=np.random.default_rng(1)
        ).simulate(vgg_trace)
        report = ProsperitySimulator(
            max_tiles_per_workload=6,
            rng=np.random.default_rng(1),
            backend=backend,
        ).simulate(vgg_trace)
        assert report.cycles == pytest.approx(baseline.cycles)
        assert report.energy_pj == pytest.approx(baseline.energy_pj)

    def test_shared_engine_across_simulators(self, vgg_trace):
        from repro.arch.config import DEFAULT_CONFIG
        from repro.arch.simulator import ProsperitySimulator

        engine = ProsperityEngine(
            backend="fused",
            tile_m=DEFAULT_CONFIG.tile_m,
            tile_k=DEFAULT_CONFIG.tile_k,
        )
        first = ProsperitySimulator(engine=engine).simulate(vgg_trace)
        hits_before = engine.cache.hits
        second = ProsperitySimulator(engine=engine).simulate(vgg_trace)
        assert second.cycles == pytest.approx(first.cycles)
        # The second simulator re-used the first one's cached tiles.
        assert engine.cache.hits > hits_before

    def test_sweep_accepts_backend(self, vgg_trace):
        from repro.analysis.sweep import sweep_tile_sizes

        m_ref, k_ref = sweep_tile_sizes(
            [vgg_trace], m_values=(64,), k_values=(16,), max_tiles=4,
            rng=np.random.default_rng(2), backend="reference",
        )
        m_vec, k_vec = sweep_tile_sizes(
            [vgg_trace], m_values=(64,), k_values=(16,), max_tiles=4,
            rng=np.random.default_rng(2), backend="fused",
        )
        assert m_ref[0].product_density == pytest.approx(m_vec[0].product_density)
        assert k_ref[0].latency_vs_bit == pytest.approx(k_vec[0].latency_vs_bit)


class TestCliRun:
    def test_cli_run_command(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run", "--model", "lenet5", "--dataset", "mnist",
                "--backend", "fused", "--verify",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "tiles/sec" in out
        assert "bit-identical" in out

    def test_cli_run_reference_backend(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "--model", "lenet5", "--dataset", "mnist",
             "--backend", "reference"]
        ) == 0
        assert "backend=reference" in capsys.readouterr().out
