"""Trace-level execution planner: cross-workload batching stays exact.

The acceptance contract: tile records produced by the trace-level
planner are bit-identical to the per-tile :mod:`repro.core` transform
for every backend, on ragged shapes, awkward packed widths, and sampled
subsets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import prosparsity as core
from repro.core.spike_matrix import SpikeMatrix, random_spike_matrix
from repro.engine import ProsperityEngine, TracePlanner
from repro.engine.backends import ReferenceBackend
from repro.engine.planner import PROFILE_STAGES
from repro.snn.trace import GeMMWorkload

TILE_M, TILE_K = 64, 16


def _workloads(rng, specs):
    """Synthetic trace: (rows, cols, density, correlation) per workload."""
    return [
        GeMMWorkload(
            name=f"w{i}",
            spikes=random_spike_matrix(rows, cols, density, rng, correlation),
            n=8,
        )
        for i, (rows, cols, density, correlation) in enumerate(specs)
    ]


def _matrix_records(workloads, backend, tile_m=TILE_M, tile_k=TILE_K):
    return [
        backend.matrix_records(w.spikes, tile_m, tile_k) for w in workloads
    ]


def _core_records(workloads, tile_m=TILE_M, tile_k=TILE_K):
    """Per-workload records of the :mod:`repro.core` oracle."""
    return [
        core.transform_matrix(w.spikes, tile_m, tile_k, keep_transforms=False).tile_records
        for w in workloads
    ]


class TestPlanModeValidation:
    def test_rejects_unknown(self):
        """There is one plan: asking for another is an error, never a
        silently ignored keyword."""
        with pytest.raises(TypeError, match="plan"):
            ProsperityEngine(plan="matrix")
        engine = ProsperityEngine(backend="fused")
        with pytest.raises(TypeError, match="plan"):
            engine.run([], plan="matrix")


class TestPlannedRecordEquivalence:
    """The acceptance property: planner output == the core oracle."""

    #: Ragged rows/cols, packed widths of 2/3/5/7 bytes, mixed densities.
    SPECS = (
        (130, 17, 0.3, 0.4),
        (64, 17, 0.05, 0.0),
        (200, 33, 0.5, 0.6),
        (96, 56, 0.25, 0.3),
        (40, 16, 0.7, 0.2),
    )

    def _trace(self, rng):
        return _workloads(rng, self.SPECS)

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_planner_matches_oracle_all_backends(self, rng, backend):
        workloads = self._trace(rng)
        expected = _core_records(workloads)
        report = ProsperityEngine(
            backend=backend, tile_m=TILE_M, tile_k=TILE_K
        ).run(workloads)
        assert report.plan == "trace"
        assert len(report.runs) == len(expected)
        for run, records in zip(report.runs, expected):
            assert np.array_equal(run.records, records), (backend, run.name)

    def test_plan_modes_identical_on_real_trace(self, vgg_trace):
        """One whole-trace plan, one plan per workload, and the core
        oracle agree on every VGG-16 workload."""
        trace_report = ProsperityEngine(
            backend="fused", tile_m=256, tile_k=16
        ).run(vgg_trace)
        per_matrix = ProsperityEngine(
            backend="fused", tile_m=256, tile_k=16, cache_size=0
        )
        expected = _core_records(vgg_trace.workloads, 256, 16)
        for mine, workload, theirs in zip(
            trace_report.runs, vgg_trace.workloads, expected
        ):
            alone = per_matrix.run([workload]).runs[0]
            assert np.array_equal(mine.records, alone.records), mine.name
            assert np.array_equal(mine.records, theirs), mine.name

    def test_warm_run_matches_core(self, rng):
        """A second run on the same engine (cache warm) still
        equals the core oracle, and both runs are labelled ``trace``."""
        workloads = self._trace(rng)
        engine = ProsperityEngine(backend="fused", tile_m=TILE_M, tile_k=TILE_K)
        cold = engine.run(workloads)
        warm = engine.run(workloads)
        assert cold.plan == warm.plan == "trace"
        assert warm.cache_misses == 0
        for mine, theirs in zip(warm.runs, _core_records(workloads)):
            assert np.array_equal(mine.records, theirs)


class TestPartialResults:
    """The on_workload streaming seam: exactly-once, exact records."""

    def test_callback_fires_once_per_workload(self, rng):
        workloads = _workloads(
            rng, [(128, 32, 0.3, 0.5), (64, 16, 0.2, 0.0), (192, 48, 0.4, 0.3)]
        )
        backend = ReferenceBackend()
        expected = _matrix_records(workloads, backend)
        planner = TracePlanner()
        completed: dict[int, np.ndarray] = {}

        def on_workload(index, records):
            assert index not in completed  # exactly once
            completed[index] = records.copy()

        plan = planner.plan([w.spikes for w in workloads], TILE_M, TILE_K)
        per_workload = planner.execute(plan, backend, on_workload=on_workload)
        assert sorted(completed) == list(range(len(workloads)))
        for index, records in enumerate(per_workload):
            assert np.array_equal(completed[index], records)
            assert np.array_equal(records, expected[index])

    def test_callback_records_match_final_slices(self, rng):
        """A workload's callback payload is its final record block —
        complete the moment it fires, not filled in later."""
        workloads = _workloads(rng, [(128, 32, 0.3, 0.5)] * 3)
        planner = TracePlanner()
        backend = ReferenceBackend()
        snapshots = {}

        def on_workload(index, records):
            snapshots[index] = records.copy()

        plan = planner.plan([w.spikes for w in workloads], TILE_M, TILE_K)
        final = planner.execute(plan, backend, on_workload=on_workload)
        for index, records in enumerate(final):
            assert np.array_equal(snapshots[index], records)

    def test_exclusive_serializes_concurrent_plans(self, rng):
        """Two threads sharing one engine interleave whole passes, one
        of them under an explicit ``exclusive()`` hold, and each gets
        its own trace's exact records."""
        import threading

        workloads_a = _workloads(rng, [(128, 32, 0.3, 0.5), (64, 16, 0.2, 0.0)])
        workloads_b = _workloads(rng, [(192, 48, 0.4, 0.3)])
        backend = ReferenceBackend()
        expected = {
            "a": _matrix_records(workloads_a, backend),
            "b": _matrix_records(workloads_b, backend),
        }
        engine = ProsperityEngine(
            backend=backend, tile_m=TILE_M, tile_k=TILE_K, cache_size=0
        )
        failures: list[str] = []

        def worker(name, workloads):
            for _ in range(5):
                if name == "a":
                    with engine.exclusive():
                        report = engine.run(workloads)
                else:
                    report = engine.run(workloads)
                for run, theirs in zip(report.runs, expected[name]):
                    if not np.array_equal(run.records, theirs):
                        failures.append(name)

        threads = [
            threading.Thread(target=worker, args=("a", workloads_a)),
            threading.Thread(target=worker, args=("b", workloads_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures


class TestDedupStats:
    def test_repeated_workloads_dedup(self, rng):
        """A trace repeated over timesteps dedups across workloads."""
        base = _workloads(rng, [(128, 32, 0.3, 0.5)])
        repeated = base * 4  # four identical "timesteps"
        report = ProsperityEngine(
            backend="fused", tile_m=TILE_M, tile_k=TILE_K
        ).run(repeated)
        assert report.planned_tiles == 4 * base[0].spikes.num_tiles(TILE_M, TILE_K)
        assert report.unique_tiles <= report.planned_tiles // 4
        assert report.dedup_ratio >= 4.0
        # All four copies carry identical records.
        for run in report.runs[1:]:
            assert np.array_equal(run.records, report.runs[0].records)

    def test_single_tile_trace_reports_unit_dedup(self, rng):
        """One tile has nothing to dedup against: planned == unique."""
        workloads = _workloads(rng, [(64, 16, 0.3, 0.0)])
        report = ProsperityEngine(
            backend="fused", tile_m=TILE_M, tile_k=TILE_K
        ).run(workloads)
        assert report.planned_tiles == report.unique_tiles == 1
        assert report.dedup_ratio == 1.0
        assert np.array_equal(report.runs[0].records, _core_records(workloads)[0])

    def test_planned_profile_stages(self, rng):
        report = ProsperityEngine(
            backend="fused", tile_m=TILE_M, tile_k=TILE_K
        ).run(_workloads(rng, [(128, 32, 0.3, 0.5), (64, 16, 0.2, 0.0)]))
        assert set(report.profile) == set(PROFILE_STAGES)
        assert all(seconds >= 0.0 for seconds in report.profile.values())


class TestArenaReuse:
    def test_returned_records_survive_replanning(self, rng):
        """Records a run returns stay intact through later runs of the
        same engine on same-shaped traces."""
        first_trace = _workloads(rng, [(128, 16, 0.3, 0.4)])
        second_trace = _workloads(rng, [(128, 16, 0.6, 0.1)])
        engine = ProsperityEngine(backend="fused", tile_m=TILE_M, tile_k=TILE_K)
        first = engine.run(first_trace)
        kept = first.runs[0].records.copy()
        engine.run(second_trace)
        assert np.array_equal(first.runs[0].records, kept)


class TestTransformTrace:
    def test_matches_per_matrix_loop(self, rng):
        workloads = _workloads(rng, [(130, 17, 0.3, 0.4), (64, 16, 0.2, 0.0)])
        engine = ProsperityEngine(backend="fused", tile_m=TILE_M, tile_k=TILE_K)
        loop = [
            core.transform_matrix(w.spikes, TILE_M, TILE_K, keep_transforms=False)
            for w in workloads
        ]
        planned = engine.transform_trace(workloads)
        for mine, theirs in zip(planned, loop):
            assert np.array_equal(mine.tile_records, theirs.tile_records)
            assert vars(mine.stats) == vars(theirs.stats)

    def test_accepts_bare_matrices(self, rng):
        matrices = [
            random_spike_matrix(96, 32, 0.3, rng),
            SpikeMatrix(rng.random((64, 16)) < 0.2).bits,  # raw ndarray
        ]
        engine = ProsperityEngine(backend="fused", tile_m=TILE_M, tile_k=TILE_K)
        results = engine.transform_trace(matrices)
        assert len(results) == 2
        oracle = ReferenceBackend()
        for matrix, result in zip(matrices, results):
            matrix = matrix if isinstance(matrix, SpikeMatrix) else SpikeMatrix(matrix)
            assert np.array_equal(
                result.tile_records,
                oracle.matrix_records(matrix, TILE_M, TILE_K),
            )

    def test_empty_trace(self):
        engine = ProsperityEngine(backend="fused")
        assert engine.transform_trace([]) == []
        report = engine.run([])
        assert report.runs == [] and report.planned_tiles == 0


class TestPlannedGemm:
    def test_integer_weights_exact(self, rng):
        matrix = random_spike_matrix(130, 33, 0.3, rng, 0.4)
        weights = rng.integers(-5, 6, size=(33, 9))
        per_tile = core.execute_gemm(matrix, weights, TILE_M, TILE_K)
        planned = ProsperityEngine(
            backend="fused", tile_m=TILE_M, tile_k=TILE_K
        ).execute_gemm(matrix, weights)
        assert np.array_equal(per_tile, planned)
        dense = matrix.bits.astype(np.int64) @ weights.astype(np.int64)
        assert np.array_equal(planned, dense)

    def test_float_weights_same_summation_order(self, rng):
        matrix = random_spike_matrix(96, 40, 0.25, rng, 0.3)
        weights = rng.standard_normal((40, 5))
        per_tile = core.execute_gemm(matrix, weights, 32, 16)
        planned = ProsperityEngine(
            backend="reference", tile_m=32, tile_k=16
        ).execute_gemm(matrix, weights)
        # Accumulation runs in row-major tile order in both paths, and
        # the reference backend seeds each row exactly as the core does,
        # so even float outputs are bit-equal, not merely close.
        assert np.array_equal(per_tile, planned)


class TestPlannerDirect:
    def test_bucket_scatter_covers_every_tile(self, rng):
        planner = TracePlanner()
        matrices = [
            random_spike_matrix(130, 17, 0.3, rng),
            random_spike_matrix(64, 33, 0.2, rng),
        ]
        plan = planner.plan(matrices, TILE_M, TILE_K)
        assert plan.total_tiles == sum(
            m.num_tiles(TILE_M, TILE_K) for m in matrices
        )
        assert plan.unique_tiles <= plan.total_tiles
        covered = set()
        for bucket in plan.buckets:
            for owner, position in zip(bucket.owner, bucket.position):
                covered.add((int(owner), int(position)))
        assert len(covered) == plan.total_tiles

    def test_shared_shapes_merge_into_one_bucket(self, rng):
        planner = TracePlanner()
        matrices = [
            random_spike_matrix(TILE_M * 2, TILE_K, 0.3, rng),
            random_spike_matrix(TILE_M * 3, TILE_K, 0.2, rng),
        ]
        plan = planner.plan(matrices, TILE_M, TILE_K)
        assert len(plan.buckets) == 1  # one (m, k) shape across workloads
        assert plan.buckets[0].tiles == 5

    @pytest.mark.parametrize("tile_k", [TILE_K, 17])
    def test_prepacked_sources_match_matrices(self, rng, tile_k):
        """A matrix packed ahead (as stream producers do) plans the same."""
        matrices = [
            random_spike_matrix(130, 40, 0.3, rng, 0.5),
            random_spike_matrix(7, 23, 0.2, rng),
        ]
        backend = ReferenceBackend()
        planner = TracePlanner()
        expected = planner.execute(planner.plan(matrices, TILE_M, tile_k), backend)
        packed = [TracePlanner.pack(m, TILE_M, tile_k) for m in matrices]
        assert [p.tiles for p in packed] == [m.num_tiles(TILE_M, tile_k) for m in matrices]
        mixed = [packed[0], matrices[1]]
        actual = planner.execute(planner.plan(mixed, TILE_M, tile_k), backend)
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)
        assert np.array_equal(
            actual[0], core.transform_matrix(matrices[0], TILE_M, tile_k).tile_records
        )


class TestCliPlan:
    def test_cli_run_trace_plan(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run", "--model", "lenet5", "--dataset", "mnist",
                "--backend", "fused",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: trace" in out
        assert "cross-workload dedup" in out
        assert "profile:" in out

    def test_cli_rejects_unknown_plan(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                ["run", "--model", "lenet5", "--dataset", "mnist",
                 "--plan", "bogus"]
            )
