"""Sharded backend: multiprocess execution must stay bit-identical.

The acceptance contract: for workers in {1, 2, 4} the sharded backend's
tile records equal the reference oracle's exactly, and the records are
byte-for-byte independent of the worker count (deterministic shard
splits + submission-order merge).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spike_matrix import random_spike_matrix
from repro.engine import (
    ProsperityEngine,
    ShardedBackend,
    available_backends,
    get_backend,
)
from repro.engine.backends import ReferenceBackend
from repro.engine.parallel import MIN_TILES_PER_SHARD, shard_bounds

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def pooled_backends():
    """One persistent pool per worker count, shared across the module."""
    backends = {workers: ShardedBackend(workers=workers) for workers in WORKER_COUNTS}
    yield backends
    for backend in backends.values():
        backend.close()


class TestShardBounds:
    def test_covers_contiguously(self):
        for total in (1, 7, 8, 17, 100):
            for shards in (1, 2, 4, 9):
                bounds = shard_bounds(total, shards)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == total
                for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
                    assert a_end == b_start

    def test_never_exceeds_total(self):
        assert len(shard_bounds(3, 8)) == 3
        assert shard_bounds(0, 4) == [(0, 0)]


class TestShardedEquivalence:
    def test_matches_reference_oracle(self, rng, pooled_backends):
        """Workers in {1, 2, 4}: records bit-identical to the oracle."""
        oracle = ReferenceBackend()
        # Enough tiles that the pool path actually engages (>= 2 shards).
        cases = [
            random_spike_matrix(
                64 * 2 * MIN_TILES_PER_SHARD, 16, density, rng, correlation
            )
            for density, correlation in ((0.05, 0.0), (0.3, 0.5), (0.7, 0.2))
        ]
        for matrix in cases:
            expected = oracle.matrix_records(matrix, 64, 16)
            for workers, backend in pooled_backends.items():
                actual = backend.matrix_records(matrix, 64, 16)
                assert np.array_equal(expected, actual), workers

    def test_records_independent_of_worker_count(self, rng, pooled_backends):
        matrix = random_spike_matrix(64 * 20, 32, 0.25, rng, 0.4)
        outputs = [
            backend.matrix_records(matrix, 64, 16)
            for backend in pooled_backends.values()
        ]
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)

    def test_small_batches_run_inline(self, rng):
        """Tiny stacks skip the pool entirely (no fork cost, same bits)."""
        backend = ShardedBackend(workers=2)
        try:
            matrix = random_spike_matrix(48, 16, 0.3, rng)
            expected = ReferenceBackend().matrix_records(matrix, 16, 16)
            assert np.array_equal(
                expected, backend.matrix_records(matrix, 16, 16)
            )
            assert backend._pool is None  # never spawned
        finally:
            backend.close()

    def test_pool_persists_across_calls(self, rng, pooled_backends):
        backend = pooled_backends[2]
        matrix = random_spike_matrix(64 * 20, 16, 0.2, rng)
        backend.matrix_records(matrix, 64, 16)
        pool_first = backend._pool
        backend.matrix_records(matrix, 64, 16)
        assert backend._pool is pool_first
        assert pool_first is not None

    def test_engine_run_matches_vectorized(self, pooled_backends, vgg_trace):
        vectorized = ProsperityEngine(
            backend="vectorized", tile_m=256, tile_k=16, plan="matrix"
        )
        sharded = ProsperityEngine(
            backend=pooled_backends[2], tile_m=256, tile_k=16, plan="matrix"
        )
        vec_report = vectorized.run(vgg_trace, batch=8)
        shard_report = sharded.run(vgg_trace, batch=8)
        assert shard_report.backend == "sharded"
        assert shard_report.workers == 2
        for mine, theirs in zip(shard_report.runs, vec_report.runs):
            assert np.array_equal(mine.records, theirs.records), mine.name


class TestShardedConstruction:
    def test_registered(self):
        assert "sharded" in available_backends()

    def test_get_backend_with_workers(self):
        backend = get_backend("sharded", workers=3)
        try:
            assert isinstance(backend, ShardedBackend)
            assert backend.workers == 3
        finally:
            backend.close()

    def test_engine_workers_passthrough(self):
        engine = ProsperityEngine(backend="sharded", workers=2)
        try:
            assert engine.backend.workers == 2
        finally:
            engine.backend.close()

    def test_default_workers_positive(self):
        backend = ShardedBackend()
        try:
            assert backend.workers >= 1
        finally:
            backend.close()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedBackend(workers=0)

    def test_other_backends_reject_workers(self):
        with pytest.raises(ValueError, match="does not accept"):
            get_backend("vectorized", workers=2)
        with pytest.raises(ValueError, match="does not accept"):
            ProsperityEngine(backend="fused", workers=2)

    def test_options_rejected_for_instances(self):
        backend = ShardedBackend(workers=1)
        try:
            with pytest.raises(ValueError, match="already-constructed"):
                get_backend(backend, workers=2)
        finally:
            backend.close()

    def test_none_workers_ignored_for_any_backend(self):
        assert get_backend("vectorized", workers=None).name == "vectorized"

    def test_close_idempotent(self):
        backend = ShardedBackend(workers=1)
        backend.close()
        backend.close()


class TestDelTeardown:
    """Satellite contract: __del__ never raises or prints, even when the
    executor is half torn down (interpreter-shutdown GC)."""

    def test_del_suppresses_shutdown_errors(self):
        backend = ShardedBackend(workers=2)

        class BrokenPool:
            def shutdown(self, *args, **kwargs):
                raise RuntimeError("cannot schedule new futures after "
                                   "interpreter shutdown")

        backend._pool = BrokenPool()
        backend.__del__()  # must swallow the teardown error...
        assert backend._pool is None  # ...and detach so GC never retries

    def test_del_without_pool_is_noop(self):
        backend = ShardedBackend(workers=2)
        backend.__del__()
        backend.__del__()

    def test_del_on_partially_constructed_backend(self):
        backend = ShardedBackend.__new__(ShardedBackend)  # __init__ skipped
        backend.__del__()  # no _pool attribute yet: still silent

    def test_interpreter_shutdown_is_silent(self):
        """A live engaged pool collected at interpreter exit (no close())
        must not print teardown noise to stderr."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        # Make the package importable in the child even from a bare
        # checkout (the root conftest shim only helps pytest itself).
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "import numpy as np\n"
            "from repro.core.spike_matrix import random_spike_matrix\n"
            "from repro.engine import ShardedBackend\n"
            "backend = ShardedBackend(workers=2)\n"
            "matrix = random_spike_matrix(64 * 20, 16, 0.2, "
            "np.random.default_rng(0))\n"
            "backend.matrix_records(matrix, 64, 16)\n"
            "assert backend._pool is not None\n"
            "# exit without close(): GC/shutdown must stay silent\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "", result.stderr


class TestPoolLifecycle:
    """Pools are spawned once, reused across calls, and never leaked."""

    def test_context_manager_closes_pool(self, rng):
        matrix = random_spike_matrix(64 * 20, 16, 0.2, rng)
        with ShardedBackend(workers=2) as backend:
            backend.matrix_records(matrix, 64, 16)
            assert backend._pool is not None
        assert backend._pool is None

    def test_pool_spawned_once_across_many_calls(self, rng, pooled_backends):
        backend = pooled_backends[4]
        matrix = random_spike_matrix(64 * 20, 16, 0.2, rng)
        for _ in range(3):
            backend.matrix_records(matrix, 64, 16)
        assert backend.pools_spawned == 1

    def test_inline_path_never_spawns(self, rng):
        with ShardedBackend(workers=2) as backend:
            backend.matrix_records(random_spike_matrix(48, 16, 0.3, rng), 16, 16)
            assert backend.pools_spawned == 0

    def test_engine_close_and_context_manager(self, rng):
        matrix = random_spike_matrix(64 * 20, 16, 0.2, rng)
        with ProsperityEngine(backend="sharded", workers=2, tile_m=64) as engine:
            engine.transform_matrix(matrix)
            assert engine.backend._pool is not None
        assert engine.backend._pool is None
        engine.close()  # idempotent through the engine too

    def test_non_pooled_backends_close_is_noop(self):
        with ProsperityEngine(backend="vectorized") as engine:
            pass
        engine.close()
        with get_backend("fused") as backend:
            assert backend.name == "fused"

    def test_simulator_close_spares_shared_engine(self, rng, pooled_backends):
        """Simulator close() only closes engines it constructed."""
        from repro.arch.simulator import ProsperitySimulator

        backend = pooled_backends[4]
        backend.matrix_records(random_spike_matrix(64 * 20, 16, 0.2, rng), 64, 16)
        pool = backend._pool
        engine = ProsperityEngine(backend=backend, tile_m=64, tile_k=16)
        with ProsperitySimulator(engine=engine):
            pass
        assert backend._pool is pool  # shared engine: left open

    def test_repeated_simulators_share_one_pool(self, rng, pooled_backends):
        """Simulator construction over a shared engine respawns nothing."""
        from repro.arch.simulator import ProsperitySimulator

        backend = pooled_backends[2]
        engine = ProsperityEngine(backend=backend, tile_m=64, tile_k=16)
        spawned_before = backend.pools_spawned
        matrix = random_spike_matrix(64 * 20, 16, 0.2, rng)
        for _ in range(3):
            simulator = ProsperitySimulator(engine=engine)
            simulator.engine.transform_matrix(matrix)
        assert backend.pools_spawned - spawned_before <= 1
        pool = backend._pool
        ProsperitySimulator(engine=engine).engine.transform_matrix(matrix)
        assert backend._pool is pool

    def test_sweep_closes_owned_backend(self, monkeypatch, rng):
        """sweep_tile_sizes closes backends it built from a name."""
        from repro.analysis import sweep as sweep_module
        from repro.snn.trace import GeMMWorkload, ModelTrace

        created = []
        real_engine = sweep_module.ProsperityEngine

        def capture(*args, **kwargs):
            engine = real_engine(*args, **kwargs)
            created.append(engine)
            return engine

        monkeypatch.setattr(sweep_module, "ProsperityEngine", capture)
        trace = ModelTrace(
            model="synthetic",
            dataset="unit",
            workloads=[
                GeMMWorkload(
                    name="w0",
                    spikes=random_spike_matrix(64, 16, 0.3, rng),
                    n=4,
                )
            ],
        )
        sweep_module.sweep_tile_sizes(
            [trace], m_values=(32,), k_values=(8,), max_tiles=2,
            rng=np.random.default_rng(0), backend="sharded", workers=2,
        )
        assert created, "sweep built no engine"
        assert created[0].backend._pool is None  # closed on exit

    def test_sweep_leaves_shared_instances_open(self, rng, pooled_backends):
        from repro.analysis.sweep import sweep_tile_sizes
        from repro.snn.trace import GeMMWorkload, ModelTrace

        backend = pooled_backends[2]
        backend.matrix_records(random_spike_matrix(64 * 20, 16, 0.2, rng), 64, 16)
        pool = backend._pool
        trace = ModelTrace(
            model="synthetic",
            dataset="unit",
            workloads=[
                GeMMWorkload(
                    name="w0",
                    spikes=random_spike_matrix(64, 16, 0.3, rng),
                    n=4,
                )
            ],
        )
        sweep_tile_sizes(
            [trace], m_values=(32,), k_values=(8,), max_tiles=2,
            rng=np.random.default_rng(0), backend=backend,
        )
        assert backend._pool is pool  # caller-owned: untouched


class TestCliSharded:
    def test_cli_run_sharded(self, capsys):
        from repro.cli import main

        assert main(
            [
                "run", "--model", "lenet5", "--dataset", "mnist",
                "--backend", "sharded", "--workers", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=sharded" in out
        assert "workers: 2" in out
        assert "profile:" in out

    def test_cli_rejects_workers_for_vectorized(self):
        from repro.cli import main

        # Config validation rejects the combo with a clean one-line exit
        # (same "does not accept" wording as get_backend itself).
        with pytest.raises(SystemExit, match="does not accept"):
            main(
                ["run", "--model", "lenet5", "--dataset", "mnist",
                 "--backend", "vectorized", "--workers", "2"]
            )
