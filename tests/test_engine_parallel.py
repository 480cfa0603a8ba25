"""Backend lifecycle: whoever constructs a backend closes it, exactly once.

The engine closes a backend it built from a name and leaves a
caller-supplied instance open; the simulator and the tiling sweep apply
the same rule to the engines (and backends) they build. ``close()``
counts are observed by patching ``FusedBackend.close``. The rule was
first pinned on the process-pool backend; every shipped backend now
runs in-process, but a backend that holds resources relies on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spike_matrix import random_spike_matrix
from repro.engine import FusedBackend, ProsperityEngine, get_backend
from repro.snn.trace import GeMMWorkload, ModelTrace


@pytest.fixture
def closes(monkeypatch):
    """Backends whose ``close()`` ran, in call order."""
    closed = []
    monkeypatch.setattr(FusedBackend, "close", lambda self: closed.append(self))
    return closed


def _trace(rng):
    return ModelTrace(
        model="synthetic",
        dataset="unit",
        workloads=[
            GeMMWorkload(name="w0", spikes=random_spike_matrix(64, 16, 0.3, rng), n=4)
        ],
    )


class TestPoolLifecycle:
    def test_engine_close_and_context_manager(self, rng, closes):
        matrix = random_spike_matrix(64 * 4, 16, 0.2, rng)
        with ProsperityEngine(backend="fused", tile_m=64) as engine:
            engine.transform_matrix(matrix)
            assert closes == []
        assert closes == [engine.backend]
        assert len(engine.planner.arena) == 0  # arena slabs released
        engine.close()  # idempotent through the engine too

    def test_engine_leaves_shared_instances_open(self, rng, closes):
        backend = FusedBackend()
        with ProsperityEngine(backend=backend, tile_m=64) as engine:
            engine.transform_matrix(random_spike_matrix(64, 16, 0.2, rng))
        assert closes == []
        with get_backend("fused") as owned:
            assert owned.name == "fused"
        assert closes == [owned]

    def test_non_pooled_backends_close_is_noop(self, rng):
        """In-process backends hold nothing: close() is idempotent and
        leaves the instance usable."""
        matrix = random_spike_matrix(64, 16, 0.2, rng)
        for name in ("fused", "reference"):
            with ProsperityEngine(backend=name, tile_m=64) as engine:
                pass
            engine.close()
            backend = engine.backend
            backend.close()
            assert len(backend.matrix_records(matrix, 64, 16)) == 1

    def test_simulator_close_spares_shared_engine(self, closes):
        """Simulator close() only closes engines it constructed."""
        from repro.arch.simulator import ProsperitySimulator

        engine = ProsperityEngine(backend=FusedBackend(), tile_m=64, tile_k=16)
        with ProsperitySimulator(engine=engine):
            pass
        assert closes == []  # shared engine: left open
        with ProsperitySimulator() as simulator:
            pass
        assert closes == [simulator.engine.backend]

    def test_sweep_closes_owned_backend(self, rng, closes):
        """sweep_tile_sizes closes backends it built from a name."""
        from repro.analysis.sweep import sweep_tile_sizes

        sweep_tile_sizes(
            [_trace(rng)], m_values=(32,), k_values=(8,), max_tiles=2,
            rng=np.random.default_rng(0), backend="fused",
        )
        assert len(closes) == 1

    def test_sweep_leaves_shared_instances_open(self, rng, closes):
        from repro.analysis.sweep import sweep_tile_sizes

        backend = FusedBackend()
        sweep_tile_sizes(
            [_trace(rng)], m_values=(32,), k_values=(8,), max_tiles=2,
            rng=np.random.default_rng(0), backend=backend,
        )
        assert backend not in closes  # caller-owned: untouched
