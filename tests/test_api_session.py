"""Session facade: shared lifecycle, structured results, queue seam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.density import density_report
from repro.api import (
    DensityResult,
    EngineRunResult,
    RunConfig,
    Session,
    SimulationResult,
    SweepResult,
)
from repro.core.prosparsity import transform_matrix
from repro.engine import FusedBackend
from repro.engine.planner import PROFILE_STAGES

LENET = {
    "workload.model": "lenet5",
    "workload.dataset": "mnist",
    "sampling.max_tiles": 4,
}


def lenet_config(**extra) -> RunConfig:
    return RunConfig().with_overrides({**LENET, **extra})


class TestLifecycle:
    def test_engine_and_backend_shared(self):
        with Session(lenet_config()) as session:
            assert session.engine is session.engine
            assert session.backend is session.backend
            assert session.engine.backend is session.backend

    def test_engine_reflects_config(self):
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "engine.tile_m": 128, "engine.tile_k": 8,
            "engine.cache_size": 0,
        })
        with Session(cfg) as session:
            engine = session.engine
            assert engine.backend.name == "fused"
            assert (engine.tile_m, engine.tile_k) == (128, 8)
            assert engine.cache is None

    def test_closed_session_rejects_calls(self):
        session = Session(lenet_config())
        session.close()
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.run()
        with pytest.raises(RuntimeError, match="closed"):
            _ = session.engine

    def test_close_releases_owned_backend(self, monkeypatch):
        closed = []
        monkeypatch.setattr(FusedBackend, "close", lambda self: closed.append(self))
        session = Session(lenet_config(**{"engine.backend": "fused"}))
        backend = session.backend
        session.run()
        assert closed == []
        session.close()
        assert closed == [backend]

    def test_default_config(self):
        session = Session()
        assert session.config == RunConfig()
        session.close()

    def test_from_file(self, tmp_path):
        path = lenet_config().to_file(tmp_path / "run.json")
        with Session.from_file(path, sets=["engine.backend=fused"]) as session:
            assert session.config.workload.model == "lenet5"
            assert session.config.engine.backend == "fused"


class TestResults:
    def test_run_matches_direct_engine(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            result = session.run()
        assert isinstance(result, EngineRunResult)
        assert result.config is cfg
        assert result.seconds > 0
        assert result.verified is None  # not requested
        workloads = session.trace().workloads
        assert result.report.total_tiles == sum(
            w.spikes.num_tiles(cfg.engine.tile_m, cfg.engine.tile_k)
            for w in workloads
        )
        for mine, workload in zip(result.report.runs, workloads):
            core = transform_matrix(
                workload.spikes, cfg.engine.tile_m, cfg.engine.tile_k,
                keep_transforms=False,
            )
            assert np.array_equal(mine.records, core.tile_records)

    def test_run_verify_flag(self):
        cfg = lenet_config(**{"engine.backend": "fused",
                              "engine.verify": True})
        with Session(cfg) as session:
            assert session.run().verified is True

    def test_profile_attached(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            result = session.run()
        assert list(result.profile) == list(PROFILE_STAGES)
        assert result.report.dedup_ratio >= 1.0

    def test_simulate_reports(self):
        cfg = lenet_config(**{"simulator.baselines": ("eyeriss", "ptb")})
        with Session(cfg) as session:
            result = session.simulate()
        assert isinstance(result, SimulationResult)
        assert sorted(result.reports) == ["eyeriss", "prosperity", "ptb"]
        assert result.prosperity.seconds > 0

    def test_density_matches_core_path(self):
        """Session density (engine-backed) is bit-identical to the
        pre-Session CLI path (core transform, same seed)."""
        with Session(lenet_config()) as session:
            mine = session.density().report
            reference = density_report(
                session.trace(), max_tiles=4,
                rng=np.random.default_rng(session.config.workload.seed),
            )
        assert isinstance(mine, type(reference))
        assert mine.product_density == reference.product_density
        assert mine.bit_density == reference.bit_density

    def test_sweep_honors_exact_sampling(self, monkeypatch):
        """max_tiles=0 means exact everywhere, including sweep()."""
        import repro.api.session as session_mod

        captured = {}

        def fake_sweep(traces, **kwargs):
            captured.update(kwargs)
            return [], []

        monkeypatch.setattr(session_mod, "sweep_tile_sizes", fake_sweep)
        with Session(lenet_config(**{"sampling.max_tiles": 0})) as session:
            session.sweep()
        assert captured["max_tiles"] is None

    def test_sweep_points(self):
        cfg = lenet_config(**{"sweep.m_values": (64,), "sweep.k_values": (8,)})
        with Session(cfg) as session:
            result = session.sweep()
        assert isinstance(result, SweepResult)
        assert [p.tile_m for p in result.m_sweep] == [64]
        assert [p.tile_k for p in result.k_sweep] == [8]
        assert len(result.points) == 2

    def test_scaling_and_tradeoff(self):
        with Session(lenet_config()) as session:
            scaling = session.scaling()
            tradeoff = session.tradeoff()
        assert len(scaling.points) > 0
        assert tradeoff.result.profitable  # dS=0.1335 > 4.4% break-even

    def test_density_result_type(self):
        with Session(lenet_config()) as session:
            assert isinstance(session.density(), DensityResult)


class TestResourceReuse:
    def test_one_backend_across_run_simulate_sweep(self, monkeypatch):
        """Acceptance: a Session builds one backend and engine, no matter
        which experiments run through it, and closes the backend once."""
        closed = []
        monkeypatch.setattr(FusedBackend, "close", lambda self: closed.append(self))
        cfg = lenet_config(**{
            "engine.backend": "fused",
            "sweep.m_values": (64,), "sweep.k_values": (8,),
        })
        with Session(cfg) as session:
            backend, engine = session.backend, session.engine
            session.run()
            session.simulate()
            session.sweep()
            again = session.run()
            assert session.backend is backend and session.engine is engine
            assert again.report.cache_misses == 0  # the engine stayed warm
            assert closed == []  # the sweep left the shared backend open
        assert closed == [backend]

    def test_fused_records_bit_identical(self):
        fused_cfg = lenet_config(**{"engine.backend": "fused"})
        reference_cfg = lenet_config(**{"engine.backend": "reference"})
        with Session(fused_cfg) as fused, Session(reference_cfg) as ref:
            mine = fused.run().report
            theirs = ref.run().report
        for a, b in zip(mine.runs, theirs.runs):
            assert np.array_equal(a.records, b.records)


class TestCloseIdempotency:
    """Satellite contract: Session.close()/Backend.close() double-close
    is a no-op — after real work and interleaved."""

    def test_session_double_close_after_run(self):
        session = Session(lenet_config(**{"engine.backend": "fused"}))
        session.run()
        session.close()
        session.close()
        session.close()  # any number of closes is a no-op

    def test_session_double_close_closes_backend_once(self, monkeypatch):
        closed = []
        monkeypatch.setattr(FusedBackend, "close", lambda self: closed.append(self))
        session = Session(lenet_config(**{"engine.backend": "fused"}))
        backend = session.backend
        session.run()
        session.close()
        session.close()  # second close must not touch the closed backend
        assert closed == [backend]

    def test_backend_double_close(self):
        from repro.engine import get_backend

        for name in ("reference", "fused"):
            plain = get_backend(name)
            plain.close()
            plain.close()

    def test_engine_double_close(self):
        with Session(lenet_config()) as session:
            engine = session.engine
        engine.close()  # session.close() already closed it once

    def test_context_manager_then_explicit_close(self):
        with Session(lenet_config()) as session:
            session.density()
        session.close()  # after __exit__ already closed


class TestSharedEngine:
    def test_injected_engine_is_shared_not_owned(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as owner:
            engine = owner.engine
            borrower = Session(cfg, engine=engine)
            assert borrower.engine is engine
            assert borrower.backend is engine.backend
            result = borrower.run()
            assert result.report.total_tiles > 0
            borrower.close()
            # The engine survived the borrower: the owner still runs.
            assert owner.run().report.total_tiles > 0

    def test_injected_engine_must_match_config(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as owner:
            mismatched = lenet_config(**{"engine.backend": "reference"})
            with pytest.raises(ValueError, match="does not match"):
                Session(mismatched, engine=owner.engine)
            # Tile shape is part of the contract too.
            retiled = lenet_config(**{"engine.backend": "fused",
                                      "engine.tile_k": 8})
            with pytest.raises(ValueError, match="does not match"):
                Session(retiled, engine=owner.engine)


class TestStream:
    def test_stream_chunks_cover_run(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            direct = session.run()
            stream = session.stream()
            chunks = []
            try:
                while True:
                    chunks.append(next(stream))
            except StopIteration as stop:
                final = stop.value
        assert sum(chunk.tiles for chunk in chunks) == direct.report.total_tiles
        streamed = {
            run.name: run.records for chunk in chunks for run in chunk.runs
        }
        for run in direct.report.runs:
            assert np.array_equal(streamed[run.name], run.records)
        for mine, theirs in zip(final.report.runs, direct.report.runs):
            assert np.array_equal(mine.records, theirs.records)

    def test_stream_chunk_size(self):
        cfg = lenet_config(**{"engine.backend": "fused",
                              "scheduler.stream_chunk": 2})
        with Session(cfg) as session:
            workloads = len(session.run().report.runs)
            chunks = list(session.stream())
        assert len(chunks) == -(-workloads // 2)


class TestSubmitQueue:
    def test_submit_matches_direct_call(self):
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            queued = session.submit("run").result()
            direct = session.run()
        assert queued.report.total_tiles == direct.report.total_tiles
        for a, b in zip(queued.report.runs, direct.report.runs):
            assert np.array_equal(a.records, b.records)

    def test_concurrent_submissions_share_engine(self):
        with Session(lenet_config()) as session:
            futures = [session.submit(kind)
                       for kind in ("run", "density", "tradeoff")]
            results = [f.result() for f in futures]
        assert isinstance(results[0], EngineRunResult)
        assert isinstance(results[1], DensityResult)
        assert results[2].result.profitable

    def test_unknown_kind(self):
        with Session(lenet_config()) as session:
            with pytest.raises(ValueError, match="unknown experiment"):
                session.submit("fly")

    def test_close_drains_queue(self):
        session = Session(lenet_config())
        future = session.submit("density")
        session.close()
        assert future.result().report.product_density > 0

    def test_submit_returns_future(self):
        """The PR 4 Future-based contract survives the scheduler rework."""
        from concurrent.futures import Future

        with Session(lenet_config()) as session:
            future = session.submit("tradeoff")
            assert isinstance(future, Future)
            assert future.result().result.profitable

    def test_submit_shares_session_engine(self):
        """Scheduled jobs run against the session's engine — one warm
        cache across direct calls and submissions."""
        cfg = lenet_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            session.run()
            futures = [session.submit("run") for _ in range(3)]
            for future in futures:
                report = future.result().report
                assert report.total_tiles > 0
                assert report.cache_misses == 0

    def test_submit_after_close_raises(self):
        session = Session(lenet_config())
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit("run")
