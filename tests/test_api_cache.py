"""``[cache]`` config section and persistent-store API wiring (ISSUE 8).

Contract: the section validates eagerly and round-trips through config
files; Session and Scheduler construct, thread, and close the store
(the engine never owns it); per-run ``EngineReport.store_*`` counters
and ``Scheduler.stats`` expose the traffic; the fault drills prove
bit-identical records under injected corruption and graceful cache-off
degradation under injected IO errors; ``repro cache`` and the run
footer surface it all on the CLI.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import Job, RunConfig, Scheduler, Session
from repro.cli import main as cli_main
from repro.engine import faults
from repro.engine.store import namespace_tag


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


def cache_config(tmp_path, **extra) -> RunConfig:
    return RunConfig().with_overrides(
        {
            "workload.model": "lenet5",
            "workload.dataset": "mnist",
            "engine.backend": "fused",
            "cache.enabled": True,
            "cache.path": str(tmp_path / "store"),
            **extra,
        }
    )


class TestCacheConfig:
    def test_defaults_off(self):
        cache = RunConfig().cache
        assert cache.enabled is False
        assert cache.path == ""
        assert cache.max_bytes == 256 * 1024 * 1024
        assert cache.verify == "checksum"

    def test_round_trips_through_file(self, tmp_path):
        config = cache_config(tmp_path, **{"cache.max_bytes": 4096,
                                           "cache.verify": "off"})
        path = config.to_file(tmp_path / "run.toml")
        loaded = RunConfig.from_file(path)
        assert loaded.cache == config.cache

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="max_bytes"):
            RunConfig().with_sets(["cache.max_bytes=-5"])
        with pytest.raises(ValueError, match="verify policy"):
            RunConfig().with_sets(["cache.verify=sometimes"])


class TestSessionWiring:
    def test_disabled_cache_means_no_store(self, tmp_path):
        config = cache_config(tmp_path, **{"cache.enabled": False})
        with Session(config) as session:
            report = session.run().report
        assert report.store_active is None
        assert not (tmp_path / "store").exists()

    def test_cold_then_warm_bit_identical(self, tmp_path):
        config = cache_config(tmp_path)
        with Session(config) as session:
            cold = session.run()
        assert cold.report.store_active is True
        assert cold.report.store_misses > 0
        assert cold.report.store_hits == 0
        # Fresh Session = fresh memory tier; the store carries it.
        with Session(config) as session:
            warm = session.run()
        assert warm.report.store_hits > 0
        for a, b in zip(cold.report.runs, warm.report.runs):
            assert np.array_equal(a.records, b.records)

    def test_session_close_closes_store(self, tmp_path):
        session = Session(cache_config(tmp_path))
        session.run()
        store = session._store
        assert store is not None
        session.close()
        assert session._store is None
        assert store._writer is None  # writer thread stopped

    def test_cache_size_zero_still_persists(self, tmp_path):
        """engine.cache_size=0 turns the memory tier off; the store
        must still serve cross-process reuse through a minimal tier."""
        config = cache_config(tmp_path, **{"engine.cache_size": 0})
        with Session(config) as session:
            cold = session.run()
        with Session(config) as session:
            warm = session.run()
        assert warm.report.store_hits > 0
        for a, b in zip(cold.report.runs, warm.report.runs):
            assert np.array_equal(a.records, b.records)


class TestFaultDrills:
    def test_corruption_is_quarantined_and_records_identical(self, tmp_path):
        config = cache_config(tmp_path)
        with Session(config) as session:
            baseline = session.run()
        drilled = config.with_sets(["resilience.faults=store_corrupt:times=3"])
        with Session(drilled) as session:
            under_fault = session.run()
        report = under_fault.report
        assert report.store_corrupt == 3
        assert report.store_active is True  # corruption never disables
        for a, b in zip(baseline.report.runs, report.runs):
            assert np.array_equal(a.records, b.records)
        quarantine = tmp_path / "store" / namespace_tag() / "quarantine"
        assert sum(1 for _ in quarantine.iterdir()) == 3

    def test_io_error_degrades_to_cache_off(self, tmp_path):
        config = cache_config(tmp_path)
        with Session(config) as session:
            baseline = session.run()
        drilled = config.with_sets(["resilience.faults=store_io_error:match=get"])
        with Session(drilled) as session:
            degraded = session.run()
        assert degraded.report.store_active is False
        for a, b in zip(baseline.report.runs, degraded.report.runs):
            assert np.array_equal(a.records, b.records)


class TestSchedulerWiring:
    def test_reports_and_stats_carry_store_traffic(self, tmp_path):
        config = cache_config(tmp_path)
        with Session(config) as session:
            session.run()  # populate the store
        with Scheduler(config) as scheduler:
            result = scheduler.submit("run", config).result()
            stats = scheduler.stats
        assert result.report.store_active is True
        assert result.report.store_hits > 0
        assert stats["store_hits"] == result.report.store_hits
        assert set(stats) >= {
            "store_hits", "store_misses", "store_corrupt", "store_evictions",
        }

    def test_coalesced_batch_publishes_before_close(self, tmp_path):
        """A coalesced batch kicks the store like a solo run: its entries
        land on disk while the scheduler is still open."""
        config = cache_config(tmp_path)
        with Scheduler(config) as scheduler:
            handles = scheduler.submit_many([Job(config=config) for _ in range(2)])
            for handle in handles:
                handle.result()
            assert scheduler.batches == 1
            (store,) = scheduler._stores.values()
            deadline = time.monotonic() + 5.0
            while not store.stats().entries and time.monotonic() < deadline:
                time.sleep(0.05)
            assert store.stats().entries > 0

    def test_cache_section_splits_engine_signature(self, tmp_path):
        """Jobs with different store configs must not share an engine."""
        enabled = cache_config(tmp_path)
        disabled = cache_config(tmp_path, **{"cache.enabled": False})
        with Scheduler(enabled) as scheduler:
            scheduler.submit("run", enabled).result()
            scheduler.submit("run", disabled).result()
            assert len(scheduler._engines) == 2
            assert len(scheduler._stores) == 1

    def test_scheduler_close_closes_stores(self, tmp_path):
        config = cache_config(tmp_path)
        scheduler = Scheduler(config)
        scheduler.submit("run", config).result()
        (store,) = scheduler._stores.values()
        scheduler.close()
        assert store._writer is None
        assert scheduler._stores == {}


class TestCacheCLI:
    def run_cli(self, capsys, *argv) -> tuple[str, int]:
        code = cli_main(list(argv))
        return capsys.readouterr().out, code

    def test_run_footer_shows_store_line(self, tmp_path, capsys):
        out, code = self.run_cli(
            capsys, "run", "--model", "lenet5", "--dataset", "mnist",
            "--backend", "fused", "--set", "cache.enabled=true",
            "--set", f"cache.path={tmp_path / 'store'}",
        )
        assert code == 0
        assert "store: 0 hits /" in out
        assert "corrupt quarantined" in out

    def test_stats_verify_clear(self, tmp_path, capsys):
        store_path = tmp_path / "store"
        self.run_cli(
            capsys, "run", "--model", "lenet5", "--dataset", "mnist",
            "--backend", "fused", "--set", "cache.enabled=true",
            "--set", f"cache.path={store_path}",
        )
        out, code = self.run_cli(
            capsys, "cache", "stats", "--set", f"cache.path={store_path}"
        )
        assert code == 0
        assert "entries" in out
        out, code = self.run_cli(
            capsys, "cache", "verify", "--set", f"cache.path={store_path}"
        )
        assert code == 0
        assert "0 corrupt quarantined" in out
        out, code = self.run_cli(
            capsys, "cache", "clear", "--set", f"cache.path={store_path}"
        )
        assert code == 0
        assert "removed" in out
        out, _ = self.run_cli(
            capsys, "cache", "stats", "--set", f"cache.path={store_path}"
        )
        assert "| 0" in out  # entries back to zero

    def test_verify_exits_nonzero_on_corruption(self, tmp_path, capsys):
        store_path = tmp_path / "store"
        self.run_cli(
            capsys, "run", "--model", "lenet5", "--dataset", "mnist",
            "--backend", "fused", "--set", "cache.enabled=true",
            "--set", f"cache.path={store_path}",
        )
        capsys.readouterr()
        victim = next(
            path
            for path in (store_path / namespace_tag()).rglob("*.rec")
        )
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        out, code = self.run_cli(
            capsys, "cache", "verify", "--set", f"cache.path={store_path}"
        )
        assert code == 1
        assert "1 corrupt quarantined" in out
