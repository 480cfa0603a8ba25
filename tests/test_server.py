"""The network serving front end (ISSUE 9): repro.server + ServeClient.

Acceptance contract: results fetched through :class:`ServeClient` over
a real socket are byte-identical to ``Session.run()`` for every
backend; mixed tenants coalesce into shared planner batches (visible as
cross-tenant dedup under ``/metrics``); quota / priority / deadline
violations map to the documented HTTP statuses (429 / 400 / 504, plus
500 job-scoped failures and 503 while draining); graceful drain —
SIGTERM on the CLI process or ``POST /admin/drain`` in-process — loses
zero accepted jobs; and the ``reject_request`` / ``slow_request`` /
``engine_error`` fault kinds produce clean, job-scoped wire errors, not
hung connections.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import (
    BatchExecutionError,
    DeadlineExceeded,
    RunConfig,
    SchedulerSaturated,
    ServeClient,
    ServeRequestError,
    ServeUnavailable,
    Session,
)
from repro.engine import available_backends, faults
from repro.server import ReproServer

LENET = {
    "workload.model": "lenet5",
    "workload.dataset": "mnist",
    "scheduler.coalesce_window_ms": 0.0,
}


def serve_config(**extra) -> RunConfig:
    return RunConfig().with_overrides({**LENET, **extra})


def _pythonpath() -> str:
    """PYTHONPATH that lets ``python -m repro.cli`` subprocesses import
    the package from a bare checkout (mirrors the conftest src shim)."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    current = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{current}" if current else src


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no fault plan."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


class TestWireBitIdentity:
    """Records over the socket == Session.run(), for every backend."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_round_trip_is_byte_identical(self, backend):
        cfg = serve_config(**{"engine.backend": backend})
        with Session(cfg) as session:
            direct = session.run()
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                result = client.submit("run")
        assert result.report["backend"] == backend
        assert len(result.report["runs"]) == len(direct.report.runs)
        for run in direct.report.runs:
            wire = result.records(run.name)
            assert wire.dtype == run.records.dtype
            assert np.array_equal(wire, run.records), run.name

    def test_digest_mode_proves_identity_without_bytes(self):
        from repro.server import records_digest

        cfg = serve_config(**{"engine.backend": "fused"})
        with Session(cfg) as session:
            direct = session.run()
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                result = client.submit("run", records="digest")
        for run in direct.report.runs:
            wire = next(
                entry for entry in result.report["runs"]
                if entry["name"] == run.name
            )
            assert wire["records"] is None  # nothing shipped
            assert wire["records_wire"]["blake2b"] == records_digest(run.records)

    def test_none_mode_ships_tile_counts_only(self):
        cfg = serve_config(**{"engine.backend": "fused"})
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                result = client.submit("run", records="none")
        for entry in result.report["runs"]:
            assert entry["records"] is None
            assert "data" not in entry["records_wire"]
            assert entry["tiles"] > 0

    def test_non_run_kinds_report_type_and_seconds(self):
        with ReproServer(serve_config()) as server:
            with ServeClient(server.url) as client:
                result = client.submit("tradeoff")
        assert result.result["type"] == "TradeoffRunResult"
        assert result.report is None

    def test_sparse_config_overlay(self):
        # The request overlays only what differs; the server's defaults
        # (workload, sampling) fill the rest and full validation runs.
        with ReproServer(serve_config()) as server:
            with ServeClient(server.url) as client:
                result = client.submit(
                    "run", config={"engine": {"backend": "reference"}}
                )
        assert result.report["backend"] == "reference"
        assert result.report["model"] == "lenet5"


class TestCrossTenantCoalescing:
    def test_mixed_tenants_share_one_planner_batch(self):
        cfg = serve_config(**{
            "engine.backend": "fused",
            "scheduler.coalesce_window_ms": 200.0,
        })
        with ReproServer(cfg) as server:
            results = []
            errors = []

            def submit(tenant: str, priority: str) -> None:
                try:
                    with ServeClient(server.url) as client:
                        results.append(client.submit(
                            "run", tenant=tenant, priority=priority,
                            records="digest",
                        ))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(tenant, priority))
                for tenant, priority in [
                    ("acme", "interactive"), ("globex", "batch"),
                    ("acme", "batch"), ("globex", "interactive"),
                ]
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            with ServeClient(server.url) as client:
                metrics = client.metrics()
        stats = metrics["scheduler"]
        assert stats["jobs_submitted"] == 4
        assert stats["jobs_coalesced"] == 4  # one shared window
        assert stats["batches"] == 1
        assert stats["jobs_by_tenant"] == {"acme": 2, "globex": 2}
        assert stats["jobs_by_priority"] == {"interactive": 2, "batch": 2}
        # /metrics surfaces the cross-tenant dedup of that shared batch:
        # four identical lenet jobs dedup to one job's unique tiles.
        dedup = metrics["server"]["dedup"]
        assert dedup["last_ratio"] > 1.0
        assert dedup["last_planned_tiles"] > dedup["last_unique_tiles"]


class TestStatusMapping:
    def test_validation_errors_are_400(self):
        with ReproServer(serve_config()) as server:
            with ServeClient(server.url) as client:
                with pytest.raises(ServeRequestError, match="unknown experiment"):
                    client.submit("fly")
                with pytest.raises(ServeRequestError, match="records mode"):
                    client.submit("run", records="sometimes")
                with pytest.raises(ServeRequestError, match="unknown key"):
                    client.submit("run", config={"engine": {"warp": 9}})

    def test_unknown_tenant_is_400(self):
        cfg = serve_config(**{
            "server.tenants": ["acme", "anonymous"],
        })
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                with pytest.raises(ServeRequestError, match="unknown tenant"):
                    client.submit("tradeoff", tenant="initech")

    def test_unknown_route_is_404(self):
        with ReproServer(serve_config()) as server:
            with ServeClient(server.url) as client:
                status, body = client._request("GET", "/nope")
                assert status == 404
                assert body["error"]["type"] == "NotFound"

    def test_tenant_quota_exhaustion_is_429(self):
        cfg = serve_config(**{
            "scheduler.coalesce_window_ms": 5000.0,
            "server.tenant_max_inflight": 1,
        })
        with ReproServer(cfg) as server:
            first_queued = threading.Event()
            release: list = []

            def occupant() -> None:
                with ServeClient(server.url) as client:
                    first_queued.set()
                    release.append(client.submit("tradeoff", tenant="acme"))

            thread = threading.Thread(target=occupant)
            thread.start()
            assert first_queued.wait(timeout=10)
            time.sleep(0.2)  # let the first request reach the queue
            with ServeClient(server.url) as client:
                with pytest.raises(SchedulerSaturated, match="tenant 'acme'"):
                    client.submit("tradeoff", tenant="acme", timeout_s=0.05)
                # Another tenant is unaffected at the same instant.
                other = client.submit("tradeoff", tenant="globex",
                                      timeout_s=5.0)
                assert other.tenant == "globex"
            thread.join(timeout=60)
            assert release  # the occupant's job completed fine

    def test_expired_deadline_is_504_job_scoped(self):
        cfg = serve_config(**{"scheduler.coalesce_window_ms": 150.0})
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                with pytest.raises(DeadlineExceeded) as excinfo:
                    client.submit("tradeoff", deadline_ms=1,
                                  label="too-slow")
        assert excinfo.value.job_id is not None
        assert excinfo.value.label == "too-slow"

    def test_poisoned_job_is_500_healthy_peer_unharmed(self):
        # Blast-radius isolation over the wire: two jobs coalesce, the
        # poisoned one fails with a job-scoped BatchExecutionError, the
        # healthy one still gets bit-identical records.
        cfg = serve_config(**{
            "engine.backend": "fused",
            "scheduler.coalesce_window_ms": 200.0,
            "resilience.faults": "poison_job:match=poison-me",
        })
        with Session(serve_config(**{"engine.backend": "fused"})) as session:
            direct = session.run()
        outcomes: dict[str, object] = {}

        def submit(label: str) -> None:
            with ServeClient(server.url) as client:
                try:
                    outcomes[label] = client.submit("run", label=label)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    outcomes[label] = exc

        with ReproServer(cfg) as server:
            threads = [
                threading.Thread(target=submit, args=(label,))
                for label in ("poison-me", "healthy")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        poisoned = outcomes["poison-me"]
        assert isinstance(poisoned, BatchExecutionError)
        assert poisoned.label == "poison-me"
        assert poisoned.batch_size == 2
        healthy = outcomes["healthy"]
        assert not isinstance(healthy, Exception)
        for run in direct.report.runs:
            assert np.array_equal(healthy.records(run.name), run.records)


class TestRequestFaultDrills:
    def test_reject_request_is_clean_503_then_recovers(self):
        cfg = serve_config(**{
            "resilience.faults": "reject_request:times=1:match=jobs",
        })
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                # /healthz is out of scope for match=jobs.
                assert client.health()["status_code"] == 200
                with pytest.raises(ServeUnavailable, match="fault injection"):
                    client.submit("tradeoff")
                # The budget burned out: the retry goes through.
                assert client.submit("tradeoff").kind == "tradeoff"

    def test_slow_request_delays_but_succeeds(self):
        cfg = serve_config(**{
            "resilience.faults": "slow_request:seconds=0.2:times=1",
        })
        with ReproServer(cfg) as server:
            with ServeClient(server.url) as client:
                started = time.perf_counter()
                result = client.submit("tradeoff")
                assert time.perf_counter() - started >= 0.2
                assert result.kind == "tradeoff"

    def test_engine_error_is_clean_job_scoped_error_not_a_hang(self):
        # The chaos drill: the kernel fails mid-request with no retry
        # budget — the HTTP client must see a prompt, typed 500, never
        # a hung or severed connection.
        from repro.api import ServeError

        cfg = serve_config(**{
            "engine.backend": "fused",
            "resilience.faults": "engine_error:times=0",
            "resilience.retries": 0,
        })
        with ReproServer(cfg) as server:
            with ServeClient(server.url, timeout=120.0) as client:
                started = time.perf_counter()
                with pytest.raises(ServeError) as excinfo:
                    client.submit("run")
                elapsed = time.perf_counter() - started
        assert excinfo.value.status == 500
        assert "injected engine error" in str(excinfo.value)
        assert elapsed < 60  # a clean error, not a timeout


class TestGracefulDrain:
    def test_admin_drain_refuses_new_work_finishes_old(self):
        cfg = serve_config(**{"scheduler.coalesce_window_ms": 300.0})
        with ReproServer(cfg) as server:
            accepted: list = []

            def inflight() -> None:
                with ServeClient(server.url) as client:
                    accepted.append(client.submit("tradeoff"))

            thread = threading.Thread(target=inflight)
            thread.start()
            time.sleep(0.1)  # the job is accepted and queued
            with ServeClient(server.url) as client:
                assert client.drain()["status"] == "draining"
                assert client.health()["status_code"] == 503
                # /metrics keeps serving while draining.
                assert client.metrics()["server"]["draining"] is True
                with pytest.raises(ServeUnavailable, match="draining"):
                    client.submit("tradeoff")
            thread.join(timeout=60)
            # The accepted job completed despite the drain.
            assert len(accepted) == 1
            assert server.drain() is True

    def test_drain_is_idempotent(self):
        server = ReproServer(serve_config()).start()
        assert server.drain() is True
        assert server.drain() is True

    def test_unstarted_server_drains_without_hanging(self):
        server = ReproServer(serve_config())
        assert server.drain() is True


class TestServeCLI:
    """Subprocess drills of `repro serve` + `repro submit` + SIGTERM."""

    def _spawn_server(self, *extra: str) -> tuple[subprocess.Popen, str]:
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=_pythonpath())
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--set", "workload.model=lenet5",
             "--set", "workload.dataset=mnist",
             "--set", "engine.backend=fused",
             *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        line = proc.stdout.readline()
        match = re.search(r"http://\S+", line)
        assert match, f"no URL in first serve line: {line!r}"
        return proc, match.group(0)

    def test_sigterm_drain_loses_zero_accepted_jobs(self):
        proc, url = self._spawn_server(
            "--set", "scheduler.coalesce_window_ms=300",
        )
        try:
            outcomes: list[object] = []
            lock = threading.Lock()

            def submit(index: int) -> None:
                try:
                    with ServeClient(url, timeout=120.0) as client:
                        result = client.submit(
                            "run", tenant=f"t{index % 2}", records="digest"
                        )
                    with lock:
                        outcomes.append(result)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    with lock:
                        outcomes.append(exc)

            threads = [
                threading.Thread(target=submit, args=(index,))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)  # inside the coalesce window: jobs queued
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=120)
            output, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "draining" in output and "drained cleanly" in output
        # Zero accepted-job loss: every request either completed (200)
        # or was refused cleanly *before* acceptance (503 draining).
        # Anything else — severed connections, empty replies — fails.
        completed = [o for o in outcomes if not isinstance(o, Exception)]
        refused = [o for o in outcomes if isinstance(o, ServeUnavailable)]
        assert len(completed) + len(refused) == 6, outcomes
        assert completed, "SIGTERM cut off every in-flight job"
        for result in completed:
            assert result.report["runs"]

    def test_submit_cli_mixed_tenants_and_metrics_footer(self):
        proc, url = self._spawn_server()
        try:
            out = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit", "--url", url,
                 "--count", "4", "--tenant", "acme", "--tenant", "globex",
                 "--priority", "interactive", "--priority", "batch"],
                capture_output=True, text=True, timeout=300,
                env=dict(os.environ, PYTHONPATH=_pythonpath()),
            )
            assert out.returncode == 0, out.stdout + out.stderr
            assert "acme" in out.stdout and "globex" in out.stdout
            assert "job(s) submitted" in out.stdout
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def test_submit_cli_unreachable_url_fails_per_job(self):
        # A bad --url (nothing listening, or malformed) must produce
        # per-job FAILED rows and exit 1 — never an unhandled traceback.
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "submit",
             "--url", "http://127.0.0.1:9", "--count", "2"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=_pythonpath()),
        )
        assert out.returncode == 1, out.stdout + out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout.count("FAILED") == 2
        assert "repro: submit job failed: submit-0" in out.stderr


class TestMetricsEndpoint:
    def test_snapshot_shape(self):
        with ReproServer(serve_config()) as server:
            with ServeClient(server.url) as client:
                client.submit("tradeoff", priority="batch")
                metrics = client.metrics()
        server_view = metrics["server"]
        assert server_view["requests_total"] == 1
        assert server_view["requests_by_status"] == {"200": 1}
        latency = server_view["latency_ms"]
        assert latency["all"]["count"] == 1
        assert latency["by_priority"]["batch"]["count"] == 1
        assert latency["by_priority"]["interactive"]["count"] == 0
        assert sum(latency["all"]["buckets"].values()) == 1
        assert metrics["queue"] == {
            "queued": 0, "by_tenant": {}, "by_priority": {},
        }
        stats = metrics["scheduler"]
        assert stats["jobs_submitted"] == 1
        assert "store_hits" in stats

    def test_error_statuses_counted(self):
        with ReproServer(serve_config()) as server:
            with ServeClient(server.url) as client:
                with pytest.raises(ServeRequestError):
                    client.submit("fly")
                metrics = client.metrics()
        assert metrics["server"]["requests_by_status"]["400"] == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
