"""Network serving: tenants, priorities, and live metrics over HTTP.

The :mod:`repro.server` front end turns the in-process serving
scheduler into a network service: HTTP clients POST jobs, handler
threads queue them on one shared :class:`~repro.api.Scheduler`, and the
coalesce window merges concurrent requests — across tenants — into one
planner batch, so Prosperity's product-sparsity dedup keeps working
over the wire. This example runs the whole loop in one process:

1. start a :class:`~repro.server.ReproServer` on a loopback port (the
   CLI equivalent is ``repro serve --set workload.model=lenet5 ...``);
2. fire mixed-tenant, mixed-priority requests from concurrent
   :class:`~repro.api.ServeClient` threads and verify the records are
   byte-identical to a local ``Session.run()``;
3. scrape ``/metrics`` for the cross-tenant dedup ratio, per-tenant job
   counts, and request latency histogram;
4. drain gracefully — in production that is SIGTERM on ``repro serve``
   (or ``POST /admin/drain``): new jobs get 503, accepted jobs finish.

Run:  python examples/network_serving.py
"""

import threading

import numpy as np

from repro.api import RunConfig, ServeClient, Session
from repro.server import ReproServer

TENANTS = ("acme", "globex")
PRIORITIES = ("interactive", "batch")
N_CLIENTS = 6


def make_config() -> RunConfig:
    return RunConfig().with_overrides({
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "engine.backend": "fused",
        # One coalesce window catches all concurrent clients below.
        "scheduler.coalesce_window_ms": 200.0,
    })


def main() -> None:
    config = make_config()
    with Session(config) as session:
        baseline = session.run()

    with ReproServer(config) as server:
        print(f"serving on {server.url}")

        results = [None] * N_CLIENTS

        def client(slot: int) -> None:
            # One client per thread: each holds its own connection.
            with ServeClient(server.url) as conn:
                results[slot] = conn.submit(
                    "run",
                    tenant=TENANTS[slot % len(TENANTS)],
                    priority=PRIORITIES[slot % len(PRIORITIES)],
                    label=f"client-{slot}",
                )

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Bit-identity over the wire: every client's records match the
        # local Session run byte for byte.
        for result in results:
            for run in baseline.report.runs:
                assert np.array_equal(result.records(run.name), run.records)
        print(f"{N_CLIENTS} clients served; records byte-identical "
              "to Session.run()")

        with ServeClient(server.url) as conn:
            metrics = conn.metrics()
        stats = metrics["scheduler"]
        dedup = metrics["server"]["dedup"]
        print(f"planner batches : {stats['batches']} "
              f"(for {stats['jobs_submitted']} jobs)")
        print(f"jobs by tenant  : {stats['jobs_by_tenant']}")
        print(f"jobs by priority: {stats['jobs_by_priority']}")
        print(f"cross-tenant dedup: {dedup['last_planned_tiles']} planned "
              f"-> {dedup['last_unique_tiles']} unique tiles "
              f"({dedup['last_ratio']:.2f}x)")
        latency = metrics["server"]["latency_ms"]["all"]
        print(f"request latency : {latency['count']} requests, "
              f"mean {latency['mean_ms']:.1f} ms")

        clean = server.drain()
        print(f"drained {'cleanly' if clean else 'with timeout'}; "
              "new jobs would now get 503")


if __name__ == "__main__":
    main()
