"""Server-side observability: request counters and latency histograms.

The numbers here describe the *wire* path — HTTP requests in and out of
:class:`~repro.server.app.ReproServer` — and complement the scheduler's
own serving counters (``Scheduler.stats``, ``Scheduler.queue_depths``),
which describe the job queue behind it. ``/metrics`` merges both views
into one JSON document so a scrape shows the whole serving stack:
request traffic and latency up front, coalescing/dedup and per-tenant
queue depths behind.

Everything is plain stdlib: a fixed log-scale bucket ladder (no
configuration knob — cross-run comparability beats tunability here) and
one lock per histogram, cheap enough for the request path.
"""

from __future__ import annotations

import threading

__all__ = ["LatencyHistogram", "ServerMetrics"]

#: Upper bounds (milliseconds) of the latency buckets; the last bucket
#: is open-ended. Log-scale: serving latencies span 1 ms cache hits to
#: multi-second cold batches.
BUCKET_BOUNDS_MS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)


class LatencyHistogram:
    """Thread-safe fixed-bucket latency histogram (milliseconds)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self._sum_ms = 0.0
        self._count = 0

    def observe(self, ms: float) -> None:
        index = len(BUCKET_BOUNDS_MS)
        for position, bound in enumerate(BUCKET_BOUNDS_MS):
            if ms <= bound:
                index = position
                break
        with self._lock:
            self._counts[index] += 1
            self._sum_ms += ms
            self._count += 1

    def snapshot(self) -> dict:
        """Counts per bucket plus total count and mean, one atomic read."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            sum_ms = self._sum_ms
        buckets = {
            f"le_{bound}ms": counts[position]
            for position, bound in enumerate(BUCKET_BOUNDS_MS)
        }
        buckets["inf"] = counts[-1]
        return {
            "count": total,
            "mean_ms": (sum_ms / total) if total else 0.0,
            "buckets": buckets,
        }


class ServerMetrics:
    """All front-end counters the ``/metrics`` endpoint reports.

    ``record(status, priority, ms)`` is the one write path, called once
    per finished HTTP request. Dedup numbers come from job results as
    they pass through the server: each engine report carries its
    coalesced batch's ``planned_tiles``/``unique_tiles``, so the last
    observed ratio is the live cross-request (and cross-tenant, when
    tenants mix) dedup factor.
    """

    def __init__(self, priorities: tuple[str, ...]) -> None:
        self._lock = threading.Lock()
        self.requests_total = 0
        self.requests_by_status: dict[str, int] = {}
        self.inflight = 0
        self.latency_all = LatencyHistogram()
        self.latency_by_priority = {
            priority: LatencyHistogram() for priority in priorities
        }
        # Cross-request dedup as seen by the most recent engine report,
        # plus the best ratio observed since start.
        self.last_planned_tiles = 0
        self.last_unique_tiles = 0
        self.best_dedup_ratio = 0.0
        # Streaming (/v1/streams): streams opened/completed, windows
        # served, per-window execution latency, and the cross-window
        # dedup of the most recently completed stream.
        self.streams_total = 0
        self.streams_completed = 0
        self.streams_failed = 0
        self.stream_windows_total = 0
        self.stream_window_latency = LatencyHistogram()
        self.last_stream_planned_tiles = 0
        self.last_stream_unique_tiles = 0

    # -- request lifecycle ----------------------------------------------
    def begin(self) -> None:
        with self._lock:
            self.inflight += 1

    def record(self, status: int, priority: str, ms: float) -> None:
        key = str(status)
        with self._lock:
            self.inflight -= 1
            self.requests_total += 1
            self.requests_by_status[key] = self.requests_by_status.get(key, 0) + 1
        self.latency_all.observe(ms)
        histogram = self.latency_by_priority.get(priority)
        if histogram is not None:
            histogram.observe(ms)

    # -- streaming lifecycle --------------------------------------------
    def begin_stream(self) -> None:
        with self._lock:
            self.streams_total += 1

    def observe_stream_window(self, seconds: float) -> None:
        """Book one served window: count plus execution-latency bucket."""
        with self._lock:
            self.stream_windows_total += 1
        self.stream_window_latency.observe(seconds * 1000.0)

    def end_stream(
        self, *, failed: bool, planned_tiles: int = 0, unique_tiles: int = 0
    ) -> None:
        """Close out one stream; a completed stream reports its dedup."""
        with self._lock:
            if failed:
                self.streams_failed += 1
                return
            self.streams_completed += 1
            if planned_tiles > 0 and unique_tiles > 0:
                self.last_stream_planned_tiles = planned_tiles
                self.last_stream_unique_tiles = unique_tiles

    def observe_dedup(self, planned_tiles: int, unique_tiles: int) -> None:
        if planned_tiles <= 0 or unique_tiles <= 0:
            return
        ratio = planned_tiles / unique_tiles
        with self._lock:
            self.last_planned_tiles = planned_tiles
            self.last_unique_tiles = unique_tiles
            self.best_dedup_ratio = max(self.best_dedup_ratio, ratio)

    def snapshot(self, draining: bool) -> dict:
        with self._lock:
            by_status = dict(self.requests_by_status)
            total = self.requests_total
            inflight = self.inflight
            planned = self.last_planned_tiles
            unique = self.last_unique_tiles
            best = self.best_dedup_ratio
            streams_total = self.streams_total
            streams_completed = self.streams_completed
            streams_failed = self.streams_failed
            windows_total = self.stream_windows_total
            stream_planned = self.last_stream_planned_tiles
            stream_unique = self.last_stream_unique_tiles
        return {
            "draining": draining,
            "requests_total": total,
            "requests_by_status": by_status,
            "inflight_requests": inflight,
            "dedup": {
                "last_planned_tiles": planned,
                "last_unique_tiles": unique,
                "last_ratio": (planned / unique) if unique else 0.0,
                "best_ratio": best,
            },
            "latency_ms": {
                "all": self.latency_all.snapshot(),
                "by_priority": {
                    priority: histogram.snapshot()
                    for priority, histogram in self.latency_by_priority.items()
                },
            },
            "streams": {
                "total": streams_total,
                "completed": streams_completed,
                "failed": streams_failed,
                "windows_total": windows_total,
                "window_latency_ms": self.stream_window_latency.snapshot(),
                "last_dedup_ratio": (
                    (stream_planned / stream_unique) if stream_unique else 0.0
                ),
            },
        }
