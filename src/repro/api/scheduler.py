"""Concurrent serving scheduler: cross-request micro-batching.

PR 4 left :meth:`Session.submit` as a one-worker queue seam; this module
widens it into a serving API. A :class:`Scheduler` accepts many
concurrent typed job submissions (:class:`Job` in, :class:`JobHandle`
out), groups compatible engine jobs by their engine signature —
``(backend, tile shape, cache size, [cache] section)`` — and coalesces
each group into **one** :class:`~repro.engine.planner.TracePlanner`
bucket batch: every client's tiles land in the same shape buckets, one
global content dedup runs per bucket across *all* requests, and one
fused kernel launch per bucket serves the whole group. This is the
paper-faithful way to scale throughput: Prosperity's product-sparsity
reuse gets strictly stronger as more concurrent work shares a dedup
scope, so serving N clients together costs far less than N serial runs.

Mechanics:

* **Coalescing window + fairness.** Jobs queue under a condition
  variable; the dispatcher waits ``coalesce_window_ms`` after the first
  arrival for more work to pile in, then drains *every* queued job —
  so no job ever waits more than one window before dispatch, no matter
  how busy the queue is.
* **Bounded queue depth.** At most ``max_inflight`` jobs may be queued;
  further ``submit()`` calls block until space frees (the serving
  backpressure seam).
* **Per-job scatter-back.** The planner already scatters records per
  workload; the scheduler slices those per job and builds each job its
  own :class:`~repro.engine.EngineReport` — records are bit-identical
  to running that job alone, for every backend, because bucket
  composition cannot change per-tile records (pinned by
  the planner's equivalence tests). Batch-scoped numbers (profile,
  cache traffic, ``planned_tiles``/``unique_tiles``) are attached to
  every report of the batch.
* **Shared resources.** One engine (forest cache, arena, persistent
  store) per engine signature, reused across every coalesced batch and
  every :class:`~repro.api.Session` the scheduler spawns for non-engine
  jobs.
* **Cancellation + streaming.** Queued jobs can be cancelled until the
  dispatcher claims them; streaming jobs receive
  :class:`~repro.api.session.RunChunk` objects as the planner completes
  each workload (the ``on_workload`` seam), instead of one blocking
  final result.

:class:`~repro.api.aio.AsyncSession` wraps this scheduler for
``asyncio`` callers; ``repro batch`` drives it from the CLI.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass

from repro.api.config import RunConfig
from repro.api.session import (
    EngineRunResult,
    RunChunk,
    RunResult,
    Session,
    StreamRunResult,
)
from repro.engine import EngineReport, ProsperityEngine, WorkloadRun
from repro.engine import faults
from repro.engine.pipeline import fold_kernel_profile, stats_from_records
from repro.engine.planner import PROFILE_STAGES
from repro.engine.store import open_store
from repro.workloads import get_trace

__all__ = [
    "JOB_KINDS",
    "BatchExecutionError",
    "DeadlineExceeded",
    "Job",
    "JobHandle",
    "Scheduler",
    "SchedulerSaturated",
    "StreamTimeoutError",
]


class SchedulerSaturated(RuntimeError):
    """``submit()`` timed out waiting for queue space (admission control).

    Raised when the queue stays full past the caller's ``timeout=`` or,
    under ``overload_policy="shed"``, past the configured
    ``shed_timeout_ms`` — the job was never queued and holds no
    resources. Shed jobs count in ``Scheduler.jobs_shed``.
    """


class DeadlineExceeded(TimeoutError):
    """A job's ``deadline_ms`` expired before the dispatcher claimed it.

    Deadlines bound *queue* latency: once a job starts executing it runs
    to completion (kernels are not interruptible), so the
    check happens at claim time and an expired job never runs at all.
    """

    def __init__(self, message: str, *, job_id: int | None = None, label: str = ""):
        super().__init__(message)
        self.job_id = job_id
        self.label = label


class BatchExecutionError(RuntimeError):
    """One job of a coalesced batch failed; names the culprit job.

    Each failed handle gets its *own* instance (never a shared object),
    with the triggering exception as ``__cause__``. Healthy jobs of the
    same batch are re-dispatched individually and still return
    bit-identical results.
    """

    def __init__(
        self,
        message: str,
        *,
        job_id: int | None = None,
        label: str = "",
        batch_size: int = 1,
    ):
        super().__init__(message)
        self.job_id = job_id
        self.label = label
        self.batch_size = batch_size


class StreamTimeoutError(TimeoutError):
    """``JobHandle.next_chunk`` timed out waiting for the next chunk.

    Subclasses :class:`TimeoutError` — the contract shared with
    ``result(timeout=)``. (The pre-1.4 ``queue.Empty`` compatibility
    base was bridged for one release and removed in 1.5.)
    """

#: Experiment kinds a scheduler accepts — the Session methods by name.
JOB_KINDS = Session._QUEUEABLE

#: Stream sentinel: pushed after a job's last chunk (or on cancellation).
_DONE = object()


def _engine_key(config: RunConfig) -> tuple:
    """Engine-compatibility signature: jobs sharing it share one engine
    (cache, arena, persistent store) and may coalesce
    into one batch.  The ``[cache]`` section is part of the signature:
    jobs with different store configurations must not silently share a
    store-backed engine."""
    engine = config.engine
    cache = config.cache
    return (
        engine.backend,
        engine.tile_m,
        engine.tile_k,
        engine.cache_size,
        cache.enabled,
        cache.path,
        cache.max_bytes,
        cache.verify,
    )


@dataclass(frozen=True)
class Job:
    """One typed job submission: an experiment kind plus its config.

    ``config=None`` runs under the scheduler's default config; a per-job
    :class:`RunConfig` overrides everything (workload, engine, sampling)
    for that job alone. ``label`` is free-form client metadata echoed on
    the handle (the CLI uses it for config file names).
    ``deadline_ms`` bounds the job's queue wait (``None`` defers to the
    effective config's ``resilience.deadline_ms``; ``0`` there means no
    deadline): a job still undispatched when it expires fails with
    :class:`DeadlineExceeded` instead of running late.

    ``tenant`` and ``priority`` are the multi-user serving dimensions
    from the scheduler config's ``[server]`` section: empty strings
    (the defaults) resolve to ``server.default_tenant`` and the first
    configured priority class at submission. A tenant at its queue
    quota is refused with :class:`SchedulerSaturated`; priority decides
    the job's weighted drain order within each coalesce window.
    """

    kind: str = "run"
    config: RunConfig | None = None
    label: str = ""
    deadline_ms: float | None = None
    tenant: str = ""
    priority: str = ""

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown experiment {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"deadline_ms must be > 0 (or None), got {self.deadline_ms}"
            )

    @classmethod
    def of(cls, value: "Job | RunConfig | str") -> "Job":
        """Coerce a kind name, a config (run job), or a Job to a Job."""
        if isinstance(value, Job):
            return value
        if isinstance(value, RunConfig):
            return cls(config=value)
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"expected Job, RunConfig, or experiment name, got {type(value).__name__}"
        )


class JobHandle:
    """Ticket for one scheduled job: a Future plus an optional stream.

    ``future`` resolves to the same :class:`~repro.api.session.RunResult`
    subclass the direct ``Session`` call returns. While the job is still
    queued, :meth:`cancel` withdraws it; once the dispatcher claims it,
    cancellation fails (kernels are not interruptible).
    Streaming run jobs additionally deliver
    :class:`~repro.api.session.RunChunk` objects through
    :meth:`chunks` / :meth:`next_chunk` as workloads complete.
    """

    def __init__(self, job: Job, job_id: int, config: RunConfig,
                 stream_chunk: int | None = None):
        self.job = job
        self.id = job_id
        self.config = config  # effective config (job override or default)
        self.future: Future = Future()
        self.stream_chunk = stream_chunk
        # Effective serving dimensions, resolved against the scheduler's
        # [server] section at submission (defaults applied, names checked).
        self.tenant = job.tenant
        self.priority = job.priority
        # Absolute queue deadline (time.monotonic()), or None. Set by
        # the scheduler at submission; checked at dispatcher claim time.
        self.deadline_at: float | None = None
        self._chunks: queue.SimpleQueue | None = (
            queue.SimpleQueue() if stream_chunk is not None else None
        )
        self._stream_closed = False
        self._stream_lock = threading.Lock()
        self._exhausted = False

    # -- future facade --------------------------------------------------
    @property
    def streaming(self) -> bool:
        return self._chunks is not None

    def result(self, timeout: float | None = None) -> RunResult:
        return self.future.result(timeout)

    def exception(self, timeout: float | None = None):
        return self.future.exception(timeout)

    def done(self) -> bool:
        return self.future.done()

    def cancelled(self) -> bool:
        return self.future.cancelled()

    def cancel(self) -> bool:
        """Withdraw the job if it has not started; True on success."""
        ok = self.future.cancel()
        if ok:
            self._finish_stream()
        return ok

    # -- streaming ------------------------------------------------------
    def _push_chunk(self, chunk: RunChunk) -> None:
        if self._chunks is not None:
            self._chunks.put(chunk)

    def _finish_stream(self) -> None:
        """Terminate the chunk stream exactly once (idempotent)."""
        if self._chunks is None:
            return
        with self._stream_lock:
            if self._stream_closed:
                return
            self._stream_closed = True
        self._chunks.put(_DONE)

    def next_chunk(self, timeout: float | None = None) -> RunChunk | None:
        """Block for the next chunk; ``None`` once the stream is done.

        Raises the job's exception (or ``CancelledError``) after the
        stream terminates abnormally, and :class:`StreamTimeoutError` —
        a :class:`TimeoutError`, matching ``result(timeout=)`` — when no
        chunk arrives within ``timeout`` seconds.
        """
        if self._chunks is None:
            raise RuntimeError("job was not submitted with stream=True")
        if self._exhausted:
            return None
        try:
            item = self._chunks.get(timeout=timeout)
        except queue.Empty:
            raise StreamTimeoutError(
                f"no chunk within {timeout} s for job #{self.id}"
            ) from None
        if item is _DONE:
            self._exhausted = True
            if self.future.done():
                self.future.result()  # propagate error / cancellation
            return None
        return item

    def chunks(self):
        """Iterate the job's stream until the final chunk."""
        while (chunk := self.next_chunk()) is not None:
            yield chunk


class _ChunkAssembler:
    """Groups completed workloads into RunChunk objects for one stream."""

    def __init__(self, handle: JobHandle, started: float):
        self.handle = handle
        self.size = max(1, handle.stream_chunk or 1)
        self.started = started
        self.buffer: list[WorkloadRun] = []
        self.index = 0

    def add(self, run: WorkloadRun) -> None:
        self.buffer.append(run)
        if len(self.buffer) >= self.size:
            self.flush()

    def flush(self) -> None:
        if not self.buffer:
            return
        chunk = RunChunk(
            config=self.handle.config,
            seconds=time.perf_counter() - self.started,
            index=self.index,
            runs=self.buffer,
        )
        self.buffer = []
        self.index += 1
        self.handle._push_chunk(chunk)


class Scheduler:
    """Cross-request micro-batching scheduler over shared engines.

    Parameters
    ----------
    config:
        Default :class:`RunConfig` for jobs submitted without one; its
        ``[scheduler]`` section supplies ``max_inflight`` /
        ``coalesce_window_ms`` / ``stream_chunk`` unless overridden by
        the keyword arguments.
    max_inflight:
        Queue-depth bound; ``submit()`` blocks while the queue is full.
    coalesce_window_ms:
        How long the dispatcher lets compatible jobs pile up after the
        first arrival before dispatching everything queued. ``0``
        dispatches immediately (no cross-request batching unless jobs
        were enqueued together via :meth:`submit_many`).

    One dispatcher thread executes all work, so every engine is driven
    from a single thread. Execution resources live as long
    as the scheduler: one engine per distinct engine signature, one
    :class:`~repro.api.Session` per distinct job config (sharing that
    engine), all released by :meth:`close`.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        max_inflight: int | None = None,
        coalesce_window_ms: float | None = None,
    ):
        self.config = config if config is not None else RunConfig()
        sched_cfg = self.config.scheduler
        self.max_inflight = (
            sched_cfg.max_inflight if max_inflight is None else int(max_inflight)
        )
        window = (
            sched_cfg.coalesce_window_ms
            if coalesce_window_ms is None
            else coalesce_window_ms
        )
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if window < 0:
            raise ValueError(f"coalesce_window_ms must be >= 0, got {window}")
        self._window_seconds = window / 1000.0
        self._cv = threading.Condition()
        self._pending: deque[JobHandle] = deque()
        self._thread: threading.Thread | None = None
        self._closing = False
        self._closed = False
        self._ids = itertools.count(1)
        self._engines: dict[tuple, ProsperityEngine] = {}
        self._adopted: set[tuple] = set()  # engine keys the scheduler must not close
        self._stores: dict[tuple, object] = {}  # scheduler-owned persistent stores
        self._sessions: dict[RunConfig, Session] = {}
        self.resilience = self.config.resilience
        # Tenancy + priority classes come from the [server] section (the
        # network front end shares these semantics with in-process users).
        server_cfg = self.config.server
        self.server_cfg = server_cfg
        self._priorities: tuple[str, ...] = server_cfg.priorities
        self._priority_weights = dict(
            zip(server_cfg.priorities, server_cfg.priority_weights)
        )
        # Effective per-tenant queue quota: the tighter of the absolute
        # cap and the fractional share of max_inflight; None = unlimited.
        quotas = []
        if server_cfg.tenant_max_inflight > 0:
            quotas.append(server_cfg.tenant_max_inflight)
        if server_cfg.tenant_queue_share < 1.0:
            quotas.append(
                max(1, int(self.max_inflight * server_cfg.tenant_queue_share))
            )
        self.tenant_quota: int | None = min(quotas) if quotas else None
        # A configured fault plan activates the deterministic injection
        # harness for this process (off when the spec is empty).
        if self.resilience.faults:
            faults.install(self.resilience.faults)
        #: Serving statistics (informational; updated by the dispatcher).
        self.jobs_submitted = 0
        self.jobs_coalesced = 0  # jobs that ran inside a >1-job batch
        self.batches = 0  # coalesced planner batches executed
        #: Per-tenant / per-priority submission totals (observability).
        self.jobs_by_tenant: dict[str, int] = {}
        self.jobs_by_priority: dict[str, int] = {}
        #: Resilience counters.
        self.jobs_shed = 0  # submits rejected by admission control
        self.jobs_retried = 0  # job dispatches retried on transient failure
        self.jobs_expired = 0  # jobs failed by queue-deadline expiry
        self.isolation_reruns = 0  # solo re-dispatches after a batch failure

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs, then release engines and sessions.

        ``wait=True`` (the default) drains the queue first — every
        already-submitted job completes against live resources.
        ``wait=False`` cancels whatever is still queued. Idempotent.
        """
        with self._cv:
            if self._closed:
                return
            self._closing = True
            if not wait:
                while self._pending:
                    self._pending.popleft().cancel()
            self._cv.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()
        with self._cv:
            if self._closed:
                return
            self._closed = True
        # Sessions first (they never close the shared engines), then the
        # engines the scheduler constructed; adopted engines stay open
        # for their owners.
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
        for key, engine in self._engines.items():
            if key not in self._adopted:
                engine.close()
        self._engines.clear()
        # Stores last: the engines above may still flush async writes.
        for store in self._stores.values():
            store.close()
        self._stores.clear()

    @property
    def stats(self) -> dict:
        """Serving + resilience counters as one snapshot dict.

        Persistent-store traffic aggregates over the scheduler's live
        engines, so read it before :meth:`close` releases the engines.
        """
        with self._cv:
            engines = list(self._engines.values())
        # Persistent-store traffic aggregates over distinct stores (two
        # engines never share one today, but dedupe by identity anyway).
        store_totals = {
            "store_hits": 0,
            "store_misses": 0,
            "store_corrupt": 0,
            "store_evictions": 0,
        }
        seen_stores: set[int] = set()
        for engine in engines:
            store = getattr(engine, "store", None)
            if store is None or id(store) in seen_stores:
                continue
            seen_stores.add(id(store))
            counters = store.counters()
            for name in store_totals:
                store_totals[name] += counters.get(name, 0)
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_coalesced": self.jobs_coalesced,
            "jobs_by_tenant": dict(self.jobs_by_tenant),
            "jobs_by_priority": dict(self.jobs_by_priority),
            "batches": self.batches,
            "jobs_shed": self.jobs_shed,
            "jobs_retried": self.jobs_retried,
            "jobs_expired": self.jobs_expired,
            "isolation_reruns": self.isolation_reruns,
            **store_totals,
        }

    def adopt_engine(self, config: RunConfig, engine: ProsperityEngine) -> None:
        """Share an externally-owned engine for ``config``'s signature.

        Jobs whose engine signature matches then run through ``engine``
        (its cache and arena) instead of a scheduler-constructed
        one; :meth:`close` leaves it open for its owner. ``Session``
        uses this so ``session.submit()`` reuses the session's engine.
        """
        key = _engine_key(config)
        with self._cv:
            existing = self._engines.get(key)
            if existing is not None and existing is not engine:
                raise RuntimeError(
                    "an engine is already registered for this signature"
                )
            self._engines[key] = engine
            self._adopted.add(key)

    # -- submission -----------------------------------------------------
    def submit(
        self,
        job: Job | RunConfig | str = "run",
        config: RunConfig | None = None,
        *,
        stream: bool = False,
        chunk: int | None = None,
        timeout: float | None = None,
    ) -> JobHandle:
        """Queue one job; blocks while ``max_inflight`` jobs are queued.

        ``job`` is a :class:`Job`, a kind name (``config`` then supplies
        the per-job override), or a bare :class:`RunConfig` (a run job).
        ``stream=True`` (run jobs only) makes the handle yield
        :class:`~repro.api.session.RunChunk` objects as workloads
        complete; ``chunk`` overrides the config's
        ``scheduler.stream_chunk`` grouping.

        ``timeout`` bounds the wait for queue space in seconds, raising
        :class:`SchedulerSaturated` when it elapses. ``None`` defers to
        the configured overload policy: ``"block"`` waits indefinitely
        (the pre-resilience behavior, unchanged), ``"shed"`` waits at
        most ``resilience.shed_timeout_ms``.
        """
        if isinstance(job, str):
            job = Job(kind=job, config=config)
        else:
            job = Job.of(job)
            if config is not None:
                raise ValueError(
                    "pass the config inside the Job (or use submit(kind, config))"
                )
        if job.kind == "stream":
            # Stream jobs always deliver per-window chunks — the whole
            # point of the kind — so the handle is streaming regardless.
            stream = True
        if stream and job.kind not in ("run", "stream"):
            raise ValueError(
                f"streaming is only supported for 'run' and 'stream' jobs, "
                f"got {job.kind!r}"
            )
        return self._enqueue([self._handle_for(job, stream, chunk)], timeout)[0]

    def submit_many(self, jobs, timeout: float | None = None) -> list[JobHandle]:
        """Atomically queue several jobs — they dispatch as one batch.

        All handles enter the queue under one lock acquisition, so the
        dispatcher's next drain sees them together even with a zero
        coalescing window (the CLI ``repro batch`` path). ``timeout``
        follows the same admission-control contract as :meth:`submit`;
        a shed batch is rejected whole (no handle is queued).
        """
        handles = [self._handle_for(Job.of(job), False, None) for job in jobs]
        return self._enqueue(handles, timeout)

    def gather(self, jobs) -> list[RunResult]:
        """Submit many jobs together and wait for every result in order."""
        return [handle.result() for handle in self.submit_many(jobs)]

    def _handle_for(self, job: Job, stream: bool, chunk: int | None) -> JobHandle:
        effective = job.config if job.config is not None else self.config
        stream_chunk = None
        if stream:
            stream_chunk = chunk if chunk is not None else (
                effective.scheduler.stream_chunk
            )
            if stream_chunk < 1:
                raise ValueError(f"stream chunk must be >= 1, got {stream_chunk}")
        handle = JobHandle(job, next(self._ids), effective, stream_chunk)
        server_cfg = self.server_cfg
        handle.tenant = job.tenant or server_cfg.default_tenant
        if server_cfg.tenants and handle.tenant not in server_cfg.tenants:
            raise ValueError(
                f"unknown tenant {handle.tenant!r}; configured tenants: "
                f"{sorted(server_cfg.tenants)}"
            )
        handle.priority = job.priority or self._priorities[0]
        if handle.priority not in self._priorities:
            raise ValueError(
                f"unknown priority {handle.priority!r}; configured "
                f"priorities: {list(self._priorities)}"
            )
        deadline_ms = job.deadline_ms
        if deadline_ms is None:
            deadline_ms = effective.resilience.deadline_ms or None
        if deadline_ms:
            handle.deadline_at = time.monotonic() + deadline_ms / 1000.0
        return handle

    def _enqueue(
        self, handles: list[JobHandle], timeout: float | None = None
    ) -> list[JobHandle]:
        # Admission control: an explicit timeout always wins; otherwise
        # the "shed" policy bounds the wait and "block" (the default)
        # keeps the original unbounded backpressure exactly.
        if timeout is None and self.resilience.overload_policy == "shed":
            timeout = self.resilience.shed_timeout_ms / 1000.0
        admission_deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            # Block for queue space: enough room for the whole batch, or
            # an empty queue (so one oversized submit_many still fits) —
            # and, per tenant, room under the tenant's queue quota.
            while True:
                if self._closing or self._closed:
                    raise RuntimeError("scheduler is closed; no new submissions")
                blocked_tenant = self._tenant_over_quota(handles)
                if blocked_tenant is None and (
                    len(self._pending) + len(handles) <= self.max_inflight
                    or not self._pending
                ):
                    break
                if admission_deadline is None:
                    self._cv.wait()
                    continue
                remaining = admission_deadline - time.monotonic()
                if remaining <= 0:
                    self.jobs_shed += len(handles)
                    if blocked_tenant is not None:
                        raise SchedulerSaturated(
                            f"tenant {blocked_tenant!r} stayed at its queue "
                            f"quota ({self.tenant_quota} job(s)) for "
                            f"{timeout * 1000:.0f} ms; {len(handles)} job(s) "
                            "shed — other tenants are unaffected"
                        )
                    raise SchedulerSaturated(
                        f"scheduler queue stayed full ({self.max_inflight} "
                        f"inflight) for {timeout * 1000:.0f} ms; "
                        f"{len(handles)} job(s) shed"
                    )
                self._cv.wait(timeout=remaining)
            self._pending.extend(handles)
            self.jobs_submitted += len(handles)
            for handle in handles:
                self.jobs_by_tenant[handle.tenant] = (
                    self.jobs_by_tenant.get(handle.tenant, 0) + 1
                )
                self.jobs_by_priority[handle.priority] = (
                    self.jobs_by_priority.get(handle.priority, 0) + 1
                )
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-scheduler", daemon=True
                )
                self._thread.start()
            self._cv.notify_all()
        return handles

    def _tenant_over_quota(self, handles: list[JobHandle]) -> str | None:
        """First tenant among ``handles`` whose quota would be exceeded.

        Called under ``_cv``. A tenant with nothing queued always fits
        (mirroring the oversized-``submit_many`` escape hatch for the
        global bound), so one batch larger than the quota can still run.
        """
        if self.tenant_quota is None:
            return None
        queued: dict[str, int] = {}
        for pending in self._pending:
            queued[pending.tenant] = queued.get(pending.tenant, 0) + 1
        adding: dict[str, int] = {}
        for handle in handles:
            adding[handle.tenant] = adding.get(handle.tenant, 0) + 1
        for tenant, count in adding.items():
            already = queued.get(tenant, 0)
            if already and already + count > self.tenant_quota:
                return tenant
        return None

    def queue_depths(self) -> dict:
        """Live queue-depth snapshot by tenant and by priority class.

        The network front end surfaces this under ``/metrics``; depths
        count jobs queued but not yet claimed by the dispatcher.
        """
        with self._cv:
            pending = list(self._pending)
        by_tenant: dict[str, int] = {}
        by_priority: dict[str, int] = {}
        for handle in pending:
            by_tenant[handle.tenant] = by_tenant.get(handle.tenant, 0) + 1
            by_priority[handle.priority] = by_priority.get(handle.priority, 0) + 1
        return {
            "queued": len(pending),
            "by_tenant": by_tenant,
            "by_priority": by_priority,
        }

    # -- dispatcher -----------------------------------------------------
    def _weighted_order(self, handles: list[JobHandle]) -> list[JobHandle]:
        """Order one drained window by priority-weighted interleave.

        Jobs are grouped by priority class (FIFO within a class) and
        interleaved in rank order by the configured weights — with
        weights ``(4, 1)``, each round dispatches up to 4 jobs of the
        first class, then 1 of the second, until every class drains.
        Everything queued still dispatches within the window (the PR 5
        no-starvation guarantee); weights decide *order*, which is what
        bounds a lower class's wait when higher-priority work floods in.
        """
        if len(handles) < 2 or len(self._priorities) < 2:
            return handles
        classes: dict[str, deque[JobHandle]] = {
            priority: deque() for priority in self._priorities
        }
        for handle in handles:
            classes[handle.priority].append(handle)
        ordered: list[JobHandle] = []
        while len(ordered) < len(handles):
            for priority in self._priorities:
                queued = classes[priority]
                for _ in range(self._priority_weights[priority]):
                    if not queued:
                        break
                    ordered.append(queued.popleft())
        return ordered

    def _loop(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._closing:
                    self._cv.wait()
                if not self._pending:
                    return  # closing, queue drained
                if self._window_seconds and not self._closing:
                    # Coalescing window: let concurrent clients pile in.
                    # Everything queued is drained at the end, so no job
                    # waits more than one window.
                    deadline = time.monotonic() + self._window_seconds
                    while not self._closing:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._cv.wait(timeout=remaining)
                batch = self._weighted_order(list(self._pending))
                self._pending.clear()
                self._cv.notify_all()  # wake submitters blocked on depth
            self._dispatch(batch)

    def _dispatch(self, batch: list[JobHandle]) -> None:
        claimed: list[JobHandle] = []
        for handle in batch:
            if not handle.future.set_running_or_notify_cancel():
                handle._finish_stream()  # cancelled while queued
            elif self._expired(handle):
                # Deadline check at claim time: the job waited out its
                # queue budget and must fail instead of running late.
                self.jobs_expired += 1
                handle.future.set_exception(
                    DeadlineExceeded(
                        f"job #{handle.id} missed its "
                        f"{self._deadline_ms(handle):.0f} ms queue deadline",
                        job_id=handle.id,
                        label=handle.job.label,
                    )
                )
                handle._finish_stream()
            else:
                claimed.append(handle)
        # Group compatible engine jobs (first-appearance order); every
        # other kind executes alone through its config's session.
        units: list[tuple[str, object]] = []
        groups: dict[tuple, list[JobHandle]] = {}
        for handle in claimed:
            if handle.job.kind == "run":
                key = _engine_key(handle.config)
                group = groups.get(key)
                if group is None:
                    groups[key] = group = []
                    units.append(("group", group))
                group.append(handle)
            else:
                units.append(("single", handle))
        for kind, unit in units:
            if kind == "single":
                self._run_single(unit)
            elif len(unit) == 1 and not unit[0].streaming:
                self._run_single(unit[0])
            else:
                self._run_coalesced(unit)

    # -- execution ------------------------------------------------------
    @staticmethod
    def _expired(handle: JobHandle) -> bool:
        return handle.deadline_at is not None and time.monotonic() > handle.deadline_at

    @staticmethod
    def _deadline_ms(handle: JobHandle) -> float:
        if handle.job.deadline_ms is not None:
            return handle.job.deadline_ms
        return handle.config.resilience.deadline_ms

    @staticmethod
    def _transient(exc: BaseException) -> bool:
        """Failures worth re-dispatching: the retry may see a burned-out
        injected fault. Poisoned jobs are persistent — retrying cannot
        help."""
        return bool(getattr(exc, "transient", False))

    def _engine_for(self, config: RunConfig) -> ProsperityEngine:
        key = _engine_key(config)
        with self._cv:
            engine = self._engines.get(key)
            if engine is None:
                engine_cfg = config.engine
                store = open_store(config.cache)
                engine = ProsperityEngine(
                    backend=engine_cfg.backend,
                    tile_m=engine_cfg.tile_m,
                    tile_k=engine_cfg.tile_k,
                    cache_size=engine_cfg.cache_size,
                    store=store,
                )
                self._engines[key] = engine
                if store is not None:
                    # The scheduler, not the engine, owns the store it
                    # constructed — mirror the Session ownership seam.
                    self._stores[key] = store
            return engine

    def _session_for(self, config: RunConfig) -> Session:
        session = self._sessions.get(config)
        if session is None:
            session = Session(config, engine=self._engine_for(config))
            self._sessions[config] = session
        return session

    def _run_single(self, handle: JobHandle) -> None:
        """Execute one job exactly as its own Session call would, with
        bounded retry for transient failures (injected ``engine_error``
        faults)."""
        retries = handle.config.resilience.retries
        backoff = handle.config.resilience.retry_backoff_ms / 1000.0
        for attempt in range(retries + 1):
            try:
                faults.poison_fault([handle.job.label], site="scheduler.single")
                session = self._session_for(handle.config)
                if handle.job.kind == "stream":
                    # Session.stream() (the per-workload batch-run
                    # stream) is a different method; the "stream" job
                    # kind drives stream_source() window by window,
                    # relaying chunks through the handle as they finish.
                    result = self._drive_stream(handle, session)
                else:
                    result = getattr(session, handle.job.kind)()
            except BaseException as exc:  # noqa: BLE001 - delivered via the future
                if attempt < retries and self._transient(exc):
                    self.jobs_retried += 1
                    if backoff:
                        time.sleep(backoff * (attempt + 1))
                    continue
                handle.future.set_exception(exc)
            else:
                handle.future.set_result(result)
            break
        handle._finish_stream()

    @staticmethod
    def _drive_stream(handle: JobHandle, session: Session) -> "StreamRunResult":
        """Pump one sliding-window stream job on the dispatcher thread.

        Chunks flow through the handle as windows complete; the future
        resolves to a :class:`~repro.api.session.StreamRunResult`
        wrapping the stream's final result. Runs on the dispatcher like
        every other single job, so window execution is serialized
        against coalesced batches on the shared engine.
        """
        started = time.perf_counter()
        generator = session.stream_source()
        try:
            while True:
                handle._push_chunk(next(generator))
        except StopIteration as stop:
            return StreamRunResult(
                config=handle.config,
                seconds=time.perf_counter() - started,
                result=stop.value,
            )

    def _run_coalesced(self, handles: list[JobHandle]) -> None:
        """One planner batch for a whole group of compatible run jobs.

        Every job's workloads enter one trace plan: shared shape
        buckets, one global content dedup, one kernel launch per bucket
        through the backend, then per-job
        scatter-back into individual :class:`EngineReport` objects.
        Batch-scoped numbers (profile, cache traffic, planned/unique
        tile counts) are attached to every job's report.

        Failure semantics: a failed batch is retried while the failure
        is transient (bounded by ``resilience.retries``); a persistent
        failure triggers blast-radius isolation — every unresolved job
        is re-dispatched alone, so only the genuinely poisoned job(s)
        fail (each with its *own* :class:`BatchExecutionError` naming
        it) while healthy jobs still return bit-identical results.
        A streaming job whose batch is re-dispatched restarts its chunk
        stream (chunk indices begin again at 0).
        """
        # Per-job isolation: a job whose trace cannot even be built fails
        # alone; the rest of the group still coalesces and runs.
        jobs = []
        for handle in handles:
            workload_cfg = handle.config.workload
            try:
                trace = get_trace(
                    workload_cfg.model,
                    workload_cfg.dataset,
                    workload_cfg.preset,
                    workload_cfg.seed,
                )
            except BaseException as exc:  # noqa: BLE001 - delivered via the future
                handle.future.set_exception(exc)
                handle._finish_stream()
                continue
            jobs.append((handle, trace, list(trace.workloads)))
        if not jobs:
            return
        try:
            failure = self._try_batch(jobs)
            if failure is not None:
                self._isolate(jobs, failure)
        except BaseException as exc:  # noqa: BLE001 - dispatcher must survive
            for handle, _, _ in jobs:
                if not handle.future.done():
                    handle.future.set_exception(self._blame(handle, exc, len(jobs)))
        finally:
            for handle, _, _ in jobs:
                handle._finish_stream()

    def _try_batch(self, jobs: list[tuple]) -> BaseException | None:
        """Run ``jobs`` as one coalesced planner batch with bounded retry.

        Transient failures (an injected ``engine_error``) re-dispatch the
        batch up to the scheduler config's ``resilience.retries`` times —
        a retry is safe because kernel inputs are pure functions of the
        traces, so results stay bit-identical. Returns ``None`` once
        every job's future is resolved, or the final exception
        (unresolved futures are then the caller's to fail or isolate).
        """
        retries = self.resilience.retries
        backoff = self.resilience.retry_backoff_ms / 1000.0
        failure: BaseException | None = None
        for attempt in range(retries + 1):
            live = [job for job in jobs if not job[0].future.done()]
            if not live:
                return None
            try:
                self._execute_batch(live)
                return None
            except BaseException as exc:  # noqa: BLE001 - classified below
                failure = exc
                if attempt < retries and self._transient(exc):
                    self.jobs_retried += len(live)
                    if backoff:
                        time.sleep(backoff * (attempt + 1))
                    continue
                break
        return failure

    def _isolate(self, jobs: list[tuple], failure: BaseException) -> None:
        """Blast-radius isolation after a persistent batch failure.

        Each still-unresolved job is re-dispatched alone: only the
        genuinely poisoned job(s) get an exception — each handle its own
        :class:`BatchExecutionError` instance naming that job — while
        healthy jobs run to bit-identical results (bucket composition
        cannot change per-tile records, so solo == coalesced).
        """
        batch_size = len(jobs)
        if batch_size == 1:
            handle = jobs[0][0]
            if not handle.future.done():
                handle.future.set_exception(self._blame(handle, failure, batch_size))
            return
        for job in jobs:
            handle = job[0]
            if handle.future.done():
                continue
            self.isolation_reruns += 1
            solo_failure = self._try_batch([job])
            if solo_failure is not None and not handle.future.done():
                handle.future.set_exception(
                    self._blame(handle, solo_failure, batch_size)
                )
            handle._finish_stream()

    @staticmethod
    def _blame(
        handle: JobHandle, exc: BaseException, batch_size: int
    ) -> BatchExecutionError:
        """A per-handle exception naming the job (never a shared object)."""
        if isinstance(exc, BatchExecutionError) and exc.job_id == handle.id:
            return exc
        label = f" ({handle.job.label})" if handle.job.label else ""
        error = BatchExecutionError(
            f"job #{handle.id}{label} failed in a coalesced batch of "
            f"{batch_size}: {exc}",
            job_id=handle.id,
            label=handle.job.label,
            batch_size=batch_size,
        )
        error.__cause__ = exc
        return error

    def _execute_batch(self, jobs: list[tuple]) -> None:
        """One planner pass over ``jobs``; exceptions propagate to the
        supervisor (:meth:`_try_batch`) with the affected futures left
        unresolved for retry or isolation."""
        faults.poison_fault(
            [job[0].job.label for job in jobs], site="scheduler.batch"
        )
        handles = [handle for handle, _, _ in jobs]
        engine = self._engine_for(handles[0].config)
        owners: list[tuple[int, int]] = []  # global index -> (job, local)
        for position, (_, _, workloads) in enumerate(jobs):
            owners.extend((position, local) for local in range(len(workloads)))
        sources = [w.spikes for _, _, workloads in jobs for w in workloads]
        cache = engine.cache
        hits0 = cache.hits if cache else 0
        misses0 = cache.misses if cache else 0
        store = engine.store
        store0 = store.counters() if store is not None else {}
        profile0 = dict(getattr(engine.backend, "profile", None) or {})
        profile = {stage: 0.0 for stage in PROFILE_STAGES}
        started = time.perf_counter()
        assemblers = [
            _ChunkAssembler(handle, started) if handle.streaming else None
            for handle, _, _ in jobs
        ]

        def on_workload(index: int, records) -> None:
            position, local = owners[index]
            assembler = assemblers[position]
            if assembler is None:
                return
            workload = jobs[position][2][local]
            # Copy: the callback payload is a view of the batch-wide
            # records array; a chunk a client retains must not pin
            # every other client's records in memory.
            records = records.copy()
            assembler.add(
                WorkloadRun(
                    name=workload.name,
                    kind=workload.kind,
                    tiles=len(records),
                    records=records,
                    stats=stats_from_records(records),
                    seconds=0.0,  # per-chunk kernel time is not attributed
                )
            )

        streaming = any(assembler is not None for assembler in assemblers)
        with engine.planner.exclusive():
            plan = engine.planner.plan(
                sources, engine.tile_m, engine.tile_k, profile=profile
            )
            per_workload = engine.planner.execute(
                plan,
                engine.backend,
                cache=cache,
                profile=profile,
                on_workload=on_workload if streaming else None,
            )
        elapsed = time.perf_counter() - started
        fold_kernel_profile(profile, engine.backend, profile0)
        cache_hits = (cache.hits - hits0) if cache else 0
        cache_misses = (cache.misses - misses0) if cache else 0
        store1 = store.counters() if store is not None else {}
        store_delta = {
            name: store1.get(name, 0) - store0.get(name, 0) for name in store1
        }
        total = plan.total_tiles
        # Book the batch before delivering results: a client that
        # wakes on its future must already see the serving counters.
        self.batches += 1
        if len(jobs) > 1:
            self.jobs_coalesced += len(jobs)

        offset = 0
        for position, (handle, trace, workloads) in enumerate(jobs):
            job_records = per_workload[offset : offset + len(workloads)]
            offset += len(workloads)
            report = EngineReport(
                backend=engine.backend.name,
                tile_m=engine.tile_m,
                tile_k=engine.tile_k,
                model=trace.model,
                dataset=trace.dataset,
                planned_tiles=plan.total_tiles,
                unique_tiles=plan.unique_tiles,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                # Batch-scoped persistent-store traffic, like cache.
                store_hits=store_delta.get("store_hits", 0),
                store_misses=store_delta.get("store_misses", 0),
                store_corrupt=store_delta.get("store_corrupt", 0),
                store_evictions=store_delta.get("store_evictions", 0),
                store_active=store.enabled if store is not None else None,
                profile=dict(profile),
            )
            job_tiles = 0
            for workload, records in zip(workloads, job_records):
                job_tiles += len(records)
                # Copy out of the batch-wide records array: one
                # client's retained result must only hold its own
                # records, not the whole coalesced batch.
                records = records.copy()
                report.runs.append(
                    WorkloadRun(
                        name=workload.name,
                        kind=workload.kind,
                        tiles=len(records),
                        records=records,
                        stats=stats_from_records(records),
                        seconds=elapsed * (len(records) / total) if total else 0.0,
                    )
                )
            verified = None
            if handle.config.engine.verify:
                verified = engine.verify_trace(trace)
            assembler = assemblers[position]
            if assembler is not None:
                assembler.flush()
            handle.future.set_result(
                EngineRunResult(
                    config=handle.config,
                    seconds=elapsed * (job_tiles / total) if total else 0.0,
                    report=report,
                    verified=verified,
                )
            )
            handle._finish_stream()
