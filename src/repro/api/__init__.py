"""repro.api — the unified, typed entry point to the reproduction.

This package is the canonical way to drive the system:

* :class:`RunConfig` — a frozen, validated, serializable description of
  a run (workload / engine / simulator / sampling / sweep / tradeoff /
  scheduler sections; TOML + JSON round-trip; ``with_overrides`` for
  sweeps).
* :class:`Session` — one facade owning backend/engine lifecycle, with
  ``run()`` / ``simulate()`` / ``sweep()`` / ``density()`` /
  ``scaling()`` / ``tradeoff()`` returning structured results, a
  ``submit()`` queue seam for concurrent callers, and ``stream()``
  yielding per-workload chunks as they complete.
* :class:`Scheduler` — the serving layer: many concurrent typed job
  submissions (:class:`Job` / :class:`JobHandle`), compatible engine
  jobs coalesced into shared trace-planner batches (one global dedup,
  one kernel launch per shape bucket, per-job scatter-back), bounded
  queue depth, cancellation, and streaming — plus the resilience
  layer: admission control (:class:`SchedulerSaturated`), queue
  deadlines (:class:`DeadlineExceeded`), transient-failure retries,
  and blast-radius isolation of poisoned coalesced jobs
  (:class:`BatchExecutionError`), configured by the ``[resilience]``
  section (:class:`ResilienceConfig`).
* :class:`AsyncSession` — ``asyncio`` wrappers (``await run()`` /
  ``gather()`` / ``async for chunk in stream()``) over the scheduler.
* :class:`ServeClient` — the network client for a ``repro serve``
  endpoint (:mod:`repro.server`): jobs over HTTP/JSON with the same
  exception types the in-process scheduler raises (429 →
  :class:`SchedulerSaturated`, 504 → :class:`DeadlineExceeded`, 500 →
  :class:`BatchExecutionError`), records byte-identical to
  ``Session.run()``; tenancy/priorities come from the ``[server]``
  config section (:class:`ServerConfig`).

The lower-level entry points (``ProsperityEngine``,
``ProsperitySimulator``, ``sweep_tile_sizes``) remain supported, but new
code — and the ``repro`` CLI — should go through ``Session`` (or, for
many concurrent jobs, ``Scheduler``) so configuration stays in one
typed object and engine resources are shared.
"""

from repro.api.aio import AsyncSession
from repro.api.client import (
    ServeClient,
    ServeError,
    ServeRequestError,
    ServeResult,
    ServeStreamChunk,
    ServeUnavailable,
)
from repro.api.config import (
    STREAM_SOURCES,
    EngineConfig,
    ResilienceConfig,
    RunConfig,
    SamplingConfig,
    SchedulerConfig,
    ServerConfig,
    SimulatorConfig,
    StreamingConfig,
    SweepConfig,
    TradeoffConfig,
    WorkloadConfig,
)
from repro.api.scheduler import (
    BatchExecutionError,
    DeadlineExceeded,
    Job,
    JobHandle,
    Scheduler,
    SchedulerSaturated,
    StreamTimeoutError,
)
from repro.api.session import (
    DensityResult,
    EngineRunResult,
    RunChunk,
    RunResult,
    ScalingResult,
    Session,
    SimulationResult,
    StreamRunResult,
    SweepResult,
    TradeoffRunResult,
)
from repro.streaming import (
    PoissonEventSource,
    RecurrentSource,
    StreamChunk,
    StreamResult,
    StreamRunner,
    StreamSource,
    StreamStalledError,
    TraceReplaySource,
    build_source,
)

__all__ = [
    "STREAM_SOURCES",
    "AsyncSession",
    "BatchExecutionError",
    "DeadlineExceeded",
    "DensityResult",
    "EngineConfig",
    "EngineRunResult",
    "Job",
    "JobHandle",
    "PoissonEventSource",
    "RecurrentSource",
    "ResilienceConfig",
    "RunChunk",
    "RunConfig",
    "RunResult",
    "SamplingConfig",
    "ScalingResult",
    "Scheduler",
    "SchedulerConfig",
    "SchedulerSaturated",
    "ServeClient",
    "ServeError",
    "ServeRequestError",
    "ServeResult",
    "ServeStreamChunk",
    "ServeUnavailable",
    "ServerConfig",
    "Session",
    "SimulationResult",
    "SimulatorConfig",
    "StreamChunk",
    "StreamResult",
    "StreamRunResult",
    "StreamRunner",
    "StreamSource",
    "StreamStalledError",
    "StreamTimeoutError",
    "StreamingConfig",
    "SweepConfig",
    "SweepResult",
    "TraceReplaySource",
    "TradeoffConfig",
    "TradeoffRunResult",
    "WorkloadConfig",
    "build_source",
]
