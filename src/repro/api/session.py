"""The Session facade: one object that owns configuration and lifecycle.

A :class:`Session` binds a :class:`~repro.api.config.RunConfig` to live
execution resources — one transform backend, one
:class:`~repro.engine.ProsperityEngine` with its forest cache and
planner arena — and exposes every experiment the CLI offers as a method:
:meth:`run`, :meth:`simulate`, :meth:`sweep`, :meth:`density`,
:meth:`scaling`, :meth:`tradeoff`. All calls share the same backend and
engine, so the cache warms once per session no matter how many
experiments run through it.

Results come back as structured :class:`RunResult` subclasses carrying
the config that produced them, the wall-clock, and the layer reports
(:class:`~repro.engine.EngineReport`, :class:`~repro.arch.SimReport`,
sweep points, density report) — no parsing of printed tables.

For concurrent callers, :meth:`submit` is a queue seam: jobs are routed
through a session-owned :class:`~repro.api.scheduler.Scheduler` (which
serializes execution against the shared engine and coalesces compatible
work) and returned as :class:`concurrent.futures.Future` objects — the
same Future-based contract the original single-worker queue exposed.
:meth:`stream` yields per-workload :class:`RunChunk` results as the
trace planner's buckets complete instead of one blocking final result,
and :class:`~repro.api.aio.AsyncSession` wraps the same scheduler for
``asyncio`` callers.

Quickstart::

    from repro.api import RunConfig, Session

    cfg = RunConfig().with_overrides({"workload.model": "lenet5",
                                      "workload.dataset": "mnist",
                                      "engine.backend": "fused"})
    with Session(cfg) as session:
        result = session.run()
        print(result.report.tiles_per_sec)
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.analysis.density import DensityReport, density_report
from repro.analysis.sweep import SweepPoint, sweep_tile_sizes
from repro.analysis.tradeoff import TradeoffResult, evaluate_tradeoff
from repro.api.config import RunConfig
from repro.arch.config import DEFAULT_CONFIG
from repro.arch.report import SimReport
from repro.arch.scaling import ScalingPoint, scaling_study
from repro.arch.simulator import ProsperitySimulator
from repro.baselines import BASELINES
from repro.core.prosparsity import ProSparsityStats
from repro.engine import (
    Backend,
    EngineReport,
    ProsperityEngine,
    WorkloadRun,
    faults,
    get_backend,
)
from repro.engine.store import open_store
from repro.snn.trace import ModelTrace
from repro.streaming import StreamResult, StreamRunner, StreamSource, build_source
from repro.workloads import get_trace

__all__ = [
    "DensityResult",
    "EngineRunResult",
    "RunChunk",
    "RunResult",
    "ScalingResult",
    "Session",
    "SimulationResult",
    "StreamRunResult",
    "SweepResult",
    "TradeoffRunResult",
]


@dataclass(frozen=True)
class RunResult:
    """Base result: the config that produced it plus wall-clock seconds."""

    config: RunConfig
    seconds: float

    @property
    def profile(self) -> dict[str, float]:
        """Pipeline-stage wall-clock breakdown, when the run produced one."""
        return {}


@dataclass(frozen=True)
class EngineRunResult(RunResult):
    """:meth:`Session.run` outcome: the engine report, records attached."""

    report: EngineReport = None  # type: ignore[assignment]
    verified: bool | None = None  # None = verification not requested

    @property
    def profile(self) -> dict[str, float]:
        return dict(self.report.profile)


@dataclass(frozen=True)
class RunChunk(RunResult):
    """One streamed slice of an engine run: workloads completed so far.

    :meth:`Session.stream` (and streaming scheduler jobs) yield these as
    the trace planner's shape buckets finish: each chunk carries the
    workloads whose final tiles were just scattered, in completion
    order. ``seconds`` is the wall-clock since the run started when the
    chunk was emitted; per-workload kernel time is not attributed to
    chunks (the final :class:`EngineRunResult` carries the full report).
    """

    index: int = 0
    runs: list[WorkloadRun] = field(default_factory=list)

    @property
    def tiles(self) -> int:
        return sum(run.tiles for run in self.runs)

    @property
    def workloads(self) -> tuple[str, ...]:
        return tuple(run.name for run in self.runs)

    @property
    def stats(self) -> ProSparsityStats:
        merged = ProSparsityStats()
        for run in self.runs:
            merged.merge(run.stats)
        return merged


@dataclass(frozen=True)
class SimulationResult(RunResult):
    """:meth:`Session.simulate` outcome: one SimReport per accelerator."""

    reports: dict[str, SimReport] = field(default_factory=dict)

    @property
    def prosperity(self) -> SimReport:
        return self.reports["prosperity"]


@dataclass(frozen=True)
class SweepResult(RunResult):
    """:meth:`Session.sweep` outcome: Fig. 7's two sweep axes."""

    m_sweep: list[SweepPoint] = field(default_factory=list)
    k_sweep: list[SweepPoint] = field(default_factory=list)

    @property
    def points(self) -> list[SweepPoint]:
        return [*self.m_sweep, *self.k_sweep]


@dataclass(frozen=True)
class DensityResult(RunResult):
    """:meth:`Session.density` outcome: the four-paradigm density report."""

    report: DensityReport = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ScalingResult(RunResult):
    """:meth:`Session.scaling` outcome: the Sec. VIII-A scaling grid."""

    points: list[ScalingPoint] = field(default_factory=list)


@dataclass(frozen=True)
class TradeoffRunResult(RunResult):
    """:meth:`Session.tradeoff` outcome: the Sec. VII-G benefit/cost check."""

    result: TradeoffResult = None  # type: ignore[assignment]


@dataclass(frozen=True)
class StreamRunResult(RunResult):
    """A ``"stream"`` scheduler job's final outcome.

    Wraps the :class:`~repro.streaming.StreamResult` the underlying
    :meth:`Session.stream_source` generator returned; ``report`` exposes
    its :class:`~repro.engine.EngineReport` (``plan == "stream"``) for
    consumers that already understand engine reports.
    """

    result: StreamResult = None  # type: ignore[assignment]

    @property
    def report(self) -> EngineReport:
        return self.result.report

    @property
    def profile(self) -> dict[str, float]:
        return dict(self.result.report.profile)


class Session:
    """Config-driven facade over the engine, simulator, and analysis layers.

    Parameters
    ----------
    config:
        The run configuration; ``None`` uses :class:`RunConfig` defaults.
    engine:
        An already-constructed :class:`~repro.engine.ProsperityEngine` to
        share instead of building one from ``config`` — the serving
        scheduler uses this so many sessions (one per client config) run
        through one engine and one cache. A shared engine must match the
        config's engine section (backend name and tile shape); the
        session never closes it.

    The backend and engine are constructed lazily on first use and shared
    by every call — ``Session`` is the resource boundary: one session
    reuses one backend and engine across any mix of :meth:`run` /
    :meth:`simulate` / :meth:`sweep` calls, and :meth:`close` (or the
    context manager) releases them.
    """

    _QUEUEABLE = (
        "run",
        "simulate",
        "sweep",
        "density",
        "scaling",
        "tradeoff",
        "stream",
    )

    def __init__(
        self,
        config: RunConfig | None = None,
        *,
        engine: ProsperityEngine | None = None,
    ):
        self.config = config if config is not None else RunConfig()
        self._owns_engine = engine is None
        if engine is not None:
            engine_cfg = self.config.engine
            mismatched = (
                engine.backend.name != engine_cfg.backend
                or engine.tile_m != engine_cfg.tile_m
                or engine.tile_k != engine_cfg.tile_k
            )
            if mismatched:
                raise ValueError(
                    "shared engine does not match the session config: engine "
                    f"is backend={engine.backend.name!r} tile="
                    f"({engine.tile_m}, {engine.tile_k}), config wants "
                    f"backend={engine_cfg.backend!r} tile="
                    f"({engine_cfg.tile_m}, {engine_cfg.tile_k})"
                )
        self._backend: Backend | None = engine.backend if engine else None
        self._engine: ProsperityEngine | None = engine
        self._store = None  # session-owned ResultStore, created with the engine
        self._scheduler = None  # session-owned Scheduler, created on demand
        self._lock = threading.RLock()
        self._closed = False
        self._draining = False
        # A configured fault plan activates the deterministic injection
        # harness for this process (off when the spec is empty) — same
        # seam as Scheduler, so `repro run` chaos drills work too.
        if self.config.resilience.faults:
            faults.install(self.config.resilience.faults)

    @classmethod
    def from_file(cls, path: str | Path, sets: list[str] | None = None) -> "Session":
        """Session from a TOML/JSON config file, plus optional ``--set``s."""
        config = RunConfig.from_file(path)
        if sets:
            config = config.with_sets(sets)
        return cls(config)

    # -- lifecycle ------------------------------------------------------
    @property
    def backend(self) -> Backend:
        """The shared transform backend (constructed on first access)."""
        with self._lock:
            self._check_open()
            if self._backend is None:
                self._backend = get_backend(self.config.engine.backend)
            return self._backend

    @property
    def engine(self) -> ProsperityEngine:
        """The shared engine: one forest cache, one arena, one backend."""
        with self._lock:
            self._check_open()
            if self._engine is None:
                engine_cfg = self.config.engine
                # The session owns the persistent store (the engine only
                # borrows it) and drains/closes it with the engine. A
                # damaged store degrades to None-equivalent behavior
                # inside ResultStore itself, never here.
                self._store = open_store(self.config.cache)
                self._engine = ProsperityEngine(
                    backend=self.backend,
                    tile_m=engine_cfg.tile_m,
                    tile_k=engine_cfg.tile_k,
                    cache_size=engine_cfg.cache_size,
                    store=self._store,
                )
            return self._engine

    def close(self) -> None:
        """Drain the scheduler queue, then release engine and backend.

        Fully idempotent — a double (or concurrent) close is a no-op.
        Queued :meth:`submit` / :meth:`stream` jobs finish against a
        still-open session before resources go away; a shared (injected)
        engine is left open for its other users, so the backend is
        closed exactly once, by its owner.
        """
        with self._lock:
            if self._closed or self._draining:
                return
            # Refuse new submissions, but let already-queued work finish
            # against a still-open session before resources go away.
            self._draining = True
            scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.close(wait=True)
        with self._lock:
            self._closed = True
            if self._engine is not None:
                if self._owns_engine:
                    self._engine.close()
                self._engine = None
            if self._backend is not None:
                if self._owns_engine:
                    self._backend.close()
                self._backend = None
            if self._store is not None:
                self._store.close()  # drains queued publishes
                self._store = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- workload plumbing ----------------------------------------------
    def trace(self) -> ModelTrace:
        """The configured model trace (cached by the workload registry)."""
        workload = self.config.workload
        return get_trace(
            workload.model, workload.dataset, workload.preset, workload.seed
        )

    def _rng(self) -> np.random.Generator:
        """A fresh, deterministically seeded sampling RNG per call.

        Every experiment starts from the same seed, so flag-driven and
        config-file-driven invocations sample identical tiles and produce
        bit-identical records.
        """
        return np.random.default_rng(self.config.workload.seed)

    # -- experiments ----------------------------------------------------
    def run(self) -> EngineRunResult:
        """Batched whole-trace engine run (the CLI's ``repro run``)."""
        with self._lock:
            self._check_open()
            start = time.perf_counter()
            trace = self.trace()
            report = self.engine.run(trace)
            verified = None
            if self.config.engine.verify:
                verified = self.engine.verify_trace(trace)
            return EngineRunResult(
                config=self.config,
                seconds=time.perf_counter() - start,
                report=report,
                verified=verified,
            )

    def simulate(self) -> SimulationResult:
        """Race the configured baselines against the Prosperity simulator."""
        with self._lock:
            self._check_open()
            start = time.perf_counter()
            trace = self.trace()
            reports: dict[str, SimReport] = {}
            for name in self.config.simulator.baselines:
                reports[name] = BASELINES[name]().simulate(trace)
            engine_cfg = self.config.engine
            arch_config = DEFAULT_CONFIG.with_tile(
                m=engine_cfg.tile_m, k=engine_cfg.tile_k
            )
            simulator = ProsperitySimulator(
                config=arch_config,
                mode=self.config.simulator.mode,
                max_tiles_per_workload=self.config.sampling.effective,
                rng=self._rng(),
                engine=self.engine,  # shared: cache, backend, arena
            )
            reports["prosperity"] = simulator.simulate(trace)
            return SimulationResult(
                config=self.config,
                seconds=time.perf_counter() - start,
                reports=reports,
            )

    def sweep(self) -> SweepResult:
        """Fig. 7 tiling design sweep over the configured (m, k) grids."""
        with self._lock:
            self._check_open()
            start = time.perf_counter()
            m_sweep, k_sweep = sweep_tile_sizes(
                [self.trace()],
                m_values=self.config.sweep.m_values,
                k_values=self.config.sweep.k_values,
                max_tiles=self.config.sampling.effective,
                rng=self._rng(),
                backend=self.backend,  # shared instance, kept open
            )
            return SweepResult(
                config=self.config,
                seconds=time.perf_counter() - start,
                m_sweep=m_sweep,
                k_sweep=k_sweep,
            )

    def density(self) -> DensityResult:
        """Fig. 11 density comparison across sparsity paradigms."""
        with self._lock:
            self._check_open()
            start = time.perf_counter()
            report = density_report(
                self.trace(),
                tile_m=self.config.engine.tile_m,
                tile_k=self.config.engine.tile_k,
                max_tiles=self.config.sampling.effective,
                rng=self._rng(),
                engine=self.engine,
            )
            return DensityResult(
                config=self.config,
                seconds=time.perf_counter() - start,
                report=report,
            )

    def scaling(self) -> ScalingResult:
        """Sec. VIII-A multi-PPU scaling study."""
        with self._lock:
            self._check_open()
            start = time.perf_counter()
            points = scaling_study(
                self.trace(),
                max_tiles=self.config.sampling.effective,
                rng=self._rng(),
            )
            return ScalingResult(
                config=self.config,
                seconds=time.perf_counter() - start,
                points=points,
            )

    def tradeoff(self) -> TradeoffRunResult:
        """Sec. VII-G search-overhead trade-off for the configured dS."""
        with self._lock:
            self._check_open()
            start = time.perf_counter()
            result = evaluate_tradeoff(self.config.tradeoff.sparsity_increase)
            return TradeoffRunResult(
                config=self.config,
                seconds=time.perf_counter() - start,
                result=result,
            )

    # -- concurrency seam -----------------------------------------------
    @property
    def scheduler(self):
        """The session-owned :class:`~repro.api.scheduler.Scheduler`.

        Created on first use and seeded with this session's engine, so
        scheduled jobs share the session's cache and arena. Closed — after draining — by
        :meth:`close`.
        """
        from repro.api.scheduler import Scheduler

        with self._lock:
            self._check_open()
            if self._draining:
                raise RuntimeError("session is closing; no new submissions")
            if self._scheduler is None:
                scheduler = Scheduler(self.config)
                scheduler.adopt_engine(self.config, self.engine)
                self._scheduler = scheduler
            return self._scheduler

    def submit(self, kind: str, timeout: float | None = None) -> Future:
        """Queue an experiment for asynchronous execution.

        ``kind`` names any experiment method (``"run"``, ``"simulate"``,
        ``"sweep"``, ``"density"``, ``"scaling"``, ``"tradeoff"``, or
        ``"stream"`` — a sliding-window streaming job whose scheduler
        handle additionally yields per-window chunks).
        Submissions from any thread are routed through the session's
        :class:`~repro.api.scheduler.Scheduler`, which serializes
        execution against the shared engine and coalesces compatible engine jobs
        into one planner batch. The returned
        :class:`concurrent.futures.Future` resolves to the same
        :class:`RunResult` objects the direct calls return.

        ``timeout`` bounds the wait for queue space (admission control):
        when it elapses the submission raises
        :class:`~repro.api.scheduler.SchedulerSaturated` instead of
        blocking further; ``None`` defers to the config's
        ``resilience.overload_policy``.
        """
        if kind not in self._QUEUEABLE:
            raise ValueError(
                f"unknown experiment {kind!r}; expected one of {self._QUEUEABLE}"
            )
        return self.scheduler.submit(kind, timeout=timeout).future

    def stream(self, chunk: int | None = None) -> Iterator[RunChunk]:
        """Stream an engine run as per-workload chunks, then the result.

        Instead of one blocking :meth:`run` result, yields a
        :class:`RunChunk` every time ``chunk`` workloads complete
        (default: ``scheduler.stream_chunk`` from the config) — the run
        executes trace-planned, so workloads finish as the planner's
        shape buckets complete, and records are bit-identical to
        :meth:`run`. The generator's ``return`` value (i.e.
        ``StopIteration.value``) is the final :class:`EngineRunResult`.
        """
        handle = self.scheduler.submit("run", stream=True, chunk=chunk)
        yield from handle.chunks()
        return handle.result()

    def stream_source(self, source: StreamSource | None = None):
        """Sliding-window streaming inference over an event-trace source.

        Yields one :class:`~repro.streaming.StreamChunk` per executed
        window and returns (``StopIteration.value``) the final
        :class:`~repro.streaming.StreamResult`. ``source`` defaults to
        whatever the ``[streaming]`` config section names (``replay`` /
        ``poisson`` / ``recurrent``); window geometry, in-flight budget,
        and the stall timeout also come from that section. Records are
        bit-identical to a batch :meth:`run` of the source's equivalent
        whole trace — tiles assemble at global matrix boundaries, and
        cross-window dedup rides the session engine's cache tiers.

        The session lock is held only while building the runner, not for
        the stream's lifetime: windows execute under the shared
        planner's ``exclusive()`` lock, so concurrent batch runs
        serialize per window rather than blocking for the whole stream.
        """
        with self._lock:
            self._check_open()
            streaming = self.config.streaming
            if source is None:
                source = build_source(self.config)
            runner = StreamRunner(
                source,
                self.engine,
                window=streaming.window,
                hop=streaming.hop,
                max_inflight_windows=streaming.max_inflight_windows,
                stall_timeout_s=streaming.stall_timeout_s,
            )
        result = yield from runner.run()
        return result
