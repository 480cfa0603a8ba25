"""Sliding-window streaming execution over an event-trace source.

:class:`StreamRunner` turns a :class:`~repro.streaming.source.
StreamSource` into a sequence of :class:`StreamChunk` results while
keeping the records **bit-identical** to one batch
:meth:`~repro.engine.pipeline.ProsperityEngine.run` over the equivalent
whole trace. The identity argument has three legs:

1. Tiles are assembled at *global* matrix boundaries, not window
   boundaries: each workload's incoming rows accumulate in a
   :class:`_TileAssembler` that only cuts a tile band once ``tile_m``
   full rows exist (the final partial band flushes at end of stream).
   Every streamed tile therefore has byte-for-byte the content of the
   corresponding batch tile from ``SpikeMatrix.tile``.
2. Backends compute each tile's record independently of its stack
   neighbours (pinned by the planner equivalence suite), so planning a
   window's tiles in a small plan yields the same records as planning
   the whole trace at once.
3. Per window, each workload's completed bands are planned as one
   matrix, whose tiles are in global row-major order (bands in row
   order, ``k``-inner), so concatenating a workload's records across
   chunks reproduces the batch record array exactly.

A producer thread steps the source, assembles bands, packs them
(:meth:`~repro.engine.planner.TracePlanner.pack`, so packing overlaps
the previous window's kernels) and feeds them through a bounded queue —
``max_inflight_windows`` is real backpressure, the producer blocks once
the consumer falls behind. Each window executes on the consuming
thread as one engine pass
(:meth:`~repro.engine.pipeline.ProsperityEngine.execute_pass`) with the
engine's cache, so cross-window and
cross-stream dedup ride the same content-digest tiers (memory
:class:`~repro.engine.pipeline.ForestCache`, then the persistent
:class:`~repro.engine.store.ResultStore`) as batch runs. A stalled
source (see the ``stream_stall`` fault kind) surfaces as
:class:`StreamStalledError` after ``stall_timeout_s``. The stream's
report carries the same profile stage keys as a batch run
(:data:`~repro.engine.planner.PROFILE_STAGES`) and the same counters,
each summed over the windows' passes; its ``pack`` stage is only the
executing thread's share, since the producer packs the bands.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.core.spike_matrix import SpikeMatrix
from repro.engine.faults import stream_fault
from repro.engine.pipeline import EngineReport, WorkloadRun
from repro.engine.planner import PackedMatrix
from repro.streaming.source import StreamSource

__all__ = [
    "StreamChunk",
    "StreamResult",
    "StreamRunner",
    "StreamStalledError",
]

_NFIELDS = len(TILE_RECORD_FIELDS)


class StreamStalledError(TimeoutError):
    """The stream source produced no window within the stall timeout."""


@dataclass(frozen=True)
class StreamChunk:
    """Result of one executed stream window.

    ``runs`` holds one :class:`~repro.engine.pipeline.WorkloadRun` per
    workload that completed at least one tile this window; concatenating
    a workload's ``records`` across all chunks of a stream reproduces
    the batch run's record array bit for bit.
    """

    index: int
    start_step: int
    stop_step: int
    seconds: float
    runs: list[WorkloadRun] = field(default_factory=list)
    planned_tiles: int = 0
    unique_tiles: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    final: bool = False

    @property
    def tiles(self) -> int:
        return sum(run.tiles for run in self.runs)

    @property
    def workloads(self) -> tuple[str, ...]:
        return tuple(run.name for run in self.runs)

    @property
    def dedup_ratio(self) -> float:
        return self.planned_tiles / self.unique_tiles if self.unique_tiles else 0.0


@dataclass(frozen=True)
class StreamResult:
    """Aggregate outcome of a completed stream.

    ``report`` is a normal :class:`~repro.engine.pipeline.EngineReport`
    (``plan == "stream"``) whose per-workload record arrays equal the
    batch run of the same trace — the report downstream consumers
    (metrics, protocol encoding, regression checks) already understand.
    """

    report: EngineReport
    windows: int
    steps: int

    @property
    def dedup_ratio(self) -> float:
        return self.report.dedup_ratio


class _TileAssembler:
    """Accumulates one workload's incoming rows; cuts global tile bands.

    Rows arrive in matrix order (the source contract). Whenever
    ``tile_m`` buffered rows exist, whole bands are cut as one
    :class:`SpikeMatrix` whose row-major tiles match ``SpikeMatrix.tile``
    on the eventual full matrix — the final partial band (rows %
    tile_m) is only cut by :meth:`flush` at end of stream, exactly like
    the batch tiler's unpadded edge tiles.
    """

    def __init__(self, cols: int, tile_m: int):
        self.cols = cols
        self.tile_m = tile_m
        self._rows: list[np.ndarray] = []
        self._buffered = 0

    def add(self, rows: np.ndarray) -> None:
        rows = np.ascontiguousarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self.cols:
            raise ValueError(
                f"stream rows must be (r, {self.cols}), got {rows.shape}"
            )
        if len(rows):
            self._rows.append(rows)
            self._buffered += len(rows)

    def _take(self, count: int) -> SpikeMatrix:
        parts: list[np.ndarray] = []
        need = count
        while need:
            head = self._rows[0]
            if len(head) <= need:
                parts.append(head)
                self._rows.pop(0)
                need -= len(head)
            else:
                parts.append(head[:need])
                self._rows[0] = head[need:]
                need = 0
        self._buffered -= count
        if not parts:
            return SpikeMatrix(np.zeros((0, self.cols), dtype=bool))
        return SpikeMatrix(parts[0] if len(parts) == 1 else np.vstack(parts))

    def cut(self) -> SpikeMatrix:
        """All complete ``tile_m`` bands buffered so far, in row order."""
        return self._take(self._buffered - self._buffered % self.tile_m)

    def flush(self) -> SpikeMatrix:
        """Complete bands plus the final partial band (end of stream)."""
        return self._take(self._buffered)


@dataclass(frozen=True)
class _Window:
    index: int
    start_step: int
    stop_step: int
    bands: list[PackedMatrix]  # completed bands, one per source workload
    final: bool


class StreamRunner:
    """Drives a :class:`StreamSource` through an engine, window by window.

    Parameters mirror the ``[streaming]`` config section: ``window`` is
    the number of source steps per executed window, ``hop`` the stride
    between window starts (``0`` means non-overlapping, i.e. ``hop ==
    window``), ``max_inflight_windows`` bounds how many assembled
    windows may wait for execution before the producer blocks, and
    ``stall_timeout_s`` converts a silent source into a
    :class:`StreamStalledError` (``0`` waits forever).

    With ``hop < window`` consecutive windows overlap on the stream
    clock; overlapped steps are still emitted (and enter tile assembly)
    exactly once — the overlap affects *source state pacing* semantics,
    not row duplication — so record bit-identity with the batch run
    holds for every hop.
    """

    def __init__(
        self,
        source: StreamSource,
        engine,
        window: int = 4,
        hop: int = 0,
        max_inflight_windows: int = 2,
        stall_timeout_s: float = 5.0,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if hop < 0 or hop > window:
            raise ValueError(f"hop must be in [0, window], got {hop}")
        if max_inflight_windows < 1:
            raise ValueError(
                f"max_inflight_windows must be >= 1, got {max_inflight_windows}"
            )
        if stall_timeout_s < 0:
            raise ValueError(f"stall_timeout_s must be >= 0, got {stall_timeout_s}")
        self.source = source
        self.engine = engine
        self.window = window
        self.hop = hop or window
        self.max_inflight_windows = max_inflight_windows
        self.stall_timeout_s = stall_timeout_s
        self._queue: queue.Queue = queue.Queue(maxsize=max_inflight_windows)
        self._cancel = threading.Event()

    # -- producer -------------------------------------------------------
    def _produce(self) -> None:
        """Step the source, pack bands, enqueue windows (own thread)."""
        source = self.source
        tile_m, tile_k = self.engine.tile_m, self.engine.tile_k
        pack = self.engine.planner.pack
        site = f"stream.{source.name}"
        assemblers = [
            _TileAssembler(w.cols, tile_m) for w in source.workloads
        ]
        names = [w.name for w in source.workloads]
        try:
            steps = source.steps
            lo = 0
            start = 0
            index = 0
            while lo < steps and not self._cancel.is_set():
                stop = min(start + self.window, steps)
                for step in range(lo, stop):
                    stall = stream_fault(site)
                    if stall:
                        time.sleep(stall)
                    if self._cancel.is_set():
                        return
                    emitted = source.emit(step)
                    unknown = set(emitted) - set(names)
                    if unknown:
                        raise ValueError(
                            f"{source.name}: emit({step}) produced rows for "
                            f"undeclared workloads {sorted(unknown)}"
                        )
                    for assembler, name in zip(assemblers, names):
                        rows = emitted.get(name)
                        if rows is not None:
                            assembler.add(rows)
                final = stop >= steps
                bands = [
                    pack(assembler.flush() if final else assembler.cut(), tile_m, tile_k)
                    for assembler in assemblers
                ]
                self._put(_Window(index, lo, stop, bands, final))
                lo = stop
                start += self.hop
                index += 1
            if index == 0:
                # Empty source: still close the stream with a final
                # zero-step window so consumers get exactly one chunk.
                bands = [pack(a.flush(), tile_m, tile_k) for a in assemblers]
                self._put(_Window(0, 0, 0, bands, True))
        except BaseException as exc:  # noqa: BLE001 — relayed to consumer
            self._put(("error", exc))
        else:
            self._put(("done", None))

    def _put(self, item) -> None:
        """Blocking put that stays responsive to consumer cancellation."""
        while not self._cancel.is_set():
            try:
                self._queue.put(item, timeout=0.1)
                return
            except queue.Full:
                continue

    # -- consumer -------------------------------------------------------
    def run(self):
        """Generator of :class:`StreamChunk`; returns :class:`StreamResult`.

        Drive it with ``for chunk in runner.run()`` (the return value is
        then on ``StopIteration.value``) or ``result = yield from
        runner.run()`` inside another generator. Closing the generator
        early cancels the producer thread cleanly.
        """
        source = self.source
        report = self.engine.new_report(source.name, "stream", plan="stream")
        # One records list per workload, concatenated into the final
        # report — across chunks they reproduce the batch record arrays.
        records: list[list[np.ndarray]] = [[] for _ in source.workloads]
        seconds = [0.0 for _ in source.workloads]
        windows = 0
        stop_step = 0

        producer = threading.Thread(
            target=self._produce, name="stream-producer", daemon=True
        )
        producer.start()
        try:
            while True:
                try:
                    item = self._queue.get(
                        timeout=self.stall_timeout_s or None
                    )
                except queue.Empty:
                    raise StreamStalledError(
                        f"stream {source.name!r} produced no window within "
                        f"{self.stall_timeout_s:.1f}s (window {windows}, "
                        f"step {stop_step})"
                    ) from None
                if isinstance(item, tuple):
                    kind, payload = item
                    if kind == "error":
                        raise payload
                    break  # ("done", None)
                chunk = self._execute_window(item, report, records, seconds)
                windows += 1
                stop_step = item.stop_step
                yield chunk
        finally:
            self._cancel.set()
            # Unblock a producer stuck on a full queue, then reap it.
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
            producer.join(timeout=5.0)

        for workload, chunks_records, spent in zip(
            source.workloads, records, seconds
        ):
            merged = (
                np.concatenate(chunks_records)
                if chunks_records
                else np.empty((0, _NFIELDS), dtype=np.int64)
            )
            report.runs.append(WorkloadRun.of(workload, merged, spent))
        return StreamResult(report=report, windows=windows, steps=source.steps)

    def _execute_window(
        self,
        window: _Window,
        report: EngineReport,
        records: list[list[np.ndarray]],
        seconds: list[float],
    ) -> StreamChunk:
        """One engine pass over a window's completed tiles, on this thread."""
        done = self.engine.execute_pass(window.bands, profile=report.profile)
        report.account(done)
        runs: list[WorkloadRun] = []
        for owner, workload in enumerate(self.source.workloads):
            run = done.run(owner, workload)
            if not run.tiles:
                continue
            records[owner].append(run.records)
            seconds[owner] += run.seconds
            runs.append(run)
        return StreamChunk(
            index=window.index,
            start_step=window.start_step,
            stop_step=window.stop_step,
            seconds=done.seconds,
            runs=runs,
            planned_tiles=done.planned_tiles,
            unique_tiles=done.unique_tiles,
            cache_hits=done.counters["cache_hits"],
            cache_misses=done.counters["cache_misses"],
            final=window.final,
        )
