"""Batched whole-network ProSparsity runs with a content-hash forest cache.

SNN traces repeat themselves: the same spike tile recurs across time
steps, and layers often share activation structure. The engine therefore
keys every per-tile artifact (record or forest) by a BLAKE2 digest of the
tile's ``np.packbits`` content, so a repeated tile is a cache hit instead
of a recompute. Every run goes through the
:class:`~repro.engine.planner.TracePlanner`, which packs the whole trace
into cross-workload shape buckets and dedups each bucket's contents
before one kernel launch per bucket.

Batch runs, coalesced scheduler batches and stream windows all execute
as one :meth:`ProsperityEngine.execute_pass`: plan, execute, then the
pass's cache and store counter deltas, all under the engine's pass lock.

:class:`ProsperityEngine` is the high-throughput entry point used by the
CLI (``repro run``), the architecture simulator, and the throughput
benchmark; it mirrors the :mod:`repro.core` transform contract exactly,
and :meth:`ProsperityEngine.verify_trace` checks it against that code.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core import prosparsity as core
from repro.core.dispatch import build_dispatch_plan
from repro.core.forest import ProSparsityForest
from repro.core.prosparsity import (
    DEFAULT_TILE_K,
    DEFAULT_TILE_M,
    TILE_RECORD_FIELDS,
    ProSparsityResult,
    ProSparsityStats,
    TileTransform,
    _sample_tiles,
    forest_record,
    validate_tile_shape,
)
from repro.core.spike_matrix import SpikeMatrix, SpikeTile
from repro.engine.backends import DEFAULT_BACKEND, Backend, get_backend
from repro.engine.planner import PROFILE_STAGES, TracePlanner
from repro.snn.trace import GeMMWorkload, ModelTrace

__all__ = [
    "EnginePass",
    "EngineReport",
    "ForestCache",
    "ProsperityEngine",
    "WorkloadRun",
    "stats_from_records",
]

_FIELD = {name: i for i, name in enumerate(TILE_RECORD_FIELDS)}

#: Report counters a pass measures as deltas: the in-memory cache tier,
#: then the persistent store tier.
_PASS_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "store_hits",
    "store_misses",
    "store_corrupt",
    "store_evictions",
)


def stats_from_records(
    records: np.ndarray, sample_fraction: float = 1.0
) -> ProSparsityStats:
    """Aggregate tile records into :class:`ProSparsityStats` in one pass."""
    stats = ProSparsityStats(sample_fraction=sample_fraction)
    if records.size == 0:
        return stats
    m_col = records[:, _FIELD["m"]]
    stats.elements = int((m_col * records[:, _FIELD["k"]]).sum())
    totals = records.sum(axis=0).tolist()
    stats.bit_nnz = totals[_FIELD["bit_nnz"]]
    stats.product_nnz = totals[_FIELD["product_nnz"]]
    stats.rows = totals[_FIELD["m"]]
    stats.em_rows = totals[_FIELD["em_rows"]]
    stats.reused_rows = totals[_FIELD["reused_rows"]]
    stats.zero_residual_rows = totals[_FIELD["zero_residual_rows"]]
    stats.zero_bit_rows = totals[_FIELD["zero_bit_rows"]]
    stats.tiles = len(records)
    return stats


class ForestCache:
    """LRU cache of per-tile artifacts keyed by tile content hash.

    One entry per distinct tile content holds the statistics record
    and/or the forest arrays, filled lazily by whichever path touched the
    tile first. Forest arrays are stored coordinate-free so a hit can be
    rebound to a tile at any position in any matrix.

    ``store`` layers a persistent
    :class:`~repro.engine.store.ResultStore` underneath the *record*
    slot: a memory miss consults the store (counted as a memory miss
    plus a store hit/miss — the two tiers stay separately observable),
    a store hit backfills the memory entry, and every record put also
    publishes durably. Forests stay memory-only — they rebuild cheaply
    and their arrays dwarf the 72-byte records the store is sized for.
    """

    def __init__(self, capacity: int = 1024, store=None):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.store = store
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        # Engines are shared across threads by the serving scheduler
        # (a session's direct calls can overlap the dispatcher), so the
        # LRU mutations and counters are guarded.
        self._mutex = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def key(m: int, k: int, packed: np.ndarray) -> tuple:
        """Content key: shape plus a BLAKE2 digest of the packed bits."""
        digest = hashlib.blake2b(
            np.ascontiguousarray(packed).tobytes(), digest_size=16
        ).digest()
        return (m, k, digest)

    @staticmethod
    def keys(m: int, k: int, rows: np.ndarray) -> list[tuple]:
        """:meth:`key` of each row of an ``(n, bytes)`` packed stack,
        hashed in one loop."""
        blake2b = hashlib.blake2b
        return [
            (m, k, blake2b(row, digest_size=16).digest())
            for row in np.ascontiguousarray(rows, dtype=np.uint8)
        ]

    def _lookup(self, key: tuple, slot: str):
        with self._mutex:
            return self._lookup_locked(key, slot)

    def _lookup_locked(self, key: tuple, slot: str):
        entry = self._entries.get(key)
        value = entry.get(slot) if entry is not None else None
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def _store(self, key: tuple, slot: str, value) -> None:
        with self._mutex:
            self._store_locked(key, slot, value)

    def _store_locked(self, key: tuple, slot: str, value) -> None:
        entry = self._entries.get(key)
        if entry is None:
            entry = {}
            self._entries[key] = entry
        entry[slot] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- records --------------------------------------------------------
    def get_record(self, m: int, k: int, packed: np.ndarray):
        return self.get_record_by_key(self.key(m, k, packed))

    def put_record(self, m: int, k: int, packed: np.ndarray, record) -> None:
        self.put_record_by_key(self.key(m, k, packed), record)

    # -- key-based record access (batched/deduplicated paths) -----------
    def get_record_by_key(self, key: tuple):
        """Record lookup with a precomputed :meth:`key` (hash once per
        unique tile content, as the planner's dedup does).

        Tiered: memory first, then the persistent store (whose file IO
        happens *outside* the LRU mutex); a store hit backfills memory
        so repeats within the process stay in-memory hits.
        """
        record = self._lookup(key, "record")
        if record is not None or self.store is None:
            return record
        record = self.store.get(key)
        if record is not None:
            self._store(key, "record", tuple(record))
        return record

    def put_record_by_key(self, key: tuple, record) -> None:
        self._store(key, "record", tuple(record))
        if self.store is not None:
            self.store.put(key, record)

    # -- one call per bucket -------------------------------------------
    def get_many(self, keys: list[tuple]) -> list:
        """:meth:`get_record_by_key` for each of ``keys``, one mutex hold.

        Hit and miss counters, LRU order and store backfill end as the
        per-key calls in key order leave them (keys are distinct, as a
        deduplicated bucket's are). The store is read up front, outside
        the mutex, for every key memory lacks; a key evicted by an
        earlier key's backfill before its own lookup reads the store
        then, as its per-key call would.
        """
        store = self.store
        stored: dict[tuple, tuple | None] = {}
        if store is not None:
            with self._mutex:
                absent = [
                    key
                    for key in keys
                    if self._entries.get(key, {}).get("record") is None
                ]
            stored = dict(zip(absent, store.get_many(absent)))
        records = []
        with self._mutex:
            for key in keys:
                record = self._lookup_locked(key, "record")
                if record is None and store is not None:
                    record = stored[key] if key in stored else store.get(key)
                    if record is not None:
                        self._store_locked(key, "record", tuple(record))
                records.append(record)
        return records

    def put_many(self, keys: list[tuple], records) -> None:
        """:meth:`put_record_by_key` for each key and record row, one
        mutex hold and one store call."""
        records = [tuple(record) for record in records]
        with self._mutex:
            for key, record in zip(keys, records):
                self._store_locked(key, "record", record)
        if self.store is not None:
            self.store.put_many(keys, records)

    # -- forests --------------------------------------------------------
    def get_forest(self, tile: SpikeTile) -> ProSparsityForest | None:
        arrays = self._lookup(self.key(tile.m, tile.k, tile.packed), "forest")
        if arrays is None:
            return None
        prefix, pattern, popcounts = arrays
        return ProSparsityForest(
            tile=tile, prefix=prefix, pattern=pattern, popcounts=popcounts
        )

    def put_forest(self, tile: SpikeTile, forest: ProSparsityForest) -> None:
        self._store(
            self.key(tile.m, tile.k, tile.packed),
            "forest",
            (forest.prefix, forest.pattern, forest.popcounts),
        )


@dataclass
class WorkloadRun:
    """Transform outcome for one GeMM workload inside an engine run."""

    name: str
    kind: str
    tiles: int
    records: np.ndarray
    stats: ProSparsityStats
    seconds: float

    @property
    def tiles_per_sec(self) -> float:
        return self.tiles / self.seconds if self.seconds > 0 else 0.0

    @classmethod
    def of(
        cls,
        workload,
        records: np.ndarray,
        seconds: float = 0.0,
        stats: ProSparsityStats | None = None,
    ) -> "WorkloadRun":
        """The run of ``workload`` (anything with ``name`` and ``kind``)
        that produced ``records`` in ``seconds``; ``stats`` defaults to
        the records' own."""
        return cls(
            name=workload.name,
            kind=workload.kind,
            tiles=len(records),
            records=records,
            stats=stats_from_records(records) if stats is None else stats,
            seconds=seconds,
        )


@dataclass
class EnginePass:
    """Outcome of one :meth:`ProsperityEngine.execute_pass`.

    ``records`` holds one array per source, in the source's tile order,
    and ``stats`` their statistics; ``seconds`` is the pass wall-clock;
    ``counters`` maps each cache/store report field to this pass's
    delta.
    """

    records: list[np.ndarray]
    stats: list[ProSparsityStats]
    seconds: float
    planned_tiles: int
    unique_tiles: int
    counters: dict[str, int]
    store_active: bool | None

    def share(self, tiles: int) -> float:
        """The pass wall-clock booked to ``tiles`` of its planned tiles.

        Every report splits a pass's time by tile count; this is the one
        place that split is made.
        """
        if not self.planned_tiles:
            return 0.0
        return self.seconds * (tiles / self.planned_tiles)

    def run(self, index: int, workload) -> WorkloadRun:
        """Source ``index``'s :class:`WorkloadRun`, named after ``workload``."""
        records = self.records[index]
        return WorkloadRun.of(
            workload, records, self.share(len(records)), self.stats[index]
        )


@dataclass
class EngineReport:
    """Aggregate result of one engine run over a trace.

    ``profile`` breaks the run's wall-clock into the pipeline stages of
    :data:`~repro.engine.planner.PROFILE_STAGES` — ``pack`` (bit
    packing), ``plan`` (bucket merge), ``dedup`` (global
    content dedup + cache traffic), ``select`` (prefix selection
    kernel), ``record`` (residual popcounts, depths, record assembly),
    ``scatter`` (per-workload scatter-back) — with exactly those keys on
    batch runs, scheduler batches and stream windows. Stage times are
    nested inside the run's wall-clock, so they always sum to at most
    :attr:`total_seconds`. ``plan`` labels the execution scope
    (``"trace"`` for batch runs, ``"stream"`` for sliding-window
    streams); ``planned_tiles``/``unique_tiles`` describe the
    cross-workload dedup.
    """

    backend: str
    tile_m: int
    tile_k: int
    model: str = ""
    dataset: str = ""
    runs: list[WorkloadRun] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    profile: dict[str, float] = field(default_factory=dict)
    plan: str = "trace"
    planned_tiles: int = 0
    unique_tiles: int = 0
    #: Persistent-store deltas for this run (engines with a
    #: :class:`~repro.engine.store.ResultStore` attached): durable
    #: record hits/misses under the in-memory tier, entries quarantined
    #: after a checksum failure, and entries evicted past the byte
    #: budget. All zero when no store is configured.
    store_hits: int = 0
    store_misses: int = 0
    store_corrupt: int = 0
    store_evictions: int = 0
    #: True while a configured store is serving; False once it degraded
    #: to cache-off (unwritable/damaged directory); ``None`` without a
    #: store.
    store_active: bool | None = None

    @property
    def total_tiles(self) -> int:
        return sum(run.tiles for run in self.runs)

    @property
    def total_seconds(self) -> float:
        return sum(run.seconds for run in self.runs)

    @property
    def tiles_per_sec(self) -> float:
        seconds = self.total_seconds
        return self.total_tiles / seconds if seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Cross-workload dedup multiplier: planned tiles per unique tile.

        ``0.0`` when nothing was planned.
        """
        return self.planned_tiles / self.unique_tiles if self.unique_tiles else 0.0

    @property
    def stats(self) -> ProSparsityStats:
        merged = ProSparsityStats()
        for run in self.runs:
            merged.merge(run.stats)
        return merged

    def account(self, engine_pass: EnginePass) -> None:
        """Add one pass's dedup, cache and store counters to this report."""
        self.planned_tiles += engine_pass.planned_tiles
        self.unique_tiles += engine_pass.unique_tiles
        for name, delta in engine_pass.counters.items():
            setattr(self, name, getattr(self, name) + delta)
        self.store_active = engine_pass.store_active


class ProsperityEngine:
    """Trace-planned, cache-aware ProSparsity execution engine.

    .. note:: Direct construction is the low-level path and remains
       supported, but :class:`repro.api.Session` is the canonical entry
       point: it builds this engine from a typed
       :class:`~repro.api.RunConfig` and shares one engine (and forest
       cache) across runs, simulations, and sweeps.

    Parameters
    ----------
    backend:
        Backend name (``"fused"`` / ``"reference"``) or instance;
        :data:`~repro.engine.backends.DEFAULT_BACKEND` (``"fused"``) by
        default.
    cache_size:
        LRU capacity in distinct tile contents; ``0`` disables caching.
    store:
        Optional :class:`~repro.engine.store.ResultStore` layered under
        the in-memory cache: record misses consult it before the kernel
        path and computed records publish to it durably. The engine
        never owns the store (sessions/schedulers share one across
        engines and close it); per-run traffic deltas land in the
        ``store_*`` report fields. A store with ``cache_size == 0``
        still works — a minimal one-entry memory tier fronts it.

    One lock serializes passes (:meth:`exclusive`), so threads may share
    an engine and each pass's counters stay its own.
    """

    def __init__(
        self,
        backend: str | Backend = DEFAULT_BACKEND,
        tile_m: int = DEFAULT_TILE_M,
        tile_k: int = DEFAULT_TILE_K,
        cache_size: int = 1024,
        store=None,
    ):
        validate_tile_shape(tile_m, tile_k)
        # Ownership rule: backends constructed here (from a name) are
        # ours to close; caller-supplied instances stay open for their
        # other users.
        self._owns_backend = not isinstance(backend, Backend)
        self.backend = get_backend(backend)
        self.tile_m = tile_m
        self.tile_k = tile_k
        self.store = store
        if cache_size:
            self.cache = ForestCache(cache_size, store=store)
        elif store is not None:
            self.cache = ForestCache(1, store=store)
        else:
            self.cache = None
        self.planner = TracePlanner()
        self._lock = threading.RLock()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release the backend when this engine constructed it from a
        name — shared instances stay open. Idempotent; waits for a pass
        in flight."""
        with self._lock:
            if self._owns_backend:
                self.backend.close()

    @contextlib.contextmanager
    def exclusive(self):
        """Hold the engine's pass lock: no other thread's pass runs until
        the block exits. Re-entrant, so the holder may run passes."""
        with self._lock:
            yield self

    def __enter__(self) -> "ProsperityEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _forest_for(self, tile: SpikeTile) -> ProSparsityForest:
        if self.cache is not None:
            forest = self.cache.get_forest(tile)
            if forest is not None:
                return forest
        forest = self.backend.forest(tile)
        if self.cache is not None:
            self.cache.put_forest(tile, forest)
        return forest

    @staticmethod
    def _matrices(trace: ModelTrace | list) -> list[SpikeMatrix]:
        workloads = trace.workloads if isinstance(trace, ModelTrace) else trace
        matrices = [
            workload.spikes if hasattr(workload, "spikes") else workload
            for workload in workloads
        ]
        return [
            matrix if isinstance(matrix, SpikeMatrix) else SpikeMatrix(matrix)
            for matrix in matrices
        ]

    # ------------------------------------------------------------------
    def transform_matrix(
        self,
        matrix: SpikeMatrix | np.ndarray,
        tile_m: int | None = None,
        tile_k: int | None = None,
        keep_transforms: bool = False,
        max_tiles: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> ProSparsityResult:
        """Drop-in, cache-aware equivalent of ``core.transform_matrix``.

        Records, statistics, and (when kept) forests are bit-identical to
        the core path; sampling draws the same RNG sequence so sampled
        runs match the core path tile for tile.
        """
        if keep_transforms:
            return self._transform_kept(matrix, tile_m, tile_k, max_tiles, rng)
        return self.transform_trace([matrix], tile_m, tile_k, max_tiles, rng)[0]

    def _transform_kept(self, matrix, tile_m, tile_k, max_tiles, rng):
        """Per-tile path that keeps every forest and dispatch plan."""
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        (matrix,) = self._matrices([matrix])
        result = ProSparsityResult()
        total_tiles = matrix.num_tiles(tile_m, tile_k)
        if max_tiles is not None and total_tiles > max_tiles:
            if rng is None:
                rng = np.random.default_rng(0)
            tiles = _sample_tiles(matrix, tile_m, tile_k, max_tiles, rng)
            fraction = len(tiles) / total_tiles
        else:
            tiles = matrix.tile(tile_m, tile_k)
            fraction = 1.0
        records: list[tuple[int, ...]] = []
        for tile in tiles:
            forest = self._forest_for(tile)
            dispatch = build_dispatch_plan(forest)
            result.transforms.append(
                TileTransform(tile=tile, forest=forest, plan=dispatch)
            )
            records.append(forest_record(forest))
        result.tile_records = np.array(records, dtype=np.int64).reshape(
            len(records), len(TILE_RECORD_FIELDS)
        )
        result.stats = stats_from_records(result.tile_records, sample_fraction=fraction)
        return result

    # ------------------------------------------------------------------
    def transform_trace(
        self,
        trace: ModelTrace | list,
        tile_m: int | None = None,
        tile_k: int | None = None,
        max_tiles: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> list[ProSparsityResult]:
        """Transform every workload of a trace, one result per workload.

        The whole trace is packed into one cross-workload plan (one
        kernel per shape bucket, one global dedup). ``max_tiles``
        sampling draws the same RNG sequence as a per-workload loop over
        ``core.transform_matrix`` — workloads are visited in order and
        only sampled workloads consume draws — so records are
        bit-identical to it. Entries may be :class:`GeMMWorkload` or
        bare ``SpikeMatrix``.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        sources: list = []
        fractions: list[float] = []
        for matrix in self._matrices(trace):
            total_tiles = matrix.num_tiles(tile_m, tile_k)
            if max_tiles is not None and total_tiles > max_tiles:
                # rng=None mirrors core.transform_matrix exactly: that
                # path seeds a fresh default_rng(0) per *workload*, so
                # the trace plan must too or sampled tiles would diverge.
                workload_rng = (
                    rng if rng is not None else np.random.default_rng(0)
                )
                sampled = _sample_tiles(
                    matrix, tile_m, tile_k, max_tiles, workload_rng
                )
                sources.append(sampled)
                fractions.append(len(sampled) / total_tiles)
            else:
                sources.append(matrix)
                fractions.append(1.0)
        done = self.execute_pass(sources, tile_m, tile_k)
        results = []
        for records, stats, fraction in zip(done.records, done.stats, fractions):
            stats.sample_fraction = fraction
            result = ProSparsityResult()
            result.tile_records = records
            result.stats = stats
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def execute_pass(
        self,
        sources: list,
        tile_m: int | None = None,
        tile_k: int | None = None,
        profile: dict[str, float] | None = None,
        on_workload=None,
    ) -> EnginePass:
        """One plan→execute→account pass: the seam every run shares.

        ``sources`` and ``on_workload`` are as for
        :meth:`TracePlanner.plan` and :meth:`TracePlanner.execute`;
        stage times accumulate into ``profile``. The pass lock is held
        across the counter snapshot, the plan, the execution, the
        counter delta and the store kick, so the counters a pass reports
        count only its own lookups.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        with self._lock:
            before = self._counters()
            start = time.perf_counter()
            trace_plan = self.planner.plan(sources, tile_m, tile_k, profile=profile)
            records = self.planner.execute(
                trace_plan,
                self.backend,
                cache=self.cache,
                profile=profile,
                on_workload=on_workload,
            )
            # Per-source stats are report assembly, not a pipeline
            # stage, but they run before the kick: a writer woken
            # earlier contends for the GIL with them.
            stats = [stats_from_records(source_records) for source_records in records]
            seconds = time.perf_counter() - start
            after = self._counters()
            if self.store is not None:
                # Publish this pass's new entries in the background now
                # that the kernels are done (puts buffer during the pass
                # to keep writer IO off the compute path).
                self.store.kick()
        return EnginePass(
            records=records,
            stats=stats,
            seconds=seconds,
            planned_tiles=trace_plan.total_tiles,
            unique_tiles=trace_plan.unique_tiles,
            counters={
                name: after.get(name, 0) - before.get(name, 0)
                for name in _PASS_COUNTERS
            },
            store_active=self.store.enabled if self.store is not None else None,
        )

    def _counters(self) -> dict[str, int]:
        """Lifetime cache and store counters, by report field name."""
        counters = self.store.counters() if self.store is not None else {}
        if self.cache is not None:
            counters["cache_hits"] = self.cache.hits
            counters["cache_misses"] = self.cache.misses
        return counters

    def new_report(self, model: str = "", dataset: str = "", **fields) -> EngineReport:
        """An empty :class:`EngineReport` for this engine's backend, tile
        shape and store state, with a zeroed stage profile."""
        fields.setdefault("profile", dict.fromkeys(PROFILE_STAGES, 0.0))
        return EngineReport(
            backend=self.backend.name,
            tile_m=self.tile_m,
            tile_k=self.tile_k,
            model=model,
            dataset=dataset,
            store_active=self.store.enabled if self.store is not None else None,
            **fields,
        )

    def run(self, trace: ModelTrace | list[GeMMWorkload]) -> EngineReport:
        """Transform a whole trace: one cross-workload plan, one kernel
        launch and one global content dedup per shape bucket."""
        if isinstance(trace, ModelTrace):
            workloads = list(trace.workloads)
            report = self.new_report(trace.model, trace.dataset)
        else:
            workloads = list(trace)
            report = self.new_report()
        done = self.execute_pass(
            [workload.spikes for workload in workloads], profile=report.profile
        )
        report.account(done)
        report.runs = [done.run(i, workload) for i, workload in enumerate(workloads)]
        return report

    # ------------------------------------------------------------------
    def execute_gemm(
        self,
        spike_matrix: SpikeMatrix | np.ndarray,
        weights: np.ndarray,
        tile_m: int | None = None,
        tile_k: int | None = None,
    ) -> np.ndarray:
        """Lossless spiking GeMM through the configured backend.

        Same contract as ``core.execute_gemm``. Tiles route through the
        planner's shape buckets: each *distinct* tile content builds its
        forest once per GeMM (content dedup on top of the cache), and
        partial sums accumulate in row-major tile order, so outputs
        match the core path exactly (integer weights) or up to float
        summation order.
        """
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        if not isinstance(spike_matrix, SpikeMatrix):
            spike_matrix = SpikeMatrix(spike_matrix)
        weights = np.asarray(weights)
        if weights.shape[0] != spike_matrix.cols:
            raise ValueError(
                f"weight rows ({weights.shape[0]}) must match spike cols"
                f" ({spike_matrix.cols})"
            )
        out_dtype = (
            np.int64 if np.issubdtype(weights.dtype, np.integer) else np.float64
        )
        output = np.zeros((spike_matrix.rows, weights.shape[1]), dtype=out_dtype)
        col_tiles = -(-spike_matrix.cols // tile_k)
        # The pass lock keeps this GeMM's forest-cache traffic out of a
        # concurrent pass's counter deltas.
        with self._lock:
            trace_plan = self.planner.plan([spike_matrix], tile_m, tile_k)
            partials: list[np.ndarray | None] = [None] * trace_plan.total_tiles
            for bucket in trace_plan.buckets:
                forests: dict[int, ProSparsityForest] = {}
                for index in range(bucket.tiles):
                    unique = int(bucket.inverse[index])
                    forest = forests.get(unique)
                    if forest is None:
                        tile = next(
                            TracePlanner._tiles_from_raw(
                                bucket, bucket.first[unique : unique + 1]
                            )
                        )
                        forest = self._forest_for(tile)
                        forests[unique] = forest
                    position = int(bucket.position[index])
                    col_start = (position % col_tiles) * tile_k
                    w_slice = weights[col_start : col_start + bucket.k]
                    partials[position] = self.backend.execute(forest, w_slice)
        # Accumulate in row-major tile order — the core path's float
        # summation order, independent of bucket iteration.
        for position, partial in enumerate(partials):
            if partial is None:
                raise RuntimeError(f"planned GeMM left tile {position} unexecuted")
            row_start = (position // col_tiles) * tile_m
            output[row_start : row_start + partial.shape[0]] += partial
        return output

    # ------------------------------------------------------------------
    def verify_trace(
        self,
        trace: ModelTrace | list[GeMMWorkload],
        max_tiles: int | None = None,
        seed: int = 0,
    ) -> bool:
        """Check this engine's records against the :mod:`repro.core` oracle.

        The oracle is ``core.transform_matrix`` itself — per-tile forests,
        no planner, no cache — so a planner or kernel bug cannot pass on
        both sides. Both sides draw their tile samples from identically
        seeded RNGs, so sampled runs compare the very same tiles.
        """
        workloads = trace.workloads if isinstance(trace, ModelTrace) else trace
        for workload in workloads:
            mine = self.transform_matrix(
                workload.spikes,
                max_tiles=max_tiles,
                rng=np.random.default_rng(seed),
            )
            theirs = core.transform_matrix(
                workload.spikes,
                self.tile_m,
                self.tile_k,
                keep_transforms=False,
                max_tiles=max_tiles,
                rng=np.random.default_rng(seed),
            )
            if not np.array_equal(mine.tile_records, theirs.tile_records):
                return False
        return True

