"""Batched whole-network ProSparsity runs with a content-hash forest cache.

SNN traces repeat themselves: the same spike tile recurs across time
steps, and layers often share activation structure. The engine therefore
keys every per-tile artifact (record or forest) by a BLAKE2 digest of the
tile's ``np.packbits`` content, so a repeated tile is a cache hit instead
of a recompute. On top of that, consecutive same-width layers are stacked
into one tall matrix per batch, amortizing packing and Python dispatch
over many layers/timesteps.

:class:`ProsperityEngine` is the high-throughput entry point used by the
CLI (``repro run``), the architecture simulator, and the throughput
benchmark; it mirrors the :mod:`repro.core` transform contract exactly.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

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
from repro.engine.backends import (
    DEFAULT_BACKEND,
    Backend,
    ReferenceBackend,
    get_backend,
)
from repro.engine.planner import (
    DEFAULT_PLAN,
    PLANNED_PROFILE_STAGES,
    TracePlanner,
    validate_plan_mode,
)
from repro.snn.trace import GeMMWorkload, ModelTrace

__all__ = [
    "EngineReport",
    "ForestCache",
    "ProsperityEngine",
    "WorkloadRun",
    "stats_from_records",
]

_FIELD = {name: i for i, name in enumerate(TILE_RECORD_FIELDS)}


def stats_from_records(
    records: np.ndarray, sample_fraction: float = 1.0
) -> ProSparsityStats:
    """Aggregate tile records into :class:`ProSparsityStats` in one pass."""
    stats = ProSparsityStats(sample_fraction=sample_fraction)
    if records.size == 0:
        return stats
    m_col = records[:, _FIELD["m"]]
    stats.elements = int((m_col * records[:, _FIELD["k"]]).sum())
    stats.bit_nnz = int(records[:, _FIELD["bit_nnz"]].sum())
    stats.product_nnz = int(records[:, _FIELD["product_nnz"]].sum())
    stats.rows = int(m_col.sum())
    stats.em_rows = int(records[:, _FIELD["em_rows"]].sum())
    stats.reused_rows = int(records[:, _FIELD["reused_rows"]].sum())
    stats.zero_residual_rows = int(records[:, _FIELD["zero_residual_rows"]].sum())
    stats.zero_bit_rows = int(records[:, _FIELD["zero_bit_rows"]].sum())
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

    def _lookup(self, key: tuple, slot: str):
        with self._mutex:
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
        unique tile content, as the fused/sharded dedup does).

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


@dataclass
class EngineReport:
    """Aggregate result of one batched engine run over a trace.

    ``profile`` breaks the run's wall-clock into pipeline stages when the
    backend reports them (the fused/sharded backends do): ``pack`` (bit
    packing, padding, layer stacking), ``select`` (prefix selection
    kernels / worker dispatch), ``record`` (residual popcounts, depths,
    record assembly), ``merge`` (dedup, cache traffic, scatter).
    Trace-planned runs (``plan == "trace"``) add the planner stages
    ``plan`` (bucket merge / arena fill), ``dedup`` (global content
    dedup + cache traffic), and ``scatter`` (per-workload scatter-back);
    the ``compiled`` backend adds ``warmup`` (one-time JIT compilation /
    cache load, paid once per process);
    stage times are nested inside the run's wall-clock, so they always
    sum to at most :attr:`total_seconds`. ``workers`` echoes the process
    count for sharded runs; ``planned_tiles``/``unique_tiles`` describe
    the cross-workload dedup for planned runs.
    """

    backend: str
    tile_m: int
    tile_k: int
    batch: int
    model: str = ""
    dataset: str = ""
    runs: list[WorkloadRun] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int | None = None
    profile: dict[str, float] = field(default_factory=dict)
    plan: str = "matrix"
    planned_tiles: int = 0
    unique_tiles: int = 0
    #: ``compiled`` backend only: True when records came from the JIT
    #: kernel, False when it fell back to the fused NumPy path; ``None``
    #: for backends without a JIT notion.
    jit_active: bool | None = None
    #: Supervision deltas for this run (``sharded`` backend): worker
    #: pools rebuilt after ``BrokenProcessPool`` and kernel dispatches
    #: retried during the run. Zero for unsupervised backends.
    pool_rebuilds: int = 0
    retries: int = 0
    #: ``sharded`` only: True once the rebuild budget was exhausted and
    #: the backend fell back to the in-process fused path (mirrors
    #: ``jit_active`` semantics); ``None`` for unsupervised backends.
    degraded: bool | None = None
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

        ``0.0`` outside trace-planned runs (no dedup was measured).
        """
        return self.planned_tiles / self.unique_tiles if self.unique_tiles else 0.0

    @property
    def stats(self) -> ProSparsityStats:
        merged = ProSparsityStats()
        for run in self.runs:
            merged.merge(run.stats)
        return merged


class ProsperityEngine:
    """Batched, backend-pluggable ProSparsity execution engine.

    .. note:: Direct construction is the low-level path and remains
       supported, but :class:`repro.api.Session` is the canonical entry
       point: it builds this engine from a typed
       :class:`~repro.api.RunConfig` and shares one backend (and sharded
       pool) across runs, simulations, and sweeps.

    Parameters
    ----------
    backend:
        Backend name (``"reference"`` / ``"vectorized"`` / ``"fused"`` /
        ``"sharded"``) or instance; :data:`~repro.engine.backends.
        DEFAULT_BACKEND` (``"fused"``) by default.
    cache_size:
        LRU capacity in distinct tile contents; ``0`` disables caching.
    workers:
        Process count for the ``sharded`` backend (rejected by backends
        that do not take it; ``None`` leaves the backend default).
    backend_options:
        Extra constructor options for name-constructed backends (e.g.
        the ``sharded`` supervision knobs ``max_rebuilds``/``degrade``
        from the ``[resilience]`` config section). ``None`` values are
        dropped; options a backend does not accept are rejected with
        the same typed error as :func:`~repro.engine.backends.
        get_backend`. Ignored for caller-supplied instances.
    plan:
        Execution-planning mode: ``"matrix"`` batches per matrix (the
        classic fused path), ``"trace"`` routes whole-trace runs and
        GeMM execution through the :class:`~repro.engine.planner.
        TracePlanner` — cross-workload shape buckets, one global content
        dedup per bucket, arena-backed buffers reused across runs
        (:data:`~repro.engine.planner.DEFAULT_PLAN`). Records are
        bit-identical either way.
    store:
        Optional :class:`~repro.engine.store.ResultStore` layered under
        the in-memory cache: record misses consult it before the kernel
        path and computed records publish to it durably. The engine
        never owns the store (sessions/schedulers share one across
        engines and close it); per-run traffic deltas land in the
        ``store_*`` report fields. A store with ``cache_size == 0``
        still works — a minimal one-entry memory tier fronts it.
    """

    def __init__(
        self,
        backend: str | Backend = DEFAULT_BACKEND,
        tile_m: int = DEFAULT_TILE_M,
        tile_k: int = DEFAULT_TILE_K,
        cache_size: int = 1024,
        workers: int | None = None,
        plan: str = DEFAULT_PLAN,
        backend_options: dict | None = None,
        store=None,
    ):
        validate_tile_shape(tile_m, tile_k)
        # Ownership rule: backends constructed here (from a name) are
        # ours to close; caller-supplied instances stay open for their
        # other users.
        self._owns_backend = not isinstance(backend, Backend)
        options = dict(backend_options or {}) if self._owns_backend else {}
        self.backend = get_backend(backend, workers=workers, **options)
        self.tile_m = tile_m
        self.tile_k = tile_k
        self.store = store
        if cache_size:
            self.cache = ForestCache(cache_size, store=store)
        elif store is not None:
            self.cache = ForestCache(1, store=store)
        else:
            self.cache = None
        self.plan = validate_plan_mode(plan)
        self.planner = TracePlanner()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release engine resources: arena slabs always, and the
        backend (e.g. the sharded worker pool) when this engine
        constructed it from a name — shared instances stay open.
        Idempotent, and safe against a concurrently executing plan
        (the arena is only dropped once the planner is quiescent)."""
        with self.planner.exclusive():
            self.planner.arena.clear()
        if self._owns_backend:
            self.backend.close()

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

    def _tile_record_cached(self, tile: SpikeTile) -> tuple[int, ...]:
        if self.cache is not None:
            record = self.cache.get_record(tile.m, tile.k, tile.packed)
            if record is not None:
                return record
        record = self.backend.tile_record(tile)
        if self.cache is not None:
            self.cache.put_record(tile.m, tile.k, tile.packed, record)
        return record

    # ------------------------------------------------------------------
    def transform_matrix(
        self,
        matrix: SpikeMatrix | np.ndarray,
        tile_m: int | None = None,
        tile_k: int | None = None,
        keep_transforms: bool = False,
        max_tiles: int | None = None,
        rng: np.random.Generator | None = None,
        plan: str | None = None,
    ) -> ProSparsityResult:
        """Drop-in, cache-aware equivalent of ``core.transform_matrix``.

        Records, statistics, and (when kept) forests are bit-identical to
        the core path for every backend and plan mode; sampling draws the
        same RNG sequence so sampled runs match the core path tile for
        tile. ``plan`` overrides the engine's planning mode per call.
        """
        plan = self.plan if plan is None else validate_plan_mode(plan)
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        if not isinstance(matrix, SpikeMatrix):
            matrix = SpikeMatrix(matrix)
        result = ProSparsityResult()

        total_tiles = matrix.num_tiles(tile_m, tile_k)
        sampled = max_tiles is not None and total_tiles > max_tiles
        if sampled:
            if rng is None:
                rng = np.random.default_rng(0)
            tiles = _sample_tiles(matrix, tile_m, tile_k, max_tiles, rng)
            fraction = len(tiles) / total_tiles
        else:
            fraction = 1.0

        if keep_transforms:
            tile_iter = tiles if sampled else matrix.tile(tile_m, tile_k)
            records: list[tuple[int, ...]] = []
            for tile in tile_iter:
                forest = self._forest_for(tile)
                dispatch = build_dispatch_plan(forest)
                result.transforms.append(
                    TileTransform(tile=tile, forest=forest, plan=dispatch)
                )
                records.append(forest_record(forest))
            record_array = np.array(records, dtype=np.int64).reshape(
                len(records), len(TILE_RECORD_FIELDS)
            )
        elif plan == "trace":
            # Planner path: sampled tiles and whole matrices land in the
            # same shape buckets, so sampling composes with the dedup.
            # exclusive() keeps the plan's arena views valid against
            # concurrent planner users (the serving scheduler).
            source = tiles if sampled else matrix
            with self.planner.exclusive():
                trace_plan = self.planner.plan([source], tile_m, tile_k)
                record_array = self.planner.execute(
                    trace_plan, self.backend, cache=self.cache
                )[0]
        elif sampled:
            records = [self._tile_record_cached(tile) for tile in tiles]
            record_array = np.array(records, dtype=np.int64).reshape(
                len(records), len(TILE_RECORD_FIELDS)
            )
        else:
            record_array = self.backend.matrix_records(
                matrix, tile_m, tile_k, cache=self.cache
            )
        result.tile_records = record_array
        result.stats = stats_from_records(record_array, sample_fraction=fraction)
        return result

    # ------------------------------------------------------------------
    def transform_trace(
        self,
        trace: ModelTrace | list,
        tile_m: int | None = None,
        tile_k: int | None = None,
        max_tiles: int | None = None,
        rng: np.random.Generator | None = None,
        plan: str | None = None,
    ) -> list[ProSparsityResult]:
        """Transform every workload of a trace, one result per workload.

        Under ``plan="trace"`` the whole trace is packed into one
        cross-workload plan (one kernel per shape bucket, one global
        dedup); under ``plan="matrix"`` this is a plain per-workload
        loop. Both draw the same RNG sequence for ``max_tiles`` sampling
        — workloads are visited in order and only sampled workloads
        consume draws — so records are bit-identical across modes.
        Entries may be :class:`GeMMWorkload` or bare ``SpikeMatrix``.
        """
        plan = self.plan if plan is None else validate_plan_mode(plan)
        tile_m = self.tile_m if tile_m is None else tile_m
        tile_k = self.tile_k if tile_k is None else tile_k
        validate_tile_shape(tile_m, tile_k)
        workloads = list(trace.workloads if isinstance(trace, ModelTrace) else trace)
        matrices = [
            workload.spikes if hasattr(workload, "spikes") else workload
            for workload in workloads
        ]
        matrices = [
            matrix if isinstance(matrix, SpikeMatrix) else SpikeMatrix(matrix)
            for matrix in matrices
        ]
        if plan != "trace":
            return [
                self.transform_matrix(
                    matrix, tile_m, tile_k, max_tiles=max_tiles, rng=rng,
                    plan=plan,
                )
                for matrix in matrices
            ]
        sources: list = []
        fractions: list[float] = []
        for matrix in matrices:
            total_tiles = matrix.num_tiles(tile_m, tile_k)
            if max_tiles is not None and total_tiles > max_tiles:
                # rng=None mirrors transform_matrix exactly: that path
                # seeds a fresh default_rng(0) per *workload*, so the
                # trace plan must too or sampled tiles would diverge.
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
        with self.planner.exclusive():
            trace_plan = self.planner.plan(sources, tile_m, tile_k)
            per_workload = self.planner.execute(
                trace_plan, self.backend, self.cache
            )
        results = []
        for records, fraction in zip(per_workload, fractions):
            result = ProSparsityResult()
            result.tile_records = records
            result.stats = stats_from_records(records, sample_fraction=fraction)
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def _batch_groups(
        self, workloads: list[GeMMWorkload], batch: int
    ) -> list[list[GeMMWorkload]]:
        """Group consecutive workloads that can be stacked into one matrix.

        Workloads stack only when they share K and every member except
        the last is tile-row aligned — then the stacked tiling is exactly
        the concatenation of the per-workload tilings.
        """
        groups: list[list[GeMMWorkload]] = []
        current: list[GeMMWorkload] = []
        for workload in workloads:
            joinable = (
                current
                and len(current) < batch
                and workload.k == current[0].k
            )
            if not joinable:
                if current:
                    groups.append(current)
                current = [workload]
            else:
                current.append(workload)
            if workload.m % self.tile_m != 0:
                groups.append(current)
                current = []
        if current:
            groups.append(current)
        return groups

    def run(
        self,
        trace: ModelTrace | list[GeMMWorkload],
        batch: int = 1,
        plan: str | None = None,
    ) -> EngineReport:
        """Transform a whole trace, batching stackable layers/timesteps.

        ``plan`` overrides the engine's planning mode for this run:
        ``"trace"`` packs the entire trace into cross-workload shape
        buckets (one kernel launch and one global content dedup per
        bucket), ``"matrix"`` is the per-matrix fused path. Records are
        bit-identical either way; ``batch`` only affects matrix mode.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        plan = self.plan if plan is None else validate_plan_mode(plan)
        if isinstance(trace, ModelTrace):
            workloads = list(trace.workloads)
            model, dataset = trace.model, trace.dataset
        else:
            workloads = list(trace)
            model = dataset = ""
        report = EngineReport(
            backend=self.backend.name,
            tile_m=self.tile_m,
            tile_k=self.tile_k,
            batch=batch,
            model=model,
            dataset=dataset,
            workers=getattr(self.backend, "workers", None),
            plan=plan,
            jit_active=getattr(self.backend, "jit_active", None),
        )
        hits0 = self.cache.hits if self.cache else 0
        misses0 = self.cache.misses if self.cache else 0
        store0 = self.store.counters() if self.store is not None else {}
        profile0 = dict(getattr(self.backend, "profile", None) or {})
        counters0 = self.backend.failure_counters()
        if plan == "trace":
            self._run_planned(workloads, report, profile0)
        else:
            self._run_batched(workloads, batch, report, profile0)
        if self.cache:
            report.cache_hits = self.cache.hits - hits0
            report.cache_misses = self.cache.misses - misses0
        if self.store is not None:
            # Store counters are process-lifetime totals; the report
            # carries this run's deltas, same as the cache tier above.
            store1 = self.store.counters()
            report.store_hits = store1["store_hits"] - store0["store_hits"]
            report.store_misses = store1["store_misses"] - store0["store_misses"]
            report.store_corrupt = store1["store_corrupt"] - store0["store_corrupt"]
            report.store_evictions = (
                store1["store_evictions"] - store0["store_evictions"]
            )
            report.store_active = self.store.enabled
            # Publish this run's new entries in the background now that
            # the kernels are done (puts buffer during the run to keep
            # writer IO off the compute path).
            self.store.kick()
        # Re-read after the run: a failed first JIT dispatch degrades the
        # compiled backend to its fallback mid-run, and the report should
        # describe what actually executed.
        report.jit_active = getattr(self.backend, "jit_active", None)
        # Supervision counters are backend-lifetime totals; the report
        # carries this run's deltas (degraded is a state, not a delta).
        counters1 = self.backend.failure_counters()
        if counters1:
            report.pool_rebuilds = counters1.get("pool_rebuilds", 0) - counters0.get(
                "pool_rebuilds", 0
            )
            report.retries = counters1.get("retries", 0) - counters0.get("retries", 0)
            report.degraded = counters1.get("degraded")
        return report

    def _run_batched(
        self,
        workloads: list[GeMMWorkload],
        batch: int,
        report: EngineReport,
        profile0: dict[str, float],
    ) -> None:
        """Per-matrix path: stack consecutive same-K layers, scatter back."""
        stack_seconds = 0.0
        scatter_seconds = 0.0
        for group in self._batch_groups(workloads, batch):
            start = time.perf_counter()
            if len(group) == 1:
                stacked = group[0].spikes
            else:
                stacked = SpikeMatrix(
                    np.vstack([w.spikes.bits for w in group])
                )
            stack_seconds += time.perf_counter() - start
            records = self.backend.matrix_records(
                stacked, self.tile_m, self.tile_k, cache=self.cache
            )
            # Scatter stacked records back to their workloads. The
            # scatter happens *inside* the timed window so per-stage
            # profile times always sum to <= the run's wall-clock.
            scatter_start = time.perf_counter()
            col_tiles = -(-group[0].k // self.tile_k)
            offset = 0
            total = len(records)
            chunks = []
            for workload in group:
                count = -(-workload.m // self.tile_m) * col_tiles
                chunk = records[offset : offset + count]
                offset += count
                chunks.append((workload, chunk, stats_from_records(chunk)))
            if offset != total:
                raise RuntimeError(
                    f"batch scatter mismatch: {offset} records assigned, {total} produced"
                )
            scatter_seconds += time.perf_counter() - scatter_start
            elapsed = time.perf_counter() - start
            for workload, chunk, stats in chunks:
                report.runs.append(
                    WorkloadRun(
                        name=workload.name,
                        kind=workload.kind,
                        tiles=len(chunk),
                        records=chunk,
                        stats=stats,
                        seconds=elapsed * (len(chunk) / total) if total else 0.0,
                    )
                )
        backend_profile = getattr(self.backend, "profile", None)
        if backend_profile:
            report.profile = {
                stage: seconds - profile0.get(stage, 0.0)
                for stage, seconds in backend_profile.items()
            }
            # Engine-side batching overhead folds into the same stages:
            # layer stacking prepares input (pack), scatter is merge.
            report.profile["pack"] = report.profile.get("pack", 0.0) + stack_seconds
            report.profile["merge"] = (
                report.profile.get("merge", 0.0) + scatter_seconds
            )

    def _run_planned(
        self,
        workloads: list[GeMMWorkload],
        report: EngineReport,
        profile0: dict[str, float],
    ) -> None:
        """Trace path: one cross-workload plan, one kernel per bucket."""
        profile = {stage: 0.0 for stage in PLANNED_PROFILE_STAGES}
        start = time.perf_counter()
        with self.planner.exclusive():
            trace_plan = self.planner.plan(
                [workload.spikes for workload in workloads],
                self.tile_m,
                self.tile_k,
                profile=profile,
            )
            per_workload = self.planner.execute(
                trace_plan, self.backend, cache=self.cache, profile=profile
            )
        # Per-workload stats are report assembly, not a pipeline stage:
        # they stay inside the timed window (so stage sums remain
        # bounded by wall-clock) but out of the profile breakdown.
        entries = [
            (workload, records, stats_from_records(records))
            for workload, records in zip(workloads, per_workload)
        ]
        elapsed = time.perf_counter() - start
        total = trace_plan.total_tiles
        for workload, records, stats in entries:
            report.runs.append(
                WorkloadRun(
                    name=workload.name,
                    kind=workload.kind,
                    tiles=len(records),
                    records=records,
                    stats=stats,
                    seconds=elapsed * (len(records) / total) if total else 0.0,
                )
            )
        report.planned_tiles = trace_plan.total_tiles
        report.unique_tiles = trace_plan.unique_tiles
        backend_profile = getattr(self.backend, "profile", None)
        if backend_profile:
            # Kernel stages (select/record) accumulate inside the
            # backend; fold in the delta since the run started.
            for stage, seconds in backend_profile.items():
                profile[stage] = (
                    profile.get(stage, 0.0) + seconds - profile0.get(stage, 0.0)
                )
        report.profile = profile

    # ------------------------------------------------------------------
    def execute_gemm(
        self,
        spike_matrix: SpikeMatrix | np.ndarray,
        weights: np.ndarray,
        tile_m: int | None = None,
        tile_k: int | None = None,
    ) -> np.ndarray:
        """Lossless spiking GeMM through the configured backend.

        Same contract as ``core.execute_gemm``; repeated tile contents
        reuse cached forests. Under ``plan="trace"`` tiles route through
        the planner's shape buckets: each *distinct* tile content builds
        its forest once per GeMM (content dedup on top of the cache) and
        partial sums still accumulate in row-major tile order, so
        outputs match the per-tile path exactly (integer weights) or up
        to float summation order, same as every backend pair.
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
        if self.plan == "trace":
            self._execute_gemm_planned(
                spike_matrix, weights, tile_m, tile_k, output
            )
            return output
        for tile in spike_matrix.tile(tile_m, tile_k):
            forest = self._forest_for(tile)
            w_slice = weights[tile.coord.col_start : tile.coord.col_start + tile.k]
            partial = self.backend.execute(forest, w_slice)
            rows = slice(tile.coord.row_start, tile.coord.row_start + tile.m)
            output[rows] += partial
        return output

    def _execute_gemm_planned(
        self,
        spike_matrix: SpikeMatrix,
        weights: np.ndarray,
        tile_m: int,
        tile_k: int,
        output: np.ndarray,
    ) -> None:
        """Planner-bucketed GeMM: one forest per distinct tile content."""
        col_tiles = -(-spike_matrix.cols // tile_k)
        with self.planner.exclusive():
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
        # Accumulate in row-major tile order — the per-tile path's
        # float summation order, independent of bucket iteration.
        for position, partial in enumerate(partials):
            if partial is None:
                raise RuntimeError(f"planned GeMM left tile {position} unexecuted")
            row_start = (position // col_tiles) * tile_m
            output[row_start : row_start + partial.shape[0]] += partial

    # ------------------------------------------------------------------
    def verify_trace(
        self,
        trace: ModelTrace | list[GeMMWorkload],
        max_tiles: int | None = None,
        seed: int = 0,
    ) -> bool:
        """Check this backend's records against the reference oracle.

        Both sides draw their tile samples from identically seeded RNGs,
        so sampled runs compare the very same tiles.
        """
        oracle = ProsperityEngine(
            backend=ReferenceBackend(),
            tile_m=self.tile_m,
            tile_k=self.tile_k,
            cache_size=0,
            plan="matrix",
        )
        workloads = trace.workloads if isinstance(trace, ModelTrace) else trace
        for workload in workloads:
            mine = self.transform_matrix(
                workload.spikes,
                max_tiles=max_tiles,
                rng=np.random.default_rng(seed),
            )
            theirs = oracle.transform_matrix(
                workload.spikes,
                max_tiles=max_tiles,
                rng=np.random.default_rng(seed),
            )
            if not np.array_equal(mine.tile_records, theirs.tile_records):
                return False
        return True
