"""Trace-level execution planner: cross-workload tile batching.

The fused backend (:mod:`repro.engine.fused`) computes records for a
stack of same-shape tiles in one kernel launch; the planner decides what
goes into each stack. SNN traces are highly redundant *across*
workloads: the same spike tile recurs across timesteps and layers (the
temporal analogue of the product-sparsity reuse Prosperity exploits
spatially, as MINT-style temporal-overlap work observes). The planner
therefore batches at *trace* scope — every engine entry point
(``run``, ``transform_matrix``, ``transform_trace``, ``execute_gemm``)
goes through it:

* **Shape-bucketed packing.** Every tile of every workload is packed
  once and merged into one bucket per ``(m, k)`` tile shape, spanning
  all workloads and timesteps. One fused kernel launch per bucket
  replaces one launch per (workload, shape) pair, so small workloads
  ride in the big workloads' batches instead of running underfilled.
* **Global content dedup.** Each bucket is content-deduplicated as a
  whole (:func:`~repro.engine.fused.dedup_tiles` over raw packed
  bytes), so a tile repeated across timesteps or layers is computed
  once per *trace*, not once per matrix. The dedup composes with the
  engine's :class:`~repro.engine.pipeline.ForestCache`: one digest per
  unique content.
* **Persistent-store layering.** Bucket execution funnels through
  :func:`~repro.engine.fused.cached_unique_records`, which consults the
  cache tiers in order — in-memory
  :class:`~repro.engine.pipeline.ForestCache` first, then the durable
  :class:`~repro.engine.store.ResultStore` when the engine has one —
  before computing the remaining unique contents through the backend
  kernel and publishing the new records back down both tiers. The
  planner itself never talks to the store; the content digest it
  deduped on is exactly the store's addressing key, so cross-*process*
  reuse composes with cross-workload dedup for free.

Records are scattered back to per-workload row-major tile order and are
bit-identical to the per-tile :mod:`repro.core` transform: the batched
kernels compute each tile's record independently of its stack
neighbours, so bucket composition cannot change results.

Per-stage wall-clock accumulates under :data:`PROFILE_STAGES`: ``pack``
(per-workload bit packing), ``plan`` (bucket merge),
``dedup`` (global content dedup + cache traffic), ``select`` / ``record``
(the backend kernel: prefix selection, then residual popcounts, depths
and record assembly), and ``scatter`` (writing records back in workload
order).
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.core.spike_matrix import SpikeMatrix, SpikeTile
from repro.engine.fused import (
    build_tile_parts,
    cached_unique_records,
    dedup_tiles,
    padded_codes,
)
from repro.utils.bitops import popcount_rows

__all__ = [
    "PROFILE_STAGES",
    "PackedMatrix",
    "PlanBucket",
    "TracePlan",
    "TracePlanner",
]

#: The profile stage keys of every engine report (batch runs, scheduler
#: batches and stream windows alike), in pipeline order.
PROFILE_STAGES = ("pack", "plan", "dedup", "select", "record", "scatter")

_NFIELDS = len(TILE_RECORD_FIELDS)


def _add_stage(profile: dict[str, float] | None, stage: str, seconds: float) -> None:
    if profile is not None:
        profile[stage] = profile.get(stage, 0.0) + seconds


class PackedMatrix:
    """One workload matrix cut into per-shape tile stacks, ready to plan.

    Built by :meth:`TracePlanner.pack`; :meth:`TracePlanner.plan` takes
    it in place of the matrix and skips packing. ``parts`` is the
    :func:`~repro.engine.fused.build_tile_parts` result and ``tiles`` the
    matrix's tile count.
    """

    __slots__ = ("tiles", "parts")

    def __init__(self, tiles: int, parts: dict[tuple[int, int], list[tuple]]):
        self.tiles = tiles
        self.parts = parts


class PlanBucket:
    """All tiles of one ``(m, k)`` shape across *every* planned workload."""

    __slots__ = (
        "m",
        "k",
        "nbytes",
        "codes",
        "popcounts",
        "raw",
        "owner",
        "position",
        "first",
        "inverse",
    )

    def __init__(self, m, k, nbytes, codes, popcounts, raw, owner, position):
        self.m = m                  # rows per tile
        self.k = k                  # columns per tile
        self.nbytes = nbytes        # packed bytes per tile row
        self.codes = codes          # (T, m, W) machine-word codes
        self.popcounts = popcounts  # (T, m) int64
        self.raw = raw              # (T, m * nbytes) packed bytes (dedup key)
        self.owner = owner          # (T,) workload index per tile
        self.position = position    # (T,) row-major tile index in its workload
        self.first: np.ndarray | None = None    # dedup: unique stack indices
        self.inverse: np.ndarray | None = None  # dedup: stack -> unique map

    @property
    def tiles(self) -> int:
        return len(self.owner)

    @property
    def unique_tiles(self) -> int:
        return len(self.first) if self.first is not None else self.tiles


class TracePlan:
    """Shape buckets plus scatter metadata for one planned trace run."""

    __slots__ = ("buckets", "tiles_per_workload", "offsets", "unique_tiles")

    def __init__(self, buckets: list[PlanBucket], tiles_per_workload: list[int]):
        self.buckets = buckets
        self.tiles_per_workload = list(tiles_per_workload)
        self.offsets = np.concatenate(
            [[0], np.cumsum(self.tiles_per_workload, dtype=np.int64)]
        )
        self.unique_tiles = sum(bucket.unique_tiles for bucket in buckets)

    @property
    def total_tiles(self) -> int:
        return int(self.offsets[-1])

    @property
    def dedup_ratio(self) -> float:
        """Cross-workload dedup multiplier: planned tiles per unique tile."""
        return self.total_tiles / self.unique_tiles if self.unique_tiles else 0.0


class TracePlanner:
    """Builds and executes trace-scope tile plans.

    Sources may be whole :class:`SpikeMatrix` workloads or pre-sampled
    ``list[SpikeTile]`` subsets (the ``max_tiles`` path), freely mixed —
    sampled tiles land in the same shape buckets as whole-matrix tiles,
    so sampling composes with the global dedup. The planner holds no
    state between calls: every plan owns its bucket arrays, so
    concurrent plans never share a buffer.
    """

    # -- planning -------------------------------------------------------
    def plan(
        self,
        sources: list,
        tile_m: int,
        tile_k: int,
        profile: dict[str, float] | None = None,
    ) -> TracePlan:
        """Pack every source once and bucket all tiles by shape.

        ``sources`` is one entry per workload: a :class:`SpikeMatrix`
        (every tile, row-major positions), the same matrix already
        packed as a :class:`PackedMatrix`, or a list of
        :class:`SpikeTile` (sampled subset, sample-order positions).
        Workload matrices with identical content are packed once — a
        trace repeated across timesteps pays one packing pass, not one
        per repeat; the shared chunks land in the buckets once per
        owner, so scatter-back stays exact.
        """
        parts: dict[tuple[int, int], list[tuple]] = {}
        tiles_per_workload: list[int] = []
        packed_matrices: dict[tuple, PackedMatrix] = {}
        pack_seconds = 0.0
        for owner, source in enumerate(sources):
            start = time.perf_counter()
            if isinstance(source, SpikeMatrix):
                packed = np.packbits(source.bits, axis=1)
                digest = self._matrix_digest(source.bits.shape, packed)
                matrix = packed_matrices.get(digest)
                if matrix is None:
                    matrix = PackedMatrix(
                        source.num_tiles(tile_m, tile_k),
                        build_tile_parts(source, tile_m, tile_k, packed),
                    )
                    packed_matrices[digest] = matrix
                source = matrix
            if isinstance(source, PackedMatrix):
                total = source.tiles
                for (m, k), chunks in source.parts.items():
                    shape_parts = parts.setdefault((m, k), [])
                    for chunk in chunks:
                        shape_parts.append((owner, *chunk))
            else:
                total = len(source)
                self._pack_tiles(source, owner, parts)
            tiles_per_workload.append(total)
            pack_seconds += time.perf_counter() - start
        _add_stage(profile, "pack", pack_seconds)

        start = time.perf_counter()
        buckets = []
        # Sorted shape order keeps bucket iteration deterministic for a
        # given trace shape set.
        for m, k in sorted(parts):
            chunks = parts[(m, k)]
            nbytes = chunks[0][1]
            total = sum(chunk[2].shape[0] for chunk in chunks)
            width = chunks[0][2].shape[2]
            codes = np.empty((total, m, width), dtype=chunks[0][2].dtype)
            popcounts = np.empty((total, m), dtype=np.int64)
            raw = np.empty((total, m * nbytes), dtype=np.uint8)
            owner = np.empty(total, dtype=np.int64)
            position = np.empty(total, dtype=np.int64)
            offset = 0
            for own, _, chunk_codes, chunk_pops, chunk_raw, chunk_pos in chunks:
                n = chunk_codes.shape[0]
                codes[offset : offset + n] = chunk_codes
                popcounts[offset : offset + n] = chunk_pops
                raw[offset : offset + n] = chunk_raw
                owner[offset : offset + n] = own
                position[offset : offset + n] = chunk_pos
                offset += n
            buckets.append(
                PlanBucket(m, k, nbytes, codes, popcounts, raw, owner, position)
            )
        _add_stage(profile, "plan", time.perf_counter() - start)

        start = time.perf_counter()
        for bucket in buckets:
            bucket.first, bucket.inverse = dedup_tiles(bucket.raw)
        _add_stage(profile, "dedup", time.perf_counter() - start)

        plan = TracePlan(buckets, tiles_per_workload)
        if plan.total_tiles != sum(bucket.tiles for bucket in buckets):
            raise RuntimeError(
                f"plan bucket mismatch: {sum(b.tiles for b in buckets)} tiles "
                f"bucketed, {plan.total_tiles} expected"
            )
        return plan

    @staticmethod
    def pack(matrix: SpikeMatrix, tile_m: int, tile_k: int) -> PackedMatrix:
        """Pack one matrix for a later :meth:`plan`.

        Touches no planner state, so it may run on any thread while
        another thread plans and executes: streams pack each window's
        bands on their producer thread, overlapping the previous
        window's kernels.
        """
        return PackedMatrix(
            matrix.num_tiles(tile_m, tile_k),
            build_tile_parts(
                matrix, tile_m, tile_k, np.packbits(matrix.bits, axis=1)
            ),
        )

    @staticmethod
    def _matrix_digest(shape: tuple[int, int], packed: np.ndarray) -> tuple:
        """Whole-matrix content key for the pack-once fast path.

        Hashes the whole-row packed bytes (an eighth of the ``bool``
        array); with the shape they determine the bits exactly.
        """
        return (shape, hashlib.blake2b(packed, digest_size=16).digest())

    @staticmethod
    def _pack_tiles(
        tiles: list[SpikeTile], owner: int, parts: dict[tuple[int, int], list[tuple]]
    ) -> None:
        """Stack pre-sampled tiles into the same chunk format as matrices."""
        by_shape: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
        for position, tile in enumerate(tiles):
            by_shape.setdefault((tile.m, tile.k), []).append((position, tile.packed))
        for (m, k), items in by_shape.items():
            nbytes = items[0][1].shape[1]
            raw = np.stack([packed.reshape(m * nbytes) for _, packed in items])
            rows = raw.reshape(len(items) * m, nbytes)
            codes = padded_codes(rows).reshape(len(items), m, -1)
            popcounts = popcount_rows(rows).reshape(len(items), m)
            positions = np.array([position for position, _ in items], dtype=np.int64)
            parts.setdefault((m, k), []).append(
                (owner, nbytes, codes, popcounts, raw, positions)
            )

    # -- execution ------------------------------------------------------
    def execute(
        self,
        plan: TracePlan,
        backend,
        cache=None,
        profile: dict[str, float] | None = None,
        on_workload=None,
    ) -> list[np.ndarray]:
        """Run one kernel per bucket and scatter records per workload.

        Returns one ``(tiles, len(TILE_RECORD_FIELDS))`` array per
        planned workload, in the workload's own tile order —
        bit-identical to the per-tile core transform. The returned
        arrays are views of one freshly allocated records array, so they
        stay valid across later plans.

        ``on_workload``, when given, is called as ``on_workload(index,
        records)`` the moment a workload's final tile is scattered —
        workloads complete as their buckets finish, not at the end of
        the whole plan, which is the streaming seam the serving API
        builds result chunks on. The callback runs on the executing
        thread; exceptions it raises abort the run.
        """
        records = np.empty((plan.total_tiles, _NFIELDS), dtype=np.int64)
        per_workload = [
            records[start:end]
            for start, end in zip(plan.offsets[:-1], plan.offsets[1:])
        ]
        remaining = np.asarray(plan.tiles_per_workload, dtype=np.int64).copy()
        if on_workload is not None:
            # Zero-tile workloads have nothing pending: complete them
            # up front so streams never wait on an empty workload.
            for index in np.flatnonzero(remaining == 0):
                on_workload(int(index), per_workload[index])
        assigned = 0
        for bucket in plan.buckets:
            bucket_records = self._bucket_records(bucket, backend, cache, profile)
            start = time.perf_counter()
            records[plan.offsets[bucket.owner] + bucket.position] = bucket_records
            assigned += len(bucket_records)
            _add_stage(profile, "scatter", time.perf_counter() - start)
            if on_workload is not None:
                counts = np.bincount(bucket.owner, minlength=len(remaining))
                remaining -= counts
                for index in np.flatnonzero((remaining == 0) & (counts > 0)):
                    on_workload(int(index), per_workload[index])
        if assigned != plan.total_tiles:
            raise RuntimeError(
                f"plan scatter mismatch: {assigned} records assigned, "
                f"{plan.total_tiles} planned"
            )
        return per_workload

    def _bucket_records(
        self,
        bucket: PlanBucket,
        backend,
        cache,
        profile: dict[str, float] | None,
    ) -> np.ndarray:
        """Records for one bucket's full stack: cache, one kernel, expand.

        The kernel runs once over the cache-missing unique stack,
        through the backend's batched ``_compute_records`` when it has
        one (``fused``); the per-tile ``reference`` oracle falls back to
        reconstructed tiles. Cache traffic books under ``dedup``.
        """
        kernel = getattr(backend, "_compute_records", None)
        if kernel is not None:
            # The fused backend books select/record into ``profile``.
            def compute(rows: np.ndarray) -> np.ndarray:
                return kernel(
                    bucket.codes[rows], bucket.popcounts[rows], bucket.k, profile
                )
        else:
            def compute(rows: np.ndarray) -> np.ndarray:
                start = time.perf_counter()
                computed = np.array(
                    [
                        backend.tile_record(tile)
                        for tile in self._tiles_from_raw(bucket, rows)
                    ],
                    dtype=np.int64,
                ).reshape(len(rows), _NFIELDS)
                _add_stage(profile, "record", time.perf_counter() - start)
                return computed

        return cached_unique_records(
            bucket.m,
            bucket.k,
            bucket.raw,
            bucket.first,
            bucket.inverse,
            compute,
            cache,
            lambda seconds: _add_stage(profile, "dedup", seconds),
        )

    @staticmethod
    def _tiles_from_raw(bucket: PlanBucket, rows: np.ndarray):
        """Rebuild :class:`SpikeTile` objects for per-tile entry points.

        The reference backend and planned GeMM execution need real
        tiles; the fused kernels consume the packed stacks directly.
        """
        for i in rows:
            packed = bucket.raw[i].reshape(bucket.m, bucket.nbytes)
            bits = np.unpackbits(packed, axis=1)[:, : bucket.k].astype(bool)
            yield SpikeTile(bits)
