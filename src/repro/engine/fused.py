"""The fused ProSparsity backend: tile-batched kernels, no per-tile dispatch.

All same-shape tiles of a trace (the planner's shape buckets, see
:mod:`repro.engine.planner`) are stacked into ``(T, m, W)`` packed-code
tensors and the whole transform — prefix selection, exact-match
resolution, residual popcounts, tile records — runs as a handful of
batched broadcasts over the stack. Spike rows are packed with
``np.packbits`` into fixed-width machine-word *codes*, so the all-pairs
subset test (the TCAM model) is a broadcast AND/compare over words.

Two kernel-level ideas carry the speed:

* **Sorted-key triangle scan.** Rows and candidate columns are both
  sorted by the Pruner's descending ``(popcount, index)`` key, packed
  into one int64 word per row. A candidate is legal exactly when its key
  is *strictly smaller* than the query row's key (this single comparison
  subsumes the pop>0, self-exclusion, and exact-match tie-break rules),
  so in sorted order the legal region is the strict upper triangle.
  Scanning candidate columns in ascending blocks lets rows resolve at
  their first hit and skips the lower-triangle half of the subset tests
  entirely.
* **Content dedup.** Tiles are deduplicated by raw packed bytes
  (``np.unique`` over void views — no Python hashing) before any kernel
  runs; each distinct tile content is computed once and results are
  scattered back. The dedup composes with the engine's
  :class:`~repro.engine.pipeline.ForestCache`: one digest per *unique*
  tile serves both the lookup and the fill.

Padding is hoisted: a matrix's packed rows are padded to the machine-word
byte width once per column block (``padded_codes``) instead of once per
tile — non-power-of-two byte widths (3, 5, 6, 7 bytes) hit this path.

The per-tile entry points (``forest``, ``tile_record``, ``execute``) run
the same kernels on a one-tile stack. Kernel wall-clock accumulates in
``FusedBackend.profile`` under ``select`` / ``record`` and surfaces in
:class:`~repro.engine.pipeline.EngineReport`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.forest import NO_PREFIX, ProSparsityForest
from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.core.spike_matrix import SpikeMatrix, SpikeTile
from repro.engine import faults
from repro.engine.backends import Backend, register_backend
from repro.utils.bitops import popcount_rows

__all__ = [
    "FusedBackend",
    "KERNEL_STAGES",
    "build_tile_parts",
    "cached_unique_records",
    "chain_depths",
    "code_width",
    "dedup_tiles",
    "max_chain_depth_batch",
    "padded_codes",
    "records_from_codes_batch",
    "select_prefixes_batch",
]

#: Profile stages the backend's kernels book themselves.
KERNEL_STAGES = ("select", "record")

# Smallest unsigned dtype able to hold a packed row of the given byte width.
_CODE_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: Element budget for one (chunk, m, m) candidate block (bounds peak memory).
_CHUNK_ELEMENT_BUDGET = 1 << 22

#: Candidate columns scanned per block of the triangle scan.
_COL_BLOCK = 64

_INT32_MAX = np.iinfo(np.int32).max


def code_width(nbytes: int) -> int:
    """Byte width of the machine-word code holding ``nbytes`` packed bytes.

    Up to 8 bytes snaps to the next power of two (one machine word);
    wider rows use whole ``uint64`` words.
    """
    width = 1
    while width < nbytes:
        width *= 2
    if width > 8:
        width = -(-nbytes // 8) * 8
    return width


def padded_codes(packed: np.ndarray) -> np.ndarray:
    """View packed ``uint8`` rows as ``(rows, W)`` machine-word codes.

    Pads a ``(rows, nbytes)`` packed matrix to its machine-word byte
    width *once*; every tile's codes are then plain row slices of the
    result. Rows of up to 64 bits collapse to a single word (``W == 1``)
    so the subset test is one broadcast op; wider rows use multiple
    ``uint64`` words. The code value is an opaque bijection of the bit
    pattern — only bitwise algebra and equality are ever applied to it.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    rows, nbytes = packed.shape
    width = code_width(nbytes)
    if width != nbytes:
        padded = np.zeros((rows, width), dtype=np.uint8)
        padded[:, :nbytes] = packed
        packed = padded
    return packed.view(_CODE_DTYPES.get(width, np.uint64))


def select_prefixes_batch(codes: np.ndarray, popcounts: np.ndarray) -> np.ndarray:
    """Batched Pruner: ``(T, m, W)`` codes -> ``(T, m)`` prefix rows.

    Row-for-row identical to :func:`repro.core.forest.select_prefixes`
    applied per tile. Both rows and candidate columns are sorted by the
    descending ``(popcount, index)`` key packed into one int64, making
    the legal region a strict upper triangle that is scanned in
    ascending column blocks with first-hit resolution.
    """
    T, m, W = codes.shape
    prefix = np.full((T, m), NO_PREFIX, dtype=np.int64)
    if T == 0 or m == 0:
        return prefix
    # int64 key: popcount can reach tile_k and the index can reach
    # tile_m, either of which may exceed 16 bits for exotic tilings.
    key = (popcounts.astype(np.int64) << 32) | np.arange(m, dtype=np.int64)
    order = np.argsort(key, axis=1)[:, ::-1]  # keys are unique: exact order
    spops = np.take_along_axis(popcounts, order, axis=1)
    # Zero-popcount columns sort last and can never be prefixes. ncol is
    # a chunk-wide max, so a tile with fewer nonzero columns still scans
    # some of its zero columns: a row whose first subset hit lands on
    # one is exhausted (every later column is zero too) and resolves to
    # NO_PREFIX — that is the `live` filter below.
    ncol = int((spops > 0).sum(axis=1).max(initial=0))
    prefix_sorted = np.full((T, m), NO_PREFIX, dtype=np.int64)
    if ncol:
        if W == 1:
            sflat = np.take_along_axis(codes[:, :, 0], order, axis=1)
            snot = ~sflat
        else:
            scodes = np.take_along_axis(codes, order[:, :, None], axis=1)
            snot = ~scodes
        resolved = np.zeros((T, m), dtype=bool)
        for jb in range(0, ncol, _COL_BLOCK):
            je = min(jb + _COL_BLOCK, ncol)
            # Columns [jb, je) are candidates only for rows [0, je).
            if W == 1:
                cand = (sflat[:, None, jb:je] & snot[:, :je, None]) == 0
            else:
                cand = (
                    (scodes[:, None, jb:je, :] & snot[:, :je, None, :]) == 0
                ).all(axis=3)
            # Strict triangle on the diagonal sub-block: a column is
            # legal for a row only when its key is strictly smaller,
            # i.e. it sits strictly later in sorted order.
            cand[:, jb:je, :] &= np.triu(np.ones((je - jb, je - jb), bool), 1)
            hit = cand.argmax(axis=2)
            hashit = np.take_along_axis(cand, hit[:, :, None], axis=2)[:, :, 0]
            newly = hashit & ~resolved[:, :je]
            if newly.any():
                q = hit + jb
                live = np.take_along_axis(spops, q, axis=1) > 0
                good = newly & live
                src = np.take_along_axis(order, q, axis=1)
                prefix_sorted[:, :je][good] = src[good]
                resolved[:, :je] |= newly
    np.put_along_axis(prefix, order, prefix_sorted, axis=1)
    return prefix


def max_chain_depth_batch(prefix: np.ndarray) -> np.ndarray:
    """Forest depth per tile for a ``(T, m)`` prefix batch.

    Pointer doubling: each round every row's pointer jumps to its
    ancestor's pointer while chain lengths add, so a batch with maximum
    chain length ``d`` converges in ``ceil(log2(d)) + 1`` rounds —
    per-level frontier walks would need ``d`` rounds.
    """
    T, m = prefix.shape
    depths = np.zeros(T, dtype=np.int64)
    if T == 0 or m == 0:
        return depths
    valid = prefix != NO_PREFIX
    self_index = np.arange(T * m).reshape(T, m)
    base = np.arange(T, dtype=np.int64)[:, None] * m
    pointer = np.where(valid, prefix + base, self_index).ravel()
    length = valid.astype(np.int64).ravel()
    rounds = 0
    max_rounds = max(1, int(m).bit_length() + 1)
    while True:
        ancestor_length = length[pointer]
        if not ancestor_length.any():
            break
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("prefix chains do not terminate; cycle present")
        length += ancestor_length
        pointer = pointer[pointer]
    return length.reshape(T, m).max(axis=1, initial=0)


def records_from_codes_batch(
    codes: np.ndarray,
    popcounts: np.ndarray,
    k: int,
    profile: dict[str, float] | None = None,
) -> np.ndarray:
    """Tile records for a ``(T, m, W)`` stack, one batched pass per field.

    Row-for-row identical to :func:`repro.core.prosparsity.forest_record`
    applied per tile (field order must mirror it). Prefix selection is
    chunked along T to bound the ``(chunk, m, m)`` candidate blocks at
    ``_CHUNK_ELEMENT_BUDGET`` elements.
    """
    T, m, W = codes.shape
    start = time.perf_counter()
    prefix = np.empty((T, m), dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENT_BUDGET // max(1, m * m))
    for s in range(0, T, chunk):
        prefix[s : s + chunk] = select_prefixes_batch(
            codes[s : s + chunk], popcounts[s : s + chunk]
        )
    mid = time.perf_counter()
    reused = prefix != NO_PREFIX
    prefix_pop = np.take_along_axis(popcounts, np.where(reused, prefix, 0), axis=1)
    residual = popcounts - np.where(reused, prefix_pop, 0)
    depths = max_chain_depth_batch(prefix)
    records = np.empty((T, len(TILE_RECORD_FIELDS)), dtype=np.int64)
    records[:, 0] = m
    records[:, 1] = k
    records[:, 2] = popcounts.sum(axis=1)
    records[:, 3] = residual.sum(axis=1)
    records[:, 4] = (residual == 0).sum(axis=1)
    records[:, 5] = (popcounts == 0).sum(axis=1)
    records[:, 6] = (reused & (residual == 0) & (popcounts > 0)).sum(axis=1)
    records[:, 7] = reused.sum(axis=1)
    records[:, 8] = depths
    if profile is not None:
        profile["select"] = profile.get("select", 0.0) + (mid - start)
        profile["record"] = profile.get("record", 0.0) + (time.perf_counter() - mid)
    return records


def build_tile_parts(
    matrix: SpikeMatrix, tile_m: int, tile_k: int
) -> dict[tuple[int, int], list[tuple]]:
    """Pack a matrix once into per-shape chunk lists (no concatenation).

    Each column block is packed and padded a single time; tile stacks
    are reshaped row slices of the block arrays (full-size row blocks)
    plus the ragged tail. Returns ``{(m, k): [(nbytes, codes, pops,
    raw, positions), ...]}`` with positions in the row-major order of
    :meth:`SpikeMatrix.tile`. Callers that assemble their own stacks
    (the trace planner's arena buckets) consume the chunks directly.
    """
    bits = matrix.bits
    rows, cols = bits.shape
    n_full, tail = divmod(rows, tile_m)
    col_starts = list(range(0, cols, tile_k))
    n_cb = len(col_starts)

    # Byte-aligned fast path: when tile_k is a byte multiple, every
    # column block (ragged tail included) is a byte slice of one
    # whole-matrix packbits — no per-block bool copy or re-pack.
    whole_packed = np.packbits(bits, axis=1) if tile_k % 8 == 0 else None

    # One (m, k) shape can span many column blocks; collect parts first.
    parts: dict[tuple[int, int], list[tuple]] = {}
    for cb, col_start in enumerate(col_starts):
        k_block = min(tile_k, cols - col_start)
        if whole_packed is not None:
            byte_start = col_start // 8
            packed = np.ascontiguousarray(
                whole_packed[:, byte_start : byte_start + -(-k_block // 8)]
            )
        else:
            block = np.ascontiguousarray(bits[:, col_start : col_start + tile_k])
            packed = np.packbits(block, axis=1)
        codes = padded_codes(packed)
        pops = popcount_rows(packed)
        nbytes = packed.shape[1]
        if n_full:
            split = n_full * tile_m
            parts.setdefault((tile_m, k_block), []).append(
                (
                    nbytes,
                    codes[:split].reshape(n_full, tile_m, -1),
                    pops[:split].reshape(n_full, tile_m),
                    packed[:split].reshape(n_full, tile_m * nbytes),
                    np.arange(n_full) * n_cb + cb,
                )
            )
        if tail:
            split = n_full * tile_m
            parts.setdefault((tail, k_block), []).append(
                (
                    nbytes,
                    codes[split:].reshape(1, tail, -1),
                    pops[split:].reshape(1, tail),
                    packed[split:].reshape(1, tail * nbytes),
                    np.array([n_full * n_cb + cb]),
                )
            )
    return parts


def cached_unique_records(
    m: int,
    k: int,
    raw: np.ndarray,
    first: np.ndarray,
    inverse: np.ndarray,
    compute,
    cache,
    add_seconds,
) -> np.ndarray:
    """Records for a deduplicated stack: cache per unique, expand back.

    The trace planner's cache-interaction protocol: look up each unique content (``first``
    indexes into ``raw``) by a key hashed once, call ``compute(rows)``
    for the misses only, fill the cache, and expand through ``inverse``
    to the full stack. ``add_seconds`` receives the cache/dedup traffic
    time so each caller can book it under its own profile stage.
    """
    start = time.perf_counter()
    n_unique = len(first)
    unique_records = np.empty((n_unique, len(TILE_RECORD_FIELDS)), dtype=np.int64)
    if cache is not None:
        keys = [cache.key(m, k, raw[i]) for i in first]
        missing_list = []
        for i, key in enumerate(keys):
            record = cache.get_record_by_key(key)
            if record is None:
                missing_list.append(i)
            else:
                unique_records[i] = record
        missing = np.array(missing_list, dtype=np.int64)
    else:
        keys = None
        missing = np.arange(n_unique)
    add_seconds(time.perf_counter() - start)
    if missing.size:
        computed = compute(first[missing])
        unique_records[missing] = computed
        if cache is not None:
            start = time.perf_counter()
            for i, row in zip(missing.tolist(), computed.tolist()):
                cache.put_record_by_key(keys[i], tuple(row))
            add_seconds(time.perf_counter() - start)
    return unique_records[inverse]


def dedup_tiles(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Content dedup over a ``(T, L)`` byte stack, no Python hashing.

    Returns ``(unique_rows, inverse)`` with ``raw[i] ==
    unique_rows[inverse[i]]``. Unique rows are byte-sorted, so the order
    is deterministic for a given content set — independent of tile
    position or batch composition.
    """
    T, L = raw.shape
    if L == 0 or T == 0:
        return np.arange(min(T, 1)), np.zeros(T, dtype=np.int64)
    void = np.ascontiguousarray(raw).view(np.dtype((np.void, L))).ravel()
    _, first, inverse = np.unique(void, return_index=True, return_inverse=True)
    return first, inverse


def chain_depths(prefix: np.ndarray) -> np.ndarray:
    """Length of each row's prefix chain (0 for roots), fully vectorized."""
    m = len(prefix)
    depth = np.zeros(m, dtype=np.int64)
    current = np.asarray(prefix, dtype=np.int64).copy()
    while True:
        live = current != NO_PREFIX
        if not live.any():
            return depth
        depth[live] += 1
        if depth.max() > m:
            raise RuntimeError("prefix chains do not terminate; cycle present")
        nxt = np.full(m, NO_PREFIX, dtype=np.int64)
        nxt[live] = prefix[current[live]]
        current = nxt


@register_backend
class FusedBackend(Backend):
    """Tile-batched backend: same-shape tiles run as one broadcast.

    The trace planner feeds whole shape buckets to
    :meth:`_compute_records`; the per-tile entry points run the same
    kernels on a one-tile stack. Kernel wall-clock per stage accumulates
    in :attr:`profile`.
    """

    name = "fused"

    def __init__(self):
        self.profile: dict[str, float] = {stage: 0.0 for stage in KERNEL_STAGES}

    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        popcounts = popcount_rows(tile.packed)
        prefix = select_prefixes_batch(
            padded_codes(tile.packed)[None], popcounts[None]
        )[0]
        pattern = tile.bits.copy()
        rows = np.flatnonzero(prefix != NO_PREFIX)
        if rows.size:
            pattern[rows] = tile.bits[rows] ^ tile.bits[prefix[rows]]
        return ProSparsityForest(
            tile=tile, prefix=prefix, pattern=pattern, popcounts=popcounts
        )

    def tile_record(self, tile: SpikeTile) -> tuple[int, ...]:
        codes = padded_codes(tile.packed)
        pops = popcount_rows(tile.packed)
        record = records_from_codes_batch(
            codes[None], pops[None], tile.k, profile=self.profile
        )[0]
        return tuple(record.tolist())

    def _compute_records(
        self, codes: np.ndarray, popcounts: np.ndarray, k: int
    ) -> np.ndarray:
        """Kernel dispatch for one deduplicated ``(T, m, W)`` stack."""
        faults.kernel_fault("fused.compute_records")
        return records_from_codes_batch(codes, popcounts, k, profile=self.profile)

    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        """Matmul residuals, then seed prefixes one forest level at a time.

        Bit-identical to the reference for integer weights (all
        arithmetic is exact int64); floating-point outputs agree up to
        summation order.
        """
        weights = np.asarray(weights)
        if weights.shape[0] != forest.k:
            raise ValueError(
                f"weight rows ({weights.shape[0]}) must match tile k ({forest.k})"
            )
        out_dtype = (
            np.int64 if np.issubdtype(weights.dtype, np.integer) else np.float64
        )
        out = forest.pattern.astype(out_dtype) @ weights.astype(out_dtype)
        depth = chain_depths(forest.prefix)
        for level in range(1, int(depth.max()) + 1 if len(depth) else 0):
            rows = np.flatnonzero(depth == level)
            out[rows] += out[forest.prefix[rows]]
        return out
