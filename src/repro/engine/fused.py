"""The fused ProSparsity backend: tile-batched kernels, no per-tile dispatch.

All same-shape tiles of a trace (the planner's shape buckets, see
:mod:`repro.engine.planner`) are stacked into ``(T, m, W)`` packed-code
tensors and the whole transform — prefix selection, exact-match
resolution, residual popcounts, tile records — runs as a handful of
batched broadcasts over the stack. Spike rows are packed with
``np.packbits`` into fixed-width machine-word *codes*, so the all-pairs
subset test (the TCAM model) is a broadcast AND/compare over words.

Five kernel-level ideas carry the speed:

* **Pattern-level Pruner.** Most rows of a spike tile are all-zero or
  exact repeats of another row. Each tile's rows are sorted by code, a
  repeated row takes its previous occurrence as prefix (the EM rule),
  and only the tile's *distinct* nonzero patterns enter the subset
  search, each keyed by ``(popcount, largest row index)``.
* **Sorted-key triangle scan.** Patterns are sorted by that descending
  key; a proper subset always has a strictly smaller key, so the legal
  region is the strict upper triangle. Scanning candidate columns in
  ascending blocks lets patterns resolve at their first hit and skips
  the lower-triangle half of the subset tests entirely. Tiles run in
  chunks ordered by pattern count, each padded only to its own largest
  count, so one pattern-rich tile does not inflate its neighbours.
* **Depths from patterns.** A pattern's first row hangs off its
  winner's last row and the rest of its run off each other (EM), so
  ``forest_depth`` chains over the patterns (about 30% of a paper
  trace's rows): a pattern's depth is its winner's depth plus the
  winner's run length, and a tile's depth is its largest pattern depth
  plus run length minus one.
* **Content dedup.** Tiles are deduplicated by raw packed bytes
  (``np.unique`` over void views — no Python hashing) before any kernel
  runs; each distinct tile content is computed once and results are
  scattered back. The dedup composes with the engine's
  :class:`~repro.engine.pipeline.ForestCache`: one digest per *unique*
  tile serves both the lookup and the fill, and each bucket makes one
  ``get_many`` and one ``put_many`` call.
* **Split across the CPUs.** Tiles are independent, so a unique stack
  of at least ``_SPLIT_MIN_ROWS`` rows is cut into one interleaved part
  per CPU the process may run on; the calling thread runs one part and
  plain threads the others (NumPy's sorts, gathers and broadcasts
  release the GIL), and records scatter back by position. Smaller
  stacks stay on one thread: there, thread start-up and GIL hand-offs
  cost more than the second CPU saves.

Packing is per matrix, not per block: one ``np.packbits`` per column
shape (one whole-row pack when ``tile_k`` is byte-aligned), padded to the
machine-word byte width once — non-power-of-two byte widths (3, 5, 6, 7
bytes) hit this path — then reshaped into tile stacks.

The per-tile entry points (``forest``, ``tile_record``, ``execute``) run
the same kernels on a one-tile stack. Kernel wall-clock books under
``select`` / ``record`` in the profile the planner passes to
:meth:`FusedBackend._compute_records`, and surfaces in
:class:`~repro.engine.pipeline.EngineReport`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import NamedTuple

import numpy as np

from repro.core.forest import NO_PREFIX, ProSparsityForest
from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.core.spike_matrix import SpikeMatrix, SpikeTile
from repro.engine import faults
from repro.engine.backends import Backend, register_backend
from repro.utils.bitops import popcount_rows

__all__ = [
    "FusedBackend",
    "build_tile_parts",
    "cached_unique_records",
    "chain_depths",
    "code_width",
    "dedup_tiles",
    "padded_codes",
    "records_from_codes_batch",
    "select_prefixes_batch",
]

# Smallest unsigned dtype able to hold a packed row of the given byte width.
_CODE_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: CPUs this process may run on; a large unique stack splits into one
#: part per CPU (:meth:`FusedBackend._compute_records`).
_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

#: Rows below which a stack stays on one thread: under it, starting a
#: thread costs more than the second CPU saves.
_SPLIT_MIN_ROWS = 1 << 17

#: Element budget for one (chunk, U, U) pattern candidate block (bounds peak memory).
_CHUNK_ELEMENT_BUDGET = 1 << 22

#: Candidate columns scanned per block of the triangle scan.
_COL_BLOCK = 64

#: Largest over smallest pattern count within one chunk (counts below
#: half a column block count as half a block), which bounds padding.
_CHUNK_GROWTH = 1.5

#: Strict upper triangle of one diagonal column block: inside it, only
#: later patterns are candidates.
_BLOCK_TRIU = np.triu(np.ones((_COL_BLOCK, _COL_BLOCK), dtype=bool), 1)


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
    applied per tile. The core Pruner gives row ``i`` the legal
    candidate ``j`` with the largest ``(popcount, index)`` key, where
    ``j`` is legal when ``S_j`` is a nonzero subset of ``S_i``, ``j !=
    i``, and ``j < i`` if ``S_j == S_i`` (EM). The kernel computes that
    answer over each tile's *distinct* patterns instead of its rows:

    1. Sort each tile's rows by ``(code, row index)`` (a stable argsort
       for one-word codes, a lexsort over the words otherwise), so equal
       patterns form runs in ascending row order.
    2. A repeated row's prefix is the previous row of its run. Every
       proper subset of ``S_i`` has a smaller popcount, so an EM
       candidate beats all of them, and among EM candidates (only
       smaller indices are legal) the largest index is the previous
       occurrence.
    3. Zero rows keep ``NO_PREFIX``: nothing nonzero is their subset.
    4. The first row of a run has no EM candidate, so its prefix is the
       best *proper*-subset pattern. All rows of a pattern share its
       popcount, so that pattern's best row is its largest row index,
       and the pattern's key is ``(popcount, largest row index)``. The
       sorted-key triangle scan runs over these patterns: sorted by
       descending key, a proper subset always sits strictly later (its
       popcount is smaller), so the first subset hit in ascending
       column blocks is the winner.
    5. The first row of the run takes the winning pattern's largest row
       index.

    Tiles are processed in chunks ordered by their pattern count ``u``,
    each padded only to its own largest ``u`` and bounded so that
    ``chunk * U * max(U, _COL_BLOCK)`` stays within
    ``_CHUNK_ELEMENT_BUDGET`` and its largest ``u`` is at most
    ``_CHUNK_GROWTH`` times its smallest, so padding stays a bounded
    share of the scan; results are scattered back by position, so the
    stack order never changes a tile's prefixes.
    """
    T, m, _ = codes.shape
    prefix = np.full(T * m, NO_PREFIX, dtype=np.int64)
    patterns, winner = _prune(codes, popcounts, prefix)
    if patterns is not None:
        # 5. The first row of each pattern takes its winner's last row.
        won = np.flatnonzero(winner != NO_PREFIX)
        prefix[patterns.first[won]] = patterns.last_row[winner[won]]
    return prefix.reshape(T, m)


class _Patterns(NamedTuple):
    """A stack's distinct nonzero patterns, as :func:`_distinct_patterns`
    orders them: grouped by tile in ascending pattern count, by
    descending ``(popcount, last_row)`` key within a tile."""

    first: np.ndarray  # flat stack position of each pattern's first row
    last_row: np.ndarray  # its largest row index
    codes: np.ndarray  # its code
    run: np.ndarray  # its row count (the length of its EM run)
    pop: np.ndarray  # its popcount (int64)
    counts: np.ndarray  # patterns per tile, ascending
    tiles: np.ndarray  # the tile each count belongs to


def _prune(
    codes: np.ndarray, popcounts: np.ndarray, prefix: np.ndarray | None = None
) -> tuple[_Patterns | None, np.ndarray | None]:
    """Steps 1-4 of :func:`select_prefixes_batch`: each tile's distinct
    patterns and the winner of each.

    Returns ``(patterns, winner)``: ``winner[p]`` is the index into
    ``patterns`` of pattern ``p``'s winning proper subset, or
    ``NO_PREFIX``. An empty stack has no patterns (``None``). A flat
    ``prefix`` array, when given, receives the repeated rows' prefixes.
    """
    T, m, W = codes.shape
    if T == 0 or m == 0:
        return None, None
    patterns = _distinct_patterns(codes, popcounts, prefix)
    counts = patterns.counts
    starts = np.concatenate([[0], np.cumsum(counts)])
    winner = np.full(len(patterns.first), NO_PREFIX, dtype=np.int64)
    # A tile with fewer than two patterns has no proper-subset prefix.
    s = int(np.searchsorted(counts, 2))
    while s < T:
        rest = counts[s:]
        cost = np.arange(1, T - s + 1) * rest * np.maximum(rest, _COL_BLOCK)
        cap = _CHUNK_GROWTH * max(int(rest[0]), _COL_BLOCK // 2)
        e = s + max(1, min(
            int(np.searchsorted(cost, _CHUNK_ELEMENT_BUDGET, "right")),
            int(np.searchsorted(rest, cap, "right")),
        ))
        u = counts[s:e]
        lo, hi = starts[s], starts[e]
        local = np.repeat(np.arange(e - s), u)
        slot = np.arange(lo, hi) - np.repeat(starts[s:e], u)
        stack = np.zeros((e - s, int(u[-1]), W), dtype=codes.dtype)
        stack[local, slot] = patterns.codes[lo:hi]
        best = _triangle_scan(stack, u)[local, slot]
        won = np.flatnonzero(best >= 0)
        winner[lo + won] = starts[s:e][local[won]] + best[won]
        s = e
    return patterns, winner


def _distinct_patterns(
    codes: np.ndarray, popcounts: np.ndarray, prefix: np.ndarray | None
) -> _Patterns:
    """Each tile's distinct nonzero patterns in a ``(T, m, W)`` stack.

    Writes the prefixes of repeated rows into the flat ``prefix``, when
    given (records need only the patterns). Row-sized temporaries are
    few and narrow (they scale with the whole stack) and are released
    on return.
    """
    T, m, W = codes.shape
    # 1. Sorted row order per tile, as flat positions into the stack
    # (``% m`` recovers the tile-local row).
    if W == 1:
        flat = np.argsort(codes[:, :, 0], axis=1, kind="stable")
    else:
        flat = np.lexsort(codes.transpose(2, 0, 1), axis=1)
    flat += np.arange(0, T * m, m)[:, None]
    flat = flat.ravel()
    scodes = codes.reshape(T * m, W)[flat]
    live = (scodes != 0).any(axis=1)
    repeat = np.zeros(T * m, dtype=bool)
    repeat[1:] = (scodes[1:] == scodes[:-1]).all(axis=1)
    repeat[::m] = False  # runs never cross tiles
    # 2-3. Repeated nonzero rows reuse their previous occurrence.
    if prefix is not None:
        dup = np.flatnonzero(repeat & live)
        prefix[flat[dup]] = flat[dup - 1] % m
    # 4. One entry per distinct nonzero pattern: its first and last row
    # (``live`` is constant along a run, so heads and tails pair up).
    run_end = np.ones(T * m, dtype=bool)
    run_end[:-1] = ~repeat[1:]
    head = np.flatnonzero(live & ~repeat)
    tail = np.flatnonzero(live & run_end)
    last_row = flat[tail] % m
    tile = head // m
    pops = popcounts[tile, flat[head] - tile * m].astype(np.int64, copy=False)
    # Order: tiles by pattern count, then descending key, as one int64
    # sort key whose fields fit easily for any stack held in memory.
    counts = np.bincount(tile, minlength=T)
    tile_order = np.argsort(counts, kind="stable")
    rank = np.empty(T, dtype=np.int64)
    rank[tile_order] = np.arange(T)
    row_bits = int(m - 1).bit_length()
    pop_max = int(pops.max(initial=0))
    descending = ((pop_max - pops) << row_bits) | (m - 1 - last_row)
    by_rank = np.argsort(
        (rank[tile] << (row_bits + pop_max.bit_length())) | descending
    )
    head = head[by_rank]
    return _Patterns(
        first=flat[head],
        last_row=last_row[by_rank],
        codes=scodes[head],
        run=tail[by_rank] - head + 1,
        pop=pops[by_rank],
        counts=counts[tile_order],
        tiles=tile_order,
    )


def _triangle_scan(stack: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """First subset hit per pattern of a key-sorted ``(c, U, W)`` stack.

    Patterns are sorted by descending key and only later patterns are
    legal candidates, so the legal region is the strict upper triangle;
    candidate columns are scanned in ascending blocks with first-hit
    resolution. Slots at or past a tile's ``counts`` are zero padding:
    a row whose first hit lands there has no prefix (every later slot is
    padding too). Returns the winning slot, or ``-1``.
    """
    c, U, W = stack.shape
    winner = np.full((c, U), -1, dtype=np.int64)
    resolved = np.zeros((c, U), dtype=bool)
    if W == 1:
        flat = stack[:, :, 0]
        inverted = ~flat
    else:
        inverted = ~stack
    for jb in range(0, U, _COL_BLOCK):
        je = min(jb + _COL_BLOCK, U)
        # Columns [jb, je) are candidates only for rows [0, je).
        if W == 1:
            cand = (flat[:, None, jb:je] & inverted[:, :je, None]) == 0
        else:
            cand = (
                (stack[:, None, jb:je, :] & inverted[:, :je, None, :]) == 0
            ).all(axis=3)
        cand[:, jb:je, :] &= _BLOCK_TRIU[: je - jb, : je - jb]
        hit = cand.argmax(axis=2)
        hashit = np.take_along_axis(cand, hit[:, :, None], axis=2)[:, :, 0]
        newly = hashit & ~resolved[:, :je]
        if newly.any():
            q = hit + jb
            good = newly & (q < counts[:, None])
            winner[:, :je][good] = q[good]
            resolved[:, :je] |= newly
    return winner


def records_from_codes_batch(
    codes: np.ndarray,
    popcounts: np.ndarray,
    k: int,
    profile: dict[str, float] | None = None,
) -> np.ndarray:
    """Tile records for a ``(T, m, W)`` stack, from its distinct patterns.

    Identical to :func:`repro.core.prosparsity.forest_record` applied per
    tile (field order must mirror it), but every field is summed over the
    patterns :func:`_prune` found, about 30% as many entries as rows on a
    paper trace. Zero rows are roots with nothing to accumulate. The
    rest of a pattern's run are EM rows: reused, with no residual. Its
    first row keeps what its winner lacks, and hangs off the winner's
    last row, so a pattern with no winner has depth 0, any other its
    winner's depth plus the winner's run length; a row's depth is its
    pattern's plus its position in the run, and the tile's depth is the
    largest pattern depth + run length - 1 (one :func:`chain_depths` walk
    over the patterns).
    """
    T, m, W = codes.shape
    start = time.perf_counter()
    patterns, winner = _prune(codes, popcounts)
    mid = time.perf_counter()
    records = np.zeros((T, len(TILE_RECORD_FIELDS)), dtype=np.int64)
    records[:, 0] = m
    records[:, 1] = k
    records[:, 4] = m  # zero_residual_rows: all but each pattern's first row
    records[:, 5] = m  # zero_bit_rows: all but each pattern's run
    if patterns is not None and len(winner):
        counts = patterns.counts
        s = int(np.searchsorted(counts, 1))  # tiles with a pattern
        tiles = patterns.tiles[s:]
        starts = (np.cumsum(counts) - counts)[s:]
        run, pop = patterns.run, patterns.pop
        won = winner != NO_PREFIX
        residual = pop - np.where(won, pop[winner], 0)
        depth = chain_depths(winner, run[winner]) + run - 1
        records[tiles, 2] = np.add.reduceat(pop * run, starts)
        records[tiles, 3] = np.add.reduceat(residual, starts)
        records[tiles, 4] -= counts[s:]
        records[tiles, 5] -= np.add.reduceat(run, starts)
        records[tiles, 6] = np.add.reduceat(run - 1, starts)
        records[tiles, 7] = records[tiles, 6] + np.add.reduceat(won, starts, dtype=np.int64)
        records[tiles, 8] = np.maximum.reduceat(depth, starts)
    if profile is not None:
        profile["select"] = profile.get("select", 0.0) + (mid - start)
        profile["record"] = profile.get("record", 0.0) + (time.perf_counter() - mid)
    return records


def _tile_stack(blocks: np.ndarray, row0: int, m: int, nrb: int, ncb: int):
    """``(rows * ncb, ...)`` block rows -> ``(nrb * ncb, m, ...)`` tiles.

    Row ``r`` of column block ``c`` sits at ``r * ncb + c``; the result
    holds ``nrb`` row blocks of ``m`` rows from ``row0``, row-major.
    """
    lo = row0 * ncb
    stacked = blocks[lo : lo + nrb * m * ncb].reshape(nrb, m, ncb, -1)
    return stacked.swapaxes(1, 2).reshape(nrb * ncb, m, -1)


def build_tile_parts(
    matrix: SpikeMatrix,
    tile_m: int,
    tile_k: int,
    packed: np.ndarray,
) -> dict[tuple[int, int], list[tuple]]:
    """Pack a matrix into per-shape tile stacks with whole-array reshapes.

    A matrix has at most four tile shapes: full or ragged rows times
    full or ragged columns. Each column shape is packed once for all
    its blocks, then reshaped into ``(row blocks * col blocks, m, ...)``
    codes, popcounts and raw bytes. Returns ``{(m, k): [(nbytes, codes,
    pops, raw, positions), ...]}`` with positions in the row-major order
    of :meth:`SpikeMatrix.tile`. ``packed`` is the matrix's whole-row
    ``np.packbits``; byte-aligned column blocks are byte slices of it.
    """
    bits = matrix.bits
    rows, cols = bits.shape
    n_full, tail = divmod(rows, tile_m)
    full_cb, k_tail = divmod(cols, tile_k)
    n_cb = full_cb + (k_tail > 0)
    parts: dict[tuple[int, int], list[tuple]] = {}
    for k, cb0, ncb in ((tile_k, 0, full_cb), (k_tail, full_cb, 1)):
        if not (k and ncb):
            continue
        nbytes = -(-k // 8)
        if tile_k % 8 == 0:
            start = cb0 * tile_k // 8
            blocks = packed[:, start : start + ncb * nbytes]
        else:
            # Each block padded to whole bytes, then one whole-row pack.
            padded = np.zeros((rows, ncb, nbytes * 8), dtype=bool)
            padded[:, :, :k] = bits[:, cb0 * tile_k : cb0 * tile_k + ncb * k].reshape(
                rows, ncb, k
            )
            blocks = np.packbits(padded.reshape(rows, -1), axis=1)
        blocks = blocks.reshape(rows * ncb, nbytes)
        codes = padded_codes(blocks)
        pops = popcount_rows(blocks)
        for m, rb0, nrb in ((tile_m, 0, n_full), (tail, n_full, 1)):
            if not (m and nrb):
                continue
            row0 = rb0 * tile_m
            positions = (
                (rb0 + np.arange(nrb))[:, None] * n_cb + cb0 + np.arange(ncb)
            ).ravel()
            parts.setdefault((m, k), []).append(
                (
                    nbytes,
                    _tile_stack(codes, row0, m, nrb, ncb),
                    _tile_stack(pops[:, None], row0, m, nrb, ncb)[:, :, 0],
                    _tile_stack(blocks, row0, m, nrb, ncb).reshape(nrb * ncb, -1),
                    positions,
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

    The trace planner's cache-interaction protocol: hash each unique
    content (``first`` indexes into ``raw``) once, look the whole bucket
    up in one :meth:`~repro.engine.pipeline.ForestCache.get_many` call,
    call ``compute(rows)`` for the misses only, fill the cache with one
    ``put_many`` and expand through ``inverse`` to the full stack.
    ``add_seconds`` receives the cache/dedup traffic time so each caller
    can book it under its own profile stage.
    """
    start = time.perf_counter()
    unique_records = np.empty((len(first), len(TILE_RECORD_FIELDS)), dtype=np.int64)
    missing = np.arange(len(first))
    if cache is not None:
        keys = cache.keys(m, k, raw[first])
        found = cache.get_many(keys)
        hit = [i for i, record in enumerate(found) if record is not None]
        if hit:
            unique_records[hit] = [found[i] for i in hit]
            missing = np.array(
                [i for i, record in enumerate(found) if record is None], dtype=np.int64
            )
    add_seconds(time.perf_counter() - start)
    if missing.size:
        computed = compute(first[missing])
        unique_records[missing] = computed
        if cache is not None:
            start = time.perf_counter()
            cache.put_many([keys[i] for i in missing.tolist()], computed.tolist())
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


def chain_depths(parent: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """Summed edge weight from each entry to the root of its chain.

    ``parent[i]`` is entry ``i``'s parent or ``NO_PREFIX`` for a root;
    ``weight[i]`` is the positive weight of that edge (default 1, so the
    result is each entry's chain length). Pointer doubling: each round
    every pointer jumps to its ancestor's pointer while the sums add, so
    chains of length ``d`` converge in ``ceil(log2(d)) + 1`` rounds.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    valid = parent != NO_PREFIX
    pointer = np.where(valid, parent, np.arange(n))
    if weight is None:
        length = valid.astype(np.int64)
    else:
        length = np.where(valid, weight, 0).astype(np.int64, copy=False)
    for _ in range(n.bit_length() + 1):
        ancestor_length = length[pointer]
        if not ancestor_length.any():
            return length
        length += ancestor_length
        pointer = pointer[pointer]
    raise RuntimeError("prefix chains do not terminate; cycle present")


@register_backend
class FusedBackend(Backend):
    """Tile-batched backend: same-shape tiles run as one broadcast.

    The trace planner feeds whole shape buckets to
    :meth:`_compute_records`; the per-tile entry points run the same
    kernels on a one-tile stack.
    """

    name = "fused"

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
        record = records_from_codes_batch(codes[None], pops[None], tile.k)[0]
        return tuple(record.tolist())

    def _compute_records(
        self,
        codes: np.ndarray,
        popcounts: np.ndarray,
        k: int,
        profile: dict[str, float] | None,
    ) -> np.ndarray:
        """Kernel dispatch for one deduplicated ``(T, m, W)`` stack.

        A stack of at least ``_SPLIT_MIN_ROWS`` rows is cut into one
        interleaved part per CPU (``_CPUS``): the calling thread runs the
        first part, plain threads the others, and records scatter back by
        position. Tiles are independent, so the split never changes a
        record. The kernel's wall-clock books into ``profile`` under
        ``select``/``record`` in the proportion the parts spent in each,
        so concurrent parts are never counted twice.
        """
        faults.kernel_fault("fused.compute_records")
        T, m, _ = codes.shape
        parts = max(1, min(_CPUS, T)) if T * m >= _SPLIT_MIN_ROWS else 1
        records = np.empty((T, len(TILE_RECORD_FIELDS)), dtype=np.int64)
        spent: list[dict[str, float]] = [{} for _ in range(parts)]
        errors: list[BaseException] = []

        def run(part: int) -> None:
            try:
                records[part::parts] = records_from_codes_batch(
                    np.ascontiguousarray(codes[part::parts]),
                    popcounts[part::parts],  # read at pattern heads only
                    k,
                    spent[part],
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        start = time.perf_counter()
        helpers = [
            threading.Thread(target=run, args=(part,), name=f"repro-kernel-{part}")
            for part in range(1, parts)
        ]
        for helper in helpers:
            helper.start()
        run(0)
        for helper in helpers:
            helper.join()
        if errors:
            raise errors[0]
        if profile is not None:
            wall = time.perf_counter() - start
            total = sum(sum(times.values()) for times in spent) or 1.0
            for stage in ("select", "record"):
                share = sum(times.get(stage, 0.0) for times in spent) / total
                profile[stage] = profile.get(stage, 0.0) + wall * share
        return records

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
