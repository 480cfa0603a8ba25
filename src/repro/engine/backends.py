"""Pluggable ProSparsity execution backends.

The engine separates *what* the ProSparsity transform computes (prefix
forests, tile records, lossless GeMM execution — defined by
:mod:`repro.core`) from *how* it is computed. Two backends ship today:

* ``reference`` — delegates to the per-tile/per-row code in
  :mod:`repro.core.forest` and :mod:`repro.core.prosparsity`. Slow but
  simple; it is the correctness oracle every other backend is tested
  against.
* ``vectorized`` — bulk NumPy implementation. Spike rows are packed with
  ``np.packbits`` into fixed-width integer *codes* so the all-pairs
  subset test becomes a single broadcast AND/compare over machine words
  (the TCAM model), exact-match rows are found by direct equality on the
  packed codes, residual popcounts come from byte lookup tables without
  materializing residual patterns, and GeMM execution replaces the
  per-row accumulation loop with one matmul plus level-order prefix
  seeding.

Three more backends register themselves on import of :mod:`repro.engine`:
``fused`` (:mod:`repro.engine.fused` — tile-batched kernels, no per-tile
Python dispatch), ``sharded`` (:mod:`repro.engine.parallel` —
multiprocess tile-batch sharding), and ``compiled``
(:mod:`repro.engine.compiled` — Numba-JIT native kernels over the same
seam, NumPy fallback when the optional extra is absent). Every backend
produces bit-identical
forests, tile records, and (for integer weights) GeMM outputs; later
scaling work plugs in here by registering further backends.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np

from repro.core.dispatch import build_dispatch_plan
from repro.core.forest import NO_PREFIX, ProSparsityForest, build_forest
from repro.core.prosparsity import (
    TILE_RECORD_FIELDS,
    TileTransform,
    execute_tile,
    forest_record,
)
from repro.core.spike_matrix import SpikeMatrix, SpikeTile
from repro.utils.bitops import popcount_rows

__all__ = [
    "Backend",
    "DEFAULT_BACKEND",
    "ReferenceBackend",
    "VectorizedBackend",
    "available_backends",
    "backend_accepts_option",
    "backend_option_error",
    "code_width",
    "get_backend",
    "register_backend",
    "unknown_backend_error",
    "validate_workers",
]


class Backend(ABC):
    """Strategy interface for the ProSparsity transform and execution.

    Implementations must be *observationally identical* to the reference
    backend: same forests, same tile records, same integer GeMM outputs.
    Floating-point GeMM outputs may differ by summation order only.
    """

    name: str = "abstract"

    @classmethod
    def availability(cls) -> str | None:
        """Install/availability note for this backend, or ``None``.

        Backends gated on optional dependencies (``compiled`` on numba)
        override this to report their install status; the note is
        rendered next to the name in :func:`unknown_backend_error` so a
        typo'd ``--backend`` flag doubles as an availability listing.
        """
        return None

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker pools etc.); idempotent.

        Most backends hold none — the base implementation is a no-op —
        but callers that construct backends by name should always close
        them (or use the backend as a context manager) so pool-backed
        backends like ``sharded`` never leak processes.
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def failure_counters(self) -> dict:
        """Lifetime supervision counters for this backend.

        Supervised backends (``sharded``) report ``pool_rebuilds`` /
        ``retries`` / ``degraded``; the base returns an empty dict so
        callers can snapshot-and-diff uniformly (see
        ``ProsperityEngine.run``, which surfaces per-run deltas in
        ``EngineReport``).
        """
        return {}

    # -- transform ------------------------------------------------------
    @abstractmethod
    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        """Build the pruned prefix forest for one tile."""

    def tile_record(self, tile: SpikeTile) -> tuple[int, ...]:
        """Per-tile statistics record (see ``TILE_RECORD_FIELDS``)."""
        return forest_record(self.forest(tile))

    def matrix_records(
        self,
        matrix: SpikeMatrix,
        tile_m: int,
        tile_k: int,
        cache=None,
    ) -> np.ndarray:
        """Tile records for every tile of ``matrix`` in row-major order.

        ``cache``, when given, must expose ``get_record(m, k, packed)``
        and ``put_record(m, k, packed, record)`` (see
        :class:`repro.engine.pipeline.ForestCache`).
        """
        records: list[tuple[int, ...]] = []
        for tile in matrix.tile(tile_m, tile_k):
            record = None
            if cache is not None:
                record = cache.get_record(tile.m, tile.k, tile.packed)
            if record is None:
                record = self.tile_record(tile)
                if cache is not None:
                    cache.put_record(tile.m, tile.k, tile.packed, record)
            records.append(record)
        return np.array(records, dtype=np.int64).reshape(
            len(records), len(TILE_RECORD_FIELDS)
        )

    # -- execution ------------------------------------------------------
    @abstractmethod
    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        """Execute one tile's forest against a ``(k, n)`` weight slice."""


class ReferenceBackend(Backend):
    """The per-tile/per-row oracle: exactly the :mod:`repro.core` path."""

    name = "reference"

    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        return build_forest(tile)

    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        plan = build_dispatch_plan(forest)
        transform = TileTransform(tile=forest.tile, forest=forest, plan=plan)
        return execute_tile(transform, weights)


# ---------------------------------------------------------------------------
# Vectorized backend
# ---------------------------------------------------------------------------

# Smallest unsigned dtype able to hold a packed row of the given byte width.
_CODE_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def code_width(nbytes: int) -> int:
    """Byte width of the machine-word code holding ``nbytes`` packed bytes.

    Up to 8 bytes snaps to the next power of two (one machine word);
    wider rows use whole ``uint64`` words.
    """
    width = 1
    while width < nbytes:
        width *= 2
    width = max(width, 1)
    if width > 8:
        width = -(-nbytes // 8) * 8
    return width


def pack_codes(packed: np.ndarray) -> np.ndarray:
    """View packed ``uint8`` rows as ``(m, W)`` machine-word codes.

    Rows of up to 64 bits collapse to a single word (``W == 1``) so the
    subset test is one broadcast op; wider rows use multiple ``uint64``
    words. The code value is an opaque bijection of the bit pattern —
    only bitwise algebra and equality are ever applied to it.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    m, nbytes = packed.shape
    width = code_width(nbytes)
    if width != nbytes:
        padded = np.zeros((m, width), dtype=np.uint8)
        padded[:, :nbytes] = packed
        packed = padded
    dtype = _CODE_DTYPES.get(width, np.uint64)
    return packed.view(dtype)


def _subset_from_codes(codes: np.ndarray) -> np.ndarray:
    """``(m, m)`` bool matrix: entry ``[i, j]`` true when row j ⊆ row i."""
    if codes.shape[1] == 1:
        flat = codes[:, 0]
        return (flat[None, :] & ~flat[:, None]) == 0
    return ((codes[None, :, :] & ~codes[:, None, :]) == 0).all(axis=2)


def _equal_from_codes(codes: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Exact-match matrix via direct equality on the packed codes."""
    if codes.shape[1] == 1:
        flat = codes[:, 0]
        return flat[None, :] == flat[:, None]
    return subset & subset.T


def select_prefixes_codes(codes: np.ndarray, popcounts: np.ndarray) -> np.ndarray:
    """Vectorized Pruner: identical output to ``forest.select_prefixes``.

    Instead of materializing an ``(m, m)`` int64 score matrix, columns
    are pre-sorted by descending ``(popcount, index)`` and the winning
    prefix is the first legal candidate in that order — an ``argmax``
    over a boolean matrix.
    """
    m = codes.shape[0]
    prefix = np.full(m, NO_PREFIX, dtype=np.int64)
    if m == 0:
        return prefix
    subset = _subset_from_codes(codes)
    legal = subset & (popcounts[None, :] > 0)
    np.fill_diagonal(legal, False)
    # EM pairs: only the smaller index may serve as prefix.
    index = np.arange(m)
    em = _equal_from_codes(codes, subset)
    legal &= ~(em & (index[None, :] > index[:, None]))
    # Descending (popcount, index): a stable ascending sort keeps index
    # ascending within equal popcounts, so its reverse is the exact
    # descending lexicographic order the Pruner's argmax wants.
    order = np.argsort(popcounts, kind="stable")[::-1]
    candidates = legal[:, order]
    first = candidates.argmax(axis=1)
    has_prefix = candidates[index, first]
    prefix[has_prefix] = order[first[has_prefix]]
    return prefix


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


def max_chain_depth(prefix: np.ndarray) -> int:
    """Longest prefix chain (forest depth) via a shrinking frontier.

    Iteration ``d`` keeps only rows whose chain extends ``d`` hops, so
    total work is the sum of chain lengths rather than ``m × depth``.
    """
    prefix = np.asarray(prefix, dtype=np.int64)
    active = prefix[prefix != NO_PREFIX]
    depth = 0
    while active.size:
        depth += 1
        if depth > len(prefix):
            raise RuntimeError("prefix chains do not terminate; cycle present")
        active = prefix[active]
        active = active[active != NO_PREFIX]
    return depth


def record_from_codes(
    codes: np.ndarray, popcounts: np.ndarray, k: int
) -> tuple[int, ...]:
    """Tile record straight from packed codes, no residual pattern needed.

    Because a prefix is always a subset of its row, the residual
    popcount is simply ``pop(row) - pop(prefix)``. Field order must
    mirror ``core.prosparsity.forest_record`` (the canonical builder);
    the backend-equivalence tests pin the two together.
    """
    m = codes.shape[0]
    prefix = select_prefixes_codes(codes, popcounts)
    reused = prefix != NO_PREFIX
    residual = popcounts.astype(np.int64).copy()
    residual[reused] -= popcounts[prefix[reused]]
    depth = max_chain_depth(prefix)
    return (
        m,
        k,
        int(popcounts.sum()),
        int(residual.sum()),
        int((residual == 0).sum()),
        int((popcounts == 0).sum()),
        int((reused & (residual == 0) & (popcounts > 0)).sum()),
        int(reused.sum()),
        depth,
    )


class VectorizedBackend(Backend):
    """Bulk NumPy backend: packed-code set algebra, no per-row loops."""

    name = "vectorized"

    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        popcounts = popcount_rows(tile.packed)
        prefix = select_prefixes_codes(pack_codes(tile.packed), popcounts)
        pattern = tile.bits.copy()
        rows = np.flatnonzero(prefix != NO_PREFIX)
        if rows.size:
            pattern[rows] = tile.bits[rows] ^ tile.bits[prefix[rows]]
        return ProSparsityForest(
            tile=tile, prefix=prefix, pattern=pattern, popcounts=popcounts
        )

    def tile_record(self, tile: SpikeTile) -> tuple[int, ...]:
        return record_from_codes(
            pack_codes(tile.packed), popcount_rows(tile.packed), tile.k
        )

    def matrix_records(
        self,
        matrix: SpikeMatrix,
        tile_m: int,
        tile_k: int,
        cache=None,
    ) -> np.ndarray:
        """Bulk path: pack each column block once, slice codes per tile.

        Per-tile work reduces to the ``(m, m)`` prefix selection on code
        slices; there is no per-tile ``SpikeTile`` construction, bit
        validation, or re-packing.
        """
        bits = matrix.bits
        rows, cols = bits.shape
        col_blocks = []
        for col_start in range(0, cols, tile_k):
            block = np.ascontiguousarray(bits[:, col_start : col_start + tile_k])
            packed = np.packbits(block, axis=1)
            col_blocks.append(
                (block.shape[1], pack_codes(packed), popcount_rows(packed), packed)
            )
        records: list[tuple[int, ...]] = []
        for row_start in range(0, rows, tile_m):
            row_end = min(row_start + tile_m, rows)
            for k_block, codes, pops, packed in col_blocks:
                record = None
                if cache is not None:
                    record = cache.get_record(
                        row_end - row_start, k_block, packed[row_start:row_end]
                    )
                if record is None:
                    record = record_from_codes(
                        codes[row_start:row_end], pops[row_start:row_end], k_block
                    )
                    if cache is not None:
                        cache.put_record(
                            row_end - row_start,
                            k_block,
                            packed[row_start:row_end],
                            record,
                        )
                records.append(record)
        return np.array(records, dtype=np.int64).reshape(
            len(records), len(TILE_RECORD_FIELDS)
        )

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


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, type[Backend]] = {}

#: The backend every entry point uses unless told otherwise: the
#: tile-batched fast path. ``reference`` stays the oracle, opt-in.
DEFAULT_BACKEND = "fused"


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Register a backend class under its ``name`` (later scaling seam)."""
    _BACKENDS[cls.name] = cls
    return cls


def unknown_backend_error(backend: str) -> ValueError:
    """The canonical unknown-backend error, shared by every entry point.

    Backends with an optional-dependency gate annotate their entry with
    :meth:`Backend.availability`, e.g. ``compiled (numba not installed,
    runs as NumPy fallback)``, so the error doubles as an availability
    listing.
    """
    entries = []
    for name in available_backends():
        note = _BACKENDS[name].availability()
        entries.append(f"{name} ({note})" if note else name)
    return ValueError(
        f"unknown backend {backend!r}; available: {', '.join(entries)}"
    )


def backend_option_error(backend: str, options) -> ValueError:
    """The canonical option-rejection error.

    Every layer that rejects an option a backend cannot take — the
    registry, the engine, and :class:`repro.api.RunConfig` validation —
    raises exactly this wording, so callers can match one message.
    """
    return ValueError(
        f"backend {backend!r} does not accept option(s) {sorted(options)}"
    )


def backend_accepts_option(backend: str, option: str) -> bool:
    """Whether the named backend's constructor takes ``option``.

    Raises :func:`unknown_backend_error` for unregistered names, so
    config validation and backend construction fail identically.
    """
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise unknown_backend_error(backend) from None
    return option in inspect.signature(cls.__init__).parameters


def validate_workers(workers: int) -> int:
    """Shared worker-count validation (``>= 1``), one wording everywhere."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


register_backend(ReferenceBackend)
register_backend(VectorizedBackend)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend: str | Backend, **options) -> Backend:
    """Resolve a backend instance from a name or pass one through.

    ``options`` with non-``None`` values (e.g. ``workers=4`` for the
    ``sharded`` backend) are forwarded to the backend constructor; a
    backend that does not accept an option rejects it with a
    ``ValueError`` rather than silently ignoring it.
    """
    options = {key: value for key, value in options.items() if value is not None}
    if isinstance(backend, Backend):
        if options:
            raise ValueError(
                f"backend options {sorted(options)} cannot be applied to an "
                "already-constructed backend instance"
            )
        return backend
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise unknown_backend_error(backend) from None
    accepted = inspect.signature(cls.__init__).parameters
    unknown = set(options) - set(accepted)
    if unknown:
        raise backend_option_error(backend, unknown)
    return cls(**options)
