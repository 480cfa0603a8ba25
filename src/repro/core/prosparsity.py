"""End-to-end ProSparsity transform: detection, pruning, dispatch, execute.

This module is the algorithmic heart of the reproduction. Given a spiking
GeMM it produces (a) the per-tile forests and dispatch plans the Prosperity
architecture would execute, (b) sparsity/operation statistics (bit density
vs product density, Fig. 11) plus per-tile records that drive the cycle
model, and (c) an *executable* lossless evaluation that reproduces the
dense GeMM result exactly — the paper's "iso-accuracy" claim as a checked
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dispatch import DispatchPlan, build_dispatch_plan
from repro.core.forest import NO_PREFIX, ProSparsityForest, build_forest
from repro.core.spike_matrix import SpikeMatrix, SpikeTile, TileCoord

DEFAULT_TILE_M = 256
DEFAULT_TILE_K = 16

# Columns of the per-tile record array consumed by the cycle model.
TILE_RECORD_FIELDS = (
    "m",                  # rows in the tile
    "k",                  # columns in the tile
    "bit_nnz",            # spikes before ProSparsity
    "product_nnz",        # residual spikes after ProSparsity
    "zero_residual_rows",  # rows needing no accumulation (empty or EM)
    "zero_bit_rows",      # rows with no spikes at all
    "em_rows",            # rows fully skipped via exact-match reuse
    "reused_rows",        # rows with any prefix
    "forest_depth",       # longest prefix chain (multi-issue critical path)
)


@dataclass
class TileTransform:
    """ProSparsity artifacts for one spike tile."""

    tile: SpikeTile
    forest: ProSparsityForest
    plan: DispatchPlan

    @property
    def bit_nnz(self) -> int:
        return self.tile.nnz

    @property
    def product_nnz(self) -> int:
        return self.forest.product_nnz()

    @property
    def processed_rows(self) -> int:
        """Rows the Processor issues (every row costs >= 1 cycle, EM too)."""
        return self.tile.m


@dataclass
class ProSparsityStats:
    """Aggregate sparsity statistics over a whole spiking GeMM.

    Densities follow the paper's definition: processed non-zeros divided by
    total matrix elements. ``ops_reduction`` is the computation reduction
    factor ProSparsity achieves over bit sparsity (e.g. 11x on SpikeBERT).
    """

    elements: int = 0
    bit_nnz: int = 0
    product_nnz: int = 0
    rows: int = 0
    em_rows: int = 0
    reused_rows: int = 0
    zero_residual_rows: int = 0
    zero_bit_rows: int = 0
    tiles: int = 0
    sample_fraction: float = 1.0

    @property
    def bit_density(self) -> float:
        return self.bit_nnz / self.elements if self.elements else 0.0

    @property
    def product_density(self) -> float:
        return self.product_nnz / self.elements if self.elements else 0.0

    @property
    def ops_reduction(self) -> float:
        if self.product_nnz == 0:
            return float("inf") if self.bit_nnz else 1.0
        return self.bit_nnz / self.product_nnz

    @property
    def density_reduction(self) -> float:
        """How many times denser bit sparsity is than product sparsity."""
        return self.ops_reduction

    def merge(self, other: "ProSparsityStats") -> None:
        self.elements += other.elements
        self.bit_nnz += other.bit_nnz
        self.product_nnz += other.product_nnz
        self.rows += other.rows
        self.em_rows += other.em_rows
        self.reused_rows += other.reused_rows
        self.zero_residual_rows += other.zero_residual_rows
        self.zero_bit_rows += other.zero_bit_rows
        self.tiles += other.tiles


@dataclass
class ProSparsityResult:
    """Full transform of a spiking GeMM.

    ``tile_records`` is an ``(n_tiles, len(TILE_RECORD_FIELDS))`` int array
    (see :data:`TILE_RECORD_FIELDS`); the architecture simulator derives
    per-tile cycle counts from it without re-running the transform.
    """

    transforms: list[TileTransform] = field(default_factory=list)
    stats: ProSparsityStats = field(default_factory=ProSparsityStats)
    tile_records: np.ndarray | None = None


def validate_tile_shape(tile_m: int, tile_k: int) -> None:
    """Reject degenerate tile shapes before any tiling loop runs.

    Without this, a non-positive size silently yields zero tiles (the
    sampling path iterates an empty ``range``) and an empty transform.
    """
    for name, value in (("tile_m", tile_m), ("tile_k", tile_k)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if value <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def transform_tile(tile: SpikeTile) -> TileTransform:
    """Run Detector -> Pruner -> Dispatcher on a single tile."""
    forest = build_forest(tile)
    plan = build_dispatch_plan(forest)
    return TileTransform(tile=tile, forest=forest, plan=plan)


def forest_record(forest: ProSparsityForest) -> tuple[int, ...]:
    """Canonical :data:`TILE_RECORD_FIELDS` tuple for a built forest.

    The single source of truth for record layout — every backend and the
    engine pipeline build records through this function (or replicate its
    field order exactly, guarded by the backend-equivalence tests).
    """
    residual = forest.residual_ops()
    popcounts = forest.popcounts
    reused = forest.prefix != NO_PREFIX
    return (
        forest.m,
        forest.k,
        int(popcounts.sum()),
        int(residual.sum()),
        int((residual == 0).sum()),
        int((popcounts == 0).sum()),
        int((reused & (residual == 0) & (popcounts > 0)).sum()),
        int(reused.sum()),
        forest.depth(),
    )




def _record_to_stats(record: tuple[int, ...]) -> ProSparsityStats:
    m, k, bit_nnz, product_nnz, zero_res, zero_bit, em_rows, reused, _depth = record
    return ProSparsityStats(
        elements=m * k,
        bit_nnz=bit_nnz,
        product_nnz=product_nnz,
        rows=m,
        em_rows=em_rows,
        reused_rows=reused,
        zero_residual_rows=zero_res,
        zero_bit_rows=zero_bit,
        tiles=1,
    )


def _sample_tiles(
    matrix: SpikeMatrix,
    tile_m: int,
    tile_k: int,
    max_tiles: int,
    rng: np.random.Generator,
) -> list[SpikeTile]:
    """Uniformly sample tile coordinates without materializing every tile."""
    row_starts = list(range(0, matrix.rows, tile_m))
    col_starts = list(range(0, matrix.cols, tile_k))
    coords = [(r, c) for r in row_starts for c in col_starts]
    if len(coords) > max_tiles:
        chosen = rng.choice(len(coords), size=max_tiles, replace=False)
        coords = [coords[int(i)] for i in chosen]
    tiles = []
    for row_start, col_start in coords:
        bits = matrix.bits[row_start : row_start + tile_m, col_start : col_start + tile_k]
        tiles.append(SpikeTile(bits, TileCoord(row_start, col_start)))
    return tiles


def transform_matrix(
    matrix: SpikeMatrix | np.ndarray,
    tile_m: int = DEFAULT_TILE_M,
    tile_k: int = DEFAULT_TILE_K,
    keep_transforms: bool = True,
    max_tiles: int | None = None,
    rng: np.random.Generator | None = None,
) -> ProSparsityResult:
    """Apply ProSparsity tile-by-tile over a full spike matrix.

    Parameters
    ----------
    keep_transforms:
        When false, dispatch plans are skipped and only statistics and tile
        records are produced (statistics-only sweeps over large models).
    max_tiles:
        When set, uniformly sample at most this many tiles and record the
        sampled fraction in ``stats.sample_fraction``; aggregate counters
        then describe the *sample*, while densities remain unbiased
        estimates of the full matrix.
    """
    validate_tile_shape(tile_m, tile_k)
    if not isinstance(matrix, SpikeMatrix):
        matrix = SpikeMatrix(matrix)
    result = ProSparsityResult()

    total_tiles = matrix.num_tiles(tile_m, tile_k)
    if max_tiles is not None and total_tiles > max_tiles:
        if rng is None:
            rng = np.random.default_rng(0)
        tiles = _sample_tiles(matrix, tile_m, tile_k, max_tiles, rng)
        result.stats.sample_fraction = len(tiles) / total_tiles
    else:
        tiles = matrix.tile(tile_m, tile_k)

    records: list[tuple[int, ...]] = []
    for tile in tiles:
        forest = build_forest(tile)
        record = forest_record(forest)
        records.append(record)
        result.stats.merge(_record_to_stats(record))
        if keep_transforms:
            plan = build_dispatch_plan(forest)
            result.transforms.append(TileTransform(tile=tile, forest=forest, plan=plan))
    result.tile_records = np.array(records, dtype=np.int64).reshape(
        len(records), len(TILE_RECORD_FIELDS)
    )
    return result


def execute_tile(transform: TileTransform, weights: np.ndarray) -> np.ndarray:
    """Execute one tile's plan against a ``(k, n)`` weight slice.

    Follows the Processor dataflow: rows run in dispatch order; each row
    seeds its partial sum with the prefix row's finished output (Step 9)
    then accumulates the weight rows selected by its residual pattern
    (Steps 10-11).
    """
    tile = transform.tile
    weights = np.asarray(weights)
    if weights.shape[0] != tile.k:
        raise ValueError(
            f"weight rows ({weights.shape[0]}) must match tile k ({tile.k})"
        )
    n = weights.shape[1]
    out_dtype = (
        np.int64 if np.issubdtype(weights.dtype, np.integer) else np.float64
    )
    out = np.zeros((tile.m, n), dtype=out_dtype)
    pattern = transform.forest.pattern
    for task in transform.plan.tasks:
        if task.prefix != NO_PREFIX:
            acc = out[task.prefix].copy()
        else:
            acc = np.zeros(n, dtype=out.dtype)
        cols = np.flatnonzero(pattern[task.row])
        if cols.size:
            acc += weights[cols].sum(axis=0)
        out[task.row] = acc
    return out


def execute_gemm(
    spike_matrix: SpikeMatrix | np.ndarray,
    weights: np.ndarray,
    tile_m: int = DEFAULT_TILE_M,
    tile_k: int = DEFAULT_TILE_K,
) -> np.ndarray:
    """Full lossless spiking GeMM through the ProSparsity pipeline.

    Tiles along K accumulate into the same output rows, mirroring the
    output-stationary partial-sum accumulation of the architecture.
    """
    validate_tile_shape(tile_m, tile_k)
    if not isinstance(spike_matrix, SpikeMatrix):
        spike_matrix = SpikeMatrix(spike_matrix)
    weights = np.asarray(weights)
    if weights.shape[0] != spike_matrix.cols:
        raise ValueError(
            f"weight rows ({weights.shape[0]}) must match spike cols ({spike_matrix.cols})"
        )
    out_dtype = (
        np.int64 if np.issubdtype(weights.dtype, np.integer) else np.float64
    )
    output = np.zeros((spike_matrix.rows, weights.shape[1]), dtype=out_dtype)
    for tile in spike_matrix.tile(tile_m, tile_k):
        transform = transform_tile(tile)
        w_slice = weights[tile.coord.col_start : tile.coord.col_start + tile.k]
        partial = execute_tile(transform, w_slice)
        rows = slice(tile.coord.row_start, tile.coord.row_start + tile.m)
        output[rows] += partial
    return output
