"""Architecture scalability models (paper Sec. VIII-A).

Two scaling axes the paper discusses as future extensions:

* **Intra-PPU**: issue several independent forest nodes to the Processor
  per cycle. Nodes at the same tree level have no dependencies, so the
  achievable parallelism is bounded by the forest's *critical path*
  (prefix chains must still execute in order).
* **Inter-PPU**: replicate the PPU and distribute tiles. Tiles are
  independent, but per-tile work varies with local sparsity, so a static
  round-robin distribution stalls on the most loaded PPU — the scaling
  efficiency measured here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ProsperityConfig
from repro.arch.ppu import MODE_PROSPERITY, compute_phase_cycles, prosparsity_phase_cycles
from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.engine.pipeline import ProsperityEngine
from repro.snn.trace import ModelTrace

_FIELD = {name: i for i, name in enumerate(TILE_RECORD_FIELDS)}


@dataclass(frozen=True)
class ScalingPoint:
    """Outcome of one scaling configuration."""

    num_ppus: int
    issue_width: int
    cycles: float
    speedup: float       # vs the 1-PPU, single-issue baseline
    efficiency: float    # speedup / (num_ppus * issue_width)


def intra_ppu_tile_cycles(
    config: ProsperityConfig,
    records: np.ndarray,
    n: int,
    issue_width: int,
) -> np.ndarray:
    """Compute-phase cycles per tile with multi-issue.

    Work shrinks by the issue width, but the critical path — the longest
    prefix chain, each link costing at least one accumulate step plus the
    average residual run — cannot be parallelized away.
    """
    if issue_width < 1:
        raise ValueError("issue_width must be >= 1")
    base = compute_phase_cycles(config, records, n, MODE_PROSPERITY).astype(np.float64)
    n_tiles = -(-n // config.tile_n)
    m = records[:, _FIELD["m"]].astype(np.float64)
    product = records[:, _FIELD["product_nnz"]].astype(np.float64)
    depth = records[:, _FIELD["forest_depth"]].astype(np.float64)
    # Critical path: depth links, each at least one cycle plus the mean
    # per-row residual accumulation, repeated for every n-tile pass.
    avg_row_ops = 1.0 + product / np.maximum(m, 1.0)
    critical = (depth + 1.0) * avg_row_ops * n_tiles
    return np.maximum(base / issue_width, critical)


def multi_ppu_workload_cycles(
    config: ProsperityConfig,
    records: np.ndarray,
    n: int,
    num_ppus: int,
    issue_width: int = 1,
) -> float:
    """Latency of one workload on ``num_ppus`` PPUs (round-robin tiles)."""
    if num_ppus < 1:
        raise ValueError("num_ppus must be >= 1")
    if len(records) == 0:
        return 0.0
    compute = intra_ppu_tile_cycles(config, records, n, issue_width)
    prosparsity = prosparsity_phase_cycles(
        config, records[:, _FIELD["m"]]
    ).astype(np.float64)
    per_ppu_totals = np.zeros(num_ppus)
    for index in range(len(records)):
        ppu = index % num_ppus
        # Within a PPU the inter-phase pipeline hides the ProSparsity
        # phase behind the previous tile's compute (Fig. 6); the first
        # tile assigned to each PPU exposes its phase.
        if per_ppu_totals[ppu] == 0.0:
            per_ppu_totals[ppu] += prosparsity[index]
        per_ppu_totals[ppu] += compute[index]
    return float(per_ppu_totals.max())


def scaling_study(
    trace: ModelTrace,
    ppu_counts: tuple[int, ...] = (1, 2, 4, 8),
    issue_widths: tuple[int, ...] = (1, 2, 4),
    config: ProsperityConfig | None = None,
    max_tiles: int | None = 64,
    rng: np.random.Generator | None = None,
) -> list[ScalingPoint]:
    """Evaluate the Sec. VIII-A scaling grid over a model trace."""
    config = config if config is not None else ProsperityConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    with ProsperityEngine(tile_m=config.tile_m, tile_k=config.tile_k) as engine:
        results = engine.transform_trace(trace.workloads, max_tiles=max_tiles, rng=rng)
    per_workload_records = [
        (result.tile_records, workload.n, 1.0 / result.stats.sample_fraction)
        for workload, result in zip(trace.workloads, results)
    ]

    def total_cycles(num_ppus: int, issue_width: int) -> float:
        total = 0.0
        for records, n, scale in per_workload_records:
            total += scale * multi_ppu_workload_cycles(
                config, records, n, num_ppus, issue_width
            )
        return total

    baseline = total_cycles(1, 1)
    points = []
    for num_ppus in ppu_counts:
        for issue_width in issue_widths:
            cycles = total_cycles(num_ppus, issue_width)
            speedup = baseline / cycles if cycles else float("inf")
            points.append(
                ScalingPoint(
                    num_ppus=num_ppus,
                    issue_width=issue_width,
                    cycles=cycles,
                    speedup=speedup,
                    efficiency=speedup / (num_ppus * issue_width),
                )
            )
    return points
