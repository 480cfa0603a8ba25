"""Density metrics across sparsity paradigms (Fig. 11, Tables I/II/V)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.ptb import windowed_density
from repro.baselines.stellar import fs_density
from repro.core.forest import build_two_prefix_forest
from repro.core.prosparsity import ProSparsityStats, transform_matrix
from repro.engine.pipeline import ProsperityEngine
from repro.snn.trace import ModelTrace


@dataclass
class DensityReport:
    """Bit / structured / FS / product densities for one model trace."""

    model: str
    dataset: str
    bit_density: float
    structured_density: float
    fs_density: float
    product_density: float

    @property
    def reduction_vs_bit(self) -> float:
        if self.product_density == 0:
            return float("inf")
        return self.bit_density / self.product_density

    @property
    def reduction_vs_fs(self) -> float:
        if self.product_density == 0:
            return float("inf")
        return self.fs_density / self.product_density


def trace_prosparsity_stats(
    trace: ModelTrace,
    tile_m: int = 256,
    tile_k: int = 16,
    max_tiles: int | None = None,
    rng: np.random.Generator | None = None,
    engine=None,
) -> ProSparsityStats:
    """Aggregate ProSparsity statistics over every workload of a trace.

    ``engine``, when given, must be a
    :class:`repro.engine.ProsperityEngine`; its backend and forest cache
    then carry the transforms. Without one, a default engine is built
    for this call and closed afterwards. Stats and RNG draws are
    bit-identical to the core ``transform_matrix`` loop either way.
    """
    if engine is None:
        with ProsperityEngine(tile_m=tile_m, tile_k=tile_k) as engine:
            return trace_prosparsity_stats(
                trace, tile_m, tile_k, max_tiles, rng, engine
            )
    stats = ProSparsityStats()
    for result in engine.transform_trace(
        trace.workloads, tile_m, tile_k, max_tiles=max_tiles, rng=rng
    ):
        stats.merge(result.stats)
    return stats


def density_report(
    trace: ModelTrace,
    tile_m: int = 256,
    tile_k: int = 16,
    window: int = 4,
    max_tiles: int | None = None,
    rng: np.random.Generator | None = None,
    engine=None,
) -> DensityReport:
    """All four density metrics for one trace (one Fig. 11 bar group).

    .. note:: :meth:`repro.api.Session.density` is the canonical entry
       point; it calls this with the session's shared engine attached.
    """
    stats = trace_prosparsity_stats(trace, tile_m, tile_k, max_tiles, rng, engine)
    elements = sum(w.spikes.bits.size for w in trace.workloads)
    structured = (
        sum(windowed_density(w, window) * w.spikes.bits.size for w in trace.workloads)
        / elements
        if elements
        else 0.0
    )
    fs = (
        sum(fs_density(w) * w.spikes.bits.size for w in trace.workloads) / elements
        if elements
        else 0.0
    )
    return DensityReport(
        model=trace.model,
        dataset=trace.dataset,
        bit_density=stats.bit_density,
        structured_density=structured,
        fs_density=fs,
        product_density=stats.product_density,
    )


@dataclass
class TwoPrefixReport:
    """Table II metrics: one- vs two-prefix density and prefix ratios."""

    model: str
    dataset: str
    bit_density: float
    one_prefix_density: float
    two_prefix_density: float
    one_prefix_ratio: float
    two_prefix_ratio: float


def two_prefix_report(
    trace: ModelTrace,
    tile_m: int = 256,
    tile_k: int = 16,
    max_tiles_per_workload: int = 8,
    rng: np.random.Generator | None = None,
) -> TwoPrefixReport:
    """Run the one- and two-prefix variants over sampled tiles (Table II)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    elements = 0
    bit_nnz = 0
    one_nnz = 0
    two_nnz = 0
    one_rows = 0.0
    two_rows = 0.0
    rows = 0
    for workload in trace.workloads:
        result = transform_matrix(
            workload.spikes, tile_m, tile_k,
            keep_transforms=True, max_tiles=max_tiles_per_workload, rng=rng,
        )
        for transform in result.transforms:
            tile = transform.tile
            two = build_two_prefix_forest(tile)
            elements += tile.bits.size
            bit_nnz += tile.nnz
            one_nnz += transform.forest.product_nnz()
            two_nnz += two.product_nnz()
            ratio_one, ratio_two = two.prefix_ratio()
            one_rows += ratio_one * tile.m
            two_rows += ratio_two * tile.m
            rows += tile.m
    return TwoPrefixReport(
        model=trace.model,
        dataset=trace.dataset,
        bit_density=bit_nnz / elements if elements else 0.0,
        one_prefix_density=one_nnz / elements if elements else 0.0,
        two_prefix_density=two_nnz / elements if elements else 0.0,
        one_prefix_ratio=one_rows / rows if rows else 0.0,
        two_prefix_ratio=two_rows / rows if rows else 0.0,
    )
