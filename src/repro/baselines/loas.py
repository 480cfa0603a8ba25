"""LoAS baseline (Yin et al. 2024): dual-side sparsity via weight pruning.

LoAS prunes SNN weights to very low density (<5%) and processes both
sparse sides: an accumulate happens only where a spike meets a surviving
weight. ProSparsity is orthogonal — it shrinks the *activation* side
further (Table V) — so this module provides both the LoAS execution model
and the pruned-weight mask generator used for the synergy study.
"""

from __future__ import annotations

import numpy as np

from repro.arch.report import LayerResult
from repro.baselines.base import AcceleratorModel, dram_cycles, row_popcounts
from repro.snn.trace import GeMMWorkload, ModelTrace

E_ADD = 0.86
E_BUFFER_PER_ADD = 1.4
E_DRAM_BYTE = 20.0
STATIC_POWER_MW = 22.0

# Table V weight densities after LoAS pruning.
LOAS_WEIGHT_DENSITY = {"alexnet": 0.018, "vgg16": 0.018, "resnet19": 0.040}


def pruned_weight_mask(
    k: int, n: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Unstructured weight mask at the target density (LoAS-style)."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    return rng.random((k, n)) < density


def dual_sparse_ops(workload: GeMMWorkload, weight_density: float) -> float:
    """Expected accumulates with both sides sparse.

    For unstructured pruning, each of the workload's spikes pairs with an
    expected ``weight_density * n`` surviving weights.
    """
    spikes = float(row_popcounts(workload).sum())
    return spikes * workload.n * weight_density


class LoASModel(AcceleratorModel):
    """Fully temporal-parallel dual-sparse dataflow."""

    name = "loas"
    area_mm2 = 0.85
    supports_attention = False

    def __init__(
        self,
        weight_density: float = 0.02,
        num_pes: int = 128,
        frequency_hz: float = 500e6,
        intersection_efficiency: float = 0.5,
        dram_bandwidth: float = 64e9,
    ):
        self.weight_density = weight_density
        self.num_pes = num_pes
        self.frequency_hz = frequency_hz
        self.intersection_efficiency = intersection_efficiency
        self.dram_bandwidth = dram_bandwidth

    def simulate_workload(self, workload: GeMMWorkload) -> LayerResult:
        adds = dual_sparse_ops(workload, self.weight_density)
        compute = adds / (self.num_pes * self.intersection_efficiency)
        traffic = (
            workload.m * workload.k / 8.0
            + workload.k * workload.n * self.weight_density * 2.0  # value+index
            + workload.m * workload.n / 8.0
        )
        memory = dram_cycles(traffic, self.dram_bandwidth, self.frequency_hz)
        cycles = max(compute, memory)
        energy = {
            "compute": adds * E_ADD,
            "buffers": adds * E_BUFFER_PER_ADD,
            "dram": traffic * E_DRAM_BYTE,
            "static": STATIC_POWER_MW * 1e-3 * cycles / self.frequency_hz * 1e12,
        }
        return LayerResult(
            name=workload.name,
            cycles=cycles,
            compute_cycles=compute,
            memory_cycles=memory,
            dense_macs=workload.dense_macs,
            processed_ops=int(adds),
            dram_bytes=traffic,
            energy_pj=energy,
        )


def activation_density_with_prosparsity(
    trace: ModelTrace,
    tile_m: int = 256,
    tile_k: int = 16,
    max_tiles: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """(bit density, ProSparsity density) over a trace — the Table V metric.

    LoAS's weight pruning leaves activations untouched, so applying
    ProSparsity on top reduces the activation side by the same ratio as on
    the unpruned model.
    """
    # Imported here: repro.analysis.density imports this module.
    from repro.analysis.density import trace_prosparsity_stats

    stats = trace_prosparsity_stats(trace, tile_m, tile_k, max_tiles, rng)
    return stats.bit_density, stats.product_density
