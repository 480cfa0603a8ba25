"""End-to-end Prosperity simulator: layer-by-layer latency and energy.

Drives the per-tile cycle model (:mod:`repro.arch.ppu`) over the tile
records produced by the ProSparsity transform, folds in DRAM streaming and
the Spiking Neuron Array, and accounts energy per component — the software
equivalent of the paper's cycle-accurate simulator + CACTI + DRAMsim3
stack.
"""

from __future__ import annotations

import numpy as np

from repro.arch import energy as energy_model
from repro.arch.config import DEFAULT_CONFIG, ProsperityConfig
from repro.arch.energy import EnergyModel
from repro.arch.memory import MemorySystem, TrafficSummary
from repro.arch.neuron_array import NeuronArray
from repro.arch.ppu import (
    MODE_BIT,
    MODE_DENSE,
    MODE_PROSPARSITY_SLOW,
    MODE_PROSPERITY,
    MODES,
    pipeline_tile_cycles,
)
from repro.arch.report import LayerResult, SimReport
from repro.arch.sorter import BitonicSorter
from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.engine.backends import DEFAULT_BACKEND, Backend
from repro.engine.pipeline import ProsperityEngine
from repro.snn.trace import GeMMWorkload, ModelTrace
from repro.utils.bitops import pack_rows, popcount_rows

_FIELD = {name: i for i, name in enumerate(TILE_RECORD_FIELDS)}


def _light_records(
    matrix, tile_m: int, tile_k: int
) -> np.ndarray:
    """Per-tile records without the prefix search (dense / bit-only modes).

    Product columns mirror the bit columns so the record layout stays
    uniform; forest depth is 1 (unused in these modes).
    """
    records = []
    for tile in matrix.tile(tile_m, tile_k):
        counts = popcount_rows(pack_rows(tile.bits))
        bit_nnz = int(counts.sum())
        zero_rows = int((counts == 0).sum())
        records.append(
            (tile.m, tile.k, bit_nnz, bit_nnz, zero_rows, zero_rows, 0, 0, 1)
        )
    return np.array(records, dtype=np.int64).reshape(len(records), len(TILE_RECORD_FIELDS))


class ProsperitySimulator:
    """Simulates one Prosperity instance in a given execution mode.

    .. note:: Direct construction remains supported, but
       :meth:`repro.api.Session.simulate` is the canonical entry point:
       it drives this simulator (plus the baseline lineup) from a typed
       :class:`~repro.api.RunConfig` and shares one engine across calls.

    Parameters
    ----------
    config:
        Architecture parameters (Table III defaults).
    mode:
        One of :data:`repro.arch.ppu.MODES` — the Fig. 9 ablation ladder.
    max_tiles_per_workload:
        When set, sample at most this many tiles per GeMM and scale counts
        by the sampled fraction (keeps large sweeps tractable; unbiased in
        expectation).
    backend:
        ProSparsity transform backend (see :mod:`repro.engine.backends`);
        every backend yields bit-identical tile records, so simulation
        results are backend-independent — only wall-clock time changes.
        Defaults to the ``fused`` fast path; ``reference`` is the oracle.
    engine:
        Pre-built :class:`ProsperityEngine` to share a forest cache
        across simulators; overrides ``backend`` when given.
    """

    def __init__(
        self,
        config: ProsperityConfig = DEFAULT_CONFIG,
        mode: str = MODE_PROSPERITY,
        max_tiles_per_workload: int | None = None,
        rng: np.random.Generator | None = None,
        backend: str | Backend = DEFAULT_BACKEND,
        engine: ProsperityEngine | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.config = config
        self.mode = mode
        self.max_tiles = max_tiles_per_workload
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._owns_engine = engine is None
        self.engine = (
            engine
            if engine is not None
            else ProsperityEngine(
                backend=backend,
                tile_m=config.tile_m,
                tile_k=config.tile_k,
            )
        )
        self.memory = MemorySystem(config)
        self.memory.validate_tiles()
        self.neuron_array = NeuronArray(config)
        self.energy = EnergyModel(config)
        self.name = f"prosperity[{mode}]" if mode != MODE_PROSPERITY else "prosperity"

    def close(self) -> None:
        """Release engine resources (an owned backend).

        Only engines this simulator constructed are closed; a shared
        ``engine=`` passed in stays open for its other users (same
        ownership rule as ``sweep_tile_sizes``).
        """
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "ProsperitySimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _records_for(
        self, workload: GeMMWorkload, transform=None
    ) -> tuple[np.ndarray, float]:
        """Tile records plus the fraction of tiles they cover.

        ``transform``, when given, is a precomputed
        :class:`~repro.core.prosparsity.ProSparsityResult` from a
        trace-level plan (bit-identical to transforming here).
        """
        if self.mode in (MODE_DENSE, MODE_BIT):
            records = _light_records(
                workload.spikes, self.config.tile_m, self.config.tile_k
            )
            return records, 1.0
        if transform is None:
            transform = self.engine.transform_matrix(
                workload.spikes,
                self.config.tile_m,
                self.config.tile_k,
                keep_transforms=False,
                max_tiles=self.max_tiles,
                rng=self.rng,
            )
        return transform.tile_records, transform.stats.sample_fraction

    def _traffic(self, workload: GeMMWorkload) -> TrafficSummary:
        if workload.kind == "attention":
            # The dynamic right operand is produced on chip by a previous
            # PPU pass; it streams in once rather than once per m-tile.
            return TrafficSummary(
                spike_bytes=workload.m * workload.k / 8.0,
                weight_bytes=workload.k * workload.n * self.config.weight_bits / 8.0,
                output_bytes=workload.m * workload.n / 8.0,
            )
        return self.memory.workload_traffic(workload.m, workload.k, workload.n)

    def _component_energy(
        self,
        workload: GeMMWorkload,
        records: np.ndarray,
        inv: float,
        cycles: float,
        traffic: TrafficSummary,
    ) -> dict[str, float]:
        """Per-component energy in pJ for one workload.

        ``inv`` is the reciprocal of the tile sampling fraction; every
        quantity derived from ``records`` is scaled by it so the estimate
        covers the full workload. Workload-global terms (DRAM, neuron
        array, output partial-sum traffic, static) use exact counts.
        """
        cfg = self.config
        n = workload.n
        m_col = records[:, _FIELD["m"]].astype(np.float64)
        k_col = records[:, _FIELD["k"]].astype(np.float64)
        bit_nnz = float(records[:, _FIELD["bit_nnz"]].sum()) * inv
        product_nnz = float(records[:, _FIELD["product_nnz"]].sum()) * inv
        reused_rows = float(records[:, _FIELD["reused_rows"]].sum()) * inv
        rows = float(m_col.sum()) * inv
        tile_bits = float((m_col * k_col).sum()) * inv

        breakdown: dict[str, float] = {}
        uses_ppu_frontend = self.mode in (MODE_PROSPERITY, MODE_PROSPARSITY_SLOW)
        if uses_ppu_frontend:
            # Detector: every query activates the full TCAM array (m^2 k
            # bit ops per tile — the dominant Sec. VII-G overhead term),
            # plus one popcount pass over the tile.
            searches_bits = float((m_col * cfg.tcam_entries * k_col).sum()) * inv
            breakdown["detector"] = (
                searches_bits * energy_model.E_TCAM_SEARCH_BIT
                + tile_bits * energy_model.E_POPCOUNT_BIT
            )
            # Pruner: filter + argmax comparator activity per query row,
            # plus the XOR sparsifier (per bit).
            breakdown["pruner"] = (
                rows * 4 * energy_model.E_INT_COMPARE + tile_bits * 0.05
            )
            # Dispatcher: bitonic comparator activity + table write/read.
            sorter = BitonicSorter(max(cfg.tile_m, 2))
            sorter_cmps = len(records) * inv * sorter.comparisons(cfg.tile_m)
            entry_bytes = (cfg.tile_k + 16) / 8.0
            table_bytes = 2.0 * rows * entry_bytes
            breakdown["dispatcher"] = (
                sorter_cmps * energy_model.E_INT_COMPARE
                + table_bytes * energy_model.E_TABLE_BYTE
            )
        else:
            breakdown["detector"] = 0.0
            breakdown["pruner"] = 0.0
            breakdown["dispatcher"] = 0.0

        if self.mode == MODE_DENSE:
            adds = float(workload.m) * workload.k * n
        elif self.mode == MODE_BIT:
            adds = bit_nnz * n
        else:
            adds = product_nnz * n
        breakdown["processor"] = adds * energy_model.E_ADD_8BIT

        # Buffers: weight reads per accumulate, spike streaming (detector +
        # processor), output partial-sum read/write per k-tile pass and
        # prefix loads.
        spike_bytes = 2.0 * tile_bits / 8.0
        k_tiles = -(-workload.k // cfg.tile_k)
        psum_bytes = 2.0 * workload.m * n * 3.0 * k_tiles
        prefix_bytes = reused_rows * n * 3.0
        wide = energy_model.E_SRAM_WIDE_FACTOR  # full-row psum bursts
        breakdown["buffers"] = (
            adds * self.energy.weight_buffer_byte
            + spike_bytes * self.energy.spike_buffer_byte
            + (psum_bytes + prefix_bytes) * self.energy.output_buffer_byte * wide
        )

        breakdown["neuron_sfu"] = workload.m * n * energy_model.E_LIF_UPDATE
        breakdown["dram"] = traffic.total * self.energy.dram_byte
        breakdown["static"] = self.energy.static_energy_pj(cycles)
        return breakdown

    # ------------------------------------------------------------------
    def simulate_workload(
        self, workload: GeMMWorkload, transform=None
    ) -> LayerResult:
        """Latency + energy for one spiking GeMM."""
        records, fraction = self._records_for(workload, transform)
        inv = 1.0 / fraction
        total, compute, exposed = pipeline_tile_cycles(
            self.config, records, workload.n, self.mode
        )
        compute_total = compute * inv
        exposed_total = exposed * inv

        traffic = self._traffic(workload)
        dram_cycles = self.memory.dram_cycles(traffic)
        neuron_cycles = self.neuron_array.cycles(workload.m * workload.n)

        cycles = max(compute_total, dram_cycles, neuron_cycles) + exposed_total
        energy = self._component_energy(workload, records, inv, cycles, traffic)

        if self.mode == MODE_DENSE:
            processed = workload.m * workload.k
        elif self.mode == MODE_BIT:
            processed = int(records[:, _FIELD["bit_nnz"]].sum() * inv)
        else:
            processed = int(records[:, _FIELD["product_nnz"]].sum() * inv)

        return LayerResult(
            name=workload.name,
            cycles=cycles,
            compute_cycles=compute_total,
            memory_cycles=dram_cycles,
            overhead_cycles=exposed_total,
            dense_macs=workload.dense_macs,
            processed_ops=processed,
            dram_bytes=traffic.total,
            energy_pj=energy,
        )

    def simulate(self, trace: ModelTrace) -> SimReport:
        """Simulate a full model trace.

        The ProSparsity transform runs once over the whole trace
        (cross-workload shape buckets, global content dedup); the
        per-layer records — and therefore every latency/energy number —
        are bit-identical to a per-workload core transform.
        """
        report = SimReport(
            accelerator=self.name,
            model=trace.model,
            dataset=trace.dataset,
            frequency_hz=self.config.frequency_hz,
        )
        transforms = self._trace_transforms(trace)
        for workload, transform in zip(trace.workloads, transforms):
            report.layers.append(self.simulate_workload(workload, transform))
        return report

    def _trace_transforms(self, trace: ModelTrace) -> list:
        """Whole-trace transform results (none for the prefix-free modes)."""
        if self.mode in (MODE_DENSE, MODE_BIT):
            return [None] * len(trace.workloads)
        return self.engine.transform_trace(
            trace.workloads,
            self.config.tile_m,
            self.config.tile_k,
            max_tiles=self.max_tiles,
            rng=self.rng,
        )

    @property
    def area_mm2(self) -> float:
        return energy_model.area_model(self.config).total
