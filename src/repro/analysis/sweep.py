"""Tiling design-space exploration (Fig. 7) over m and k."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import ProsperityConfig
from repro.arch.energy import area_model
from repro.arch.ppu import MODE_BIT, MODE_PROSPERITY
from repro.arch.simulator import ProsperitySimulator
from repro.analysis.density import trace_prosparsity_stats
from repro.engine.backends import DEFAULT_BACKEND
from repro.engine.pipeline import ProsperityEngine
from repro.snn.trace import ModelTrace


@dataclass
class SweepPoint:
    """One (m, k) configuration's outcome, averaged over the given traces."""

    tile_m: int
    tile_k: int
    product_density: float
    bit_density: float
    latency_vs_bit: float      # Prosperity latency / bit-sparsity latency
    area_mm2: float
    relative_area: float       # normalized to the Table III configuration
    relative_power_proxy: float  # TCAM+table activity scaling with m


def _latency_ratio(
    traces: list[ModelTrace],
    config: ProsperityConfig,
    max_tiles: int | None,
    rng: np.random.Generator,
    backend=DEFAULT_BACKEND,
) -> float:
    """Prosperity-vs-bit-sparsity latency on the same hardware.

    ``backend`` may be a shared instance so the whole sweep reuses one
    transform backend; the two simulators share one engine per
    configuration for the same reason.
    """
    pro_cycles = 0.0
    bit_cycles = 0.0
    engine = ProsperityEngine(
        backend=backend, tile_m=config.tile_m, tile_k=config.tile_k
    )
    for trace in traces:
        pro = ProsperitySimulator(
            config=config, mode=MODE_PROSPERITY,
            max_tiles_per_workload=max_tiles, rng=rng, engine=engine,
        ).simulate(trace)
        bit = ProsperitySimulator(
            config=config, mode=MODE_BIT,
            max_tiles_per_workload=max_tiles, rng=rng, engine=engine,
        ).simulate(trace)
        pro_cycles += pro.cycles
        bit_cycles += bit.cycles
    return pro_cycles / bit_cycles if bit_cycles else 0.0


def sweep_tile_sizes(
    traces: list[ModelTrace],
    m_values: tuple[int, ...] = (32, 64, 128, 256, 512, 1024, 2048),
    k_values: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    base_config: ProsperityConfig | None = None,
    max_tiles: int | None = 24,
    rng: np.random.Generator | None = None,
    backend: str = DEFAULT_BACKEND,
) -> tuple[list[SweepPoint], list[SweepPoint]]:
    """Fig. 7's two sweeps: vary m at fixed k, and k at fixed m.

    .. note:: Calling this directly remains supported, but
       :meth:`repro.api.Session.sweep` is the canonical entry point: it
       feeds this function from a typed :class:`~repro.api.RunConfig`
       and shares the session's backend.

    Returns ``(m_sweep, k_sweep)``. Density always falls with larger m
    (larger prefix search scope) while a middle k is optimal; area/power
    grow super-linearly with m. ``backend`` selects the transform
    implementation (results are backend-independent; the default
    ``fused`` backend is the fast path, ``reference`` the oracle).
    Backends constructed here (by name) are closed before returning;
    caller-supplied instances stay open.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    base = base_config if base_config is not None else ProsperityConfig()
    base_area = area_model(base).total
    engine = ProsperityEngine(backend=backend)
    # One backend instance for the whole sweep: every per-config engine
    # below reuses it. engine.close() below releases it only if it was built from a name
    # here — caller-supplied instances stay open for their other users.
    shared_backend = engine.backend

    def evaluate(m: int, k: int) -> SweepPoint:
        config = base.with_tile(m=m, k=k)
        stats_total = None
        for trace in traces:
            stats = trace_prosparsity_stats(
                trace, tile_m=m, tile_k=k, max_tiles=max_tiles, rng=rng,
                engine=engine,
            )
            if stats_total is None:
                stats_total = stats
            else:
                stats_total.merge(stats)
        assert stats_total is not None
        area = area_model(config).total
        # Power proxy: TCAM search activity per processed row scales with
        # m * k; normalized to the base configuration.
        power_proxy = (m * k) / (base.tile_m * base.tile_k)
        return SweepPoint(
            tile_m=m,
            tile_k=k,
            product_density=stats_total.product_density,
            bit_density=stats_total.bit_density,
            latency_vs_bit=_latency_ratio(
                traces, config, max_tiles, rng, shared_backend
            ),
            area_mm2=area,
            relative_area=area / base_area,
            relative_power_proxy=power_proxy,
        )

    try:
        m_sweep = [evaluate(m, base.tile_k) for m in m_values]
        k_sweep = [evaluate(base.tile_m, k) for k in k_values]
    finally:
        engine.close()
    return m_sweep, k_sweep
