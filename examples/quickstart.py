"""Quickstart: product sparsity end to end through the unified API.

``repro.api`` is the canonical entry point: a typed, serializable
:class:`~repro.api.RunConfig` plus a :class:`~repro.api.Session` facade
over the engine, simulator, and analysis layers. This example runs the
ProSparsity transform over a small traced SNN, prints the headline
numbers, then drops to ``repro.core`` to show the lossless GeMM the
statistics describe.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import RunConfig, Session
from repro.core import SpikeMatrix, build_forest, execute_gemm, random_spike_matrix
from repro.core.reference import dense_spiking_gemm


def main() -> None:
    # 1. Configure: one frozen, validated object describes the whole run
    #    (it round-trips through TOML/JSON — see `repro config dump`).
    config = RunConfig().with_overrides({
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "engine.backend": "fused",
    })

    # 2. Execute: the Session owns backend/engine lifecycle and exposes
    #    every experiment (run / simulate / sweep / density / ...).
    with Session(config) as session:
        result = session.run()
        stats = result.report.stats
        print(f"model            : {config.workload.model}/"
              f"{config.workload.dataset} ({result.report.total_tiles} tiles)")
        print(f"bit density      : {stats.bit_density:8.2%}")
        print(f"product density  : {stats.product_density:8.2%}")
        print(f"ops reduction    : {stats.ops_reduction:8.2f}x")
        print(f"throughput       : {result.report.tiles_per_sec:,.0f} tiles/sec "
              f"({result.report.dedup_ratio:.2f}x cross-workload dedup)")

        density = session.density().report
        print(f"vs bit sparsity  : {density.reduction_vs_bit:8.2f}x fewer ops")

    # 3. Under the hood: the lossless ProSparsity GeMM on one matrix
    #    (repro.core stays the readable reference implementation).
    rng = np.random.default_rng(0)
    spikes = random_spike_matrix(
        rows=512, cols=64, density=0.25, rng=rng, row_correlation=0.5
    )
    weights = rng.normal(size=(64, 32))
    tile = next(SpikeMatrix(spikes.bits).tile(256, 16))
    forest = build_forest(tile)
    print(f"forest roots     : {len(forest.roots())} of {forest.m} rows")
    print(f"forest depth     : {forest.depth()} (longest prefix chain)")
    out = execute_gemm(spikes, weights, tile_m=256, tile_k=16)
    ref = dense_spiking_gemm(spikes.bits, weights)
    assert np.allclose(out, ref), "ProSparsity result diverged!"
    print("lossless check   : ProSparsity GeMM == dense GeMM  [OK]")


if __name__ == "__main__":
    main()
