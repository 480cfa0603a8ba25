"""Spiking-transformer pipeline: the workloads prior SNN ASICs cannot run.

Spiking transformers mix linear projections (plain spiking GeMM) with
attention products whose right operand is *dynamic* (another spike
product). PTB/SATO/MINT only execute the linear layers (paper
Sec. VII-A); Prosperity's PPU + SFU run everything. This example drives
two encoder configurations through the canonical :mod:`repro.api` entry
point — one base :class:`~repro.api.RunConfig`, one ``with_overrides``
per model — comparing Prosperity with the A100 GPU model, the paper's
Fig. 8 transformer story.

Run:  python examples/transformer_pipeline.py
"""

from repro.api import RunConfig, Session


def main() -> None:
    base = RunConfig().with_overrides({
        "engine.backend": "fused",
        "sampling.max_tiles": 16,
        "simulator.baselines": ("a100", "ptb"),
    })

    for model, dataset in (("spikformer", "cifar10"), ("spikebert", "sst2")):
        config = base.with_overrides({"workload.model": model,
                                      "workload.dataset": dataset})
        with Session(config) as session:
            trace = session.trace()
            attention = [w for w in trace.workloads if w.kind == "attention"]
            print(f"== {model}/{dataset}: {len(trace)} GeMMs "
                  f"({len(attention)} attention products) ==")

            run = session.run()
            stats = run.report.stats
            print(f"   bit density {stats.bit_density:.2%} -> "
                  f"product density {stats.product_density:.2%} "
                  f"({stats.ops_reduction:.1f}x fewer accumulations, "
                  f"{run.report.tiles_per_sec:,.0f} tiles/sec transform)")

            reports = session.simulate().reports
            prosperity, gpu, ptb = (
                reports["prosperity"], reports["a100"], reports["ptb"]
            )
            print(f"   prosperity : {prosperity.seconds * 1e6:9.1f} us, "
                  f"{prosperity.energy_j * 1e3:7.3f} mJ (full model)")
            print(f"   a100       : {gpu.seconds * 1e6:9.1f} us, "
                  f"{gpu.energy_j * 1e3:7.3f} mJ (full model) -> "
                  f"{gpu.seconds / prosperity.seconds:.2f}x slower, "
                  f"{gpu.energy_j / prosperity.energy_j:.0f}x more energy")
            print(f"   ptb        : runs only {len(ptb.layers)}/{len(trace)} "
                  f"workloads (linear layers only)\n")


if __name__ == "__main__":
    main()
