"""repro — reproduction of "Prosperity: Accelerating Spiking Neural
Networks via Product Sparsity" (Wei et al., HPCA 2025).

Layered public API:

* :mod:`repro.api` — **the canonical entry point**: the typed
  :class:`~repro.api.RunConfig` (TOML/JSON round-trip, ``with_overrides``
  sweeps) and the :class:`~repro.api.Session` facade over engine,
  simulator, and analysis with shared backend/engine lifecycle.
* :mod:`repro.core` — Product Sparsity: relations, forest, dispatch, and
  the lossless ProSparsity spiking GeMM.
* :mod:`repro.snn` — NumPy SNN substrate (LIF/FS neurons, conv/linear/
  attention layers, the paper's model zoo, workload tracing).
* :mod:`repro.arch` — the Prosperity accelerator simulator (PPU pipeline,
  memory system, 28 nm area/energy models).
* :mod:`repro.engine` — trace-planned execution engine (the ``fused``
  fast path and the ``reference`` oracle, content-hash forest cache).
* :mod:`repro.baselines` — Eyeriss, PTB, SATO, MINT, Stellar, LoAS, A100.
* :mod:`repro.analysis` — density studies, tiling DSE, cost trade-off.
* :mod:`repro.workloads` — the cached model x dataset evaluation grid.
"""

from repro.arch import ProsperityConfig, ProsperitySimulator, SimReport
from repro.core import (
    SpikeMatrix,
    execute_gemm,
    transform_matrix,
)
from repro.engine import ProsperityEngine, available_backends
from repro.snn import GeMMWorkload, ModelTrace
from repro.workloads import FIG8_GRID, FIG11_GRID, get_trace

# Imported last: repro.api sits above every other layer.
from repro.api import RunConfig, Session  # noqa: E402

__version__ = "1.7.0"

__all__ = [
    "RunConfig",
    "Session",
    "ProsperityConfig",
    "ProsperityEngine",
    "ProsperitySimulator",
    "SimReport",
    "available_backends",
    "SpikeMatrix",
    "execute_gemm",
    "transform_matrix",
    "GeMMWorkload",
    "ModelTrace",
    "FIG8_GRID",
    "FIG11_GRID",
    "get_trace",
    "__version__",
]
