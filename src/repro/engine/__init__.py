"""repro.engine — batched, backend-pluggable ProSparsity execution.

The engine is the throughput layer above :mod:`repro.core`: it chooses a
:class:`~repro.engine.backends.Backend` (``reference`` oracle, bulk
``vectorized`` NumPy, tile-batched ``fused`` kernels, multiprocess
``sharded`` execution, or Numba-``compiled`` native kernels with a
transparent NumPy fallback), batches whole-network traces, and caches
per-tile
forests by content hash. :mod:`repro.engine.planner` lifts batching to
trace scope (``plan="trace"``): cross-workload shape buckets, one global
content dedup per bucket, and arena-backed buffers reused across runs.
Every backend and plan mode is bit-identical to the core transform; the
engine only changes *how fast* the answer arrives.
"""

from repro.engine.backends import (
    DEFAULT_BACKEND,
    Backend,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.compiled import CompiledBackend
from repro.engine.faults import FaultInjected, FaultPlan, FaultSpec
from repro.engine.fused import FusedBackend
from repro.engine.parallel import PoolBrokenError, ShardedBackend
from repro.engine.planner import (
    DEFAULT_PLAN,
    PLAN_MODES,
    BufferArena,
    TracePlan,
    TracePlanner,
    validate_plan_mode,
)
from repro.engine.pipeline import (
    EngineReport,
    ForestCache,
    ProsperityEngine,
    WorkloadRun,
    stats_from_records,
)
from repro.engine.store import ResultStore, StoreStats, default_store_path

__all__ = [
    "Backend",
    "BufferArena",
    "CompiledBackend",
    "DEFAULT_BACKEND",
    "DEFAULT_PLAN",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FusedBackend",
    "PLAN_MODES",
    "PoolBrokenError",
    "ReferenceBackend",
    "ResultStore",
    "ShardedBackend",
    "StoreStats",
    "TracePlan",
    "TracePlanner",
    "VectorizedBackend",
    "available_backends",
    "default_store_path",
    "get_backend",
    "register_backend",
    "validate_plan_mode",
    "EngineReport",
    "ForestCache",
    "ProsperityEngine",
    "WorkloadRun",
    "stats_from_records",
]
