"""repro.engine — trace-planned, cache-aware ProSparsity execution.

The engine is the throughput layer above :mod:`repro.core`. It runs one
fast path: the :class:`~repro.engine.planner.TracePlanner` packs a whole
trace into cross-workload shape buckets with one global content dedup
per bucket, and the ``fused`` backend (:mod:`repro.engine.fused`)
computes each bucket in one tile-batched kernel launch. Every run is
one :meth:`ProsperityEngine.execute_pass`. Per-tile records are cached
by content hash, optionally over a persistent :class:`ResultStore`. The
``reference`` backend is the per-tile :mod:`repro.core` oracle; results
are bit-identical either way — the engine only changes *how fast* the
answer arrives.
"""

from repro.engine.backends import (
    DEFAULT_BACKEND,
    Backend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.faults import FaultInjected, FaultPlan, FaultSpec
from repro.engine.fused import FusedBackend
from repro.engine.planner import TracePlan, TracePlanner
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
    "DEFAULT_BACKEND",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FusedBackend",
    "ReferenceBackend",
    "ResultStore",
    "StoreStats",
    "TracePlan",
    "TracePlanner",
    "available_backends",
    "default_store_path",
    "get_backend",
    "register_backend",
    "EngineReport",
    "ForestCache",
    "ProsperityEngine",
    "WorkloadRun",
    "stats_from_records",
]
