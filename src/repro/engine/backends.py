"""Pluggable ProSparsity execution backends.

The engine separates *what* the ProSparsity transform computes (prefix
forests, tile records, lossless GeMM execution — defined by
:mod:`repro.core`) from *how* it is computed. Two backends ship:

* ``reference`` — delegates to the per-tile/per-row code in
  :mod:`repro.core.forest` and :mod:`repro.core.prosparsity`. Slow but
  simple; it is the correctness oracle the fast path is tested against.
* ``fused`` (:mod:`repro.engine.fused`, registered on import of
  :mod:`repro.engine`) — the fast path: tile-batched NumPy kernels over
  packed machine-word codes, driven by the trace planner.

Both produce bit-identical forests, tile records, and (for integer
weights) GeMM outputs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.dispatch import build_dispatch_plan
from repro.core.forest import ProSparsityForest, build_forest
from repro.core.prosparsity import (
    TILE_RECORD_FIELDS,
    TileTransform,
    execute_tile,
    forest_record,
)
from repro.core.spike_matrix import SpikeMatrix, SpikeTile

__all__ = [
    "Backend",
    "DEFAULT_BACKEND",
    "ReferenceBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "unknown_backend_error",
]


class Backend(ABC):
    """Strategy interface for the ProSparsity transform and execution.

    Implementations must be *observationally identical* to the reference
    backend: same forests, same tile records, same integer GeMM outputs.
    Floating-point GeMM outputs may differ by summation order only.
    """

    name: str = "abstract"

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release backend resources; idempotent.

        The shipped backends hold none — the base implementation is a
        no-op — but the engine keeps the ownership rule (it closes only
        backends it constructed from a name), so a backend that does hold
        resources can plug in without leaking them.
        """

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transform ------------------------------------------------------
    @abstractmethod
    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        """Build the pruned prefix forest for one tile."""

    def tile_record(self, tile: SpikeTile) -> tuple[int, ...]:
        """Per-tile statistics record (see ``TILE_RECORD_FIELDS``)."""
        return forest_record(self.forest(tile))

    def matrix_records(
        self,
        matrix: SpikeMatrix,
        tile_m: int,
        tile_k: int,
        cache=None,
    ) -> np.ndarray:
        """Tile records for every tile of ``matrix`` in row-major order.

        ``cache``, when given, must expose ``get_record(m, k, packed)``
        and ``put_record(m, k, packed, record)`` (see
        :class:`repro.engine.pipeline.ForestCache`).
        """
        records: list[tuple[int, ...]] = []
        for tile in matrix.tile(tile_m, tile_k):
            record = None
            if cache is not None:
                record = cache.get_record(tile.m, tile.k, tile.packed)
            if record is None:
                record = self.tile_record(tile)
                if cache is not None:
                    cache.put_record(tile.m, tile.k, tile.packed, record)
            records.append(record)
        return np.array(records, dtype=np.int64).reshape(
            len(records), len(TILE_RECORD_FIELDS)
        )

    # -- execution ------------------------------------------------------
    @abstractmethod
    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        """Execute one tile's forest against a ``(k, n)`` weight slice."""


class ReferenceBackend(Backend):
    """The per-tile/per-row oracle: exactly the :mod:`repro.core` path."""

    name = "reference"

    def forest(self, tile: SpikeTile) -> ProSparsityForest:
        return build_forest(tile)

    def execute(self, forest: ProSparsityForest, weights: np.ndarray) -> np.ndarray:
        plan = build_dispatch_plan(forest)
        transform = TileTransform(tile=forest.tile, forest=forest, plan=plan)
        return execute_tile(transform, weights)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, type[Backend]] = {}

#: The backend every entry point uses unless told otherwise: the
#: tile-batched fast path. ``reference`` stays the oracle, opt-in.
DEFAULT_BACKEND = "fused"


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Register a backend class under its ``name`` (later scaling seam)."""
    _BACKENDS[cls.name] = cls
    return cls


def unknown_backend_error(backend: str) -> ValueError:
    """The canonical unknown-backend error, shared by every entry point."""
    return ValueError(
        f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
    )


register_backend(ReferenceBackend)


def available_backends() -> tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_BACKENDS))


def get_backend(backend: str | Backend) -> Backend:
    """Resolve a backend instance from a name or pass one through."""
    if isinstance(backend, Backend):
        return backend
    try:
        cls = _BACKENDS[backend]
    except KeyError:
        raise unknown_backend_error(backend) from None
    return cls()
