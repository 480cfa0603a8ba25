"""Pinned spike-bit digests of every ``small`` figure trace.

Trace generation (weight init, LIF threshold calibration, forward) fixes
every density, cycle count and figure the benchmarks report. Each digest
covers one trace's layer names, shapes and spike bits, so any change to
trace building that moves a single spike fails here.

Regenerate ``tests/data/trace_digests.json`` only for a deliberate change
to the traces::

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.workloads import FIG8_GRID, FIG11_GRID, clear_trace_cache, get_trace

DIGESTS = Path(__file__).parent / "data" / "trace_digests.json"

#: Every model/dataset pair a figure benchmark builds, in first-seen order.
GRID = tuple(dict.fromkeys(FIG8_GRID + FIG11_GRID))


def trace_digest(trace) -> str:
    """blake2b over each layer's name, shape and packed spike bits."""
    digest = hashlib.blake2b(digest_size=16)
    for workload in trace.workloads:
        bits = workload.spikes.bits
        digest.update(f"{workload.name}:{bits.shape[0]}x{bits.shape[1]};".encode())
        digest.update(np.packbits(bits, axis=None).tobytes())
    return digest.hexdigest()


def build_digests() -> dict[str, str]:
    digests = {}
    for model, dataset in GRID:
        digests[f"{model}/{dataset}"] = trace_digest(get_trace(model, dataset, "small"))
        clear_trace_cache()
    return digests


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_pinned_grid_covers_every_figure_pair(pinned):
    assert len(GRID) == 21
    assert sorted(pinned) == sorted(f"{m}/{d}" for m, d in GRID)


def test_small_traces_match_pinned_digests(pinned):
    clear_trace_cache()
    assert build_digests() == pinned


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(build_digests(), indent=2) + "\n")
    print(f"wrote {DIGESTS}")
