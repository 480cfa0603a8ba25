"""Repo-root pytest bootstrap.

Makes ``python -m pytest`` work from a bare checkout (no ``pip install``
and no ``PYTHONPATH`` needed) by putting the src layout on ``sys.path``
when the package is not already installed, and registers global test
options.
"""

from __future__ import annotations

import pathlib
import sys

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "src"))


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="benchmarks: CI smoke mode (single repetition, reduced grids)",
    )
    parser.addoption(
        "--record-trajectory",
        action="store_true",
        default=False,
        help="benchmarks: append this run's numbers to BENCH_engine.json",
    )
