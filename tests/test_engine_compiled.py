"""Compiled (Numba) backend: JIT fast path and NumPy fallback, one truth.

Acceptance contract (ISSUE 6): the ``compiled`` backend's records are
bit-identical to the reference oracle for every plan mode and worker
count, with or without numba installed; the kernel *logic* is pinned via
its pure-Python form (:func:`tile_records_python`) so this suite proves
the fast path's algorithm even in environments where numba is absent;
``REPRO_NO_JIT=1`` and a numba-less interpreter both degrade to records
identical to ``fused``; warmup runs once and is booked as its own
profile stage; and the unknown-backend error lists ``compiled`` with its
install status.

Every assertion here passes on both CI matrix legs: the numpy-only leg
exercises the fallback (``jit_active=False``), the ``.[compiled]`` leg
exercises the JIT (``jit_active=True``). ``EXPECT_JIT`` keys the
env-dependent expectations.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.spike_matrix import random_spike_matrix
from repro.engine import (
    CompiledBackend,
    ProsperityEngine,
    ShardedBackend,
    available_backends,
    get_backend,
)
from repro.engine.backends import ReferenceBackend
from repro.engine.compiled import (
    COMPILED_PROFILE_STAGES,
    jit_disabled,
    jit_status,
    numba_installed,
    tile_records_python,
)
from repro.engine.fused import (
    FusedBackend,
    padded_codes,
    records_from_codes_batch,
)
from repro.engine.planner import PLANNED_PROFILE_STAGES
from repro.snn.trace import GeMMWorkload
from repro.utils.bitops import popcount_rows

#: What this environment should resolve to (True on the CI compiled leg,
#: False on the numpy-only leg and in numba-less dev checkouts).
EXPECT_JIT = numba_installed() and not jit_disabled()


def _stack(rng, T, m, k, density, correlation=0.0):
    """A packed (T, m, W) code stack + popcounts, like build_tile_parts."""
    matrix = random_spike_matrix(T * m, k, density, rng, correlation)
    packed = np.packbits(matrix.bits, axis=1)
    codes = padded_codes(packed).reshape(T, m, -1)
    pops = popcount_rows(packed).reshape(T, m)
    return codes, pops


def _child_env():
    """Subprocess env with the package importable from a bare checkout."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestKernelLogic:
    """The nopython kernel body vs the fused NumPy twin, bit for bit.

    These run the exact code numba compiles (``py_func`` path), so they
    hold on every environment — the JIT only changes how fast the same
    loops execute.
    """

    def test_paper_tile(self, paper_tile):
        codes = padded_codes(paper_tile.packed)[None]
        pops = popcount_rows(paper_tile.packed)[None]
        want = records_from_codes_batch(codes, pops, paper_tile.k)
        assert np.array_equal(want, tile_records_python(codes, pops, paper_tile.k))

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.7, 1.0])
    def test_random_stacks(self, rng, density):
        codes, pops = _stack(rng, T=7, m=16, k=16, density=density, correlation=0.3)
        want = records_from_codes_batch(codes, pops, 16)
        assert np.array_equal(want, tile_records_python(codes, pops, 16))

    @pytest.mark.parametrize("k", [24, 40, 48, 56])
    def test_padding_widths(self, rng, k):
        """Non-power-of-two byte widths (3/5/6/7) zero-extend cleanly."""
        codes, pops = _stack(rng, T=5, m=12, k=k, density=0.35)
        assert (k + 7) // 8 in (3, 5, 6, 7)
        want = records_from_codes_batch(codes, pops, k)
        assert np.array_equal(want, tile_records_python(codes, pops, k))

    def test_single_row_and_empty_rows(self, rng):
        codes, pops = _stack(rng, T=3, m=1, k=8, density=0.5)
        want = records_from_codes_batch(codes, pops, 8)
        assert np.array_equal(want, tile_records_python(codes, pops, 8))

    def test_deep_chains(self):
        """Nested-subset rows produce long chains; depths must agree."""
        m, k = 12, 16
        bits = np.zeros((m, k), dtype=bool)
        for i in range(m):
            bits[i, : i + 1] = True  # row i is a strict superset of row i-1
        packed = np.packbits(bits, axis=1)
        codes = padded_codes(packed)[None]
        pops = popcount_rows(packed)[None]
        want = records_from_codes_batch(codes, pops, k)
        got = tile_records_python(codes, pops, k)
        assert np.array_equal(want, got)
        assert got[0, 8] == m - 1  # depth field: one maximal chain


class TestCompiledEquivalence:
    """Backend-level: compiled == reference oracle, every mode."""

    def test_matrix_records_match_oracle(self, rng):
        oracle = ReferenceBackend()
        backend = CompiledBackend()
        for density, correlation in ((0.05, 0.0), (0.3, 0.5), (0.7, 0.2)):
            matrix = random_spike_matrix(300, 40, density, rng, correlation)
            expected = oracle.matrix_records(matrix, 64, 16)
            assert np.array_equal(expected, backend.matrix_records(matrix, 64, 16))

    @pytest.mark.parametrize("plan", ["matrix", "trace"])
    def test_engine_run_matches_reference(self, rng, plan):
        trace = [
            GeMMWorkload(
                name=f"w{i}",
                spikes=random_spike_matrix(rows, cols, density, rng, 0.4),
                n=8,
            )
            for i, (rows, cols, density) in enumerate(
                [(512, 32, 0.3), (130, 17, 0.2), (256, 16, 0.5)]
            )
        ]
        ref = ProsperityEngine(backend="reference", tile_m=64, tile_k=16, plan=plan)
        mine = ProsperityEngine(backend="compiled", tile_m=64, tile_k=16, plan=plan)
        ref_report = ref.run(trace, batch=4)
        my_report = mine.run(trace, batch=4)
        assert my_report.backend == "compiled"
        for a, b in zip(my_report.runs, ref_report.runs):
            assert np.array_equal(a.records, b.records), a.name

    def test_matches_sharded_across_worker_counts(self, rng):
        """compiled == sharded for workers in {1, 2, 4} (same bits)."""
        matrix = random_spike_matrix(64 * 20, 32, 0.25, rng, 0.4)
        expected = CompiledBackend().matrix_records(matrix, 64, 16)
        for workers in (1, 2, 4):
            with ShardedBackend(workers=workers) as sharded:
                actual = sharded.matrix_records(matrix, 64, 16)
            assert np.array_equal(expected, actual), workers

    def test_fallback_identical_to_fused(self, rng, monkeypatch):
        """REPRO_NO_JIT=1: the compiled backend *is* the fused path."""
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        backend = CompiledBackend()
        assert backend.jit_active is False
        matrix = random_spike_matrix(300, 40, 0.3, rng, 0.5)
        expected = FusedBackend().matrix_records(matrix, 64, 16)
        assert np.array_equal(expected, backend.matrix_records(matrix, 64, 16))

    def test_tile_record_entry_point(self, paper_tile):
        assert CompiledBackend().tile_record(paper_tile) == ReferenceBackend(
        ).tile_record(paper_tile)


class TestWarmup:
    def test_jit_active_matches_environment(self):
        assert CompiledBackend().jit_active is EXPECT_JIT

    def test_warmup_returns_jit_active(self):
        backend = CompiledBackend()
        assert backend.warmup() is EXPECT_JIT
        assert backend.jit_active is EXPECT_JIT

    def test_warmup_runs_once(self):
        backend = CompiledBackend()
        backend.warmup()
        booked = backend.profile["warmup"]
        if EXPECT_JIT:
            assert backend._warmed is True
            assert booked > 0.0
        else:
            assert booked == 0.0
        backend.warmup()
        assert backend.profile["warmup"] == booked  # idempotent

    def test_dispatch_auto_warms(self, rng):
        """First _compute_records pays warmup without an explicit call."""
        backend = CompiledBackend()
        matrix = random_spike_matrix(128, 16, 0.3, rng)
        backend.matrix_records(matrix, 64, 16)
        if EXPECT_JIT:
            assert backend._warmed is True
            assert backend.profile["warmup"] > 0.0

    def test_no_jit_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "1")
        backend = CompiledBackend()
        assert backend.jit_active is False
        assert backend.warmup() is False
        assert jit_disabled() is True
        assert jit_status() == "disabled (REPRO_NO_JIT=1)"

    def test_no_jit_zero_is_not_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_JIT", "0")
        assert jit_disabled() is False

    def test_jit_status_reflects_install(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_JIT", raising=False)
        status = jit_status()
        if numba_installed():
            assert status in ("available",) or status.startswith("broken")
        else:
            assert status == "unavailable (numba not installed)"


class TestConstruction:
    def test_registered(self):
        assert "compiled" in available_backends()

    def test_get_backend(self):
        backend = get_backend("compiled")
        assert isinstance(backend, CompiledBackend)
        assert backend.name == "compiled"

    def test_rejects_workers_option(self):
        with pytest.raises(ValueError, match="does not accept"):
            get_backend("compiled", workers=2)

    def test_unknown_backend_error_lists_availability(self):
        """The bugfix: a typo'd name doubles as an availability listing."""
        with pytest.raises(ValueError, match="unknown backend") as err:
            get_backend("nope")
        message = str(err.value)
        note = (
            "compiled (numba installed)"
            if numba_installed()
            else "compiled (numba not installed, runs as NumPy fallback)"
        )
        assert note in message
        # Backends without an availability gate stay bare names.
        assert "fused," in message or message.endswith("fused")

    def test_availability_note(self):
        note = CompiledBackend.availability()
        assert note.startswith("numba ")

    def test_plain_backends_have_no_availability_note(self):
        assert FusedBackend.availability() is None
        assert ReferenceBackend.availability() is None


class TestProfileAndReport:
    @pytest.mark.parametrize("plan", ["matrix", "trace"])
    def test_profile_contract(self, rng, plan):
        """Warmup is a declared stage; sums stay inside wall-clock."""
        trace = [
            GeMMWorkload(
                name="w0",
                spikes=random_spike_matrix(512, 32, 0.3, rng, 0.4),
                n=8,
            )
        ]
        engine = ProsperityEngine(backend="compiled", tile_m=64, tile_k=16, plan=plan)
        report = engine.run(trace, batch=4)
        declared = (
            (*PLANNED_PROFILE_STAGES, "warmup")
            if plan == "trace"
            else COMPILED_PROFILE_STAGES
        )
        assert set(report.profile) == set(declared)
        assert all(seconds >= 0.0 for seconds in report.profile.values())
        assert sum(report.profile.values()) <= report.total_seconds + 1e-6

    def test_warmup_booked_only_on_first_run(self, rng):
        """Per-run profiles are deltas: run 2 shows zero warmup."""
        trace = [
            GeMMWorkload(
                name="w0", spikes=random_spike_matrix(256, 16, 0.3, rng), n=8
            )
        ]
        engine = ProsperityEngine(
            backend="compiled", tile_m=64, tile_k=16, plan="matrix"
        )
        engine.run(trace, batch=4)
        second = engine.run(trace, batch=4)
        assert second.profile["warmup"] == 0.0

    def test_report_jit_active_flag(self, rng):
        trace = [
            GeMMWorkload(
                name="w0", spikes=random_spike_matrix(256, 16, 0.3, rng), n=8
            )
        ]
        report = ProsperityEngine(backend="compiled", tile_m=64, tile_k=16).run(trace)
        assert report.jit_active is EXPECT_JIT

    def test_other_backends_report_none(self, rng):
        trace = [
            GeMMWorkload(
                name="w0", spikes=random_spike_matrix(256, 16, 0.3, rng), n=8
            )
        ]
        report = ProsperityEngine(backend="fused", tile_m=64, tile_k=16).run(trace)
        assert report.jit_active is None


class TestApiThreading:
    """compiled flows through Session / Scheduler / CLI unchanged."""

    CONFIG = {
        "workload.model": "lenet5",
        "workload.dataset": "mnist",
        "sampling.max_tiles": 4,
        "engine.backend": "compiled",
    }

    def test_session_run(self):
        from repro.api import RunConfig, Session

        with Session(RunConfig().with_overrides(self.CONFIG)) as session:
            result = session.run()
        assert result.report.backend == "compiled"
        assert result.report.jit_active is EXPECT_JIT

    def test_scheduler_coalesced_matches_serial(self):
        from repro.api import RunConfig, Scheduler, Session

        cfg = RunConfig().with_overrides(self.CONFIG)
        with Session(cfg) as session:
            serial = session.run()
        with Scheduler(cfg) as scheduler:
            mine, theirs = scheduler.gather([cfg, cfg])
        for result in (mine, theirs):
            assert result.report.jit_active is EXPECT_JIT
            for a, b in zip(result.report.runs, serial.report.runs):
                assert np.array_equal(a.records, b.records)

    def test_cli_run_compiled(self, capsys):
        from repro.cli import main

        assert main(
            ["run", "--model", "lenet5", "--dataset", "mnist",
             "--backend", "compiled"]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=compiled" in out
        if EXPECT_JIT:
            assert "jit: active" in out
        else:
            assert "jit: inactive" in out

    def test_cli_rejects_workers_for_compiled(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="does not accept"):
            main(
                ["run", "--model", "lenet5", "--dataset", "mnist",
                 "--backend", "compiled", "--workers", "2"]
            )


_CHILD_BODY = """
import numpy as np
from repro.core.spike_matrix import random_spike_matrix
from repro.engine import CompiledBackend, FusedBackend
backend = CompiledBackend()
assert backend.jit_active is False, "expected the fallback path"
assert backend.warmup() is False
matrix = random_spike_matrix(300, 40, 0.3, np.random.default_rng(7), 0.5)
expected = FusedBackend().matrix_records(matrix, 64, 16)
actual = backend.matrix_records(matrix, 64, 16)
assert np.array_equal(expected, actual), "fallback diverged from fused"
print("FALLBACK-IDENTICAL")
"""


class TestSubprocessFallback:
    """Degraded environments, proven in real child interpreters."""

    def test_repro_no_jit_env(self):
        env = _child_env()
        env["REPRO_NO_JIT"] = "1"
        result = subprocess.run(
            [sys.executable, "-c", _CHILD_BODY],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "FALLBACK-IDENTICAL" in result.stdout

    def test_numba_less_interpreter(self):
        """Block numba imports entirely: same records as fused.

        ``sys.modules["numba"] = None`` makes ``import numba`` raise even
        when the package is installed, so this is a real numba-less test
        on the CI compiled leg too.
        """
        env = _child_env()
        env.pop("REPRO_NO_JIT", None)
        script = 'import sys\nsys.modules["numba"] = None\n' + _CHILD_BODY
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "FALLBACK-IDENTICAL" in result.stdout
