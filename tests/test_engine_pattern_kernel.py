"""Pattern-level Pruner kernel against the per-tile core oracle.

:func:`repro.engine.fused.select_prefixes_batch` runs its triangle scan
over each tile's distinct patterns and maps the answer back onto rows;
these tests pin it (and the records built on it) to
:func:`repro.core.forest.build_forest` / ``forest_record`` on the
inputs that stress that mapping: long duplicate chains, zero and
single-row tiles, ragged row counts, every one-word code width and
multi-word codes, and stacks cut into chunks in a different order.
The CPU split of :meth:`~repro.engine.fused.FusedBackend._compute_records`
must give the one-part records for any part count.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.forest import build_forest
from repro.core.prosparsity import forest_record
from repro.core.spike_matrix import SpikeTile, random_spike_matrix
from repro.engine import ProsperityEngine, fused
from repro.engine.fused import (
    padded_codes,
    records_from_codes_batch,
    select_prefixes_batch,
)
from repro.snn.trace import GeMMWorkload
from repro.utils.bitops import popcount_rows


def _stack(tiles: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(T, m, W)`` codes and ``(T, m)`` popcounts of same-shape tiles."""
    packed = [np.packbits(bits, axis=1) for bits in tiles]
    codes = np.stack([padded_codes(p) for p in packed])
    pops = np.stack([popcount_rows(p) for p in packed])
    return codes, pops


def _assert_matches_oracle(tiles: list[np.ndarray]) -> None:
    codes, pops = _stack(tiles)
    k = tiles[0].shape[1]
    prefix = select_prefixes_batch(codes, pops)
    records = records_from_codes_batch(codes, pops, k)
    for i, bits in enumerate(tiles):
        forest = build_forest(SpikeTile(bits))
        assert np.array_equal(prefix[i], forest.prefix), i
        assert tuple(records[i]) == forest_record(forest), i


def _from_patterns(rng, m: int, patterns: np.ndarray, zero_frac: float) -> np.ndarray:
    """An ``(m, k)`` tile whose rows are drawn from ``patterns`` or zero."""
    choice = rng.integers(0, len(patterns), size=m)
    bits = patterns[choice].copy()
    bits[rng.random(m) < zero_frac] = False
    return bits


def _nested(rng, count: int, k: int) -> np.ndarray:
    """``count`` nonzero patterns, each a proper subset of the next."""
    order = rng.permutation(k)
    sizes = np.sort(rng.choice(np.arange(1, k + 1), size=count, replace=False))
    patterns = np.zeros((count, k), dtype=bool)
    for i, size in enumerate(sizes):
        patterns[i, order[:size]] = True
    return patterns


class TestRepeatedPatterns:
    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 3, 64, 255, 256])
    @pytest.mark.parametrize("k", [5, 16, 40, 130])
    def test_nested_duplicate_chains(self, rng, count, m, k):
        """Rows from 1-3 nested patterns: EM chains run the whole tile."""
        tiles = []
        for zero_frac in (0.0, 0.3):
            patterns = _nested(rng, min(count, k), k)
            tiles.append(_from_patterns(rng, m, patterns, zero_frac))
        _assert_matches_oracle(tiles)

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("m", [3, 255])
    def test_unrelated_patterns(self, rng, count, m):
        patterns = rng.random((count, 16)) < 0.5
        patterns[:, 0] = True  # nonzero
        _assert_matches_oracle(
            [_from_patterns(rng, m, patterns, 0.2) for _ in range(3)]
        )

    def test_one_repeated_row_is_one_chain(self):
        """m copies of one row: row i reuses row i - 1, depth m - 1."""
        bits = np.zeros((255, 16), dtype=bool)
        bits[:, 3] = True
        codes, pops = _stack([bits])
        prefix = select_prefixes_batch(codes, pops)[0]
        assert np.array_equal(prefix, np.arange(-1, 254))
        assert records_from_codes_batch(codes, pops, 16)[0, 8] == 254


class TestDegenerateTiles:
    @pytest.mark.parametrize("m", [1, 3, 255])
    def test_all_zero_tiles(self, m):
        _assert_matches_oracle([np.zeros((m, 16), dtype=bool)] * 2)

    @pytest.mark.parametrize("k", [1, 8, 16, 33, 64, 65])
    def test_single_row_tiles(self, rng, k):
        tiles = [rng.random((1, k)) < d for d in (0.0, 0.5, 1.0)]
        _assert_matches_oracle(tiles)

    def test_zero_tiles_mixed_into_a_stack(self, rng):
        tiles = [np.zeros((64, 16), dtype=bool), rng.random((64, 16)) < 0.3]
        tiles.append(np.zeros((64, 16), dtype=bool))
        _assert_matches_oracle(tiles)


class TestCodeWidths:
    @pytest.mark.parametrize("k", range(1, 65))
    def test_one_word_codes(self, rng, k):
        """W == 1 at every width, padded 3/5/6/7-byte codes included."""
        patterns = rng.random((6, k)) < 0.4
        tiles = [_from_patterns(rng, 48, patterns, 0.2)]
        tiles.append(rng.random((48, k)) < 0.15)
        _assert_matches_oracle(tiles)

    @pytest.mark.parametrize("k", [65, 72, 100, 128, 130, 200])
    def test_multi_word_codes(self, rng, k):
        patterns = _nested(rng, 3, k)
        tiles = [_from_patterns(rng, 64, patterns, 0.2)]
        tiles.append(rng.random((64, k)) < 0.05)
        _assert_matches_oracle(tiles)
        assert _stack(tiles)[0].shape[2] > 1

    def test_narrow_popcount_dtype(self, rng):
        """The pattern sort key widens popcounts itself."""
        bits = rng.random((64, 16)) < 0.3
        codes, pops = _stack([bits])
        prefix = select_prefixes_batch(codes, pops.astype(np.uint8))[0]
        assert np.array_equal(prefix, build_forest(SpikeTile(bits)).prefix)


class TestStackOrder:
    @pytest.mark.parametrize("budget", [1, 3000, 1 << 22])
    def test_shuffled_stack_and_tiny_chunks(self, rng, monkeypatch, budget):
        """Chunking and stack order never change a tile's record."""
        tiles = []
        for i in range(40):
            patterns = rng.random((1 + i % 20, 16)) < 0.3
            tiles.append(_from_patterns(rng, 64, patterns, (i % 4) / 4))
        codes, pops = _stack(tiles)
        expected = records_from_codes_batch(codes, pops, 16)
        monkeypatch.setattr(fused, "_CHUNK_ELEMENT_BUDGET", budget)
        perm = rng.permutation(len(tiles))
        shuffled = records_from_codes_batch(codes[perm], pops[perm], 16)
        assert np.array_equal(shuffled, expected[perm])
        for i, bits in enumerate(tiles):
            assert tuple(expected[i]) == forest_record(build_forest(SpikeTile(bits)))

    @pytest.mark.parametrize("growth", [1.0, 1.5, 100.0])
    def test_growth_cap_cuts(self, rng, monkeypatch, growth):
        """Cutting chunks by pattern-count growth never changes a record."""
        tiles = []
        for i in range(30):
            patterns = rng.random((2 + 4 * i, 24)) < 0.4
            tiles.append(_from_patterns(rng, 128, patterns, (i % 3) / 3))
        codes, pops = _stack(tiles)
        monkeypatch.setattr(fused, "_CHUNK_GROWTH", growth)
        perm = rng.permutation(len(tiles))
        shuffled = records_from_codes_batch(codes[perm], pops[perm], 24)
        for row, i in zip(shuffled, perm):
            assert tuple(row) == forest_record(build_forest(SpikeTile(tiles[i])))


def _pooled_stack(rng, T: int, m: int = 256, k: int = 16):
    """``T`` tiles, each drawing its rows from its own pool of 8 patterns."""
    pool = rng.random((T, 8, k)) < 0.3
    choice = rng.integers(0, 8, size=(T, m))
    bits = pool[np.arange(T)[:, None], choice]
    bits[rng.random((T, m)) < 0.2] = False
    return _stack(list(bits))


class TestCpuSplit:
    """``_compute_records`` cuts large stacks into one part per CPU."""

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_split_matches_one_part(self, rng, monkeypatch, parts, offset):
        """Stacks just under, at and over the split minimum."""
        T = fused._SPLIT_MIN_ROWS // 256 + offset
        codes, pops = _pooled_stack(rng, T)
        expected = records_from_codes_batch(codes, pops, 16)
        calls = []

        def counted(*args):
            calls.append(threading.current_thread().name)
            return records_from_codes_batch(*args)

        monkeypatch.setattr(fused, "_CPUS", parts)
        monkeypatch.setattr(fused, "records_from_codes_batch", counted)
        records = fused.FusedBackend()._compute_records(codes, pops, 16, None)
        assert np.array_equal(records, expected)
        assert len(calls) == (parts if offset >= 0 else 1)

    def test_more_parts_than_cores_under_fast_switching(self, rng, monkeypatch):
        """Parts write disjoint strided slices of one records array; with
        more threads than cores and a thread switch every microsecond, no
        part's rows may be lost or land in another's."""
        codes, pops = _pooled_stack(rng, 67, m=64)
        expected = records_from_codes_batch(codes, pops, 16)
        monkeypatch.setattr(fused, "_CPUS", 5)
        monkeypatch.setattr(fused, "_SPLIT_MIN_ROWS", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                records = fused.FusedBackend()._compute_records(codes, pops, 16, None)
                assert np.array_equal(records, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_helper_error_reaches_caller(self, rng, monkeypatch):
        codes, pops = _pooled_stack(rng, 8, m=64)

        def fails_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("helper part failed")
            return records_from_codes_batch(*args)

        monkeypatch.setattr(fused, "_CPUS", 2)
        monkeypatch.setattr(fused, "_SPLIT_MIN_ROWS", 1)
        monkeypatch.setattr(fused, "records_from_codes_batch", fails_off_main)
        with pytest.raises(ValueError, match="helper part failed"):
            fused.FusedBackend()._compute_records(codes, pops, 16, None)
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-kernel")]

    def test_split_stages_stay_inside_the_wall(self, rng, monkeypatch):
        """Concurrent parts book the kernel's wall-clock once, not per thread."""
        monkeypatch.setattr(fused, "_CPUS", 2)
        monkeypatch.setattr(fused, "_SPLIT_MIN_ROWS", 1)
        codes, pops = _pooled_stack(rng, 64)
        profile: dict[str, float] = {}
        start = time.perf_counter()
        fused.FusedBackend()._compute_records(codes, pops, 16, profile)
        wall = time.perf_counter() - start
        assert 0.0 < profile["select"] + profile["record"] <= wall
        engine = ProsperityEngine("fused", tile_m=64, tile_k=16, cache_size=0)
        spikes = random_spike_matrix(1024, 48, 0.2, rng, 0.4)
        report = engine.run([GeMMWorkload(name="w", spikes=spikes, n=8)])
        assert 0.0 < sum(report.profile.values()) <= report.total_seconds


@st.composite
def pattern_stacks(draw):
    """Same-shape tiles whose rows come from a small pattern pool."""
    k = draw(st.integers(1, 70))
    m = draw(st.integers(1, 40))
    pool = draw(hnp.arrays(bool, st.tuples(st.integers(1, 4), st.just(k))))
    choice = draw(
        hnp.arrays(np.int64, st.tuples(st.integers(1, 3), st.just(m)),
                   elements=st.integers(-1, len(pool) - 1))
    )
    tiles = np.where((choice >= 0)[:, :, None], pool[choice], False)
    return list(tiles)


@given(pattern_stacks())
@settings(max_examples=60, deadline=None)
def test_pattern_pool_matches_oracle(tiles):
    _assert_matches_oracle(tiles)
