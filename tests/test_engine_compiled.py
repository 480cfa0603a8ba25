"""Record-kernel logic: the batched kernel against the per-tile oracle.

:func:`repro.engine.fused.records_from_codes_batch` is the one kernel
every engine run goes through. These edge cases — the paper's tile,
empty and full stacks, non-power-of-two packed widths, single-row
tiles, and maximal subset chains — pin it tile for tile against
:func:`repro.core.prosparsity.forest_record`. The module name dates from
the removed numba-compiled twin of this kernel, whose logic these cases
first pinned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forest import build_forest
from repro.core.prosparsity import forest_record
from repro.core.spike_matrix import SpikeTile, random_spike_matrix
from repro.engine.fused import padded_codes, records_from_codes_batch
from repro.utils.bitops import popcount_rows


def _stack(rng, T, m, k, density, correlation=0.0):
    """T random (m, k) tiles as a packed (T, m, W) code stack + popcounts."""
    matrix = random_spike_matrix(T * m, k, density, rng, correlation)
    tiles = [SpikeTile(matrix.bits[t * m : (t + 1) * m]) for t in range(T)]
    packed = np.packbits(matrix.bits, axis=1)
    codes = padded_codes(packed).reshape(T, m, -1)
    pops = popcount_rows(packed).reshape(T, m)
    return tiles, codes, pops


def _assert_matches_oracle(tiles, codes, pops, k):
    records = records_from_codes_batch(codes, pops, k)
    assert records.shape[0] == len(tiles)
    for t, tile in enumerate(tiles):
        assert tuple(records[t]) == forest_record(build_forest(tile)), t
    return records


class TestKernelLogic:
    def test_paper_tile(self, paper_tile):
        codes = padded_codes(paper_tile.packed)[None]
        pops = popcount_rows(paper_tile.packed)[None]
        _assert_matches_oracle([paper_tile], codes, pops, paper_tile.k)

    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.7, 1.0])
    def test_random_stacks(self, rng, density):
        tiles, codes, pops = _stack(
            rng, T=7, m=16, k=16, density=density, correlation=0.3
        )
        _assert_matches_oracle(tiles, codes, pops, 16)

    @pytest.mark.parametrize("k", [24, 40, 48, 56])
    def test_padding_widths(self, rng, k):
        """Non-power-of-two byte widths (3/5/6/7) zero-extend cleanly."""
        tiles, codes, pops = _stack(rng, T=5, m=12, k=k, density=0.35)
        assert (k + 7) // 8 in (3, 5, 6, 7)
        _assert_matches_oracle(tiles, codes, pops, k)

    def test_single_row_and_empty_rows(self, rng):
        tiles, codes, pops = _stack(rng, T=3, m=1, k=8, density=0.5)
        _assert_matches_oracle(tiles, codes, pops, 8)
        empty = SpikeTile(np.zeros((4, 8), dtype=bool))
        _assert_matches_oracle(
            [empty], padded_codes(empty.packed)[None],
            popcount_rows(empty.packed)[None], 8,
        )

    def test_deep_chains(self):
        """Nested-subset rows produce one maximal chain; depths agree."""
        m, k = 12, 16
        bits = np.zeros((m, k), dtype=bool)
        for i in range(m):
            bits[i, : i + 1] = True  # row i is a strict superset of row i-1
        tile = SpikeTile(bits)
        codes = padded_codes(tile.packed)[None]
        pops = popcount_rows(tile.packed)[None]
        records = _assert_matches_oracle([tile], codes, pops, k)
        assert records[0, 8] == m - 1  # depth field: one maximal chain
