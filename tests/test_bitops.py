"""Unit tests for the bit-manipulation primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.bitops import (
    bit_scan_forward,
    bits_to_int,
    int_to_bits,
    is_subset,
    iterate_set_bits,
    pack_rows,
    popcount_rows,
    subset_matrix,
    unpack_rows,
)

bool_matrices = hnp.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 20), st.integers(1, 40)),
)


class TestPackUnpack:
    def test_roundtrip_simple(self):
        bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
        assert (unpack_rows(pack_rows(bits), 3) == bits).all()

    def test_packed_width(self):
        bits = np.zeros((4, 17), dtype=bool)
        assert pack_rows(bits).shape == (4, 3)

    def test_trailing_bits_zero(self):
        bits = np.ones((2, 5), dtype=bool)
        packed = pack_rows(bits)
        # bits 5..7 of the byte must be zero
        assert ((packed[:, 0] & 0b00000111) == 0).all()

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pack_rows(np.array([1, 0, 1], dtype=bool))

    def test_unpack_rejects_too_wide(self):
        packed = pack_rows(np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError):
            unpack_rows(packed, 9)

    @given(bool_matrices)
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, bits):
        k = bits.shape[1]
        assert (unpack_rows(pack_rows(bits), k) == bits).all()


class TestPopcount:
    def test_counts(self):
        bits = np.array([[1, 1, 0, 1], [0, 0, 0, 0]], dtype=bool)
        assert popcount_rows(pack_rows(bits)).tolist() == [3, 0]

    def test_wide_rows(self):
        bits = np.ones((1, 100), dtype=bool)
        assert popcount_rows(pack_rows(bits)).tolist() == [100]

    @given(bool_matrices)
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_sum(self, bits):
        counts = popcount_rows(pack_rows(bits))
        assert (counts == bits.sum(axis=1)).all()

    @pytest.mark.parametrize("nbytes", [0, 1, 2, 3, 8, 9])
    def test_stacked_rows_of_any_width(self, nbytes):
        rng = np.random.default_rng(nbytes)
        packed = rng.integers(0, 256, (3, 5, nbytes), dtype=np.uint8)
        counts = popcount_rows(packed)
        assert counts.dtype == np.int64 and counts.shape == (3, 5)
        assert np.array_equal(counts, np.unpackbits(packed, axis=-1).sum(axis=-1))


class TestSubsetMatrix:
    def test_identity_diagonal(self):
        bits = np.array([[1, 0], [0, 1]], dtype=bool)
        subset = subset_matrix(pack_rows(bits))
        assert subset[0, 0] and subset[1, 1]
        assert not subset[0, 1] and not subset[1, 0]

    def test_proper_subset(self):
        bits = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
        subset = subset_matrix(pack_rows(bits))
        assert subset[0, 1]      # row1 ⊆ row0
        assert not subset[1, 0]  # row0 ⊄ row1

    def test_empty_row_subset_of_all(self):
        bits = np.array([[0, 0], [1, 1]], dtype=bool)
        subset = subset_matrix(pack_rows(bits))
        assert subset[1, 0]  # empty ⊆ anything

    @given(bool_matrices)
    @settings(max_examples=40, deadline=None)
    def test_matches_set_semantics(self, bits):
        subset = subset_matrix(pack_rows(bits))
        m = bits.shape[0]
        sets = [set(np.flatnonzero(row)) for row in bits]
        for i in range(m):
            for j in range(m):
                assert subset[i, j] == (sets[j] <= sets[i])


class TestIsSubset:
    def test_true_case(self):
        a = pack_rows(np.array([[1, 0, 0, 1]], dtype=bool))[0]
        b = pack_rows(np.array([[1, 1, 0, 1]], dtype=bool))[0]
        assert is_subset(a, b)
        assert not is_subset(b, a)

    def test_equal_rows(self):
        a = pack_rows(np.array([[1, 0, 1]], dtype=bool))[0]
        assert is_subset(a, a)


class TestIntEncoding:
    def test_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=bool)
        assert (int_to_bits(bits_to_int(bits), 5) == bits).all()

    def test_bit_zero_is_col_zero(self):
        assert bits_to_int(np.array([1, 0, 0], dtype=bool)) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    @given(st.integers(0, 2**30 - 1))
    def test_int_roundtrip(self, value):
        assert bits_to_int(int_to_bits(value, 30)) == value


class TestBitScanForward:
    def test_first_bit(self):
        assert bit_scan_forward(np.array([0, 0, 1, 1], dtype=bool)) == 2

    def test_empty(self):
        assert bit_scan_forward(np.zeros(8, dtype=bool)) == -1

    def test_iterate_order(self):
        bits = np.array([0, 1, 0, 1, 1], dtype=bool)
        assert iterate_set_bits(bits) == [1, 3, 4]
