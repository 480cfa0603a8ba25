"""Bit-level primitives used throughout the ProSparsity pipeline.

These are the software twins of the hardware primitives in the Prosperity
architecture: the TCAM's masked subset match (:func:`subset_matrix`), the
popcount units in the Detector (:func:`popcount_rows`), and the Processor's
bit-scan-forward address decoder (:func:`bit_scan_forward`).

Spike rows are represented in two interchangeable forms:

* **bool matrix** — an ``(m, k)`` ``np.ndarray`` of ``bool``; the canonical
  user-facing representation.
* **packed matrix** — an ``(m, ceil(k / 8))`` ``np.ndarray`` of ``uint8``
  produced by ``np.packbits`` along axis 1; used for vectorized set algebra.
"""

from __future__ import annotations

import numpy as np

# Number of set bits for every possible byte value, used to vectorize
# popcounts over packed rows.
_BYTE_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(m, k)`` matrix into ``(m, ceil(k/8))`` uint8 rows.

    Bits beyond ``k`` in the final byte are zero, so packed rows of equal
    width are directly comparable with bitwise operators.
    """
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {matrix.shape}")
    return np.packbits(matrix, axis=1)


def unpack_rows(packed: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: recover the ``(m, k)`` boolean matrix."""
    packed = np.asarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise ValueError(f"expected 2-D packed matrix, got shape {packed.shape}")
    unpacked = np.unpackbits(packed, axis=1)
    if unpacked.shape[1] < k:
        raise ValueError(f"packed rows hold {unpacked.shape[1]} bits, need {k}")
    return unpacked[:, :k].astype(bool)


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Number of set bits per packed row (the Detector's NO vector)."""
    packed = np.asarray(packed, dtype=np.uint8)
    # One table gather per byte column: rows are a few bytes wide on the
    # engine's hot path, where a reduction over the last axis is slower.
    counts = np.zeros(packed.shape[:-1], dtype=np.int64)
    for column in range(packed.shape[-1]):
        counts += _BYTE_POPCOUNT[packed[..., column]]
    return counts


def subset_matrix(packed: np.ndarray) -> np.ndarray:
    """All-pairs subset test, the software model of the TCAM search.

    Returns a boolean ``(m, m)`` matrix ``S`` with ``S[i, j]`` true when row
    ``j`` is a subset of row ``i`` (``S_j ⊆ S_i``), including ``i == j``.

    The TCAM realizes one *row* of this matrix per clock by masking the
    query row's 1-bits to don't-care and matching all entries in parallel;
    here we materialize all rows at once with a broadcast.
    """
    packed = np.asarray(packed, dtype=np.uint8)
    rows_i = packed[:, None, :]
    rows_j = packed[None, :, :]
    return ((rows_i & rows_j) == rows_j).all(axis=2)


def is_subset(packed_a: np.ndarray, packed_b: np.ndarray) -> bool:
    """True when packed row ``a`` is a subset of packed row ``b``."""
    packed_a = np.asarray(packed_a, dtype=np.uint8)
    packed_b = np.asarray(packed_b, dtype=np.uint8)
    return bool(((packed_a & packed_b) == packed_a).all())


def bits_to_int(bits: np.ndarray) -> int:
    """Encode a 1-D bit vector as an arbitrary-precision int (bit 0 = col 0)."""
    bits = np.asarray(bits, dtype=bool)
    value = 0
    for index in np.flatnonzero(bits):
        value |= 1 << int(index)
    return value


def int_to_bits(value: int, k: int) -> np.ndarray:
    """Decode an int back into a length-``k`` bit vector (bit 0 = col 0)."""
    if value < 0:
        raise ValueError("bit-set encodings are non-negative")
    if value >> k:
        raise ValueError(f"value {value} does not fit in {k} bits")
    return np.array([(value >> i) & 1 for i in range(k)], dtype=bool)


def bit_scan_forward(bits: np.ndarray) -> int:
    """Index of the first set bit, or -1 when the vector is all zero.

    This is the Processor's address decoder primitive (Step 10 in the
    paper's Fig. 5): it locates the next spike to consume and the caller
    then flips that bit to zero.
    """
    indices = np.flatnonzero(np.asarray(bits, dtype=bool))
    if indices.size == 0:
        return -1
    return int(indices[0])


def iterate_set_bits(bits: np.ndarray) -> list[int]:
    """All set-bit indices in bit-scan-forward order (ascending)."""
    return [int(index) for index in np.flatnonzero(np.asarray(bits, dtype=bool))]
