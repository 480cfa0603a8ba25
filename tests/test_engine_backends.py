"""Backend equivalence: the fused fast path must match the reference oracle.

Property-style sweep over random spike matrices at varied densities, row
correlations, and tile shapes: forests, tile records, aggregate stats, and
(for integer weights) dense GeMM outputs must be *identical* between
backends — the paper's lossless claim, checked per backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.forest import build_forest
from repro.core.prosparsity import TILE_RECORD_FIELDS, execute_gemm, transform_matrix
from repro.core.reference import dense_spiking_gemm
from repro.core.spike_matrix import SpikeTile, random_spike_matrix
from repro.engine import ProsperityEngine
from repro.engine.backends import (
    Backend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.fused import (
    FusedBackend,
    chain_depths,
    padded_codes,
    records_from_codes_batch,
    select_prefixes_batch,
)
from repro.utils.bitops import popcount_rows

DENSITIES = (0.01, 0.05, 0.15, 0.3, 0.6, 0.95)


def _random_cases(rng):
    """Matrix shapes crossing word widths, edge tiles, and EM-rich inputs."""
    for density in DENSITIES:
        for rows, cols, correlation in (
            (64, 16, 0.0),
            (256, 16, 0.4),
            (100, 30, 0.7),   # edge tiles in both dimensions
            (48, 130, 0.3),   # beyond one 64-bit word
        ):
            yield random_spike_matrix(rows, cols, density, rng, correlation)


class TestForestEquivalence:
    def test_forests_identical_across_densities(self, rng):
        backend = FusedBackend()
        for matrix in _random_cases(rng):
            tile = SpikeTile(matrix.bits)
            reference = build_forest(tile)
            fused = backend.forest(tile)
            assert np.array_equal(reference.prefix, fused.prefix)
            assert np.array_equal(reference.pattern, fused.pattern)
            assert np.array_equal(reference.popcounts, fused.popcounts)

    def test_paper_example_forest(self, paper_tile):
        reference = build_forest(paper_tile)
        fused = FusedBackend().forest(paper_tile)
        assert np.array_equal(reference.prefix, fused.prefix)
        assert np.array_equal(reference.pattern, fused.pattern)

    def test_records_identical(self, rng):
        oracle = ReferenceBackend()
        engine = ProsperityEngine(backend="fused", cache_size=0)
        for matrix in _random_cases(rng):
            for tile_m, tile_k in ((64, 16), (32, 8)):
                ref = oracle.matrix_records(matrix, tile_m, tile_k)
                fused = engine.transform_matrix(matrix, tile_m, tile_k)
                assert np.array_equal(ref, fused.tile_records)

    def test_records_match_core_transform(self, rng):
        matrix = random_spike_matrix(300, 40, 0.25, rng, 0.5)
        core = transform_matrix(matrix, 64, 16, keep_transforms=False)
        fused = ProsperityEngine(tile_m=64, tile_k=16).transform_matrix(matrix)
        assert np.array_equal(core.tile_records, fused.tile_records)


class TestExecutionEquivalence:
    def test_integer_gemm_bit_identical(self, rng):
        for matrix in _random_cases(rng):
            weights = rng.integers(-8, 8, size=(matrix.cols, 12))
            expected = dense_spiking_gemm(matrix.bits, weights)
            for name in available_backends():
                backend = get_backend(name)
                tile = SpikeTile(matrix.bits)
                out = backend.execute(backend.forest(tile), weights)
                assert out.dtype == np.int64
                assert np.array_equal(out, expected), name

    def test_backends_agree_bitwise_on_ints(self, rng):
        matrix = random_spike_matrix(256, 16, 0.3, rng, 0.4)
        weights = rng.integers(-100, 100, size=(16, 64))
        tile = SpikeTile(matrix.bits)
        outputs = [
            get_backend(name).execute(build_forest(tile), weights)
            for name in available_backends()
        ]
        for out in outputs[1:]:
            assert np.array_equal(outputs[0], out)

    def test_float_gemm_allclose(self, rng):
        matrix = random_spike_matrix(128, 16, 0.3, rng, 0.4)
        weights = rng.normal(size=(16, 10))
        tile = SpikeTile(matrix.bits)
        forest = build_forest(tile)
        reference = ReferenceBackend().execute(forest, weights)
        fused = FusedBackend().execute(forest, weights)
        assert reference.dtype == fused.dtype == np.float64
        np.testing.assert_allclose(reference, fused, rtol=1e-12, atol=1e-12)

    def test_vectorized_execute_rejects_bad_weights(self, rng):
        """The fused backend's matmul-plus-seeding ``execute``."""
        tile = SpikeTile((rng.random((8, 4)) < 0.5))
        forest = FusedBackend().forest(tile)
        with pytest.raises(ValueError, match="weight rows"):
            FusedBackend().execute(forest, rng.normal(size=(5, 3)))

    def test_deep_chain_execution(self):
        """Staircase tile: every row prefixes the next (max-depth forest)."""
        bits = np.tril(np.ones((16, 16), dtype=bool))
        tile = SpikeTile(bits)
        weights = np.arange(16 * 4).reshape(16, 4).astype(np.int64)
        forest = FusedBackend().forest(tile)
        out = FusedBackend().execute(forest, weights)
        assert np.array_equal(out, dense_spiking_gemm(bits, weights))
        assert forest.depth() == 15


class TestVectorizedPrimitives:
    """The NumPy code primitives under the fused kernels."""

    def test_pack_codes_widths(self, rng):
        for cols in (3, 8, 9, 16, 33, 64, 65, 130, 200):
            bits = rng.random((10, cols)) < 0.5
            packed = np.packbits(bits, axis=1)
            codes = padded_codes(packed)
            assert codes.shape[0] == 10
            # Codes are a bijection: equal rows <-> equal codes.
            for i in range(10):
                for j in range(10):
                    assert (codes[i] == codes[j]).all() == (
                        (bits[i] == bits[j]).all()
                    )

    def test_select_prefixes_empty_tile(self):
        codes = padded_codes(np.zeros((0, 2), dtype=np.uint8))[None]
        pops = np.zeros((1, 0), dtype=np.int64)
        assert select_prefixes_batch(codes, pops).size == 0

    def test_chain_depths_matches_forest_depth(self, rng):
        for matrix in _random_cases(rng):
            tile = SpikeTile(matrix.bits)
            forest = build_forest(tile)
            depths = chain_depths(forest.prefix)
            assert int(depths.max(initial=0)) == forest.depth()
            pops = popcount_rows(tile.packed)
            codes = padded_codes(tile.packed)[None]
            record = records_from_codes_batch(codes, pops[None], tile.k)[0]
            assert record[TILE_RECORD_FIELDS.index("forest_depth")] == forest.depth()

    def test_popcount_consistency(self, rng):
        bits = rng.random((32, 100)) < 0.4
        tile = SpikeTile(bits)
        assert np.array_equal(popcount_rows(tile.packed), bits.sum(axis=1))


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ("fused", "reference")

    def test_get_backend_passthrough(self):
        backend = FusedBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_register_custom_backend(self):
        class EchoBackend(ReferenceBackend):
            name = "echo-test"

        try:
            register_backend(EchoBackend)
            assert isinstance(get_backend("echo-test"), EchoBackend)
            assert isinstance(get_backend("echo-test"), Backend)
        finally:
            from repro.engine import backends as backend_module

            backend_module._BACKENDS.pop("echo-test", None)


class TestEndToEndGemm:
    def test_gemm_against_core_path(self, rng):
        """Whole-matrix GeMM: planned engine tiles + both backends == core path."""
        matrix = random_spike_matrix(150, 70, 0.2, rng, 0.3)
        weights = rng.integers(-16, 16, size=(70, 20))
        expected = execute_gemm(matrix, weights, tile_m=64, tile_k=16)
        assert np.array_equal(expected, dense_spiking_gemm(matrix.bits, weights))
        for name in available_backends():
            engine = ProsperityEngine(backend=name, tile_m=64, tile_k=16)
            out = engine.execute_gemm(matrix, weights)
            assert np.array_equal(out, expected), name
            assert out.dtype == expected.dtype
