"""Tests for input encodings and synthetic dataset generators."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.snn.datasets import (
    SPECS,
    EmbeddingTable,
    get_spec,
    synthetic_dvs,
    synthetic_image,
    synthetic_tokens,
)
from repro.snn.encoding import (
    direct_threshold_encode,
    latency_encode,
    rate_encode,
)


class TestEncodings:
    def test_rate_encode_shape_and_rate(self, rng):
        # Peak-normalized: expected firing rate is mean(values) / max.
        values = np.linspace(0.0, 1.0, 100).reshape(10, 10)
        spikes = rate_encode(values, 8, rng)
        assert spikes.shape == (8, 10, 10)
        assert abs(spikes.mean() - values.mean()) < 0.1

    def test_rate_encode_zero_input_silent(self, rng):
        assert not rate_encode(np.zeros((4, 4)), 4, rng).any()

    def test_latency_single_spike_per_pixel(self):
        values = np.array([[1.0, 0.5, 0.0]])
        spikes = latency_encode(values, 4)
        assert spikes.sum(axis=0).tolist() == [[1, 1, 0]]
        # Brightest fires first.
        assert spikes[0, 0, 0]

    def test_direct_threshold_nested_sets(self, rng):
        """Later (higher-threshold) steps must be subsets of earlier ones."""
        values = rng.random((6, 6))
        spikes = direct_threshold_encode(values, 4)
        for t in range(3):
            assert not (spikes[t + 1] & ~spikes[t]).any()

    def test_direct_threshold_monotone_in_value(self):
        values = np.array([[0.1, 0.9]])
        spikes = direct_threshold_encode(values, 4)
        assert spikes[:, 0, 1].sum() >= spikes[:, 0, 0].sum()


class TestDatasets:
    def test_get_spec_normalizes_names(self):
        assert get_spec("CIFAR10-DVS").name == "cifar10dvs"
        with pytest.raises(KeyError):
            get_spec("imagenet")

    def test_image_range_and_shape(self, rng):
        spec = get_spec("cifar10")
        image = synthetic_image(spec, rng)
        assert image.shape == (3, 32, 32)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_image_is_smooth(self, rng):
        """Adjacent-pixel correlation drives ProSparsity; verify it exists."""
        image = synthetic_image(get_spec("cifar100"), rng)
        diff = np.abs(np.diff(image, axis=2)).mean()
        spread = image.std()
        assert diff < spread  # neighbour delta below global variation

    def test_dvs_sparse_binary(self, rng):
        spec = get_spec("cifar10dvs")
        events = synthetic_dvs(spec, 8, rng)
        assert events.shape == (8, 2, 64, 64)
        assert events.dtype == bool
        assert events.mean() < 0.15  # event streams are sparse

    def test_tokens_zipf_repeats(self, rng):
        spec = get_spec("sst2")
        tokens = synthetic_tokens(spec, rng)
        assert tokens.shape == (64,)
        assert len(np.unique(tokens)) < 64  # Zipf ensures repeats

    def test_embedding_lookup(self, rng):
        table = EmbeddingTable(100, 16, rng)
        out = table(np.array([3, 3, 7]))
        assert out.shape == (3, 16)
        assert (out[0] == out[1]).all()

    def test_all_specs_resolvable(self):
        for name in SPECS:
            assert get_spec(name).name == name


def test_import_leaves_scipy_ndimage_unloaded():
    """``scipy.ndimage`` loads only when an image or audio input is built."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys, repro.api, repro.server\n"
        "assert 'scipy.ndimage' not in sys.modules\n"
        "from repro.snn.datasets import get_spec, synthetic_image\n"
        "synthetic_image(get_spec('cifar10'))\n"
        "assert 'scipy.ndimage' in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
