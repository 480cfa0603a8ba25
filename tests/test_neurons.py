"""Tests for the spiking neuron models and threshold calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snn.neurons import (
    FSNeuron,
    IFNeuron,
    LIFNeuron,
    calibrate_threshold,
    calibrate_threshold_channels,
    firing_rate,
    heterogeneous_rates,
)


class TestLIF:
    def test_fires_above_threshold(self):
        neuron = LIFNeuron(tau=2.0, v_threshold=1.0)
        spikes = neuron.forward(np.array([[2.0], [0.0]]))
        assert spikes[0, 0] and not spikes[1, 0]

    def test_hard_reset(self):
        neuron = LIFNeuron(tau=2.0, v_threshold=1.0)
        # Strong then weak: after reset, weak input alone must not fire.
        spikes = neuron.forward(np.array([[5.0], [0.4]]))
        assert spikes[0, 0] and not spikes[1, 0]

    def test_leak_decays_potential(self):
        neuron = LIFNeuron(tau=2.0, v_threshold=1.0)
        # 0.6 then 0.6: v1 = 0.6, v2 = 0.3 + 0.6 = 0.9 < 1 -> never fires.
        spikes = neuron.forward(np.array([[0.6], [0.6]]))
        assert not spikes.any()

    def test_integration_accumulates(self):
        neuron = LIFNeuron(tau=1e9, v_threshold=1.0)  # negligible leak
        spikes = neuron.forward(np.array([[0.5], [0.6]]))
        assert not spikes[0, 0] and spikes[1, 0]

    def test_membrane_trace_matches_forward(self):
        neuron = LIFNeuron(tau=2.0, v_threshold=1.0)
        currents = np.array([[0.8], [0.9], [0.1]])
        trace = neuron.membrane_trace(currents)
        spikes = neuron.forward(currents)
        assert ((trace >= 1.0) == spikes).all()

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            LIFNeuron(tau=0.5)

    def test_vector_threshold_broadcasts(self):
        neuron = LIFNeuron(tau=2.0, v_threshold=np.array([0.5, 10.0]))
        spikes = neuron.forward(np.ones((3, 2)))
        assert spikes[:, 0].all() and not spikes[:, 1].any()

    def test_binary_output(self, rng):
        neuron = LIFNeuron(tau=2.0, v_threshold=0.5)
        spikes = neuron.forward(rng.normal(size=(4, 10, 10)))
        assert spikes.dtype == bool


class TestIF:
    def test_no_leak(self):
        neuron = IFNeuron(v_threshold=1.0)
        assert neuron.decay == 1.0
        spikes = neuron.forward(np.array([[0.4], [0.4], [0.4]]))
        assert spikes[2, 0] and not spikes[:2].any()


class TestFS:
    def test_at_most_n_bits_spikes(self, rng):
        neuron = FSNeuron(n_bits=4, h=1.0)
        spikes = neuron.forward(rng.random(100))
        assert spikes.shape == (4, 100)
        assert (spikes.sum(axis=0) <= 4).all()

    def test_binary_expansion_exact(self):
        neuron = FSNeuron(n_bits=4, h=1.0)
        # 0.5 + 0.25 = 0.75 -> spikes at bits 0 and 1 only.
        spikes = neuron.forward(np.array([0.75]))
        assert spikes[:, 0].tolist() == [True, True, False, False]

    def test_decode_reconstructs_quantized(self, rng):
        neuron = FSNeuron(n_bits=8, h=1.0)
        values = rng.random(50)
        decoded = neuron.decode(neuron.forward(values))
        assert np.abs(decoded - values).max() < 1.0 / 2**8 + 1e-9

    def test_negative_clipped(self):
        neuron = FSNeuron(n_bits=4)
        assert not neuron.forward(np.array([-0.5])).any()

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            FSNeuron(n_bits=0)


class TestCalibration:
    def test_scalar_hits_target(self, rng):
        neuron = LIFNeuron(tau=2.0)
        currents = rng.normal(size=(8, 2000))
        calibrate_threshold(neuron, currents, 0.2, tolerance=0.01)
        assert abs(firing_rate(neuron.forward(currents)) - 0.2) < 0.02

    def test_monotone_rates(self, rng):
        currents = rng.normal(size=(8, 1000))
        thresholds = []
        for rate in (0.1, 0.2, 0.35):
            neuron = LIFNeuron(tau=2.0)
            thresholds.append(calibrate_threshold(neuron, currents, rate))
        assert thresholds[0] > thresholds[1] > thresholds[2]

    def test_silent_input_no_crash(self):
        neuron = LIFNeuron(tau=2.0, v_threshold=3.0)
        calibrate_threshold(neuron, np.zeros((4, 10)), 0.2)
        assert neuron.v_threshold == 3.0

    def test_rejects_bad_target(self, rng):
        with pytest.raises(ValueError):
            calibrate_threshold(LIFNeuron(), rng.normal(size=(2, 4)), 1.5)

    def test_per_channel_rates(self, rng):
        # Rates above ~0.45 are unreachable for zero-mean Gaussian drive
        # (the neuron cannot fire faster than its positive-current cycles),
        # so targets stay below that physical ceiling.
        neuron = LIFNeuron(tau=2.0)
        currents = rng.normal(size=(8, 6, 500))  # (T, C, features)
        targets = np.array([0.05, 0.1, 0.15, 0.2, 0.3, 0.4])
        calibrate_threshold_channels(neuron, currents, targets, channel_axis=1)
        spikes = neuron.forward(currents)
        rates = spikes.mean(axis=(0, 2))
        assert np.abs(rates - targets).max() < 0.05

    def test_per_channel_rejects_time_axis(self, rng):
        with pytest.raises(ValueError):
            calibrate_threshold_channels(
                LIFNeuron(), rng.normal(size=(4, 3)), np.array([0.1] * 4),
                channel_axis=0,
            )

    def test_heterogeneous_rates_mean(self, rng):
        rates = heterogeneous_rates(0.3, 5000, rng)
        assert abs(rates.mean() - 0.3) < 0.03
        assert rates.min() >= 0.005 and rates.max() <= 0.95

    def test_heterogeneous_rejects_bad_mean(self, rng):
        with pytest.raises(ValueError):
            heterogeneous_rates(0.0, 10, rng)


@given(st.floats(0.05, 0.42), st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_calibration_property(rate, seed):
    rng = np.random.default_rng(seed)
    neuron = LIFNeuron(tau=2.0)
    currents = rng.normal(size=(6, 800))
    calibrate_threshold(neuron, currents, rate, tolerance=0.02)
    assert abs(firing_rate(neuron.forward(currents)) - rate) < 0.08


# -- oracle: the straightforward loops the fast calibration must match ------


def reference_forward(neuron, currents):
    """``LIFNeuron.forward`` as first written: a fresh array per operation."""
    currents = np.asarray(currents, dtype=np.float64)
    if currents.ndim < 1:
        raise ValueError("currents must have a leading time axis")
    spikes = np.zeros(currents.shape, dtype=bool)
    v = np.zeros(currents.shape[1:], dtype=np.float64)
    for t in range(currents.shape[0]):
        v = v * neuron.decay + currents[t]
        fired = v >= neuron.v_threshold
        spikes[t] = fired
        v = np.where(fired, neuron.v_reset, v)
    return spikes


def reference_calibrate_threshold(
    neuron, currents, target_rate, tolerance=0.01, max_iterations=30
):
    """Scalar bisection that re-simulates the whole spike train per step."""
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target_rate must be in (0, 1), got {target_rate}")
    currents = np.asarray(currents, dtype=np.float64)
    scale = float(np.abs(currents).max())
    if scale == 0.0:
        return float(np.asarray(neuron.v_threshold).ravel()[0])
    low, high = 0.0, scale * max(2.0, currents.shape[0])
    best = float(np.asarray(neuron.v_threshold).ravel()[0])
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        if mid <= 0.0:
            break
        neuron.v_threshold = mid
        rate = firing_rate(reference_forward(neuron, currents))
        best = mid
        if abs(rate - target_rate) <= tolerance:
            break
        if rate > target_rate:
            low = mid  # too many spikes -> raise threshold
        else:
            high = mid
    neuron.v_threshold = best
    return best


def reference_calibrate_threshold_channels(
    neuron, currents, target_rates, channel_axis=1, max_iterations=25
):
    """Per-channel bisection that re-simulates every element per step."""
    currents = np.asarray(currents, dtype=np.float64)
    target_rates = np.asarray(target_rates, dtype=np.float64)
    channel_axis = channel_axis % currents.ndim
    if channel_axis == 0:
        raise ValueError("channel_axis must not be the time axis")
    shape = [1] * (currents.ndim - 1)
    shape[channel_axis - 1] = -1

    def reshape(vector):
        return vector.reshape(shape)

    channels = target_rates.shape[0]
    if currents.shape[channel_axis] != channels:
        raise ValueError(
            f"target_rates has {channels} channels but currents axis "
            f"{channel_axis} has {currents.shape[channel_axis]}"
        )
    reduce_axes = tuple(i for i in range(currents.ndim) if i != channel_axis)
    scale = np.abs(currents).max(axis=reduce_axes)
    scale = np.where(scale > 0, scale, 1.0)
    low = np.zeros(channels)
    high = scale * max(2.0, currents.shape[0])
    mid = 0.5 * (low + high)
    for _ in range(max_iterations):
        neuron.v_threshold = reshape(mid)
        spikes = reference_forward(neuron, currents)
        rates = spikes.mean(axis=reduce_axes)
        too_many = rates > target_rates
        low = np.where(too_many, mid, low)
        high = np.where(too_many, high, mid)
        mid = 0.5 * (low + high)
    neuron.v_threshold = reshape(mid)
    return mid


STEPS = (1, 2, 4, 8)
NEURONS = {
    "lif": lambda: LIFNeuron(tau=2.0),
    "if": lambda: IFNeuron(),
    "lif-reset": lambda: LIFNeuron(tau=2.0, v_reset=0.25),
    "if-negative-reset": lambda: IFNeuron(v_reset=-0.5),
}
#: (state shape without time, channel axis into the currents)
LAYOUTS = {
    "conv": ((5, 3, 4), 1),
    "linear": ((7, 5), -1),
    "middle": ((3, 5, 4), 2),
}


def make_currents(kind, steps, state, channel_axis, rng):
    """Gaussian currents, or dyadic ones that tie with bisection midpoints.

    Every midpoint is ``max|I_c| * max(2, T)`` times a dyadic fraction,
    and ``max(2, T)`` is a power of two for the tested ``T``. Channels
    whose largest magnitude is 1.0, driven by multiples of 1/16 and
    halved by ``tau=2``, therefore put membrane values exactly on
    midpoints and bracket ends, where every comparison is a tie.
    """
    shape = (steps, *state)
    if kind == "normal":
        currents = rng.normal(size=shape)
    else:
        currents = rng.integers(-16, 17, size=shape) / 16.0
        first = np.moveaxis(currents, channel_axis, 1)[0]
        first[(slice(None),) + (0,) * (first.ndim - 1)] = 1.0
    # One silent channel: its threshold bisects on a unit scale.
    np.moveaxis(currents, channel_axis, 1)[:, 1] = 0.0
    return currents


def make_targets(channels, rng):
    targets = rng.uniform(0.005, 0.95, size=channels)
    targets[0], targets[-1] = 0.005, 0.95  # heterogeneous_rates' clip bounds
    return targets


class TestCalibrationOracle:
    """Thresholds and spike trains equal the reference loops bit for bit."""

    @pytest.mark.parametrize("kind", ["normal", "ties"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("neuron_kind", sorted(NEURONS))
    @pytest.mark.parametrize("steps", STEPS)
    def test_channels_match_reference(self, steps, neuron_kind, layout, kind, rng):
        state, axis = LAYOUTS[layout]
        currents = make_currents(kind, steps, state, axis, rng)
        targets = make_targets(currents.shape[axis], rng)
        fast, slow = NEURONS[neuron_kind](), NEURONS[neuron_kind]()
        got = calibrate_threshold_channels(fast, currents, targets, channel_axis=axis)
        want = reference_calibrate_threshold_channels(slow, currents, targets, channel_axis=axis)
        assert np.array_equal(got, want)
        assert np.array_equal(fast.v_threshold, slow.v_threshold)
        assert fast.v_threshold.shape == slow.v_threshold.shape
        assert np.array_equal(fast.forward(currents), reference_forward(slow, currents))

    @pytest.mark.parametrize("iterations", [1, 6, 7, 11, 15, 40])
    def test_channels_match_reference_at_any_stop(self, iterations, rng):
        # Stops before, on and after each freeze iteration.
        currents = make_currents("ties", 4, (6, 9), 1, rng)
        targets = make_targets(6, rng)
        got = calibrate_threshold_channels(
            LIFNeuron(), currents, targets, max_iterations=iterations
        )
        want = reference_calibrate_threshold_channels(
            LIFNeuron(), currents, targets, max_iterations=iterations
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("state", [(), (6,), (3, 5)])
    @pytest.mark.parametrize("neuron_kind", sorted(NEURONS))
    @pytest.mark.parametrize("steps", STEPS)
    def test_scalar_matches_reference(self, steps, neuron_kind, state, rng):
        currents = rng.integers(-16, 17, size=(steps, *state)) / 16.0
        for rate in (0.005, 0.2, 0.95):
            fast, slow = NEURONS[neuron_kind](), NEURONS[neuron_kind]()
            got = calibrate_threshold(fast, currents, rate)
            want = reference_calibrate_threshold(slow, currents, rate)
            assert got == want and fast.v_threshold == slow.v_threshold
            assert np.array_equal(fast.forward(currents), reference_forward(slow, currents))

    @pytest.mark.parametrize("state", [(), (6,), (2, 3, 4)])
    @pytest.mark.parametrize("neuron_kind", sorted(NEURONS))
    @pytest.mark.parametrize("steps", STEPS)
    def test_forward_matches_reference(self, steps, neuron_kind, state, rng):
        currents = rng.integers(-16, 17, size=(steps, *state)) / 16.0
        thresholds = [0.5, 0.0, -0.25]
        if state:
            thresholds.append(rng.uniform(-0.5, 1.0, size=state[-1]))
        for threshold in thresholds:
            neuron = NEURONS[neuron_kind]()
            neuron.v_threshold = threshold
            got = neuron.forward(currents)
            assert got.shape == currents.shape and got.dtype == bool
            assert np.array_equal(got, reference_forward(neuron, currents))

    def test_freezing_shrinks_the_simulated_set(self, rng, monkeypatch):
        from repro.snn import neurons

        simulated = []
        kernel = neurons._lif_counts

        def counting(currents, *args):
            simulated.append(currents[0].size)
            return kernel(currents, *args)

        monkeypatch.setattr(neurons, "_lif_counts", counting)
        currents = rng.normal(size=(4, 16, 64))
        calibrate_threshold_channels(LIFNeuron(), currents, np.full(16, 0.2))
        assert len(simulated) == 25
        assert simulated[0] == 16 * 64
        assert simulated[-1] < simulated[0] / 4


class TestChannelValidation:
    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_rejects_target_outside_unit_interval(self, bad, rng):
        targets = np.array([0.2, bad, 0.3])
        with pytest.raises(ValueError, match=r"target_rate must be in \(0, 1\)"):
            calibrate_threshold_channels(LIFNeuron(), rng.normal(size=(4, 3, 5)), targets)
