"""Spiking neuron models (Sec. II-A).

Implements the neuron models the paper's workloads use:

* :class:`LIFNeuron` — leaky integrate-and-fire, the model all evaluated
  SNNs use (Gerstner's formulation with hard reset);
* :class:`IFNeuron` — non-leaky special case;
* :class:`FSNeuron` — the few-spikes neuron of Stöckl & Maass used by the
  Stellar baseline; it emits at most ``n_bits`` spikes per stimulus using
  a fixed geometric weighting, trading accuracy for sparsity.

All neurons operate on a leading time axis: input currents of shape
``(T, ...)`` produce binary spike trains of the same shape. Thresholds can
be *calibrated* to hit a target firing rate (:func:`calibrate_threshold`),
substituting for trained model checkpoints — what matters downstream is
the spike-matrix density and correlation structure, not task accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ensure_positive


@dataclass
class LIFNeuron:
    """Leaky integrate-and-fire neuron layer.

    Membrane update per time step (discrete LIF with hard reset):

    ``v[t] = v[t-1] * (1 - 1/tau) + I[t]``;  spike when ``v >= v_threshold``
    then reset ``v`` to ``v_reset``.

    ``v_threshold`` may be a scalar or an array broadcastable against the
    per-step state (e.g. per-channel thresholds shaped ``(C, 1, 1)``),
    matching trained SNNs whose effective thresholds vary per channel.
    """

    tau: float = 2.0
    v_threshold: float | np.ndarray = 1.0
    v_reset: float = 0.0

    def __post_init__(self) -> None:
        ensure_positive(self.tau, "tau")
        if self.tau < 1.0:
            raise ValueError(f"tau must be >= 1 (decay in [0,1]), got {self.tau}")

    @property
    def decay(self) -> float:
        return 1.0 - 1.0 / self.tau

    def forward(self, currents: np.ndarray) -> np.ndarray:
        """Integrate input currents over time; return binary spikes."""
        currents = np.asarray(currents, dtype=np.float64)
        if currents.ndim < 1:
            raise ValueError("currents must have a leading time axis")
        spikes = np.empty(currents.shape, dtype=bool)
        v = np.zeros(currents.shape[1:], dtype=np.float64)
        fired = np.empty(v.shape, dtype=bool)
        for t, step in enumerate(currents):
            v *= self.decay
            v += step
            np.greater_equal(v, self.v_threshold, out=fired)
            spikes[t] = fired
            np.copyto(v, self.v_reset, where=fired)
        return spikes

    def membrane_trace(self, currents: np.ndarray) -> np.ndarray:
        """Pre-reset membrane potentials per step (for analysis/tests)."""
        currents = np.asarray(currents, dtype=np.float64)
        trace = np.zeros(currents.shape, dtype=np.float64)
        v = np.zeros(currents.shape[1:], dtype=np.float64)
        for t in range(currents.shape[0]):
            v = v * self.decay + currents[t]
            trace[t] = v
            v = np.where(v >= self.v_threshold, self.v_reset, v)
        return trace


@dataclass
class IFNeuron(LIFNeuron):
    """Integrate-and-fire: LIF without leak (tau -> infinity)."""

    tau: float = float("inf")

    def __post_init__(self) -> None:  # tau=inf is legal here
        if self.tau != float("inf"):
            super().__post_init__()

    @property
    def decay(self) -> float:
        return 1.0 if self.tau == float("inf") else super().decay


@dataclass
class FSNeuron:
    """Few-spikes neuron (Stöckl & Maass 2021), as used by Stellar.

    The neuron converts an analog activation into at most ``n_bits`` spikes
    within a stimulus window using geometrically decaying thresholds
    ``h * 2^-i`` — effectively a binary expansion of the activation. Dense
    activations thus map to very few spikes, which is where Stellar's
    sparsity advantage comes from (at the cost of modifying the algorithm).
    """

    n_bits: int = 4
    h: float = 1.0

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")
        ensure_positive(self.h, "h")

    def forward(self, activation: np.ndarray) -> np.ndarray:
        """Encode analog activations into an ``(n_bits, ...)`` spike train."""
        activation = np.clip(np.asarray(activation, dtype=np.float64), 0.0, None)
        spikes = np.zeros((self.n_bits,) + activation.shape, dtype=bool)
        residual = activation.copy()
        for i in range(self.n_bits):
            threshold = self.h * (2.0 ** -(i + 1))
            fired = residual >= threshold
            spikes[i] = fired
            residual = residual - np.where(fired, threshold, 0.0)
        return spikes

    def decode(self, spikes: np.ndarray) -> np.ndarray:
        """Reconstruct the quantized activation from an FS spike train."""
        spikes = np.asarray(spikes, dtype=np.float64)
        weights = self.h * (2.0 ** -(np.arange(self.n_bits) + 1))
        return np.tensordot(weights, spikes, axes=(0, 0))


def firing_rate(spikes: np.ndarray) -> float:
    """Fraction of 1s in a spike train — the bit density it induces."""
    spikes = np.asarray(spikes, dtype=bool)
    return float(spikes.mean()) if spikes.size else 0.0


#: Bisection iterations of :func:`calibrate_threshold_channels` whose
#: simulation also finds the elements it may freeze.
FREEZE_ITERATIONS = (6, 10, 14)


def _lif_counts(
    currents: np.ndarray,
    decay: float,
    threshold: float | np.ndarray,
    v_reset: float,
    band: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-element spike counts of :meth:`LIFNeuron.forward` on ``currents``.

    The same membrane arithmetic as ``forward`` without the ``(T, ...)``
    spike train. With ``band=(low, high)`` it also returns which elements
    had some pre-reset membrane value inside the closed ``[low, high]``.

    The hard reset multiplies ``v`` by ``not fired`` and then adds
    ``v_reset`` where it fired; a masked write is several times slower.
    Both give the same spikes while every value that fires is finite,
    because ``v * 0.0`` is then a zero, and a zero's sign changes no
    comparison. In calibration ``|v|`` stays below
    ``|v_reset| + T * max|I|``. Where ``T * max|I|`` overflows, the
    bracket starts at ``inf`` and the threshold stays ``inf`` whatever
    the counts.
    """
    v = np.zeros(currents.shape[1:], dtype=np.float64)
    fired = np.empty(v.shape, dtype=bool)
    keep = np.empty(v.shape, dtype=bool)
    counts = np.zeros(v.shape, dtype=np.min_scalar_type(currents.shape[0]))
    live = None
    if band is not None:
        low, high = band
        live = np.zeros(v.shape, dtype=bool)
    for step in currents:
        v *= decay
        v += step
        if band is not None:
            np.greater_equal(v, low, out=fired)
            np.less_equal(v, high, out=keep)
            keep &= fired
            live |= keep
        np.greater_equal(v, threshold, out=fired)
        counts += fired
        np.logical_not(fired, out=keep)
        v *= keep
        if v_reset:
            v += fired * v_reset
    return counts, live


def calibrate_threshold(
    neuron: LIFNeuron,
    currents: np.ndarray,
    target_rate: float,
    tolerance: float = 0.01,
    max_iterations: int = 30,
) -> float:
    """Bisect ``v_threshold`` so the neuron fires at ``target_rate``.

    Firing rate is monotonically non-increasing in the threshold, so
    bisection over a bracket derived from the current magnitudes converges.
    This is the stand-in for trained batch-norm/threshold parameters: it
    pins the *bit density* of each layer to the paper's reported values.
    """
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
        counts, _ = _lif_counts(currents, neuron.decay, mid, neuron.v_reset)
        rate = float(counts.sum()) / currents.size
        best = mid
        if abs(rate - target_rate) <= tolerance:
            break
        if rate > target_rate:
            low = mid  # too many spikes -> raise threshold
        else:
            high = mid
    neuron.v_threshold = best
    return best


def heterogeneous_rates(
    mean_rate: float,
    channels: int,
    rng: np.random.Generator,
    concentration: float = 1.5,
    floor: float = 0.005,
    ceil: float = 0.95,
) -> np.ndarray:
    """Per-channel target rates with a heavy-tailed (Beta) spread.

    Trained SNNs show strongly heterogeneous channel activity — many
    near-silent channels and a few busy ones — which is a major source of
    the subset structure ProSparsity exploits. A Beta distribution with
    mean ``mean_rate`` and low concentration reproduces that skew while
    keeping the layer-average density on target.
    """
    if not 0.0 < mean_rate < 1.0:
        raise ValueError(f"mean_rate must be in (0, 1), got {mean_rate}")
    a = mean_rate * concentration
    b = (1.0 - mean_rate) * concentration
    rates = rng.beta(a, b, size=channels)
    return np.clip(rates, floor, ceil)


def calibrate_threshold_channels(
    neuron: LIFNeuron,
    currents: np.ndarray,
    target_rates: np.ndarray,
    channel_axis: int = 1,
    max_iterations: int = 25,
) -> np.ndarray:
    """Vectorized per-channel bisection of ``v_threshold``.

    ``channel_axis`` indexes into ``currents`` itself (e.g. 1 for conv
    currents shaped ``(T, C, H, W)``, ``ndim - 1`` for linear currents).
    All channels bisect concurrently: each iteration simulates once with
    the full threshold vector and updates every channel's bracket
    independently. A channel's rate is its spike count over its
    ``T * E`` entries (``E`` elements per channel), so only counts are
    simulated, never the spike train.

    Most elements stop mattering long before the last iteration, and
    those are frozen. Every later threshold of channel ``c`` lies in the
    current bracket ``[low_c, high_c]``: a midpoint lies between the
    ends, and each update moves one end onto the midpoint. The bracket is
    closed because a midpoint of two adjacent floats rounds onto one of
    them. Suppose no pre-reset membrane value of an element fell inside
    that bracket during a simulation at a threshold from it. Then, by
    induction over ``t``, every threshold in the bracket makes the same
    comparisons, the same resets and hence the same membrane values:
    each value lies below both thresholds or above both. So the element's
    spike count is final. On the :data:`FREEZE_ITERATIONS`, such counts
    move into a per-channel frozen total, and later iterations simulate
    only the remaining elements. The thresholds equal those of the
    full bisection bit for bit.
    """
    currents = np.asarray(currents, dtype=np.float64)
    target_rates = np.asarray(target_rates, dtype=np.float64)
    valid = (target_rates > 0.0) & (target_rates < 1.0)
    if not valid.all():
        raise ValueError(
            f"target_rate must be in (0, 1), got {target_rates[~valid][0]}"
        )
    channel_axis = channel_axis % currents.ndim
    if channel_axis == 0:
        raise ValueError("channel_axis must not be the time axis")
    # Threshold broadcasts against the per-step state (currents minus the
    # time axis), so the channel slot shifts down by one.
    shape = [1] * (currents.ndim - 1)
    shape[channel_axis - 1] = -1
    channels = target_rates.shape[0]
    if currents.shape[channel_axis] != channels:
        raise ValueError(
            f"target_rates has {channels} channels but currents axis "
            f"{channel_axis} has {currents.shape[channel_axis]}"
        )
    reduce_axes = tuple(i for i in range(currents.ndim) if i != channel_axis)
    scale = np.abs(currents).max(axis=reduce_axes)
    scale = np.where(scale > 0, scale, 1.0)
    steps = currents.shape[0]
    # Channel-major (T, C, E): a copy only when channels are not axis 1.
    active = np.ascontiguousarray(np.moveaxis(currents, channel_axis, 1))
    active = active.reshape(steps, channels, -1)
    entries = steps * active.shape[2]
    low = np.zeros(channels)
    high = scale * max(2.0, steps)
    mid = 0.5 * (low + high)
    # Spike counts of frozen elements; float64 sums of counts are exact.
    frozen = np.zeros(channels)
    owner = None  # channel of each active element, once compacted to (T, n)
    for iteration in range(max_iterations):
        freeze = iteration in FREEZE_ITERATIONS
        if owner is None:
            threshold = mid[:, None]
            band = (low[:, None], high[:, None]) if freeze else None
        else:
            threshold = mid[owner]
            band = (low[owner], high[owner]) if freeze else None
        counts, live = _lif_counts(active, neuron.decay, threshold, neuron.v_reset, band)
        if owner is None:
            totals = frozen + counts.sum(axis=1)
        else:
            totals = frozen + np.bincount(owner, counts, channels)
        too_many = totals / entries > target_rates
        if freeze:
            if owner is None:
                frozen += (counts * ~live).sum(axis=1)
                owner = np.nonzero(live)[0]
                active = active.reshape(steps, -1)
                live = live.ravel()
            else:
                frozen += np.bincount(owner, counts * ~live, channels)
                owner = owner.compress(live)
            active = active.compress(live, axis=1)
        low = np.where(too_many, mid, low)
        high = np.where(too_many, high, mid)
        mid = 0.5 * (low + high)
    neuron.v_threshold = mid.reshape(shape)
    return mid
