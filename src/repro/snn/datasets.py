"""Synthetic dataset generators (substitutes for CIFAR/DVS/NLP corpora).

The accelerator study only consumes per-layer spike statistics, so the
generators aim at matching the *structure* of the real inputs:

* images — spatially smooth (filtered noise) with object-like blobs, so
  im2col rows of neighbouring pixels are similar (the source of PM/EM
  matches in spiking CNNs);
* DVS streams — sparse events clustered along moving edges, temporally
  correlated across steps;
* token sequences — Zipf-distributed ids with repeated tokens, embedded
  through a fixed table (repeats create identical embedding rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import default_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Shape metadata for one synthetic dataset."""

    name: str
    kind: str  # "image" | "dvs" | "text" | "audio"
    channels: int = 3
    size: int = 32
    classes: int = 10
    seq_len: int = 64
    vocab: int = 2000


SPECS: dict[str, DatasetSpec] = {
    "cifar10": DatasetSpec("cifar10", "image", channels=3, size=32, classes=10),
    "cifar100": DatasetSpec("cifar100", "image", channels=3, size=32, classes=100),
    "mnist": DatasetSpec("mnist", "image", channels=1, size=28, classes=10),
    "cifar10dvs": DatasetSpec("cifar10dvs", "dvs", channels=2, size=64, classes=10),
    "sst2": DatasetSpec("sst2", "text", classes=2, seq_len=64),
    "sst5": DatasetSpec("sst5", "text", classes=5, seq_len=64),
    "mr": DatasetSpec("mr", "text", classes=2, seq_len=64),
    "qqp": DatasetSpec("qqp", "text", classes=2, seq_len=64),
    "mnli": DatasetSpec("mnli", "text", classes=3, seq_len=64),
    # Google Speech Commands stand-in: 40 mel bands x 101 frames is the
    # standard MFCC front end for the 12-keyword task (tc-res8 input).
    "speechcommands": DatasetSpec(
        "speechcommands", "audio", channels=40, size=101, classes=12
    ),
}


def get_spec(name: str) -> DatasetSpec:
    try:
        return SPECS[name.lower().replace("-", "")]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(SPECS)}") from None


def synthetic_image(
    spec: DatasetSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """One smooth ``(C, H, W)`` image in [0, 1] with blob structure."""
    from scipy import ndimage  # lazy: a third of `import repro`

    rng = rng if rng is not None else default_rng()
    noise = rng.random((spec.channels, spec.size, spec.size))
    smooth = ndimage.gaussian_filter(noise, sigma=(0, 2.5, 2.5))
    # Add a bright object blob on a dimmer background, like a centred subject.
    yy, xx = np.mgrid[0 : spec.size, 0 : spec.size]
    cy, cx = rng.uniform(0.3, 0.7, size=2) * spec.size
    radius = spec.size * rng.uniform(0.15, 0.3)
    blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius**2)))
    image = 0.5 * smooth + 0.5 * blob[None]
    image -= image.min()
    peak = image.max()
    return image / peak if peak > 0 else image


def synthetic_audio(
    spec: DatasetSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """One mel-spectrogram-like ``(C, L)`` patch in [0, 1].

    Keyword audio is a few formant bands sweeping slowly over ~1 s of
    frames on a quiet background. Smooth band trajectories make
    neighbouring frames (im2col1d rows) similar — the temporal
    correlation that seeds PM/EM matches in speech SNNs, just as blob
    structure does for images.
    """
    from scipy import ndimage  # lazy: a third of `import repro`

    rng = rng if rng is not None else default_rng()
    bands, frames = spec.channels, spec.size
    noise = rng.random((bands, frames))
    background = ndimage.gaussian_filter(noise, sigma=(1.5, 4.0))
    energy = np.zeros((bands, frames))
    yy = np.arange(bands, dtype=np.float64)
    tt = np.linspace(0.0, 1.0, frames)
    for _ in range(rng.integers(2, 5)):
        center = rng.uniform(0.1, 0.9) * bands
        sweep = rng.uniform(-0.3, 0.3) * bands
        width = bands * rng.uniform(0.04, 0.12)
        onset, release = np.sort(rng.uniform(0.0, 1.0, size=2))
        envelope = np.clip((tt - onset) / 0.1, 0.0, 1.0) * np.clip(
            (release + 0.1 - tt) / 0.1, 0.0, 1.0
        )
        track = center + sweep * tt
        energy += envelope[None, :] * np.exp(
            -((yy[:, None] - track[None, :]) ** 2) / (2 * width**2)
        )
    patch = 0.3 * background + 0.7 * energy
    patch -= patch.min()
    peak = patch.max()
    return patch / peak if peak > 0 else patch


def synthetic_dvs(
    spec: DatasetSpec, time_steps: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """A ``(T, 2, H, W)`` binary event stream: a moving edge plus noise.

    Polarity channels fire along a translating bright edge; most of the
    frame is silent, matching the high sparsity of real DVS data.
    """
    rng = rng if rng is not None else default_rng()
    events = np.zeros((time_steps, 2, spec.size, spec.size), dtype=bool)
    edge_y = rng.uniform(0.2, 0.8) * spec.size
    velocity = rng.uniform(0.5, 2.0)
    thickness = max(1, spec.size // 16)
    for t in range(time_steps):
        row = int(edge_y + velocity * t) % spec.size
        rows = [(row + d) % spec.size for d in range(thickness)]
        mask = rng.random((len(rows), spec.size)) < 0.6
        events[t, 0, rows, :] = mask
        events[t, 1, rows, :] = ~mask & (rng.random((len(rows), spec.size)) < 0.3)
        noise = rng.random((2, spec.size, spec.size)) < 0.01
        events[t] |= noise
    return events


def synthetic_tokens(
    spec: DatasetSpec, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Zipf-distributed token ids of shape ``(seq_len,)``.

    Natural-language token frequencies are Zipfian, so short sequences
    contain many repeated ids — repeated ids embed to identical rows,
    seeding exact-match product sparsity just like real text does.
    """
    rng = rng if rng is not None else default_rng()
    ranks = np.arange(1, spec.vocab + 1, dtype=np.float64)
    probs = 1.0 / ranks**1.1
    probs /= probs.sum()
    return rng.choice(spec.vocab, size=spec.seq_len, p=probs)


class EmbeddingTable:
    """Fixed random token-embedding lookup used by the NLP models."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else default_rng()
        self.table = rng.normal(0.0, 1.0, size=(vocab, dim))

    def __call__(self, token_ids: np.ndarray) -> np.ndarray:
        return self.table[np.asarray(token_ids, dtype=np.int64)]
