"""Deterministic synthetic image-classification data.

Each class is a procedural texture: an oriented sinusoidal grating whose
frequency/orientation are drawn once per class from the spec seed, with a
random phase per sample plus additive noise.  Random phase keeps the
per-class pixel mean at zero, so a linear readout on raw pixels stays weak
while a small convnet (an oriented-energy detector) separates the classes
easily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    num_classes: int = 4
    samples_per_class: int = 256
    height: int = 16
    width: int = 16
    channels: int = 3
    seed: int = 7
    noise_std: float = 0.25
    label_noise: float = 0.0  # fraction of labels resampled to a wrong class

    def __post_init__(self):
        if self.num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.samples_per_class < 1:
            raise DataError("samples_per_class must be positive")
        if min(self.height, self.width, self.channels) < 1:
            raise DataError("image dimensions must be positive")
        if self.seed < 0:
            raise DataError(f"data seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.label_noise < 1.0:
            raise DataError(f"label_noise must be in [0, 1), got {self.label_noise}")


@dataclass
class Dataset:
    images: np.ndarray  # (S, C, H, W) float64
    labels: np.ndarray  # (S,) int64

    def __len__(self):
        return self.images.shape[0]


def generate_dataset(spec: DatasetSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    h, w, c = spec.height, spec.width, spec.channels
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    gx /= w
    gy /= h

    # Per-class texture parameters: orientations spread over the half circle
    # with seeded jitter; frequencies alternate between two bands so that
    # neighbouring orientations also differ in scale.
    classes = spec.num_classes
    angles = (np.arange(classes) * np.pi / classes
              + rng.uniform(-0.05, 0.05, classes))
    freqs = np.where(np.arange(classes) % 2 == 0, 3.0, 4.5) \
        + rng.uniform(-0.2, 0.2, classes)
    chan_shift = rng.uniform(0, 2 * np.pi, (classes, c))

    images = np.empty((classes * spec.samples_per_class, c, h, w))
    labels = np.empty(classes * spec.samples_per_class, dtype=np.int64)
    idx = 0
    for cls in range(classes):
        proj = np.cos(angles[cls]) * gx + np.sin(angles[cls]) * gy
        for _ in range(spec.samples_per_class):
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(0.8, 1.2)
            for ch in range(c):
                images[idx, ch] = amp * np.sin(
                    2 * np.pi * freqs[cls] * proj + phase + chan_shift[cls, ch])
            images[idx] += spec.noise_std * rng.standard_normal((c, h, w))
            labels[idx] = cls
            idx += 1
    if spec.label_noise > 0.0:
        # irreducible cross-entropy floor: flipped labels are unpredictable
        flip = rng.random(len(labels)) < spec.label_noise
        shift = rng.integers(1, classes, len(labels))
        labels[flip] = (labels[flip] + shift[flip]) % classes
    return Dataset(images=images, labels=labels)


def check_fractions(fractions):
    """The split fractions as floats: each must be > 0, and their sum
    within 1e-9 of 1."""
    fractions = [float(f) for f in fractions]
    if not (all(f > 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):
        raise DataError(f"split fractions must each be > 0 and sum to 1, "
                        f"got {fractions}")
    return fractions


def split(dataset: Dataset, fractions, seed: int):
    """Stratified, disjoint, deterministic splits (see check_fractions)."""
    fractions = check_fractions(fractions)
    rng = np.random.default_rng(seed)
    n_splits = len(fractions)
    buckets = [[] for _ in range(n_splits)]
    for cls in np.unique(dataset.labels):
        cls_idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(cls_idx)
        n = len(cls_idx)
        # floor all but the last split; the last absorbs the remainder
        counts = [int(f * n) for f in fractions[:-1]]
        counts.append(n - sum(counts))
        start = 0
        for i, cnt in enumerate(counts):
            buckets[i].extend(cls_idx[start:start + cnt])
            start += cnt
    out = []
    for i, bucket in enumerate(buckets):
        if not bucket:
            raise DataError(
                f"split fraction {fractions[i]} yields an empty split")
        order = np.sort(np.asarray(bucket))
        out.append(Dataset(images=dataset.images[order],
                           labels=dataset.labels[order]))
    return tuple(out)


def batches(dataset: Dataset, batch_size: int, rng: np.random.Generator):
    """One shuffled epoch of (images, labels) batches (last short batch kept)."""
    order = rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        sel = order[start:start + batch_size]
        yield dataset.images[sel], dataset.labels[sel]
