import numpy as np
import pytest

from cosearch import data as datamod
from cosearch.data import DataError, DatasetSpec
from reference_ops import baseline_convnet_accuracy, linear_probe_accuracy


def test_counts_and_balance():
    spec = DatasetSpec(num_classes=4, samples_per_class=256, seed=7)
    ds = datamod.generate_dataset(spec)
    assert len(ds) == 1024
    assert ds.images.shape == (1024, 3, 16, 16)
    counts = np.bincount(ds.labels)
    assert counts.tolist() == [256] * 4


def test_bitwise_deterministic():
    spec = DatasetSpec(seed=13)
    a = datamod.generate_dataset(spec)
    b = datamod.generate_dataset(spec)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def test_different_seed_differs():
    a = datamod.generate_dataset(DatasetSpec(seed=1))
    b = datamod.generate_dataset(DatasetSpec(seed=2))
    assert not np.array_equal(a.images, b.images)


def test_spec_validation():
    with pytest.raises(DataError):
        DatasetSpec(num_classes=1)
    with pytest.raises(DataError):
        DatasetSpec(samples_per_class=0)


class TestSplit:
    def test_documented_counts(self):
        ds = datamod.generate_dataset(DatasetSpec())
        train, val, test = datamod.split(ds, (0.4, 0.4, 0.2), seed=7)
        assert (len(train), len(val), len(test)) == (408, 408, 208)
        # stratified: per-class counts within 1 of exact proportionality
        for part, frac in ((train, 0.4), (val, 0.4), (test, 0.2)):
            for cls in range(4):
                got = int((part.labels == cls).sum())
                assert abs(got - frac * 256) <= 1

    def test_disjoint_and_complete(self):
        ds = datamod.generate_dataset(DatasetSpec(samples_per_class=32))
        parts = datamod.split(ds, (0.5, 0.3, 0.2), seed=3)
        keys = []
        for part in parts:
            keys.extend(part.images.reshape(len(part), -1).sum(axis=1).tolist())
        whole = ds.images.reshape(len(ds), -1).sum(axis=1).tolist()
        assert sorted(keys) == sorted(whole)
        assert sum(len(p) for p in parts) == len(ds)

    def test_same_seed_same_split(self):
        ds = datamod.generate_dataset(DatasetSpec(samples_per_class=16))
        a = datamod.split(ds, (0.5, 0.5), seed=9)
        b = datamod.split(ds, (0.5, 0.5), seed=9)
        assert np.array_equal(a[0].images, b[0].images)

    def test_bad_fractions(self):
        ds = datamod.generate_dataset(DatasetSpec(samples_per_class=8))
        with pytest.raises(DataError, match="sum to 1"):
            datamod.split(ds, (0.5, 0.4), seed=0)
        with pytest.raises(DataError, match=r"each be > 0.*-0\.4"):
            datamod.split(ds, (1.2, -0.4, 0.2), seed=0)

    def test_empty_split_rejected(self):
        ds = datamod.generate_dataset(DatasetSpec(samples_per_class=8))
        with pytest.raises(DataError, match="empty"):
            datamod.split(ds, (0.001, 0.999), seed=0)


class TestCalibration:
    """The generator is tuned so textures are easy for a small convnet but
    not for a linear readout."""

    def test_convnet_vs_linear(self):
        ds = datamod.generate_dataset(DatasetSpec())
        train, val, _ = datamod.split(ds, (0.4, 0.4, 0.2), seed=7)
        conv_acc = baseline_convnet_accuracy(train, val)
        lin_acc = linear_probe_accuracy(train, val)
        assert conv_acc >= 0.90
        assert lin_acc <= 0.70

