"""Unit tests for the energy dataset container."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.modeling.dataset import EnergyDataset, EnergySample


def sample(feats=(1.0, 2.0), freq=1000.0, t=1.0, e=100.0):
    return EnergySample(features=feats, freq_mhz=freq, time_s=t, energy_j=e)


@pytest.fixture
def dataset():
    ds = EnergyDataset(feature_names=("a", "b"))
    for feats in ((1.0, 2.0), (3.0, 4.0)):
        for freq in (500.0, 1000.0, 1500.0):
            ds.add(sample(feats, freq, t=feats[0] / freq, e=feats[0] * freq))
    return ds


class TestConstruction:
    def test_add_validates_arity(self, dataset):
        with pytest.raises(DatasetError):
            dataset.add(sample(feats=(1.0,)))

    def test_invalid_sample_values(self):
        with pytest.raises(DatasetError):
            EnergySample(features=(1.0,), freq_mhz=1000.0, time_s=0.0, energy_j=1.0)
        with pytest.raises(DatasetError):
            EnergySample(features=(1.0,), freq_mhz=1000.0, time_s=1.0, energy_j=-1.0)

    def test_empty_feature_names_rejected(self):
        with pytest.raises(DatasetError):
            EnergyDataset(feature_names=())

    def test_len(self, dataset):
        assert len(dataset) == 6


class TestMatrixViews:
    def test_X_has_frequency_column(self, dataset):
        X = dataset.X()
        assert X.shape == (6, 3)
        assert set(X[:, 2]) == {500.0, 1000.0, 1500.0}

    def test_targets(self, dataset):
        assert dataset.y_time().shape == (6,)
        assert dataset.y_energy().min() > 0

    def test_empty_X_raises(self):
        ds = EnergyDataset(feature_names=("a",))
        with pytest.raises(DatasetError):
            ds.X()

    def test_groups_one_per_feature_tuple(self, dataset):
        groups = dataset.groups()
        assert len(np.unique(groups)) == 2
        assert groups[0] == groups[1] == groups[2]

    def test_distinct_features_order(self, dataset):
        assert dataset.distinct_features() == [(1.0, 2.0), (3.0, 4.0)]

    def test_frequencies_sorted_unique(self, dataset):
        assert list(dataset.frequencies()) == [500.0, 1000.0, 1500.0]


class TestSplits:
    def test_leave_one_out_partitions(self, dataset):
        train, val = dataset.split_leave_one_out((1.0, 2.0))
        assert len(val) == 3
        assert len(train) == 3
        assert all(s.features == (1.0, 2.0) for s in val.samples)
        assert all(s.features != (1.0, 2.0) for s in train.samples)

    def test_leave_one_out_unknown_features(self, dataset):
        with pytest.raises(DatasetError):
            dataset.split_leave_one_out((9.0, 9.0))

    def test_leave_one_out_cannot_empty_train(self):
        ds = EnergyDataset(feature_names=("a",))
        ds.add(sample(feats=(1.0,)))
        with pytest.raises(DatasetError):
            ds.split_leave_one_out((1.0,))


class TestCharacterizationIngest:
    def test_add_characterization(self, v100_dev, small_freqs):
        from repro.synergy.runner import characterize
        from repro.kernels.ir import KernelLaunch, KernelSpec

        class App:
            name = "a"

            def run(self, gpu):
                gpu.launch(
                    KernelLaunch(
                        KernelSpec("k", float_add=1000, global_access=8),
                        threads=500_000,
                    )
                )

        result = characterize(App(), v100_dev, freqs_mhz=small_freqs, repetitions=2)
        ds = EnergyDataset(feature_names=("x",))
        ds.add_characterization((5.0,), result)
        assert len(ds) == len(small_freqs)
        assert ds.distinct_features() == [(5.0,)]
