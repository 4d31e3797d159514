"""Unit tests for the domain-specific model."""

import pytest

from repro.errors import DatasetError, ModelNotFittedError
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel


def synthetic_dataset(baseline=1282.0):
    """Analytic workload: t = size/f, e = size * (20 + f/100)."""
    ds = EnergyDataset(feature_names=("size",))
    freqs = [400.0, 700.0, 1000.0, baseline, 1500.0]
    for size in (1.0, 2.0, 4.0, 8.0, 16.0):
        for f in freqs:
            ds.add(
                EnergySample(
                    features=(size,),
                    freq_mhz=f,
                    time_s=size * 1000.0 / f,
                    energy_j=size * (20.0 + f / 100.0),
                )
            )
    return ds


def small_forest():
    return RandomForestRegressor(n_estimators=10, random_state=0)


@pytest.fixture
def fitted():
    model = DomainSpecificModel(("size",), small_forest, baseline_freq_mhz=1282.0)
    return model.fit(synthetic_dataset())


class TestFit:
    def test_feature_name_mismatch(self):
        model = DomainSpecificModel(("other",), small_forest)
        with pytest.raises(ValueError):
            model.fit(synthetic_dataset())

    def test_missing_baseline_bin_rejected(self):
        ds = EnergyDataset(feature_names=("size",))
        for f in (400.0, 800.0):
            ds.add(EnergySample(features=(1.0,), freq_mhz=f, time_s=1.0, energy_j=1.0))
            ds.add(EnergySample(features=(2.0,), freq_mhz=f, time_s=2.0, energy_j=2.0))
        model = DomainSpecificModel(("size",), small_forest, baseline_freq_mhz=1282.0)
        with pytest.raises(DatasetError, match="baseline"):
            model.fit(ds)

    def test_unfitted_predict_raises(self):
        model = DomainSpecificModel(("size",), small_forest)
        with pytest.raises(ModelNotFittedError):
            model.predict_time((1.0,), [1000.0])


class TestRawPredictions:
    def test_time_accuracy_on_training_inputs(self, fitted):
        # bootstrap forests blur neighbouring (size, freq) cells a little,
        # so raw absolute predictions carry a ~25% tolerance
        pred = fitted.predict_time((4.0,), [700.0, 1282.0])
        assert pred[0] == pytest.approx(4000.0 / 700.0, rel=0.25)
        assert pred[1] == pytest.approx(4000.0 / 1282.0, rel=0.25)

    def test_energy_accuracy(self, fitted):
        pred = fitted.predict_energy((8.0,), [1000.0])
        assert pred[0] == pytest.approx(8.0 * 30.0, rel=0.25)

    def test_interpolates_unseen_size(self, fitted):
        """LOOCV premise: unseen inputs land between trained neighbours."""
        pred = fitted.predict_time((3.0,), [1000.0])
        lo = 2000.0 / 1000.0
        hi = 4000.0 / 1000.0
        assert lo * 0.9 <= pred[0] <= hi * 1.1

    def test_feature_arity_checked(self, fitted):
        with pytest.raises(ValueError):
            fitted.predict_time((1.0, 2.0), [1000.0])


class TestTradeoffPredictions:
    def test_speedup_one_at_baseline(self, fitted):
        pred = fitted.predict_tradeoff((4.0,), [1282.0])
        assert pred.speedups[0] == pytest.approx(1.0, rel=0.02)
        assert pred.normalized_energies[0] == pytest.approx(1.0, rel=0.02)

    def test_speedup_matches_analytic(self, fitted):
        pred = fitted.predict_tradeoff((4.0,), [700.0, 1500.0])
        assert pred.speedups[0] == pytest.approx(700.0 / 1282.0, rel=0.05)
        assert pred.speedups[1] == pytest.approx(1500.0 / 1282.0, rel=0.05)

    def test_normalized_energy_matches_analytic(self, fitted):
        pred = fitted.predict_tradeoff((4.0,), [400.0])
        expected = (20.0 + 4.0) / (20.0 + 12.82)
        assert pred.normalized_energies[0] == pytest.approx(expected, rel=0.05)

    def test_baseline_mismatch_rejected(self, fitted):
        with pytest.raises(ValueError):
            fitted.predict_tradeoff((4.0,), [1000.0], baseline_freq_mhz=900.0)

    def test_matching_baseline_accepted(self, fitted):
        pred = fitted.predict_tradeoff((4.0,), [1000.0], baseline_freq_mhz=1282.0)
        assert pred.baseline_freq_mhz == pytest.approx(1282.0)

    def test_pareto_extraction(self, fitted):
        freqs = [400.0, 700.0, 1000.0, 1282.0, 1500.0]
        pred = fitted.predict_tradeoff((4.0,), freqs)
        front = pred.pareto_front()
        assert len(front) >= 1
        assert set(pred.pareto_frequencies()) <= set(freqs)
