"""End-to-end integration: the full modeling pipeline on reduced scale.

Covers the headline claim of the paper on a small experimental grid:
the domain-specific models predict speedup and normalized energy far more
accurately than the general-purpose model, and the DS-predicted Pareto
frequencies land on/near the true front.
"""

import pytest

from repro.cronos.app import CRONOS_FEATURE_NAMES
from repro.experiments.evaluation import evaluate_fig13
from repro.kernels.microbench import generate_microbenchmarks
from repro.ligen.app import LIGEN_FEATURE_NAMES
from repro.ml import RandomForestRegressor
from repro.modeling import (
    DomainSpecificModel,
    GeneralPurposeModel,
    assess_pareto_prediction,
    ligen_static_spec,
    cronos_static_spec,
    true_front,
)
from repro.synergy import Platform


def forest():
    return RandomForestRegressor(n_estimators=12, random_state=3)


@pytest.fixture(scope="module")
def gp(ligen_campaign_small):
    device = Platform.default(seed=31).get_device("v100")
    model = GeneralPurposeModel(regressor_factory=forest, repetitions=1)
    model.train(
        device,
        freqs_mhz=ligen_campaign_small.freqs_mhz,
        microbenchmarks=generate_microbenchmarks()[::3],
    )
    return model


class TestHeadlineClaim:
    def test_ds_beats_gp_on_ligen(self, ligen_campaign_small, gp):
        """DS MAPE must be well below GP MAPE on LiGen speedup for every
        interpolable validation input (paper: >= 10x; we assert >= 3x on
        this heavily reduced grid)."""
        val = [(256.0, 4.0, 31.0), (256.0, 20.0, 89.0), (4096.0, 4.0, 89.0)]
        rows = evaluate_fig13(
            ligen_campaign_small,
            gp,
            ligen_static_spec(),
            LIGEN_FEATURE_NAMES,
            validation_features=val,
            regressor_factory=forest,
        )
        for row in rows:
            assert row.speedup_mape_ds < 0.05
            assert row.speedup_improvement > 3.0

    def test_ds_beats_gp_on_cronos(self, cronos_campaign_small, gp):
        rows = evaluate_fig13(
            cronos_campaign_small,
            gp,
            cronos_static_spec(),
            CRONOS_FEATURE_NAMES,
            validation_features=[(20.0, 8.0, 8.0)],
            regressor_factory=forest,
        )
        assert rows[0].speedup_mape_ds < rows[0].speedup_mape_gp
        assert rows[0].energy_mape_ds < rows[0].energy_mape_gp


class TestParetoPrediction:
    def test_ds_predicted_front_close_to_truth(self, ligen_campaign_small):
        feats = (4096.0, 20.0, 89.0)
        train, _ = ligen_campaign_small.dataset.split_leave_one_out(feats)
        ds = DomainSpecificModel(LIGEN_FEATURE_NAMES, forest).fit(train)
        measured = ligen_campaign_small.characterization_for(feats)
        pred = ds.predict_tradeoff(feats, measured.freqs_mhz)
        assessment = assess_pareto_prediction(pred, measured)
        # achieved points must sit close to the true front
        assert assessment.distance_to_front < 0.06
        # and cover a reasonable share of it
        assert assessment.true_front_coverage >= 0.5

    def test_true_front_nonempty_and_consistent(self, ligen_campaign_small):
        for char in ligen_campaign_small.characterizations.values():
            front = true_front(char)
            assert len(front) >= 1
            assert front.is_consistent()


class TestAbsolutePredictions:
    def test_ds_raw_time_interpolation(self, ligen_campaign_small):
        """Held-out input's absolute runtime predicted within ~50%
        (raw scale spans orders of magnitude; the normalized models are
        the accurate ones)."""
        feats = (256.0, 20.0, 31.0)
        train, _ = ligen_campaign_small.dataset.split_leave_one_out(feats)
        ds = DomainSpecificModel(LIGEN_FEATURE_NAMES, forest).fit(train)
        measured = ligen_campaign_small.characterization_for(feats)
        pred_t = ds.predict_time(feats, [1282.0])[0]
        true_t = measured.sample_at(1282.0).time_s
        assert 0.4 * true_t < pred_t < 2.5 * true_t
