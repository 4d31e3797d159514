"""Unit tests for the Fig-13 evaluation and regressor comparison."""

import numpy as np
import pytest

from repro.cronos.app import CRONOS_FEATURE_NAMES
from repro.errors import ConfigurationError
from repro.experiments.evaluation import compare_regressors, evaluate_fig13
from repro.kernels.microbench import generate_microbenchmarks
from repro.ligen.app import LIGEN_FEATURE_NAMES
from repro.ml import LinearRegression, RandomForestRegressor
from repro.modeling.general import GeneralPurposeModel, cronos_static_spec


def forest():
    return RandomForestRegressor(n_estimators=8, random_state=0)


@pytest.fixture(scope="module")
def gp_model(cronos_campaign_small):
    from repro.synergy import Platform

    device = Platform.default(seed=20).get_device("v100")
    gp = GeneralPurposeModel(regressor_factory=forest, repetitions=1)
    gp.train(
        device,
        freqs_mhz=cronos_campaign_small.freqs_mhz,
        microbenchmarks=generate_microbenchmarks()[::5],
    )
    return gp


class TestEvaluateFig13:
    def test_row_per_validation_input(self, cronos_campaign_small, gp_model):
        rows = evaluate_fig13(
            cronos_campaign_small,
            gp_model,
            cronos_static_spec(),
            CRONOS_FEATURE_NAMES,
            validation_features=[(10.0, 4.0, 4.0), (20.0, 8.0, 8.0)],
            labels=["10x4x4", "20x8x8"],
            regressor_factory=forest,
        )
        assert [r.label for r in rows] == ["10x4x4", "20x8x8"]
        for r in rows:
            assert r.speedup_mape_ds > 0
            assert r.energy_mape_gp > 0
            assert np.isfinite(r.speedup_improvement)

    def test_ds_beats_gp_on_interpolable_input(self, cronos_campaign_small, gp_model):
        rows = evaluate_fig13(
            cronos_campaign_small,
            gp_model,
            cronos_static_spec(),
            CRONOS_FEATURE_NAMES,
            validation_features=[(20.0, 8.0, 8.0)],
            regressor_factory=forest,
        )
        assert rows[0].speedup_mape_ds < rows[0].speedup_mape_gp

    def test_label_mismatch_rejected(self, cronos_campaign_small, gp_model):
        with pytest.raises(ConfigurationError):
            evaluate_fig13(
                cronos_campaign_small,
                gp_model,
                cronos_static_spec(),
                CRONOS_FEATURE_NAMES,
                validation_features=[(10.0, 4.0, 4.0)],
                labels=["a", "b"],
                regressor_factory=forest,
            )


class TestCompareRegressors:
    def test_scores_sorted_best_first(self, ligen_campaign_small):
        scores = compare_regressors(
            ligen_campaign_small,
            LIGEN_FEATURE_NAMES,
            validation_features=[(256.0, 4.0, 31.0), (256.0, 20.0, 89.0)],
            factories={
                "linear": LinearRegression,
                "random_forest": forest,
            },
        )
        assert len(scores) == 2
        combined = [s.combined for s in scores]
        assert combined == sorted(combined)

    def test_random_forest_beats_linear(self, ligen_campaign_small):
        """§5.2.1: Random Forest achieves the best accuracy."""
        scores = compare_regressors(
            ligen_campaign_small,
            LIGEN_FEATURE_NAMES,
            validation_features=[(256.0, 4.0, 31.0)],
            factories={"linear": LinearRegression, "random_forest": forest},
        )
        assert scores[0].name == "random_forest"

    def test_empty_factories_rejected(self, ligen_campaign_small):
        with pytest.raises(ConfigurationError):
            compare_regressors(
                ligen_campaign_small, LIGEN_FEATURE_NAMES, [(256.0, 4.0, 31.0)], {}
            )
