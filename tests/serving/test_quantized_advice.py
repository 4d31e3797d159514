"""Served advice is the model's answer at the quantized features.

The advisor rounds features to 9 decimal places before it keys and
predicts. That is not harmless at a split threshold: the LiGen model
splits ligands at 129.0 (between the training counts 2 and 256), and
``129.0000000004`` rounds onto the threshold, which goes left. These
tests pin that the service answers for ``quantize_features(x)``, on
both sides of the split, and that rounding there does change the
prediction.
"""

import numpy as np
import pytest

from repro.experiments.datasets import build_ligen_campaign
from repro.ligen.app import LIGEN_FEATURE_NAMES
from repro.ml import RandomForestRegressor
from repro.modeling import DomainSpecificModel
from repro.serving import AdvisorService, Objective
from repro.serving.cache import quantize_features
from repro.synergy import Platform

FREQS = np.linspace(135.0, 1597.0, 25)
OBJECTIVES = (
    Objective.tradeoff(),
    Objective.min_energy_deadline(100.0),
    Objective.max_speedup_power(500.0),
)
SPLIT = 129.0
#: Just above the split, rounding onto it; just below, rounding onto it too.
ACROSS = (SPLIT + 4e-10, 20.0, 89.0)
BELOW = (SPLIT - 4e-10, 20.0, 89.0)


@pytest.fixture(scope="module")
def model():
    device = Platform.default(seed=7).get_device("v100")
    campaign = build_ligen_campaign(
        device,
        freq_count=6,
        repetitions=2,
        ligand_counts=(2, 256, 10000),
        atom_counts=(31, 89),
        fragment_counts=(4, 20),
    )
    return DomainSpecificModel(
        LIGEN_FEATURE_NAMES,
        regressor_factory=lambda: RandomForestRegressor(n_estimators=30, random_state=42),
    ).fit(campaign.dataset)


def _profile(model, features):
    p = model.predict_tradeoff(list(features), FREQS)
    return np.concatenate([p.times_s, p.energies_j, p.speedups, p.normalized_energies])


def test_the_model_splits_ligands_where_the_inputs_round(model):
    thresholds = np.concatenate(
        [t.threshold_[t.feature_ == 0] for t in model._time_model.estimators_]
    )
    assert SPLIT in thresholds
    assert ACROSS[0] > SPLIT > BELOW[0]
    assert quantize_features(ACROSS) == quantize_features(BELOW) == (SPLIT, 20.0, 89.0)


@pytest.mark.parametrize("features", [ACROSS, BELOW], ids=["across", "below"])
def test_advice_is_the_model_at_the_quantized_features(model, features):
    service = AdvisorService(model, FREQS)
    q = list(quantize_features(features))
    for objective in OBJECTIVES:
        assert service.advise(features, objective) == objective.evaluate(
            model.predict_tradeoff(q, FREQS)
        )


def test_rounding_across_the_split_changes_the_prediction(model):
    at_split = _profile(model, quantize_features(ACROSS))
    # Below the split, the raw and rounded inputs share one cell.
    assert np.array_equal(_profile(model, BELOW), at_split)
    # Above it they do not: the served answer is not the raw input's.
    assert not np.array_equal(_profile(model, ACROSS), at_split)
