"""Level-wise forest fitting against the depth-first fit.

The four forests of a :class:`DomainSpecificModel` are fitted on the
training set of one lifecycle retrain (LiGen 3x2x2 inputs, 6 clocks, 1
repetition, 30 trees), once through ``RandomForestRegressor.fit`` and
once with each tree grown node by node, depth-first. The
tree arrays must be byte-equal, and the level-wise fit must be faster:
it exists only to remove the per-node Python loop.
"""

import time

import pytest

from repro.experiments.datasets import characterize_apps
from repro.lifecycle import build_retrainer, build_workload
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import _bin_features
from repro.modeling.domain import DomainSpecificModel
from repro.runtime.engine import CampaignEngine
from repro.serving import ModelRegistry
from repro.specs import LifecycleSpec
from repro.synergy.api import builtin_device
from tests.ml.depth_first import fit_depth_first

TREES = 30
SEED = 11
# Measured about 9x on a 2-vCPU VM (0.05 s against 0.42 s of CPU); the
# floor leaves room for a noisy host.
MIN_SPEEDUP = 4.0
ROUNDS = 3
FIELDS = ("feature_", "threshold_", "left_", "right_", "value_")


def _training_sets(tmp_path):
    """The (X, y) pairs a lifecycle retrain fits its four forests on."""
    spec = LifecycleSpec.from_record(
        {
            "format": "repro.lifecycle",
            "schema_version": 1,
            "name": "fit-floor",
            "seed": SEED,
            "model": {"registry": "registry", "name": "ligen-advisor"},
            "workload": {
                "app": "ligen",
                "device": "v100",
                "ligand_counts": [2, 256, 10000],
                "atom_counts": [31, 89],
                "fragment_counts": [4, 20],
                "freq_count": 6,
                "repetitions": 1,
                "trees": TREES,
            },
            "drift": {"window": 64, "enter_mape": 20.0, "exit_mape": 10.0},
            "canary": {"shadow_size": 32},
            "epochs": 1,
            "requests_per_epoch": 1,
        },
        base_dir=str(tmp_path),
    )
    retrainer = build_retrainer(spec, ModelRegistry(tmp_path / "registry"))
    seed = retrainer.campaign_seed(0)
    dataset = characterize_apps(
        builtin_device(spec.device_name, seed=seed),
        build_workload(spec),
        retrainer.feature_names,
        list(retrainer.freqs_mhz),
        repetitions=1,
        engine=CampaignEngine(jobs=1, campaign_seed=seed, method="replay"),
    ).dataset

    fits = []

    class Recorder:
        def fit(self, X, y):
            fits.append((X, y))
            return self

    DomainSpecificModel(
        retrainer.feature_names,
        regressor_factory=Recorder,
        baseline_freq_mhz=retrainer.baseline_freq_mhz,
    ).fit(dataset)
    return fits


def _level_wise(fits):
    return [
        RandomForestRegressor(n_estimators=TREES, random_state=SEED).fit(X, y).estimators_
        for X, y in fits
    ]


def _depth_first(fits):
    out = []
    for X, y in fits:
        forest = RandomForestRegressor(n_estimators=TREES, random_state=SEED)
        binned = _bin_features(X, forest.max_bins)
        trees, roots = forest._new_trees(X.shape[0])
        for tree, root in zip(trees, roots):
            fit_depth_first(tree, binned, y, root)
        out.append(trees)
    return out


def _best_cpu_s(fit, fits):
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.process_time()
        fit(fits)
        best = min(best, time.process_time() - t0)
    return best


@pytest.fixture(scope="module")
def fits(tmp_path_factory):
    fits = _training_sets(tmp_path_factory.mktemp("fit-floor"))
    assert len(fits) == 4 and fits[0][0].shape == (84, 4)
    return fits


def test_level_wise_trees_equal_depth_first_bytes(fits):
    for fast_forest, slow_forest in zip(_level_wise(fits), _depth_first(fits)):
        assert len(fast_forest) == len(slow_forest) == TREES
        for fast, slow in zip(fast_forest, slow_forest):
            for name in FIELDS:
                a, b = getattr(fast, name), getattr(slow, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_level_wise_fit_is_4x_faster(fits):
    level_s = _best_cpu_s(_level_wise, fits)
    depth_s = _best_cpu_s(_depth_first, fits)
    assert depth_s >= MIN_SPEEDUP * level_s, (
        f"level-wise {level_s:.3f}s vs depth-first {depth_s:.3f}s CPU "
        f"({depth_s / level_s:.1f}x, floor {MIN_SPEEDUP}x)"
    )
