"""Unit tests for the random-forest regressor."""

import numpy as np
import pytest

from repro.errors import ModelNotFittedError
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, (400, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] + rng.normal(0, 0.05, 400)
    Xt = rng.uniform(-2, 2, (150, 3))
    yt = np.sin(Xt[:, 0]) + 0.5 * Xt[:, 1] * Xt[:, 2]
    return X, y, Xt, yt


class TestAccuracy:
    def test_beats_noise_floor(self, data):
        X, y, Xt, yt = data
        m = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert r2_score(yt, m.predict(Xt)) > 0.8

    def test_ensemble_smoother_than_single_tree(self, data):
        """Bagging must reduce test error vs one unpruned tree."""
        X, y, Xt, yt = data
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        forest = RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert r2_score(yt, forest.predict(Xt)) > r2_score(yt, tree.predict(Xt))

    def test_prediction_is_tree_mean(self, data):
        X, y, Xt, _ = data
        m = RandomForestRegressor(n_estimators=5, random_state=1).fit(X, y)
        stacked = np.mean([t.predict(Xt) for t in m.estimators_], axis=0)
        assert np.allclose(m.predict(Xt), stacked)


class TestRandomness:
    def test_deterministic_given_seed(self, data):
        X, y, Xt, _ = data
        a = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y).predict(Xt)
        b = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y).predict(Xt)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, data):
        X, y, Xt, _ = data
        a = RandomForestRegressor(n_estimators=8, random_state=3).fit(X, y).predict(Xt)
        b = RandomForestRegressor(n_estimators=8, random_state=4).fit(X, y).predict(Xt)
        assert not np.array_equal(a, b)

    def test_trees_are_diverse(self, data):
        X, y, Xt, _ = data
        m = RandomForestRegressor(n_estimators=4, random_state=0).fit(X, y)
        p0 = m.estimators_[0].predict(Xt)
        p1 = m.estimators_[1].predict(Xt)
        assert not np.array_equal(p0, p1)

    def test_no_bootstrap_no_feature_subsampling_gives_identical_trees(self, data):
        X, y, Xt, _ = data
        m = RandomForestRegressor(
            n_estimators=3, bootstrap=False, random_state=0
        ).fit(X, y)
        p0 = m.estimators_[0].predict(Xt)
        p1 = m.estimators_[1].predict(Xt)
        assert np.array_equal(p0, p1)


class TestConfig:
    def test_n_estimators_respected(self, data):
        X, y, _, _ = data
        m = RandomForestRegressor(n_estimators=7, random_state=0).fit(X, y)
        assert len(m.estimators_) == 7

    def test_max_depth_passed_to_trees(self, data):
        X, y, _, _ = data
        m = RandomForestRegressor(n_estimators=3, max_depth=2, random_state=0).fit(X, y)
        assert all(t.depth <= 2 for t in m.estimators_)

    def test_unfitted(self):
        with pytest.raises(ModelNotFittedError):
            RandomForestRegressor().predict([[0.0]])

    def test_invalid_n_estimators(self, data):
        X, y, _, _ = data
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0).fit(X, y)

    def test_get_set_params_clone(self):
        m = RandomForestRegressor(n_estimators=9, max_depth=4)
        params = m.get_params()
        assert params["n_estimators"] == 9
        clone = m.clone()
        assert clone.get_params() == params
        m.set_params(n_estimators=3)
        assert clone.n_estimators == 9
