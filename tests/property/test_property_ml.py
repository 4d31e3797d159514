"""Property-based tests for the ML substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.ml.linear import Lasso, LinearRegression, Ridge
from repro.ml.metrics import mean_absolute_error, r2_score, root_mean_squared_error
from repro.ml.tree import DecisionTreeRegressor, _bin_features
from tests.ml.depth_first import fit_depth_first


@st.composite
def regression_problems(draw):
    n = draw(st.integers(min_value=8, max_value=60))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = X @ w + rng.normal(0, 0.1, n)
    return X, y


@given(regression_problems())
@settings(max_examples=40, deadline=None)
def test_ols_residual_orthogonality(problem):
    """OLS normal equations: residuals orthogonal to every feature column."""
    X, y = problem
    m = LinearRegression().fit(X, y)
    residual = y - m.predict(X)
    assert np.allclose(X.T @ residual, 0.0, atol=1e-6 * max(1.0, np.abs(y).max()) * len(y))


@given(regression_problems())
@settings(max_examples=40, deadline=None)
def test_ols_residual_mean_zero(problem):
    X, y = problem
    m = LinearRegression().fit(X, y)
    assert np.mean(y - m.predict(X)) == pytest_approx_zero(y)


def pytest_approx_zero(y):
    import pytest

    return pytest.approx(0.0, abs=1e-8 * max(1.0, float(np.abs(y).max())))


@given(regression_problems(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_ridge_shrinks_monotonically(problem, alpha):
    X, y = problem
    small = Ridge(alpha=alpha).fit(X, y)
    big = Ridge(alpha=alpha * 10).fit(X, y)
    assert np.linalg.norm(big.coef_) <= np.linalg.norm(small.coef_) + 1e-9


@given(regression_problems(), st.floats(min_value=0.001, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_lasso_objective_no_worse_than_zero_vector(problem, alpha):
    """The CD solution's objective must beat the all-zeros start."""
    X, y = problem
    m = Lasso(alpha=alpha).fit(X, y)

    def objective(w, b):
        r = y - X @ w - b
        return 0.5 * (r @ r) / len(y) + alpha * np.abs(w).sum()

    assert objective(m.coef_, m.intercept_) <= objective(
        np.zeros(X.shape[1]), float(y.mean())
    ) + 1e-9


@given(regression_problems())
@settings(max_examples=30, deadline=None)
def test_tree_training_predictions_bounded_by_target_range(problem):
    """Leaf values are means of training targets: predictions can never
    leave the observed range."""
    X, y = problem
    m = DecisionTreeRegressor(min_samples_leaf=2).fit(X, y)
    pred = m.predict(X)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12


@given(regression_problems())
@settings(max_examples=30, deadline=None)
def test_tree_never_worse_than_constant_on_train(problem):
    X, y = problem
    m = DecisionTreeRegressor(min_samples_leaf=2).fit(X, y)
    assert r2_score(y, m.predict(X)) >= -1e-9


@st.composite
def forest_problems(draw):
    """Training sets with ties, constant columns and targets, -0.0 targets
    and 1-3 rows, with the forest parameters that change tree shape,
    feature subsampling included."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=4, max_value=40)))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    columns = draw(st.sampled_from(["ties", "continuous", "one_constant", "all_constant"]))
    target = draw(st.sampled_from(["continuous", "ties", "constant", "signed_zeros", "zeros"]))
    rng = np.random.default_rng(seed)
    if columns == "continuous":
        X = rng.normal(size=(n, d))
    else:
        X = rng.integers(0, 4, size=(n, d)).astype(float)
    if columns == "one_constant":
        X[:, 0] = 2.0
    elif columns == "all_constant":
        X[:] = 2.0
    y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    if target == "ties":
        y = np.round(y)
    elif target == "constant":
        y = np.full(n, 1.5)
    elif target == "signed_zeros":
        y[rng.random(n) < 0.5] = -0.0
    elif target == "zeros":
        y = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    params = dict(
        n_estimators=draw(st.integers(min_value=1, max_value=5)),
        max_depth=draw(st.sampled_from([None, 1, 2, 5])),
        min_samples_leaf=draw(st.integers(min_value=1, max_value=3)),
        bootstrap=draw(st.booleans()),
        max_bins=draw(st.sampled_from([64, 8, 3])),
        max_features=draw(
            st.one_of(
                st.none(),
                st.just("sqrt"),
                st.integers(min_value=1, max_value=d),
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            )
        ),
        random_state=seed,
    )
    return X, y, params


@given(forest_problems())
@settings(max_examples=80, deadline=None)
def test_forest_fit_equals_depth_first_fit(problem):
    """The level-wise growth of all trees gives the depth-first fit's
    five arrays, dtype and bytes, tree by tree."""
    X, y, params = problem
    fitted = RandomForestRegressor(**params).fit(X, y).estimators_
    reference = RandomForestRegressor(**params)
    binned = _bin_features(X, reference.max_bins)
    trees, roots = reference._new_trees(X.shape[0])
    for tree, root in zip(trees, roots):
        fit_depth_first(tree, binned, y, root)
    assert len(fitted) == len(trees)
    for fast, slow in zip(fitted, trees):
        for name in ("feature_", "threshold_", "left_", "right_", "value_"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@st.composite
def prediction_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.normal(size=n)


@given(prediction_pairs())
@settings(max_examples=50, deadline=None)
def test_rmse_dominates_mae(pair):
    t, p = pair
    assert root_mean_squared_error(t, p) >= mean_absolute_error(t, p) - 1e-12


@given(prediction_pairs(), st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_mae_translation_invariant(pair, shift):
    t, p = pair
    assert np.isclose(
        mean_absolute_error(t, p), mean_absolute_error(t + shift, p + shift)
    )
