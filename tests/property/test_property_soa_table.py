"""Hypothesis properties for the split-grid cell table (bit-identity).

Forests fitted on grid-valued features (at most five distinct values per
feature, as the paper's domain models see) are queried exactly at their
thresholds, one ulp to either side, between thresholds, far outside
them and at both signed zeros. Through the cell table, prediction must
equal the per-tree reference walk bitwise: on an empty table, after a
warm-up over other rows, and row by row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor, reference_mode
from repro.ml.soa import FlatForest

#: Candidate grid values; adjacent pairs such as -0.5/0.5 put a split at 0.0.
GRID_VALUES = (-3.0, -1.0, -0.5, 0.5, 1.0, 2.5, 7.0, 1000.0)


def _query_values(thresholds):
    """Per-feature probe values around one feature's thresholds."""
    t = np.unique(thresholds)
    probes = [0.0, -0.0, -1e300, 1e300]
    if t.size:
        probes += [t[0] - 1e6, t[-1] + 1e6]
        probes += t.tolist()
        probes += np.nextafter(t, -np.inf).tolist() + np.nextafter(t, np.inf).tolist()
        probes += ((t[:-1] + t[1:]) / 2.0).tolist()
    return probes


@st.composite
def grid_forests(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    columns = [
        draw(st.lists(st.sampled_from(GRID_VALUES), min_size=1, max_size=5, unique=True))
        for _ in range(d)
    ]
    n = draw(st.integers(min_value=8, max_value=40))
    n_trees = draw(st.integers(min_value=1, max_value=10))
    max_depth = draw(st.sampled_from([None, 2, 5]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice(np.asarray(col), size=n) for col in columns])
    y = X @ rng.normal(size=d) + rng.normal(0, 0.2, n)
    forest = RandomForestRegressor(
        n_estimators=n_trees, max_depth=max_depth, random_state=seed
    ).fit(X, y)
    probes = [
        _query_values(
            np.concatenate([t.threshold_[t.feature_ == j] for t in forest.estimators_])
        )
        for j in range(d)
    ]

    def rows(k):
        return np.array(
            [[draw(st.sampled_from(p)) for p in probes] for _ in range(k)], dtype=float
        ).reshape(k, d)

    queries = rows(draw(st.integers(min_value=0, max_value=20)))
    warm = rows(draw(st.integers(min_value=1, max_value=20)))
    cut = draw(st.integers(min_value=0, max_value=n_trees))
    return forest, queries, warm, cut


def _reference(forest, X, groups):
    """Per-tree walks accumulated in the historical order, per group."""
    out = []
    for a, b in groups:
        acc = np.zeros(X.shape[0])
        for tree in forest.estimators_[a:b]:
            acc += tree.predict(X)
        acc /= b - a
        out.append(acc)
    return out


def _groups(n_trees, cut):
    groups = [(0, n_trees)]
    if 0 < cut < n_trees:
        groups += [(0, cut), (cut, n_trees)]
    return groups


def _assert_matches(forest, flat, X, groups):
    for got, want in zip(flat.predict_group_means(X, groups), _reference(forest, X, groups)):
        assert np.array_equal(got, want)
    with reference_mode():
        want = forest.predict(X)
    assert np.array_equal(flat.predict_mean(X), want)


@given(grid_forests())
@settings(max_examples=60, deadline=None)
def test_cell_table_on_an_empty_table_equals_reference(case):
    forest, queries, _, cut = case
    groups = _groups(len(forest.estimators_), cut)
    _assert_matches(forest, FlatForest.from_trees(forest.estimators_, forest.n_features_in_),
                    queries, groups)
    forest._flat_forest_ = None
    fast = forest.predict(queries)
    with reference_mode():
        assert np.array_equal(fast, forest.predict(queries))


@given(grid_forests())
@settings(max_examples=60, deadline=None)
def test_cell_table_after_a_warm_up_equals_reference(case):
    forest, queries, warm, cut = case
    groups = _groups(len(forest.estimators_), cut)
    flat = FlatForest.from_trees(forest.estimators_, forest.n_features_in_)
    flat.predict_group_means(warm, groups)
    flat.predict_mean(warm)
    _assert_matches(forest, flat, queries, groups)


@given(grid_forests())
@settings(max_examples=40, deadline=None)
def test_cell_table_row_by_row_equals_reference(case):
    forest, queries, warm, cut = case
    groups = _groups(len(forest.estimators_), cut)
    flat = FlatForest.from_trees(forest.estimators_, forest.n_features_in_)
    for X in (queries, warm):
        for i in range(X.shape[0]):
            _assert_matches(forest, flat, X[i : i + 1], groups)
