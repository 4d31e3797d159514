"""Unit tests for the decision-tree regressor."""

import hashlib

import numpy as np
import pytest

from repro.errors import ModelNotFittedError
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor
from tests.ml.depth_first import fit_depth_first

FIELDS = ("feature_", "threshold_", "left_", "right_", "value_")
#: SHA-256 of the five arrays of each tree of the ``"sqrt"`` forest in
#: ``TestPerNodeDraws.test_sqrt_forest_arrays_are_pinned``.
PINNED_SQRT_FOREST = [
    "bc2a4db99bb9647ef9673470c8adcf5d795a01454f1970a21648b208e07cf909",
    "9824f7fa6950836b24758943f09e26a7153f23b7b763da0c5f3379fdd41c7468",
    "0e39b29058a1a3e00f814a89dd7debae0619f3c649ef645e24c9fae290b5d7cf",
]


class TestBasicFit:
    def test_perfect_fit_on_step_function(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        m = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(m.predict(X), y)

    def test_single_leaf_for_constant_target(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.full(20, 3.0)
        m = DecisionTreeRegressor().fit(X, y)
        assert m.n_nodes == 1
        assert np.allclose(m.predict(X), 3.0)

    def test_threshold_between_values(self):
        X = np.array([[0.0], [10.0]])
        y = np.array([0.0, 1.0])
        m = DecisionTreeRegressor().fit(X, y)
        assert m.threshold_[0] == pytest.approx(5.0)
        assert m.predict([[4.9]])[0] == 0.0
        assert m.predict([[5.1]])[0] == 1.0

    def test_grows_to_purity_by_default(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (100, 2))
        y = rng.normal(size=100)
        m = DecisionTreeRegressor().fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.999

    def test_nonlinear_generalization(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-2, 2, (600, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0) * (1 + np.abs(X[:, 1]))
        m = DecisionTreeRegressor(min_samples_leaf=5).fit(X, y)
        Xt = rng.uniform(-2, 2, (200, 2))
        yt = np.where(Xt[:, 0] > 0, 1.0, -1.0) * (1 + np.abs(Xt[:, 1]))
        assert r2_score(yt, m.predict(Xt)) > 0.9


class TestHyperparameters:
    def test_max_depth_limits_depth(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (200, 3))
        y = rng.normal(size=200)
        m = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert m.depth <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (64, 1))
        y = rng.normal(size=64)
        m = DecisionTreeRegressor(min_samples_leaf=8).fit(X, y)
        # count samples per leaf
        leaves = m.predict(X)  # leaf values
        # weaker check: number of leaves bounded by n / min_leaf
        n_leaves = int((m.feature_ == -1).sum())
        assert n_leaves <= 64 // 8

    def test_min_samples_split(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.arange(10, dtype=float)
        m = DecisionTreeRegressor(min_samples_split=11).fit(X, y)
        assert m.n_nodes == 1

    def test_max_features_subsampling_works(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (100, 4))
        y = X[:, 0]
        m = DecisionTreeRegressor(max_features="sqrt", random_state=0).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.5

    def test_max_features_validation(self):
        X = np.zeros((4, 2))
        X[:, 0] = [0, 1, 2, 3]
        y = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=5).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=1.5).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features="log2").fit(X, y)

    def test_invalid_depth_and_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1).fit(X, y)


class TestBinning:
    def test_exact_splits_for_few_distinct_values(self):
        """Features with <= max_bins distinct values are split exactly —
        the relevant case for this library's (input-size, frequency)
        feature spaces."""
        freqs = np.array([135.0, 600.0, 1100.0, 1597.0])
        X = np.repeat(freqs, 10).reshape(-1, 1)
        y = np.where(X[:, 0] > 800, 2.0, 1.0)
        m = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(m.predict(X), y)

    def test_many_distinct_values_quantized(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(500, 1))
        y = (X[:, 0] > 0).astype(float)
        m = DecisionTreeRegressor(max_bins=16).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.9

    def test_degenerate_quantile_column_bins_consistently(self):
        """Regression: a skewed column collapsing most quantiles onto one
        value used to bin fit-time samples with ``side="right"`` while
        predict routes ``x <= threshold`` left — the same value landed on
        different sides of the same edge. The invariant below is exactly
        'bin membership == the comparison predict performs'."""
        from repro.ml.tree import _bin_features

        col = np.r_[np.zeros(95), np.arange(1.0, 20.0)]
        binned = _bin_features(col.reshape(-1, 1), max_bins=8)
        edges = binned.split_values[0]
        codes = binned.codes_off[:, 0]  # column 0 carries no offset
        assert binned.n_bins[0] == edges.size + 1
        assert binned.n_bins[0] >= 1
        assert codes.min() >= 0 and codes.max() < binned.n_bins[0]
        for k, edge in enumerate(edges):
            assert np.array_equal(codes <= k, col <= edge)

    def test_degenerate_column_fit_predict_round_trip(self):
        """Training rows equal to a split edge predict their own leaf mean."""
        col = np.r_[np.zeros(95), np.arange(1.0, 20.0)]
        y = (col > 0).astype(float)
        m = DecisionTreeRegressor(max_bins=8).fit(col.reshape(-1, 1), y)
        assert np.array_equal(m.predict(col.reshape(-1, 1)), y)


class TestPredictMechanics:
    def test_unfitted(self):
        with pytest.raises(ModelNotFittedError):
            DecisionTreeRegressor().predict([[1.0]])

    def test_feature_count_checked(self):
        m = DecisionTreeRegressor().fit(np.zeros((3, 2)) + np.arange(3)[:, None], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            m.predict(np.zeros((2, 3)))

    def test_deterministic_without_subsampling(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (100, 3))
        y = rng.normal(size=100)
        a = DecisionTreeRegressor().fit(X, y).predict(X)
        b = DecisionTreeRegressor().fit(X, y).predict(X)
        assert np.array_equal(a, b)


class TestLevelWiseGrowth:
    def test_segment_sums_equal_ndarray_sum(self):
        """Node sums feed ``value_`` and the split score, so they must be
        ``ndarray.sum()`` bit for bit: sizes 1-300, each three times so
        equal sizes share a gather, across the pairwise block edges at
        8 and 128, with -0.0 entries and all--0.0 segments."""
        from repro.ml.tree import _segment_sums

        rng = np.random.default_rng(0)
        sizes = rng.permutation(np.repeat(np.arange(1, 301), 3))
        starts = np.cumsum(sizes) - sizes
        values = rng.normal(size=int(sizes.sum())) * 10.0 ** rng.integers(-6, 7, size=int(sizes.sum()))
        values[rng.random(values.size) < 0.1] = -0.0
        for size in (1, 2, 8, 129):
            start = starts[np.flatnonzero(sizes == size)[0]]
            values[start : start + size] = -0.0
        want = np.array([values[s : s + m].sum() for s, m in zip(starts, sizes)])
        (got,) = _segment_sums(starts, sizes, values)
        assert got.tobytes() == want.tobytes()
        # A sequential sum differs, so the check above can fail.
        sequential = np.bincount(np.repeat(np.arange(sizes.size), sizes), weights=values)
        assert sequential.tobytes() != want.tobytes()

    def test_histogram_chunks_leave_the_trees_unchanged(self, monkeypatch):
        """One open node per histogram chunk grows the same forest, with
        every feature examined per split and with a subset per node."""
        from repro.ml import tree as tree_module
        from repro.ml.forest import RandomForestRegressor

        rng = np.random.default_rng(8)
        X = rng.integers(0, 6, size=(120, 3)).astype(float)
        y = rng.normal(size=120)
        for max_features in (None, "sqrt"):
            params = dict(n_estimators=4, max_features=max_features, random_state=0)
            whole = RandomForestRegressor(**params).fit(X, y)
            with monkeypatch.context() as patch:
                patch.setattr(tree_module, "_HIST_CELLS", 1)
                chunked = RandomForestRegressor(**params).fit(X, y)
            for a, b in zip(whole.estimators_, chunked.estimators_):
                for name in FIELDS:
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_single_tree_fit_equals_depth_first_fit(self):
        from repro.ml.tree import _bin_features

        rng = np.random.default_rng(9)
        X = rng.integers(0, 5, size=(80, 3)).astype(float)
        y = rng.normal(size=80)
        fast = DecisionTreeRegressor(min_samples_leaf=2).fit(X, y)
        slow = DecisionTreeRegressor(min_samples_leaf=2)
        fit_depth_first(slow, _bin_features(X, slow.max_bins), y, np.arange(80))
        for name in ("feature_", "threshold_", "left_", "right_", "value_"):
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()

    def test_subsampled_tree_deeper_than_64_levels_equals_depth_first_fit(self):
        """Keys hash down the path rather than number a heap, so a
        subsampled chain 79 levels deep still matches the oracle."""
        from repro.ml.tree import _bin_features

        X = np.repeat(np.arange(80.0)[:, None], 2, axis=1)
        y = 4.0 ** np.arange(80)
        fast = DecisionTreeRegressor(max_features=1, max_bins=128, random_state=3).fit(X, y)
        slow = DecisionTreeRegressor(max_features=1, max_bins=128, random_state=3)
        fit_depth_first(slow, _bin_features(X, slow.max_bins), y, np.arange(80))
        assert fast.depth == 79
        for name in FIELDS:
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()


class TestPerNodeDraws:
    """Feature subsets come from each node's key, not from a shared stream."""

    def test_every_node_examines_k_of_d_features_each_near_k_over_d(self):
        from repro.ml.tree import _node_draws

        keys = np.arange(20_000, dtype=np.uint64)
        for d in range(1, 9):
            for k in range(1, d + 1):
                children, examined = _node_draws(keys, d, k)
                assert children.shape == (keys.size, 2) and examined.shape == (keys.size, d)
                assert np.all(examined.sum(axis=1) == k)
                # 4.5 binomial standard deviations at p = 1/2 is 0.016.
                assert np.abs(examined.mean(axis=0) - k / d).max() < 0.016

    def test_subsampled_forest_prefix_equals_a_smaller_forest(self):
        """Each tree draws from its own stream: with the same seed, the
        first three trees of a five-tree forest are the three-tree forest."""
        from repro.ml.forest import RandomForestRegressor

        rng = np.random.default_rng(10)
        X = rng.integers(0, 6, size=(90, 4)).astype(float)
        y = rng.normal(size=90)
        small = RandomForestRegressor(n_estimators=3, max_features="sqrt", random_state=4).fit(X, y)
        large = RandomForestRegressor(n_estimators=5, max_features="sqrt", random_state=4).fit(X, y)
        for a, b in zip(small.estimators_, large.estimators_[:3]):
            for name in FIELDS:
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_sqrt_forest_arrays_are_pinned(self):
        """The oracle takes the same draws, so only a pin catches a change
        to the draw itself: SHA-256 of each tree's five arrays."""
        from repro.ml.forest import RandomForestRegressor

        rng = np.random.default_rng(12)
        X = rng.integers(0, 6, size=(60, 4)).astype(float)
        y = rng.normal(size=60)
        forest = RandomForestRegressor(n_estimators=3, max_features="sqrt", random_state=5).fit(X, y)
        digests = [
            hashlib.sha256(b"".join(getattr(tree, name).tobytes() for name in FIELDS)).hexdigest()
            for tree in forest.estimators_
        ]
        assert digests == PINNED_SQRT_FOREST
