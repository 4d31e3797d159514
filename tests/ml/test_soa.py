"""Unit tests for the SoA flattened-forest inference path.

The contract under test is bit-identity: every number the
:class:`FlatForest` fast path produces must be bitwise-equal to what the
per-tree reference walk produces, because the serving layer's
determinism guarantees (batched == scalar, concurrent == serial,
cached == recomputed) all reduce to it.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor, reference_mode
from repro.ml.soa import FlatForest, sequential_mean


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(5)
    X = rng.uniform(-3, 3, (200, 4))
    y = np.sin(X[:, 0]) * X[:, 1] + 0.3 * X[:, 2] - X[:, 3] ** 2
    forest = RandomForestRegressor(n_estimators=12, random_state=7).fit(X, y)
    Xt = rng.uniform(-3, 3, (64, 4))
    return forest, Xt


class TestStructure:
    def test_roots_are_cumulative_node_offsets(self, fitted):
        forest, _ = fitted
        flat = forest.flat_forest()
        sizes = [t.feature_.size for t in forest.estimators_]
        assert flat.n_trees == len(sizes)
        assert flat.n_nodes == sum(sizes)
        assert flat.roots.tolist() == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_children_stay_inside_their_tree(self, fitted):
        forest, _ = fitted
        flat = forest.flat_forest()
        starts = flat.roots.tolist() + [flat.n_nodes]
        for t in range(flat.n_trees):
            lo, hi = starts[t], starts[t + 1]
            internal = np.flatnonzero(flat.feature[lo:hi] >= 0) + lo
            for kids in (flat.left[internal], flat.right[internal]):
                assert np.all((kids >= lo) & (kids < hi))

    def test_empty_tree_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FlatForest.from_trees([], n_features_in=2)

    def test_flat_forest_is_cached(self, fitted):
        forest, _ = fitted
        assert forest.flat_forest() is forest.flat_forest()


class TestBitIdentity:
    def test_per_tree_rows_equal_tree_predict(self, fitted):
        forest, Xt = fitted
        per_tree = forest.flat_forest().predict_per_tree(Xt)
        assert per_tree.shape == (len(forest.estimators_), Xt.shape[0])
        for row, tree in zip(per_tree, forest.estimators_):
            assert np.array_equal(row, tree.predict(Xt))

    def test_forest_predict_equals_reference_walk(self, fitted):
        forest, Xt = fitted
        fast = forest.predict(Xt)
        with reference_mode():
            ref = forest.predict(Xt)
        assert np.array_equal(fast, ref)

    def test_noncontiguous_input_handled(self, fitted):
        forest, Xt = fitted
        view = Xt[::2]
        assert not view.flags.c_contiguous
        assert np.array_equal(forest.predict(view), forest.predict(view.copy()))

    def test_empty_input_shapes(self, fitted):
        forest, Xt = fitted
        empty = Xt[:0]
        flat = forest.flat_forest()
        assert flat.predict_per_tree(empty).shape == (flat.n_trees, 0)
        assert forest.predict(empty).shape == (0,)

    def test_group_means_equal_subforest_means(self, fitted):
        forest, Xt = fitted
        flat = forest.flat_forest()
        groups = [(0, 5), (5, 12), (0, 12)]
        per_tree = flat.predict_per_tree(Xt)
        for (a, b), got in zip(groups, flat.predict_group_means(Xt, groups)):
            assert np.array_equal(got, sequential_mean(per_tree[a:b]))


class TestSequentialMean:
    def test_matches_historical_accumulation_loop(self):
        rng = np.random.default_rng(0)
        per_tree = rng.normal(size=(17, 9))
        out = np.zeros(9)
        for row in per_tree:
            out += row
        out /= 17
        assert np.array_equal(sequential_mean(per_tree), out)

    def test_single_row_is_identity_over_division(self):
        row = np.array([[1.5, -2.25, 0.0]])
        assert np.array_equal(sequential_mean(row), row[0])


class TestReferenceMode:
    def test_nested_and_exception_safe(self, fitted):
        forest, Xt = fitted
        from repro.ml.forest import _in_reference_mode

        assert not _in_reference_mode()
        with reference_mode():
            assert _in_reference_mode()
            with reference_mode():
                assert _in_reference_mode()
            assert _in_reference_mode()
        assert not _in_reference_mode()
        with pytest.raises(RuntimeError):
            with reference_mode():
                raise RuntimeError("boom")
        assert not _in_reference_mode()

    def test_reference_mode_is_thread_local(self, fitted):
        import threading

        from repro.ml.forest import _in_reference_mode

        seen = {}

        def probe():
            seen["other"] = _in_reference_mode()

        with reference_mode():
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["other"] is False
