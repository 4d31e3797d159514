"""The cell table behind :class:`FlatForest` prediction.

A forest splits each feature only at its thresholds, so it is constant on
the cells those thresholds cut the feature space into. The pool fills a
table of cell means as it predicts and walks only the first row of each
cell it has not seen. These tests spy on :func:`repro.ml.soa.traverse`
(the one lane walk) to count what is walked, pin when a table is
allocated at all, and hold every answer bitwise to the per-tree
reference walk, serial or concurrent.
"""

import sys
import threading

import numpy as np
import pytest

import repro.ml.soa as soa
from repro.experiments.datasets import build_ligen_campaign
from repro.ligen.app import LIGEN_FEATURE_NAMES
from repro.ml.forest import RandomForestRegressor, reference_mode
from repro.ml.soa import _split_grid
from repro.modeling import DomainSpecificModel
from repro.serving import AdvisorService, Objective
from repro.synergy import Platform

#: The serving grid and request features of the benchmark's serving model.
FREQS = np.linspace(135.0, 1597.0, 25)
N_ESTIMATORS = 30
POOL_TREES = 4 * N_ESTIMATORS


@pytest.fixture
def walked(monkeypatch):
    """Lanes of every :func:`traverse` call, in call order."""
    lanes = []
    real = soa.traverse

    def spy(feature, threshold, left, right, X, start_nodes, row_base, depth):
        lanes.append(int(np.asarray(start_nodes).size))
        return real(feature, threshold, left, right, X, start_nodes, row_base, depth)

    monkeypatch.setattr(soa, "traverse", spy)
    return lanes


@pytest.fixture(scope="module")
def ligen_dataset():
    device = Platform.default(seed=7).get_device("v100")
    return build_ligen_campaign(
        device,
        freq_count=6,
        repetitions=2,
        ligand_counts=(2, 256, 10000),
        atom_counts=(31, 89),
        fragment_counts=(4, 20),
    ).dataset


@pytest.fixture
def serving_model(ligen_dataset):
    """The paper-default 30-tree LiGen model, fitted fresh (empty tables)."""
    return DomainSpecificModel(
        LIGEN_FEATURE_NAMES,
        regressor_factory=lambda: RandomForestRegressor(
            n_estimators=N_ESTIMATORS, random_state=42
        ),
    ).fit(ligen_dataset)


def _model_cells(model, X):
    """Distinct cells of ``X``'s rows, from the trees' thresholds directly.

    A row's interval on feature *j* is the number of thresholds it lies
    strictly above, i.e. where ``x <= t`` fails.
    """
    trees = [
        tree
        for m in (model._time_model, model._energy_model,
                  model._speedup_model, model._norm_energy_model)
        for tree in m.estimators_
    ]
    feature = np.concatenate([t.feature_ for t in trees])
    threshold = np.concatenate([t.threshold_ for t in trees])
    intervals = [
        (X[:, j][:, None] > np.unique(threshold[feature == j])[None, :]).sum(axis=1)
        for j in range(X.shape[1])
    ]
    return set(zip(*(iv.tolist() for iv in intervals)))


def _design(features):
    return np.column_stack([np.tile(features, (FREQS.size, 1)), FREQS])


def _profile_arrays(prediction):
    return (
        prediction.times_s,
        prediction.energies_j,
        prediction.speedups,
        prediction.normalized_energies,
    )


def _assert_same_profile(got, want):
    for a, b in zip(_profile_arrays(got), _profile_arrays(want)):
        assert np.array_equal(a, b)


def _reference_group_means(trees, X, groups):
    """The historical per-tree accumulation loop, one group at a time."""
    out = []
    for a, b in groups:
        acc = np.zeros(X.shape[0])
        for tree in trees[a:b]:
            acc += tree.predict(X)
        acc /= b - a
        out.append(acc)
    return out


class TestWalkCount:
    def test_a_grid_request_walks_one_row_per_cell(self, serving_model, walked):
        features = (300.0, 20.0, 89.0)
        cells = _model_cells(serving_model, _design(features))
        assert len(cells) == 7
        got = serving_model.predict_tradeoff_batch([features], FREQS)[0]
        assert sum(walked) == len(cells) * POOL_TREES
        with reference_mode():
            _assert_same_profile(got, serving_model.predict_tradeoff(list(features), FREQS))

    def test_a_request_in_seen_cells_walks_none(self, serving_model, walked):
        serving_model.predict_tradeoff_batch([(300.0, 20.0, 89.0)], FREQS)
        walked.clear()
        # 4,000 ligands lies in the same (129, 5128] interval as 300.
        got = serving_model.predict_tradeoff_batch([(4000.0, 20.0, 89.0)], FREQS)[0]
        assert walked == []
        with reference_mode():
            want = serving_model.predict_tradeoff([4000.0, 20.0, 89.0], FREQS)
        _assert_same_profile(got, want)

    def test_only_the_unseen_cells_of_a_batch_are_walked(self, serving_model, walked):
        serving_model.predict_tradeoff_batch([(300.0, 20.0, 89.0)], FREQS)
        walked.clear()
        batch = [(300.0, 20.0, 89.0), (310.0, 4.0, 89.0), (320.0, 4.0, 89.0)]
        got = serving_model.predict_tradeoff_batch(batch, FREQS)
        # The first request's cells are filled; the other two share 7 new ones.
        assert walked == [7 * POOL_TREES]
        with reference_mode():
            for features, profile in zip(batch, got):
                _assert_same_profile(
                    profile, serving_model.predict_tradeoff(list(features), FREQS)
                )

    def test_the_served_path_stops_walking_once_warm(self, serving_model, walked):
        service = AdvisorService(serving_model, FREQS, cache_size=0)
        for fragments in (4.0, 20.0):
            for atoms in (31.0, 89.0):
                for ligands in (2.0, 300.0, 9000.0):
                    service.advise((ligands, fragments, atoms), Objective.tradeoff())
        assert sum(walked) == 84 * POOL_TREES
        walked.clear()
        service.advise((777.0, 4.0, 89.0), Objective.min_energy_deadline(100.0))
        assert walked == []


class TestTableBound:
    def test_a_continuous_forest_allocates_no_table(self, walked):
        rng = np.random.default_rng(5)
        X = rng.uniform(-3, 3, (200, 4))
        y = np.sin(X[:, 0]) * X[:, 1] + 0.3 * X[:, 2] - X[:, 3] ** 2
        forest = RandomForestRegressor(n_estimators=6, random_state=7).fit(X, y)
        flat = forest.flat_forest()
        assert _split_grid(flat.feature, flat.threshold, 4, flat.n_nodes) is None
        Xt = rng.uniform(-3, 3, (16, 4))
        fast = forest.predict(Xt)
        fast_again = forest.predict(Xt)
        assert flat._tables == {}
        # Today's full traversal: every row of every call, every tree.
        assert walked == [16 * 6, 16 * 6]
        with reference_mode():
            ref = forest.predict(Xt)
        assert np.array_equal(fast, ref) and np.array_equal(fast_again, ref)

    def test_a_pool_of_leaves_has_one_cell(self, walked):
        X = np.arange(12.0).reshape(6, 2)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, np.full(6, 2.5))
        flat = forest.flat_forest()
        assert (flat.feature < 0).all()
        assert _split_grid(flat.feature, flat.threshold, 2, flat.n_nodes) == ((), 1)
        Xt = np.array([[-1e300, 0.0], [5.0, -0.0], [1e300, 7.0]])
        fast = forest.predict(Xt)
        assert walked == [1 * 3]
        with reference_mode():
            assert np.array_equal(fast, forest.predict(Xt))

    def test_an_unsplit_feature_adds_one_interval(self, walked):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.integers(0, 3, 40).astype(float), np.full(40, 5.0)])
        y = X[:, 0] * 2.0 + rng.normal(0, 0.1, 40)
        forest = RandomForestRegressor(n_estimators=4, random_state=1).fit(X, y)
        flat = forest.flat_forest()
        axes, n_cells = _split_grid(flat.feature, flat.threshold, 2, flat.n_nodes)
        assert [j for j, _, _ in axes] == [0]
        assert n_cells == axes[0][1].size + 1
        # Rows that differ only in the unsplit feature share one cell.
        Xt = np.array([[1.0, -7.0], [1.0, 5.0], [1.0, 1e9]])
        fast = forest.predict(Xt)
        assert walked == [1 * 4]
        with reference_mode():
            assert np.array_equal(fast, forest.predict(Xt))

    def test_groups_count_toward_the_bound(self, walked):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 3)
        y = X[:, 0] ** 2
        forest = RandomForestRegressor(n_estimators=2, bootstrap=False).fit(X, y)
        flat = forest.flat_forest()
        _, n_cells = _split_grid(flat.feature, flat.threshold, 1, flat.n_nodes)
        many = [(0, 1), (1, 2), (0, 2)] * (flat.n_nodes // (3 * n_cells) + 1)
        assert n_cells * len(many) > flat.n_nodes >= n_cells
        Xt = np.array([[0.5], [0.5], [2.5]])
        got = flat.predict_group_means(Xt, many)
        assert walked == [3 * 2]
        for g, r in zip(got, _reference_group_means(forest.estimators_, Xt, many)):
            assert np.array_equal(g, r)
        walked.clear()
        flat.predict_group_means(Xt, many[:3])
        assert walked == [2 * 2]

    def test_the_table_never_outgrows_the_pool(self, serving_model):
        flat, groups = serving_model._combined_flat_forest()
        serving_model.predict_tradeoff_batch([(300.0, 20.0, 89.0)], FREQS)
        (means, filled), = flat._tables.values()
        assert means.shape == (len(groups), 84) and filled.shape == (84,)
        assert means.size <= flat.value.size


class TestConcurrency:
    def test_threads_filling_one_pool_equal_a_serial_run(self, ligen_dataset):
        def fresh_model():
            return DomainSpecificModel(
                LIGEN_FEATURE_NAMES,
                regressor_factory=lambda: RandomForestRegressor(
                    n_estimators=N_ESTIMATORS, random_state=42
                ),
            ).fit(ligen_dataset)

        requests = [
            (2.0 + 977.0 * k, (4.0, 20.0)[k % 2], (31.0, 89.0)[(k // 2) % 2]) for k in range(12)
        ]
        # Four overlapping slices: every cell is asked for by two threads.
        slices = [requests[i : i + 6] for i in (0, 2, 4, 6)]
        serial_model = fresh_model()
        serial = [serial_model.predict_tradeoff_batch(s, FREQS) for s in slices]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                model = fresh_model()
                model._combined_flat_forest()  # one shared pool, its table empty
                barrier = threading.Barrier(len(slices))
                results = [None] * len(slices)

                def client(i):
                    barrier.wait(timeout=60)
                    results[i] = [
                        model.predict_tradeoff_batch([features], FREQS)[0]
                        for features in slices[i]
                    ]

                threads = [threading.Thread(target=client, args=(i,)) for i in range(len(slices))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for got, want in zip(results, serial):
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        _assert_same_profile(g, w)
        finally:
            sys.setswitchinterval(interval)

