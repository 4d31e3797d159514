"""Random-forest regression (bagged histogram trees).

The paper selects Random Forest as the best regressor for both the
speedup and normalized-energy models and tunes ``max_depth``,
``n_estimators`` and ``max_features`` by grid search (§5.2.1, finding the
defaults best). Features are binned once per forest and shared across all
trees, and the trees grow together level by level (see
:mod:`repro.ml.tree`), so a forest fit costs a few histogram passes per
level rather than one per node.

Prediction runs through a :class:`~repro.ml.soa.FlatForest`: all trees
stacked into one contiguous SoA node pool and traversed together, which
removes the per-tree Python loop from the hot path while staying
bitwise-equal to the per-tree walk (the serving layer's determinism
contract). The per-tree walk survives as the *reference* path — used by
the CI divergence gate and selectable with :func:`reference_mode`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.base import Regressor, check_X, check_Xy
from repro.ml.soa import FlatForest
from repro.ml.tree import DecisionTreeRegressor, _bin_features, _fit_trees
from repro.utils.rng import RandomState, as_generator, spawn_child
from repro.utils.validation import check_positive_int

__all__ = ["RandomForestRegressor", "reference_mode"]

# Benchmark/CI hook: when set on the current thread, every forest
# predicts through the pre-SoA per-tree walk (the reference replay is a
# measurement harness, not a serving mode).
_reference_mode = threading.local()


def _in_reference_mode() -> bool:
    return getattr(_reference_mode, "active", False)


@contextmanager
def reference_mode():
    """Route forest prediction through the per-tree reference walk.

    The SoA fast path must be bitwise-equal to this walk; benchmarks
    time both under identical call shapes and CI fails if served advice
    diverges between them. Thread-local, re-entrant enough for nested
    ``with`` blocks.
    """
    prev = _in_reference_mode()
    _reference_mode.active = True
    try:
        yield
    finally:
        _reference_mode.active = prev


class RandomForestRegressor(Regressor):
    """Bootstrap-aggregated regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features, max_bins:
        Passed through to each :class:`DecisionTreeRegressor`. The
        regression-forest convention (scikit-learn default) of examining
        all features at each split corresponds to ``max_features=None``.
    bootstrap:
        When true (default), each tree trains on an n-sample bootstrap
        draw; when false, all trees see the full data (then only
        ``max_features`` decorrelates them).
    random_state:
        Seed controlling bootstrap draws and per-node feature subsets.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        max_bins: int = 64,
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        self.n_estimators = int(n_estimators)
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.max_bins = int(max_bins)
        self.bootstrap = bool(bootstrap)
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        """Bin features once, then grow ``n_estimators`` bootstrapped trees."""
        check_positive_int(self.n_estimators, "n_estimators")
        X, y = check_Xy(X, y)
        binned = _bin_features(X, self.max_bins)
        trees, roots = self._new_trees(X.shape[0])
        _fit_trees(trees, binned, y, roots)
        self.estimators_: List[DecisionTreeRegressor] = trees
        self.n_features_in_ = X.shape[1]
        self._flat_forest_: Optional[FlatForest] = None
        return self

    def _new_trees(self, n: int) -> Tuple[List[DecisionTreeRegressor], List[np.ndarray]]:
        """The unfitted trees, each with its root samples.

        A root is an n-sample bootstrap draw from the tree's own stream,
        or all ``n`` rows without bootstrap.
        """
        rng = as_generator(self.random_state)
        trees: List[DecisionTreeRegressor] = []
        roots: List[np.ndarray] = []
        for t in range(self.n_estimators):
            tree_rng = spawn_child(rng, t)
            roots.append(tree_rng.integers(0, n, size=n) if self.bootstrap else np.arange(n))
            trees.append(
                DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    max_bins=self.max_bins,
                    random_state=tree_rng,
                )
            )
        return trees, roots

    def flat_forest(self) -> FlatForest:
        """The SoA view of the fitted trees (built lazily, cached).

        Derived state only: never serialized, so model artifacts and
        registry digests are unaffected. Deserialized forests (which
        assign ``estimators_`` directly) build it on first predict.
        """
        self._check_fitted()
        flat = getattr(self, "_flat_forest_", None)
        if flat is None:
            flat = FlatForest.from_trees(self.estimators_, self.n_features_in_)
            self._flat_forest_ = flat
        return flat

    def predict(self, X) -> np.ndarray:
        """Mean prediction over all trees (SoA single-pass traversal)."""
        self._check_fitted()
        X = check_X(X, self.n_features_in_)
        if _in_reference_mode():
            return self._predict_reference(X)
        return self.flat_forest().predict_mean(X)

    def _predict_reference(self, X: np.ndarray) -> np.ndarray:
        """The pre-SoA per-tree walk, kept as the bitwise reference.

        ``X`` must already be validated. The SoA path is required to
        reproduce this loop bit-for-bit (hypothesis-fuzzed and gated by
        ``tests/serving/test_load_floors.py``).
        """
        out = np.zeros(X.shape[0])
        for tree in self.estimators_:
            out += tree.predict(X)
        out /= len(self.estimators_)
        return out
