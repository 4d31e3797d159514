"""Struct-of-arrays (SoA) forest inference.

A fitted :class:`~repro.ml.tree.DecisionTreeRegressor` already stores its
nodes in flat arrays, but a forest keeps one small array set *per tree*,
so forest prediction pays ``n_estimators`` separate level-order walks —
each a Python loop over tiny NumPy calls. For the serving cache-miss
path (a handful of requests × a small frequency grid) that per-tree
Python overhead dominates wall time.

:class:`FlatForest` stacks every tree into one contiguous node pool
(per-node ``feature``, ``threshold``, ``left``, ``right``, ``value``)
with the child indices of tree *t* offset by the total node count of
trees ``0..t-1``, plus a ``roots`` array marking where each tree starts.
One traversal then routes **all samples × all trees** simultaneously:
lane ``t * n + i`` walks sample *i* down tree *t*.

The traversal is *dense fixed-depth*: leaf nodes' children point back at
the leaf itself, so a lane that reaches its leaf early just treads in
place while deeper lanes keep descending, and the loop runs exactly
``max_depth`` levels with no per-level active-set bookkeeping — about
half the NumPy calls of a condensing loop, which is what the hot path's
cost actually is (call count, not array width).

Bit-identity contract: each lane performs exactly the scalar comparison
``X[i, feature] <= threshold`` that
:meth:`DecisionTreeRegressor.predict` performs, against the same node
constants (a parked lane's self-loop comparison is discarded — both
children are the leaf itself), so per-tree leaf values are **bitwise**
equal to the per-tree walk; :func:`sequential_mean` then reproduces the
forest's historical ``out = zeros; out += tree_pred; out /= n_estimators``
accumulation order operation-for-operation. The property suite
(``tests/property/test_property_soa.py``) fuzzes this with hypothesis
and ``tests/serving/test_load_floors.py`` gates on it.

**A forest is a table over its split grid.** Trees fitted on a small
grid of inputs split each feature only between two adjacent training
values, so a pool has a few distinct thresholds per feature. They cut
each feature's axis into intervals; a row's *cell* is its interval index
per feature, ``np.searchsorted(splits_j, x_j, side="left")`` (a lane
goes left on ``x <= threshold``, and ``x <= splits_j[k]`` holds exactly
when the index is at most ``k``). Every row of one cell makes the same
comparison at every node, so it reaches the same leaf in every tree and
gets the same :func:`sequential_mean`, bit for bit. Prediction therefore
fills a per-``groups`` table of cell means as it goes: a call walks
(through :func:`traverse`) only the first row of each cell the table
has not seen, and gathers every row from the table. A table is
allocated only while ``cells * groups`` stays within the pool's node
count, so it never holds more floats than ``value`` itself; a large
forest on continuous features exceeds that and walks every row, as
before.

**A batch crossed with a clock grid needs no design matrix.** A cell id
is a sum of one term per split feature, so the cell of the design row
``(x_b, f_k)`` is the part of ``x_b`` plus the part of ``f_k``.
:meth:`FlatForest.predict_crossed_group_means` finds ``B`` row parts and
``k`` clock parts (one ``searchsorted`` per split feature), gathers the
table at their broadcast sum, and builds design rows only for the first
row of each unseen cell (all ``B * k`` rows past the table bound).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FlatForest", "sequential_mean", "traverse"]


def traverse(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    X: np.ndarray,
    start_nodes: np.ndarray,
    row_base: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Route each lane from its start node to a leaf; return leaf ids.

    ``start_nodes[k]`` is lane *k*'s entry node and ``row_base[k]`` the
    row-major offset (``row * n_columns``) of the ``X`` row it reads
    features from. ``left``/``right`` of a leaf must point at the leaf
    itself, and ``depth`` must be at least the deepest tree's depth —
    then after ``depth`` levels every lane sits on its leaf.

    Leaves carry ``feature == -1``; the gather for a parked lane reads
    ``Xflat[row_base - 1]`` (a valid, ignored element — both children
    are the leaf), so no masking is needed anywhere.
    """
    # Flat row-major indexing: one fancy gather per level instead of a
    # 2-D (rows, cols) gather. Pure reindexing — the compared feature
    # values are the identical floats, so bit-identity is untouched.
    Xflat = np.ascontiguousarray(X).reshape(-1)
    nodes = np.asarray(start_nodes, dtype=np.int64)
    for _ in range(depth):
        f = feature[nodes]
        go_left = Xflat[row_base + f] <= threshold[nodes]
        nodes = np.where(go_left, left[nodes], right[nodes])
    return nodes


def sequential_mean(per_tree: np.ndarray) -> np.ndarray:
    """Mean over axis 0 in strict row order: ``zeros; += row…; /= T``.

    Float addition is not associative, so this deliberately mirrors the
    forest's historical accumulation loop instead of ``np.mean`` (whose
    pairwise reduction can differ in the last ulp) — it is what keeps
    the SoA path bit-identical to summing per-tree predictions.
    """
    out = np.zeros(per_tree.shape[1], dtype=per_tree.dtype)
    for row in per_tree:
        out += row
    out /= per_tree.shape[0]
    return out


#: ``(column, sorted distinct thresholds, stride)`` per split feature.
Axis = Tuple[int, np.ndarray, int]

#: Tables kept per pool; a pool normally sees one ``groups`` tuple.
_MAX_TABLES = 8


def _split_grid(
    feature: np.ndarray, threshold: np.ndarray, n_features: int, bound: int
) -> Optional[Tuple[Tuple[Axis, ...], int]]:
    """The pool's split grid as ``(axes, n_cells)``, or ``None`` past ``bound``.

    A feature no node splits on has one interval and no axis. Cell ids
    are mixed-radix: ``sum(interval_j * stride_j)``. The count is a
    Python int and stops growing once it passes ``bound``.
    """
    axes: List[Axis] = []
    n_cells = 1
    for j in range(n_features):
        splits = np.unique(threshold[feature == j])
        if splits.size:
            axes.append((j, splits, n_cells))
            n_cells *= splits.size + 1
            if n_cells > bound:
                return None
    return tuple(axes), n_cells


class FlatForest:
    """All trees of one (or several) forests in one contiguous node pool.

    Built once per fitted forest (lazily, on first vectorized predict)
    and never serialized: it is derived state, reconstructible from the
    per-tree arrays, so model artifacts and registry digests are
    unchanged by its existence. The same holds for its split grid and
    the cell tables that fill as it predicts.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "value",
        "roots",
        "n_features_in",
        "max_depth",
        "_lanes_cache",
        "_grid",
        "_tables",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        n_features_in: int,
        max_depth: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.n_features_in = int(n_features_in)
        self.max_depth = int(max_depth)
        # Lane start-nodes/row-offsets depend only on the row count, and
        # serving calls repeat the same shapes; memoizing them drops two
        # repeat/tile allocations per predict. Benign under races
        # (idempotent values), bounded below.
        self._lanes_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._grid = _split_grid(feature, threshold, self.n_features_in, self.n_nodes)
        # groups -> (cell means per group, filled mask). Two threads may
        # fill one cell; both write the same bits, values before the mask.
        self._tables: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_trees(cls, trees: Sequence, n_features_in: int) -> "FlatForest":
        """Stack fitted :class:`DecisionTreeRegressor`s with offset children."""
        if not trees:
            raise ValueError("FlatForest needs at least one fitted tree")
        sizes = np.array([t.feature_.size for t in trees], dtype=np.int64)
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        feature = np.concatenate([t.feature_ for t in trees])
        threshold = np.concatenate([t.threshold_ for t in trees])
        # Leaves self-loop (both children point back at the leaf) so the
        # fixed-depth traversal can let finished lanes tread in place.
        self_idx = np.arange(feature.size, dtype=np.int64)
        left = np.concatenate(
            [np.where(t.left_ >= 0, t.left_ + off, -1) for t, off in zip(trees, roots)]
        ).astype(np.int64)
        right = np.concatenate(
            [np.where(t.right_ >= 0, t.right_ + off, -1) for t, off in zip(trees, roots)]
        ).astype(np.int64)
        leaves = feature < 0
        left[leaves] = self_idx[leaves]
        right[leaves] = self_idx[leaves]
        value = np.concatenate([t.value_ for t in trees])

        # Deepest internal-node chain across all trees = how many levels
        # the dense traversal must run to park every lane on a leaf.
        depth = 0
        cur = roots[feature[roots] >= 0]
        while cur.size:
            depth += 1
            kids = np.concatenate([left[cur], right[cur]])
            cur = kids[feature[kids] >= 0]
        return cls(feature, threshold, left, right, value, roots, n_features_in, depth)

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    def _lanes(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(start_nodes, row_base) for ``n`` sample rows, memoized."""
        cached = self._lanes_cache.get(n)
        if cached is None:
            start = np.repeat(self.roots, n)
            rows = np.tile(np.arange(n, dtype=np.int64), self.n_trees)
            cached = (start, rows * self.n_features_in)
            if len(self._lanes_cache) < 64:
                self._lanes_cache[n] = cached
        return cached

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for every (tree, sample) lane, shape ``(T, n)``.

        Row *t* is bitwise equal to ``trees[t].predict(X)``.
        """
        n = X.shape[0]
        T = self.n_trees
        if n == 0:
            return np.zeros((T, 0), dtype=self.value.dtype)
        start, row_base = self._lanes(n)
        leaves = traverse(
            self.feature,
            self.threshold,
            self.left,
            self.right,
            X,
            start,
            row_base,
            self.max_depth,
        )
        return self.value[leaves].reshape(T, n)

    def predict_mean(self, X: np.ndarray) -> np.ndarray:
        """Forest mean prediction (historical accumulation order)."""
        return self.predict_group_means(X, ((0, self.n_trees),))[0]

    def predict_group_means(
        self, X: np.ndarray, groups: Sequence[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """One traversal, several forests: per-group tree-slice means.

        ``groups`` are ``(start, stop)`` tree-index slices; each result
        is bitwise what that sub-forest's own :func:`sequential_mean`
        over its trees would produce. Used by the domain model to walk
        its four regressors' trees in a single pass. Within the table
        bound only the first row of each unseen cell is walked.
        """
        table = self._table(groups)
        if table is None:
            per_tree = self.predict_per_tree(X)
            return [sequential_mean(per_tree[a:b]) for a, b in groups]
        return self._gather(table, groups, self._cells(X), lambda idx: X[idx])

    def predict_crossed_group_means(
        self, rows: np.ndarray, column: np.ndarray, groups: Sequence[Tuple[int, int]]
    ) -> List[np.ndarray]:
        """:meth:`predict_group_means` of ``rows`` crossed with ``column``.

        The design matrix is implied, not built: its row ``b * k + j`` is
        ``(rows[b], column[j])``, every input of a batch at every clock
        of a ``k``-clock grid, with the clock as the last feature. Each
        group's means come back with shape ``(len(rows), k)``. A cell id
        is a sum over axes, so the cell of row ``b * k + j`` is the cell
        part of ``rows[b]`` plus the cell part of ``column[j]``; design
        rows are built only for the first row of each unseen cell, or
        all of them past the table bound.
        """
        k = column.size

        def design(idx: np.ndarray) -> np.ndarray:
            return np.column_stack((rows[idx // k], column[idx % k]))

        table = self._table(groups)
        if table is None:
            per_tree = self.predict_per_tree(design(np.arange(rows.shape[0] * k)))
            return [sequential_mean(per_tree[a:b]).reshape(rows.shape[0], k) for a, b in groups]
        cells = self._cells(rows)[:, None] + self._cells(column[:, None], rows.shape[1])
        return self._gather(table, groups, cells, design)

    def _gather(
        self,
        table: Tuple[np.ndarray, np.ndarray],
        groups: Sequence[Tuple[int, int]],
        cells: np.ndarray,
        design: Callable[[np.ndarray], np.ndarray],
    ) -> List[np.ndarray]:
        """Per-group table means at ``cells``, filling the unseen cells first.

        ``design(idx)`` gives the design rows at flat positions ``idx``
        of ``cells``; only the first position of each unseen cell is
        walked. Each result has the shape of ``cells``.
        """
        means, filled = table
        seen = filled[cells]
        if np.count_nonzero(seen) < seen.size:
            unseen = np.flatnonzero(~seen)
            new, first = np.unique(cells.ravel()[unseen], return_index=True)
            per_tree = self.predict_per_tree(design(unseen[first]))
            means[:, new] = [sequential_mean(per_tree[a:b]) for a, b in groups]
            filled[new] = True
        return list(means[:, cells])

    def _cells(self, X: np.ndarray, first: int = 0) -> np.ndarray:
        """Each row's cell-id part from the axes of features ``first`` on.

        Column ``c`` of ``X`` holds feature ``first + c``. Over every
        feature this is the row's cell id on the pool's split grid; over
        disjoint feature ranges the parts add up to it.
        """
        out = np.zeros(X.shape[0], dtype=np.int64)
        for j, splits, stride in self._grid[0]:
            if first <= j < first + X.shape[1]:
                out += splits.searchsorted(X[:, j - first], side="left") * stride
        return out

    def _table(
        self, groups: Sequence[Tuple[int, int]]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The cell table for ``groups``, or ``None`` past the bound."""
        if self._grid is None:
            return None
        key = tuple(map(tuple, groups))
        table = self._tables.get(key)
        if table is None:
            n_cells = self._grid[1]
            if n_cells * len(key) > self.n_nodes:
                return None
            table = (
                np.empty((len(key), n_cells), dtype=self.value.dtype),
                np.zeros(n_cells, dtype=bool),
            )
            if len(self._tables) < _MAX_TABLES:
                table = self._tables.setdefault(key, table)
        return table
