"""Decision-tree regression with histogram-based split search.

The tree pre-bins every feature into at most ``max_bins`` ordered bins
(exact when a feature has few distinct values — which is always the case
for this paper's datasets, whose features are input sizes and frequency
bins). Trees then grow level by level, and all trees of a forest grow
together: bin codes are pre-offset so one :func:`numpy.bincount` over
(open node, feature, bin) yields every open node's
``(count, sum_y, sum_y2)`` histograms, and one cumulative-sum expression
over a ``(nodes, features, bins)`` array picks every node's
variance-reduction optimum at once. This is LightGBM's depth-wise
histogram build, batched across trees, so a forest costs a few NumPy
calls per level instead of a Python loop iteration per node.

A tree that examines ``k`` of its ``d`` features per split
(``max_features``) takes each node's subset from a pure function of the
tree's seed, one draw from its ``random_state``, and the node's path
from the root: the root's key is the seed, and a SplitMix64 stream from
a node's key gives its children's keys and ranks its features, the
``k`` lowest examined (:func:`_node_draws`). A level evaluates it for
all its nodes at once, so no subset depends on the order nodes are
visited in.

At the end the nodes are renumbered into the order of a per-node,
depth-first fit that takes the same draws, so both give byte-identical
arrays. That fit is the tests' reference oracle
(``tests/ml/depth_first.py``); ``docs/perf.md`` ("Layer 5") gives the
rules that keep the two equal.

The fitted tree is stored in flat arrays (``feature``, ``threshold``,
``left``, ``right``, ``value``), and prediction walks all samples level
by level, fully vectorized.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import Regressor, check_X, check_Xy
from repro.utils.rng import RandomState, as_generator

__all__ = ["DecisionTreeRegressor"]

_NO_FEATURE = -1

#: Most (open node, feature, bin) cells one level-wise histogram
#: ``bincount`` covers. A level with more open nodes is processed in
#: chunks of nodes, which bounds the histogram memory of deep, wide
#: forests at the same speed.
_HIST_CELLS = 1 << 16

TreeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# SplitMix64 (Steele, Lea and Flood 2014): the stream's increment and the
# two multipliers of its output mix.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _tree_key(random_state: RandomState) -> np.uint64:
    """A tree's root key: one draw from its ``random_state``."""
    return as_generator(random_state).integers(2**64, dtype=np.uint64)


def _node_draws(keys: np.ndarray, d: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The children's keys and the examined features of each node of key ``keys``.

    Outputs 1 and 2 of the SplitMix64 stream that starts at a node's
    ``uint64`` key are its (left, right) children's keys, returned as a
    ``(nodes, 2)`` array; outputs 3 to ``d + 2`` score its features, and
    the ``k`` lowest scores are the features it examines, returned as a
    ``(nodes, d)`` mask. The output mix is a bijection, so one stream's
    outputs differ and exactly ``k`` scores are at most the ``k``-th.
    With ``k == d`` every node examines every feature, and nothing is drawn.
    """
    if k == d:
        return np.zeros((keys.size, 2), dtype=np.uint64), np.ones((keys.size, d), dtype=bool)
    z = keys[:, None] + _GAMMA * np.arange(1, d + 3, dtype=np.uint64)
    z = (z ^ (z >> 30)) * _MIX_1
    z = (z ^ (z >> 27)) * _MIX_2
    z ^= z >> 31
    scores = z[:, 2:]
    return z[:, :2], scores <= np.sort(scores, axis=1)[:, k - 1 : k]


class _BinnedData:
    """Pre-binned feature matrix shared between trees of a forest.

    ``codes_off[i, j]`` is sample *i*'s bin index for feature *j*, offset
    by ``j * bin_width`` so a flattened bincount separates features.
    """

    __slots__ = ("codes_off", "split_values", "n_bins", "bin_width", "n_features")

    def __init__(self, codes: np.ndarray, split_values: List[np.ndarray], n_bins: np.ndarray):
        self.n_features = codes.shape[1]
        self.n_bins = n_bins
        self.bin_width = int(n_bins.max())
        offsets = (np.arange(self.n_features, dtype=np.int64) * self.bin_width)[None, :]
        self.codes_off = codes.astype(np.int64) + offsets
        self.split_values = split_values


def _bin_features(X: np.ndarray, max_bins: int) -> _BinnedData:
    """Quantize each feature column; exact when <= max_bins distinct values."""
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.int64)
    split_values: List[np.ndarray] = []
    n_bins = np.empty(d, dtype=np.int64)
    for j in range(d):
        col = X[:, j]
        uniq = np.unique(col)
        if uniq.size <= max_bins:
            edges = (uniq[:-1] + uniq[1:]) / 2.0 if uniq.size > 1 else np.empty(0)
            codes[:, j] = np.searchsorted(edges, col, side="left") if edges.size else 0
            split_values.append(edges)
            n_bins[j] = max(uniq.size, 1)
        else:
            qs = np.quantile(col, np.linspace(0, 1, max_bins + 1)[1:-1])
            # Skewed columns (e.g. constant-after-outlier) collapse many
            # quantiles onto the same value — possibly onto actual data
            # values. ``side="left"`` routes a sample equal to an edge
            # into the bin *at or below* that edge, matching prediction's
            # ``x <= threshold -> left``; ``side="right"`` would train
            # such samples on the right of the split but route them left
            # at predict time (inconsistent partitions on degenerate
            # columns).
            edges = np.unique(qs)
            codes[:, j] = np.searchsorted(edges, col, side="left")
            split_values.append(edges)
            n_bins[j] = max(int(edges.size) + 1, 1)
    return _BinnedData(codes, split_values, n_bins)


def _segment_sums(starts: np.ndarray, sizes: np.ndarray, *arrays: np.ndarray) -> List[np.ndarray]:
    """``a[s:s + m].sum()`` of each segment ``(s, m)`` of each array ``a``, bit for bit.

    One output per array in ``arrays``. ``ndarray.sum`` adds pairwise,
    which neither ``np.add.reduceat`` nor a weighted ``bincount``
    reproduces (both add in sequence). The rows of a C-contiguous 2-D
    array take the same pairwise path, so the segments of each size are
    gathered into one ``(segments, size)`` array and summed along its
    rows, one array at a time (a stacked 3-D reduction takes another path).
    """
    outs = [np.empty(sizes.size) for _ in arrays]
    order = np.argsort(sizes, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        rows = starts[group, None] + np.arange(sizes[group[0]])
        for out, values in zip(outs, arrays):
            out[group] = values[rows].sum(axis=1)
    return outs


def _segment_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions of every segment ``(start, size)``, in order."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)


def _best_splits(
    binned: _BinnedData,
    y: np.ndarray,
    y2: np.ndarray,
    samples: np.ndarray,
    sizes: np.ndarray,
    node_sum: np.ndarray,
    node_sq: np.ndarray,
    parent_sse: np.ndarray,
    examined: np.ndarray,
    min_leaf: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best ``(feature, bin)`` of each node of one histogram chunk.

    ``samples`` holds the nodes' samples back to back, ``sizes[k]`` of
    node *k*, and ``examined[k]`` masks the features node *k* may split
    on. The arithmetic is the per-node fit's, term for term, over a
    leading node axis; the feature is ``_NO_FEATURE`` where no split
    reduces the node's error.
    """
    d, B = binned.n_features, binned.bin_width
    G = sizes.size
    cells = G * d * B
    local = np.repeat(np.arange(G, dtype=np.int64) * (d * B), sizes)
    sel = (binned.codes_off[samples] + local[:, None]).ravel()
    shape = (G, d, B)
    cnt = np.bincount(sel, minlength=cells).astype(float).reshape(shape)
    s1 = np.bincount(sel, weights=np.repeat(y[samples], d), minlength=cells).reshape(shape)
    s2 = np.bincount(sel, weights=np.repeat(y2[samples], d), minlength=cells).reshape(shape)

    cl = np.cumsum(cnt, axis=2)[:, :, :-1]
    sl = np.cumsum(s1, axis=2)[:, :, :-1]
    s2l = np.cumsum(s2, axis=2)[:, :, :-1]
    cr = sizes[:, None, None] - cl
    sr = node_sum[:, None, None] - sl
    s2r = node_sq[:, None, None] - s2l

    valid = (cl >= min_leaf) & (cr >= min_leaf) & examined[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = (s2l - sl**2 / cl) + (s2r - sr**2 / cr)
    sse = np.where(valid, sse, np.inf).reshape(G, -1)
    flat_best = sse.argmin(axis=1)
    best_sse = sse[np.arange(G), flat_best]
    improves = np.isfinite(best_sse) & ~(
        parent_sse - best_sse <= 1e-12 * np.maximum(parent_sse, 1.0)
    )
    feature = np.where(improves, flat_best // (B - 1), _NO_FEATURE)
    return feature, flat_best % (B - 1)


def _grow_level_wise(
    binned: _BinnedData,
    y: np.ndarray,
    roots: Sequence[np.ndarray],
    keys: np.ndarray,
    n_per_split: int,
    max_depth: Optional[int],
    min_samples_split: int,
    min_leaf: int,
) -> List[TreeArrays]:
    """Grow one tree per root sample list and key, all trees together, level by level.

    Each node splits on the best of the ``n_per_split`` features its key
    draws (:func:`_node_draws`). Returns each tree's ``(feature,
    threshold, left, right, value)``, byte-identical to what the
    per-node, depth-first fit of ``tests/ml/depth_first.py`` builds from
    the same root samples and keys. Three rules keep them equal:

    - a node's samples stay in the reference order (root order, then a
      stable partition), so each histogram bin adds its terms in the
      same sequence;
    - node sums come from :func:`_segment_sums`, equal to ``ndarray.sum``;
    - the nodes are renumbered at the end: the reference numbers both
      children when it processes their parent, and it pops the right
      child first, so the *j*-th internal node in right-first preorder
      has children ``2j + 1`` (left) and ``2j + 2`` (right).
    """
    d, B = binned.n_features, binned.bin_width
    y2 = y * y
    split_value = np.zeros((d, B - 1))
    for j, edges in enumerate(binned.split_values):
        split_value[j, : edges.size] = edges
    depth_limit = np.inf if max_depth is None else max_depth
    per_chunk = max(1, _HIST_CELLS // (d * B))

    # Level k lists its nodes as (left, right) pairs, one pair per split
    # node of level k - 1, in that level's order; roots are level 0.
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    samples = np.concatenate(roots).astype(np.int64, copy=False)
    sizes = np.array([root.size for root in roots], dtype=np.int64)
    depth = 0
    while True:
        starts = np.cumsum(sizes) - sizes
        node_sum, node_sq = _segment_sums(starts, sizes, y[samples], y2[samples])
        parent_sse = node_sq - node_sum * node_sum / sizes
        child_keys, examined = _node_draws(keys, d, n_per_split)
        feature = np.full(sizes.size, _NO_FEATURE, dtype=np.int64)
        best_bin = np.zeros(sizes.size, dtype=np.int64)
        if depth < depth_limit and B > 1:
            search = np.flatnonzero(
                (sizes >= min_samples_split)
                & (sizes >= 2 * min_leaf)
                & ~(parent_sse <= 1e-12 * np.maximum(node_sq, 1.0))
            )
            for lo in range(0, search.size, per_chunk):
                nodes = search[lo : lo + per_chunk]
                feature[nodes], best_bin[nodes] = _best_splits(
                    binned,
                    y,
                    y2,
                    samples[_segment_rows(starts[nodes], sizes[nodes])],
                    sizes[nodes],
                    node_sum[nodes],
                    node_sq[nodes],
                    parent_sse[nodes],
                    examined[nodes],
                    min_leaf,
                )
        levels.append((node_sum / sizes, feature, best_bin))
        split = feature >= 0
        if not split.any():
            break
        # Stable partition: each child keeps its parent's sample order.
        part = samples[_segment_rows(starts[split], sizes[split])]
        owner = np.repeat(np.arange(int(split.sum())), sizes[split])
        f = feature[split][owner]
        go_right = binned.codes_off[part, f] > f * B + best_bin[split][owner]
        child = 2 * owner + go_right
        samples = part[np.argsort(child, kind="stable")]
        sizes = np.bincount(child)
        keys = child_keys[split].ravel()
        depth += 1
    return _depth_first_arrays(levels, len(roots), split_value)


def _depth_first_arrays(
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_trees: int,
    split_value: np.ndarray,
) -> List[TreeArrays]:
    """Number the level-wise nodes as the depth-first fit does."""
    # Internal nodes in each node's subtree, bottom-up.
    inner: List[np.ndarray] = []
    for _, feature, _ in reversed(levels):
        split = feature >= 0
        count = split.astype(np.int64)
        if inner:
            count[split] += inner[-1][0::2] + inner[-1][1::2]
        inner.append(count)
    inner.reverse()
    n_nodes = 2 * inner[0] + 1
    offset = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    feature_out = np.full(total, _NO_FEATURE, dtype=np.int64)
    threshold_out = np.zeros(total)
    left_out = np.full(total, -1, dtype=np.int64)
    right_out = np.full(total, -1, dtype=np.int64)
    value_out = np.empty(total)

    # Top-down: ``rank`` is a node's index among internal nodes in
    # right-first preorder, ``node_id`` its number in its tree.
    tree = np.arange(n_trees)
    rank = np.zeros(n_trees, dtype=np.int64)
    node_id = np.zeros(n_trees, dtype=np.int64)
    for k, (value, feature, best_bin) in enumerate(levels):
        pos = offset[tree] + node_id
        value_out[pos] = value
        split = feature >= 0
        if not split.any():
            break
        at, r, f = pos[split], rank[split], feature[split]
        children = 2 * r[:, None] + np.array([1, 2])
        feature_out[at] = f
        threshold_out[at] = split_value[f, best_bin[split]]
        left_out[at], right_out[at] = children.T
        tree = np.repeat(tree[split], 2)
        node_id = children.ravel()
        # The right child comes next in preorder; the left one follows
        # the right child's internal nodes.
        rank = np.repeat(r + 1, 2)
        rank[0::2] += inner[k + 1][1::2]
    bounds = offset[1:]
    return list(
        zip(
            np.split(feature_out, bounds),
            np.split(threshold_out, bounds),
            np.split(left_out, bounds),
            np.split(right_out, bounds),
            np.split(value_out, bounds),
        )
    )


class DecisionTreeRegressor(Regressor):
    """CART regression tree minimizing within-node variance.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` grows until leaves are pure or too
        small).
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples in each child.
    max_features:
        Number of features examined per split: ``None``/``1.0`` = all,
        an int = that many, a float in (0, 1] = that fraction, or
        ``"sqrt"``. Random-forest style decorrelation.
    max_bins:
        Maximum histogram bins per feature (exact splits whenever a
        feature has at most this many distinct values).
    random_state:
        Seed for the per-node feature subsets: a fit that examines fewer
        than all features draws the tree's root key from it once.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        max_bins: int = 64,
        random_state: RandomState = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.max_bins = int(max_bins)
        self.random_state = random_state

    # ------------------------------------------------------------------
    def _n_features_per_split(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if isinstance(mf, str):
            if mf == "sqrt":
                return max(1, int(np.sqrt(d)))
            raise ValueError(f"unknown max_features mode {mf!r}")
        if isinstance(mf, (int, np.integer)) and not isinstance(mf, bool):
            if not 1 <= mf <= d:
                raise ValueError(f"max_features int must be in [1, {d}]")
            return int(mf)
        frac = float(mf)
        if not 0.0 < frac <= 1.0:
            raise ValueError("max_features float must be in (0, 1]")
        return max(1, int(round(frac * d)))

    # ------------------------------------------------------------------
    def _check_growth_params(self) -> None:
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")

    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DecisionTreeRegressor":
        """Fit on raw features (bins them first, then grows the tree)."""
        X, y = check_Xy(X, y)
        _fit_trees([self], _bin_features(X, self.max_bins), y, [np.arange(X.shape[0])])
        return self

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        """Vectorized level-by-level tree traversal."""
        self._check_fitted()
        X = check_X(X, self.n_features_in_)
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.int64)
        while True:
            feats = self.feature_[nodes]
            internal = feats >= 0
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            node_ids = nodes[rows]
            f = feats[rows]
            go_left = X[rows, f] <= self.threshold_[node_ids]
            nodes[rows] = np.where(go_left, self.left_[node_ids], self.right_[node_ids])
        return self.value_[nodes]

    @property
    def n_nodes(self) -> int:
        """Total nodes (internal + leaves) in the fitted tree."""
        self._check_fitted()
        return int(self.feature_.size)

    @property
    def depth(self) -> int:
        """Depth of the fitted tree (0 for a single leaf)."""
        self._check_fitted()
        depths = np.zeros(self.feature_.size, dtype=np.int64)
        for node in range(self.feature_.size):
            if self.feature_[node] >= 0:
                depths[self.left_[node]] = depths[node] + 1
                depths[self.right_[node]] = depths[node] + 1
        return int(depths.max()) if depths.size else 0


def _fit_trees(
    trees: Sequence[DecisionTreeRegressor],
    binned: _BinnedData,
    y: np.ndarray,
    roots: Sequence[np.ndarray],
) -> None:
    """Fit ``trees``, which share their hyperparameters, each on its root samples.

    All trees grow together, level by level. A tree that examines fewer
    than all features per split draws its key from its ``random_state``;
    one that examines all of them draws nothing.
    """
    head = trees[0]
    head._check_growth_params()
    d = binned.n_features
    n_per_split = head._n_features_per_split(d)
    keys = np.array(
        [_tree_key(tree.random_state) if n_per_split < d else 0 for tree in trees],
        dtype=np.uint64,
    )
    grown = _grow_level_wise(
        binned,
        y,
        roots,
        keys,
        n_per_split,
        head.max_depth,
        head.min_samples_split,
        head.min_samples_leaf,
    )
    for tree, arrays in zip(trees, grown):
        tree.feature_, tree.threshold_, tree.left_, tree.right_, tree.value_ = arrays
        tree.n_features_in_ = d
