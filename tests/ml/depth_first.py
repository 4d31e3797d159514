"""The per-node, depth-first tree fit: the oracle of the level-wise growth.

``repro.ml.tree`` grows every tree level by level, all trees of a
forest together. This fit grows one tree one node at a time, popping
the right child first, with the per-node histogram arithmetic the
level-wise growth batches over a node axis, and it takes each node's
feature subset from the same per-node draws (``_tree_key`` and
``_node_draws``). The tests require the two to give byte-identical
arrays, and the level-wise fit to be faster.
"""

from typing import List, Tuple

import numpy as np

from repro.ml.tree import _NO_FEATURE, DecisionTreeRegressor, _BinnedData, _node_draws, _tree_key


def fit_depth_first(
    tree: DecisionTreeRegressor, binned: _BinnedData, y: np.ndarray, idx: np.ndarray
) -> None:
    """Fit ``tree`` node by node, depth-first, over pre-binned data, on samples ``idx``."""
    tree._check_growth_params()
    d = binned.n_features
    B = binned.bin_width
    total_bins = d * B
    n_per_split = tree._n_features_per_split(d)
    root_key = _tree_key(tree.random_state) if n_per_split < d else 0
    y2 = y * y
    codes_off = binned.codes_off
    min_leaf = tree.min_samples_leaf

    features: List[int] = []
    thresholds: List[float] = []
    lefts: List[int] = []
    rights: List[int] = []
    values: List[float] = []

    def new_node() -> int:
        features.append(_NO_FEATURE)
        thresholds.append(0.0)
        lefts.append(-1)
        rights.append(-1)
        values.append(0.0)
        return len(features) - 1

    root = new_node()
    stack: List[Tuple[int, np.ndarray, int, np.uint64]] = [
        (root, np.asarray(idx, dtype=np.int64), 0, np.uint64(root_key))
    ]
    max_depth = tree.max_depth if tree.max_depth is not None else np.inf

    while stack:
        node, node_idx, depth, key = stack.pop()
        ys = y[node_idx]
        m = node_idx.size
        node_sum = float(ys.sum())
        node_sq = float(y2[node_idx].sum())
        values[node] = node_sum / m
        parent_sse = node_sq - node_sum * node_sum / m
        if (
            depth >= max_depth
            or m < tree.min_samples_split
            or m < 2 * min_leaf
            or parent_sse <= 1e-12 * max(node_sq, 1.0)
        ):
            continue

        # One flattened bincount covers all features: row-major ravel
        # keeps each sample's d entries adjacent, so per-sample weights
        # are repeated d times.
        sel = codes_off[node_idx].ravel()
        w1 = np.repeat(ys, d)
        cnt = np.bincount(sel, minlength=total_bins).astype(float).reshape(d, B)
        s1 = np.bincount(sel, weights=w1, minlength=total_bins).reshape(d, B)
        s2 = np.bincount(sel, weights=np.repeat(y2[node_idx], d), minlength=total_bins).reshape(d, B)

        cl = np.cumsum(cnt, axis=1)[:, :-1]
        sl = np.cumsum(s1, axis=1)[:, :-1]
        s2l = np.cumsum(s2, axis=1)[:, :-1]
        cr = m - cl
        sr = node_sum - sl
        s2r = node_sq - s2l

        valid = (cl >= min_leaf) & (cr >= min_leaf)
        # Skipped when every feature is examined, so a plain fit does only
        # the per-node work the fit floor times.
        children = np.zeros((1, 2), dtype=np.uint64)
        if n_per_split < d:
            children, examined = _node_draws(np.array([key], dtype=np.uint64), d, n_per_split)
            valid &= examined[0][:, None]
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (s2l - sl**2 / cl) + (s2r - sr**2 / cr)
        sse = np.where(valid, sse, np.inf)
        flat_best = int(np.argmin(sse))
        best_sse = float(sse.flat[flat_best])
        if not np.isfinite(best_sse) or parent_sse - best_sse <= 1e-12 * max(parent_sse, 1.0):
            continue
        best_feat, best_bin = divmod(flat_best, B - 1)

        go_left = codes_off[node_idx, best_feat] - best_feat * B <= best_bin
        left_idx = node_idx[go_left]
        right_idx = node_idx[~go_left]
        if left_idx.size == 0 or right_idx.size == 0:  # pragma: no cover - guarded by `valid`
            continue

        features[node] = int(best_feat)
        thresholds[node] = float(binned.split_values[best_feat][best_bin])
        lchild = new_node()
        rchild = new_node()
        lefts[node] = lchild
        rights[node] = rchild
        stack.append((lchild, left_idx, depth + 1, children[0, 0]))
        stack.append((rchild, right_idx, depth + 1, children[0, 1]))

    tree.feature_ = np.array(features, dtype=np.int64)
    tree.threshold_ = np.array(thresholds, dtype=float)
    tree.left_ = np.array(lefts, dtype=np.int64)
    tree.right_ = np.array(rights, dtype=np.int64)
    tree.value_ = np.array(values, dtype=float)
    tree.n_features_in_ = d
