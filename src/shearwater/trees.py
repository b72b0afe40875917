"""CART-style regression trees on per-instance gradient/hessian pairs.

One Newton objective serves every backend: a split's quality is

    gain = 1/2 * [GL^2/(HL+l) + GR^2/(HR+l) - (GL+GR)^2/(HL+HR+l)]

and a leaf predicts -G/(H+l). One kernel, ``_gain_table``, scores every
(feature, bin edge) cut of a node from gradient and hessian histograms.
The exact, histogram and oblivious backends all search it and differ only
in their bins:

* exact      - lossless bins, one per distinct value, so the cuts are the
               midpoints between consecutive distinct observed values
* histogram  - quantile bins of at most ``max_edges`` edges per feature
* oblivious  - the model's lossless bins, with thresholds at the midpoints
               of the tree rows' neighbouring distinct values; one shared
               (feature, threshold) test per depth level, scored by summing
               the current leaves' gain tables
* uniform    - K random (feature, uniform threshold) draws per node, scored
               by mask sums (no bins)

Growth is depth-wise everywhere. Ties in gain resolve to the lowest
feature index, then the lowest threshold, up to the rounding of the
histogram sums: two cuts whose gains are equal in exact arithmetic may
differ in the last bits. Rows with value < threshold go left; missing
values follow the node's missing-direction flag (left by default). Fitting
assumes finite inputs; prediction tolerates NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TreeParams:
    max_depth: int = 5
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    # Node-level feature subsampling (random forests); None means use every
    # candidate feature at every node.
    features_per_node: int | None = None


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    missing_left: bool = True
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class DecisionTree:
    """Immutable-after-fit binary tree. Evaluation is vectorized."""

    def __init__(self, root: TreeNode, n_features: int):
        self.root = root
        self.n_features = n_features

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0])
        _fill_predictions(self.root, X, np.arange(X.shape[0]), out)
        return out

    def leaves(self) -> list[TreeNode]:
        found: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                found.append(node)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return found

    def scale_leaves(self, factor: float) -> None:
        for leaf in self.leaves():
            leaf.value *= factor

    def shift_leaves(self, delta: float) -> None:
        for leaf in self.leaves():
            leaf.value += delta

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def to_dict(self) -> dict:
        def encode(node: TreeNode) -> dict:
            if node.is_leaf:
                return {"value": node.value}
            return {
                "feature": node.feature,
                "threshold": node.threshold,
                "missing_left": node.missing_left,
                "left": encode(node.left),
                "right": encode(node.right),
            }

        return {"n_features": self.n_features, "root": encode(self.root)}

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTree":
        n_features = int(doc["n_features"])

        def decode(obj: dict) -> TreeNode:
            if "value" in obj:
                return TreeNode(value=float(obj["value"]))
            feature = int(obj["feature"])
            if not 0 <= feature < n_features:
                raise ValueError(f"split feature {feature} outside 0..{n_features - 1}")
            return TreeNode(
                feature=feature,
                threshold=float(obj["threshold"]),
                missing_left=bool(obj["missing_left"]),
                left=decode(obj["left"]),
                right=decode(obj["right"]),
            )

        return cls(decode(doc["root"]), n_features)


def _fill_predictions(node: TreeNode, X, idx, out) -> None:
    if node.is_leaf:
        out[idx] = node.value
        return
    x = X[idx, node.feature]
    go_left = x < node.threshold
    if node.missing_left:
        go_left |= np.isnan(x)
    _fill_predictions(node.left, X, idx[go_left], out)
    _fill_predictions(node.right, X, idx[~go_left], out)


def newton_gain(gl, hl, gr, hr, reg_lambda):
    """Second-order split gain; broadcasts over arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = (gl + gr) ** 2 / (hl + hr + reg_lambda)
        return 0.5 * (gl**2 / (hl + reg_lambda) + gr**2 / (hr + reg_lambda) - parent)


def _leaf_value(rows, grad, hess, reg_lambda) -> float:
    g = grad[rows].sum()
    h = hess[rows].sum()
    denom = h + reg_lambda
    return 0.0 if denom == 0.0 else float(-g / denom)


def _node_features(candidate_features, params: TreeParams, rng) -> np.ndarray:
    if params.features_per_node is None or params.features_per_node >= len(candidate_features):
        return candidate_features
    picked = rng.choice(candidate_features, size=params.features_per_node, replace=False)
    picked.sort()
    return picked


def _gain_table(sub, grad, hess, n_edges, reg_lambda, mcw) -> np.ndarray:
    """Newton gain of every (column, bin edge) cut of one node.

    ``sub`` holds the node rows' bin indices (rows x columns), ``grad`` and
    ``hess`` their gradients and hessians, ``n_edges`` each column's edge
    count. Entry [c, j] scores sending bins <= j left; it is -inf where j is
    not an edge of column c or a child fails min_child_weight.
    """
    m = sub.shape[1]
    width = int(n_edges.max(initial=0)) + 1
    flat_idx = (sub + np.arange(m, dtype=np.int64)[None, :] * width).ravel()

    def cumulative_hist(w):
        weights = np.broadcast_to(w[:, None], sub.shape).ravel()
        hist = np.bincount(flat_idx, weights=weights, minlength=m * width)
        return np.cumsum(hist.reshape(m, width), axis=1)

    cg, ch = cumulative_hist(grad), cumulative_hist(hess)
    gl, hl = cg[:, :-1], ch[:, :-1]
    gr, hr = cg[:, -1:] - gl, ch[:, -1:] - hl
    gains = newton_gain(gl, hl, gr, hr, reg_lambda)
    in_range = np.arange(width - 1)[None, :] < n_edges[:, None]
    ok = in_range & (hl >= mcw) & (hr >= mcw) & np.isfinite(gains)
    return np.where(ok, gains, -np.inf)


def _grow(find_split, rows, depth, params: TreeParams, grad, hess) -> TreeNode:
    node = TreeNode(value=_leaf_value(rows, grad, hess, params.reg_lambda))
    if depth >= params.max_depth or len(rows) < 2:
        return node
    found = find_split(rows)
    if found is None:
        return node
    _, feature, threshold, left_rows, right_rows = found
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(find_split, left_rows, depth + 1, params, grad, hess)
    node.right = _grow(find_split, right_rows, depth + 1, params, grad, hess)
    return node


def _prep(X, grad, hess, rows, candidate_features, dtype=np.float64):
    X = np.asarray(X, dtype=dtype)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    rows = np.arange(X.shape[0]) if rows is None else np.asarray(rows)
    if candidate_features is None:
        feats = np.arange(X.shape[1])
    else:
        feats = np.sort(np.asarray(candidate_features))
    return X, grad, hess, rows, feats


def fit_tree_exact(
    X, grad, hess, params: TreeParams, rng=None, rows=None, candidate_features=None
) -> DecisionTree:
    """Greedy depth-wise tree over midpoint thresholds of observed values:
    the histogram fitter on lossless bins.
    """
    bins = build_bins(X, max_edges=None)
    return fit_tree_hist(bins.bin_matrix(X), grad, hess, bins, params, rng, rows, candidate_features)


@dataclass
class HistogramBins:
    """Per-feature quantile bin edges plus per-bin training value bounds.

    Edges are strictly increasing; a feature with e edges has e+1 bins and
    the bin index of a value is the count of edges <= value. When every
    distinct value has its own bin the edges are exactly the midpoints
    between consecutive distinct values.
    """

    edges: list[np.ndarray]
    bin_min: list[np.ndarray]
    bin_max: list[np.ndarray]

    def __post_init__(self) -> None:
        self.n_edges = np.array([e.size for e in self.edges], dtype=np.int64)

    def bin_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape, dtype=np.int32)
        for f in range(X.shape[1]):
            out[:, f] = np.searchsorted(self.edges[f], X[:, f], side="right")
        return out


def build_bins(X: np.ndarray, max_edges: int | None = 255) -> HistogramBins:
    """Quantile bins per feature, lossless whenever distinct values fit.

    ``max_edges=None`` never caps: every distinct value gets its own bin,
    which is how the exact backend bins.
    """
    X = np.asarray(X, dtype=np.float64)
    edges_list, mins_list, maxs_list = [], [], []
    if max_edges is not None:
        probs = np.arange(1, max_edges + 1) / (max_edges + 1)
    for f in range(X.shape[1]):
        col = X[:, f]
        distinct = np.unique(col)
        if max_edges is None or distinct.size - 1 <= max_edges:
            edges = 0.5 * (distinct[:-1] + distinct[1:])
            mins = maxs = distinct
        else:
            s = np.sort(col)
            h = (s.size - 1) * probs
            lo = np.floor(h).astype(np.intp)
            cand = s[lo] + (h - lo) * (s[np.minimum(lo + 1, s.size - 1)] - s[lo])
            edges = np.unique(cand)
            edges = edges[(edges > distinct[0]) & (edges <= distinct[-1])]
            idx = np.searchsorted(edges, col, side="right")
            mins = np.full(edges.size + 1, np.inf)
            maxs = np.full(edges.size + 1, -np.inf)
            np.minimum.at(mins, idx, col)
            np.maximum.at(maxs, idx, col)
        edges_list.append(np.asarray(edges, dtype=np.float64))
        mins_list.append(np.asarray(mins, dtype=np.float64))
        maxs_list.append(np.asarray(maxs, dtype=np.float64))
    return HistogramBins(edges_list, mins_list, maxs_list)


def _best_split_hist(Xb, grad, hess, rows, feats, bins, reg_lambda, mcw):
    sub = Xb[np.ix_(rows, feats)]
    gains = _gain_table(sub, grad[rows], hess[rows], bins.n_edges[feats], reg_lambda, mcw)
    if gains.size == 0:
        return None
    best = int(np.argmax(gains))  # feature-major, so ties go to the lowest feature then edge
    gain = gains.flat[best]
    if not gain > 0.0:
        return None
    col, j = divmod(best, gains.shape[1])
    feature = int(feats[col])
    go_left, threshold = _cut(sub[:, col], j, bins, feature)
    return float(gain), feature, threshold, rows[go_left], rows[~go_left]


def _cut(col_bins, j, bins: HistogramBins, feature: int) -> tuple[np.ndarray, float]:
    """The rows' routing and recorded threshold of the cut "bins <= j go left".

    ``col_bins`` holds the rows' bin indices of ``feature``. The threshold is
    the midpoint between the adjacent occupied bins' training value bounds,
    so training rows route identically to the bin split; with lossless bins
    it is the midpoint between the rows' neighbouring distinct values.
    """
    go_left = col_bins <= j
    ltop = col_bins[go_left].max()
    rbot = col_bins[~go_left].min()
    return go_left, float(0.5 * (bins.bin_max[feature][ltop] + bins.bin_min[feature][rbot]))


def fit_tree_hist(
    X_binned,
    grad,
    hess,
    bins: HistogramBins,
    params: TreeParams,
    rng=None,
    rows=None,
    candidate_features=None,
) -> DecisionTree:
    """Depth-wise tree with candidate thresholds restricted to bin edges."""
    Xb, grad, hess, rows, feats = _prep(X_binned, grad, hess, rows, candidate_features, dtype=None)
    if rng is None:
        rng = np.random.default_rng(0)

    def find_split(node_rows):
        node_feats = _node_features(feats, params, rng)
        return _best_split_hist(
            Xb, grad, hess, node_rows, node_feats, bins, params.reg_lambda, params.min_child_weight
        )

    root = _grow(find_split, rows, 0, params, grad, hess)
    return DecisionTree(root, Xb.shape[1])


def fit_tree_oblivious(
    X_binned,
    grad,
    hess,
    bins: HistogramBins,
    params: TreeParams,
    rng=None,
    rows=None,
    candidate_features=None,
) -> DecisionTree:
    """Symmetric tree: each depth applies one (feature, threshold) test to
    every current leaf, chosen to maximize the summed Newton gain.

    On lossless bins the candidate thresholds are the midpoints between
    consecutive distinct values over the tree's full row set, and a depth-1
    oblivious tree coincides with a depth-1 exact tree. A level's score for
    each cut is the sum, over current leaves in leaf order, of that leaf's
    gain table, where a leaf whose children would violate min_child_weight
    contributes zero; the level is applied only when the best total is
    strictly positive.
    """
    Xb, grad, hess, rows, feats = _prep(X_binned, grad, hess, rows, candidate_features, dtype=None)
    xb = Xb[np.ix_(rows, feats)]
    n_edges = bins.n_edges[feats]
    g_all = grad[rows]
    h_all = hess[rows]
    levels: list[tuple[int, float]] = []
    leaf_of = np.zeros(len(rows), dtype=np.int64)

    for _ in range(params.max_depth):
        totals = np.zeros((len(feats), int(n_edges.max(initial=0))))
        for leaf in range(2 ** len(levels)):
            member = leaf_of == leaf
            gains = _gain_table(
                xb[member], g_all[member], h_all[member], n_edges,
                params.reg_lambda, params.min_child_weight,
            )
            totals += np.where(gains == -np.inf, 0.0, gains)
        if totals.size == 0:
            break
        best = int(np.argmax(totals))
        if not totals.flat[best] > 0.0:
            break
        col, j = divmod(best, totals.shape[1])
        feature = int(feats[col])
        go_left, threshold = _cut(xb[:, col], j, bins, feature)
        levels.append((feature, threshold))
        leaf_of = 2 * leaf_of + ~go_left

    n_leaves = 2 ** len(levels)
    values = np.zeros(n_leaves)
    for leaf in range(n_leaves):
        leaf_rows = rows[leaf_of == leaf]
        values[leaf] = _leaf_value(leaf_rows, grad, hess, params.reg_lambda)

    def build(level: int, prefix: int) -> TreeNode:
        if level == len(levels):
            return TreeNode(value=float(values[prefix]))
        feature, threshold = levels[level]
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(level + 1, prefix * 2),
            right=build(level + 1, prefix * 2 + 1),
        )

    return DecisionTree(build(0, 0), Xb.shape[1])


def fit_tree_uniform(
    X, grad, hess, params: TreeParams, rng, rows=None, candidate_features=None
) -> DecisionTree:
    """Extra-trees style fitter: at each node draw K features without
    replacement and one uniform threshold inside each feature's observed
    node range; the best-gain candidate wins.
    """
    X, grad, hess, rows, feats = _prep(X, grad, hess, rows, candidate_features)
    k = params.features_per_node or int(np.ceil(np.sqrt(len(feats))))

    def find_split(node_rows):
        picked = rng.choice(feats, size=min(k, len(feats)), replace=False)
        picked.sort()
        gn = grad[node_rows]
        hn = hess[node_rows]
        g_tot, h_tot = gn.sum(), hn.sum()
        best = None
        for f in picked:
            col = X[node_rows, f]
            lo, hi = col.min(), col.max()
            if not hi > lo:
                continue
            threshold = rng.uniform(lo, hi)
            mask = col < threshold
            gl, hl = gn[mask].sum(), hn[mask].sum()
            gr, hr = g_tot - gl, h_tot - hl
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gain = newton_gain(gl, hl, gr, hr, params.reg_lambda)
            if np.isfinite(gain) and gain > 0.0 and (best is None or gain > best[0]):
                best = (float(gain), int(f), float(threshold), node_rows[mask], node_rows[~mask])
        return best

    root = _grow(find_split, rows, 0, params, grad, hess)
    return DecisionTree(root, X.shape[1])
