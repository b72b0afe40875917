"""CART-style regression trees on per-instance gradient/hessian pairs.

One Newton objective serves every backend: a split's quality is

    gain = 1/2 * [GL^2/(HL+l) + GR^2/(HR+l) - (GL+GR)^2/(HL+HR+l)]

and a leaf predicts -G/(H+l). Trees grow level by level. One kernel,
``_level_gains``, scores every (node, feature, bin) cut of many nodes at
once from gradient and hessian histograms, and ``_best_cuts`` picks each
node's cut. The backends all search it and differ only in their bins:

* exact      - lossless bins, one per distinct value, so the cuts are the
               midpoints between consecutive distinct observed values
* histogram  - quantile bins of at most ``max_edges`` edges per feature
* oblivious  - the model's lossless bins, with thresholds at the midpoints
               of the tree rows' neighbouring distinct values; one shared
               (feature, threshold) test per depth level, scored by summing
               the current leaves' gains
* uniform    - one uniform threshold per node feature (extra trees), each
               drawn column scored as two bins split at its one edge

A node is scored only at the bins its rows occupy (an oblivious leaf at the
bins its tree's rows occupy, so the leaves' gains line up and sum). An
empty bin repeats the cumulative sums of the bin below it, so its cut ties
with a lower one and never wins, and skipping it leaves out only exact
zeros; per-bin sums accumulate in row order, so every gain is the float a
node-by-node search computes.

``fit_trees`` grows a batch of trees together (a forest); ``fit_tree_hist``
grows a batch of one on bins (a boosting round). A level's nodes go to the
kernel in runs of at most ``_KERNEL_ROWS`` samples and ``_KERNEL_SLOTS``
histogram slots, so memory does not grow with the batch. Random draws
follow the level, not the run: every node of a level that may split draws
its features in (tree, then left-to-right) order, and uniform thresholds
are then drawn for those nodes in the same order, so the runs never change
a tree.

Ties in gain resolve to the lowest feature index, then the lowest
threshold, up to the rounding of the histogram sums: two cuts whose gains
are equal in exact arithmetic may differ in the last bits. A gain of at
most 1e-12 times the node's own parent term G^2/(H+l) in magnitude is
rounding noise and counts as exactly 0, so a pure node never splits. Rows
with value < threshold go left; missing values follow the node's
missing-direction flag (left by default). Fitting assumes finite inputs;
prediction tolerates NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Upper bounds on one kernel call's samples and histogram slots (nodes x
# columns x bins), so a call's memory does not grow with the batch.
_KERNEL_ROWS = 1024
_KERNEL_SLOTS = 1 << 16


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


def _leaf_value(g, h, reg_lambda) -> float:
    denom = h + reg_lambda
    return 0.0 if denom == 0.0 else float(-g / denom)


def _new_nodes(grad, hess, sizes, reg_lambda):
    """Leaf nodes for consecutive runs of samples, with each run's gradient
    and hessian sums; each run is summed on its own, so its sums are the
    floats a sum over that node's rows alone gives."""
    ends = np.cumsum(sizes)
    g = np.array([grad[end - size:end].sum() for size, end in zip(sizes, ends)])
    h = np.array([hess[end - size:end].sum() for size, end in zip(sizes, ends)])
    return [TreeNode(value=_leaf_value(gk, hk, reg_lambda)) for gk, hk in zip(g, h)], g, h


def _candidates(n_features: int, candidate_features) -> np.ndarray:
    if candidate_features is None:
        return np.arange(n_features)
    return np.sort(np.asarray(candidate_features))


def _node_features(candidate_features, params: TreeParams, rng) -> np.ndarray:
    if params.features_per_node is None or params.features_per_node >= len(candidate_features):
        return candidate_features
    picked = rng.choice(candidate_features, size=params.features_per_node, replace=False)
    picked.sort()
    return picked


def _runs(sizes, slots_per_node: int, order) -> list[np.ndarray]:
    """The nodes, taken in ``order``, cut into runs of at most
    ``_KERNEL_ROWS`` samples and ``_KERNEL_SLOTS`` histogram slots (a node
    over either runs alone)."""
    runs, start, rows, slots = [], 0, 0, 0
    for i, size in enumerate(sizes[order]):
        if i > start and (rows + size > _KERNEL_ROWS or slots + slots_per_node > _KERNEL_SLOTS):
            runs.append(order[start:i])
            start, rows, slots = i, 0, 0
        rows += size
        slots += slots_per_node
    runs.append(order[start:])
    return runs


def _positions(starts, nodes) -> np.ndarray:
    """The sample positions of ``nodes``, node after node, where node k's
    samples sit at starts[k]:starts[k + 1]."""
    sizes = starts[nodes + 1] - starts[nodes]
    return np.repeat(starts[nodes] - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _occupied_ranks(key, n_seg: int, width: int) -> np.ndarray:
    """rank[s, b] + 1 is how many bins <= b segment s occupies, where each
    cell's ``key`` is its segment * width + its bin; so an occupied bin's
    rank is its position among the segment's occupied bins."""
    present = np.zeros(n_seg * width, dtype=bool)
    present[key] = True
    return np.cumsum(present.reshape(n_seg, width), axis=1, dtype=np.int32) - 1


def _level_gains(
    binned, node_of, n_nodes, width, grad, hess, node_g, node_h, reg_lambda, mcw, rank=None
):
    """Newton gain of every (node, column, occupied bin) cut of a run of nodes.

    ``binned`` holds the bin ids (< width) of the run's samples, one row per
    sample and one column per node column; each node's samples sit in the
    node's row order, and ``node_of`` numbers their node from 0.
    ``grad``/``hess`` are the samples' statistics and ``node_g``/``node_h``
    each node's sums. Each (node, column) is scored at the bins its own
    samples occupy, or, given ``rank`` (columns x width, from a whole
    tree's rows), at the bins the tree occupies.

    Returns the gains (nodes x columns x ranks) and the ranks. Entry
    [k, c, r] scores sending the occupied bins of rank <= r left: -inf past
    the occupied bins or where a child fails min_child_weight, and exactly
    0 where the gain is rounding noise next to the node's parent term.
    """
    m = binned.shape[1]
    seg = node_of[:, None] * m + np.arange(m)
    if rank is None:
        key = seg * width + binned
        rank = _occupied_ranks(key, n_nodes * m, width)
        count = rank[:, -1] + 1
    else:
        key = np.arange(m) * width + binned
        count = np.tile(rank[:, -1] + 1, n_nodes)
    k = int(count.max())
    flat_idx = (seg * k + np.take(rank, key)).ravel()

    def cumulative_hist(w):
        weights = np.broadcast_to(w[:, None], binned.shape).ravel()
        hist = np.bincount(flat_idx, weights=weights, minlength=n_nodes * m * k)
        return np.cumsum(hist.reshape(n_nodes * m, k), axis=1)

    gl, hl = cumulative_hist(grad), cumulative_hist(hess)
    gr, hr = gl[:, -1:] - gl, hl[:, -1:] - hl
    gains = newton_gain(gl, hl, gr, hr, reg_lambda)
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = 1e-12 * node_g**2 / (node_h + reg_lambda)
    ok = (np.arange(k) < count[:, None]) & (hl >= mcw) & (hr >= mcw) & np.isfinite(gains)
    gains[np.abs(gains) <= np.repeat(parent, m)[:, None]] = 0.0
    gains[~ok] = -np.inf
    return gains.reshape(n_nodes, m, k), rank


def _best_cuts(gains):
    """Each node's best cut in a (nodes x columns x ranks) gain table: its
    column, its rank and whether it gains (> 0). argmax scans a node's table
    column by column, so ties go to the lowest column, then the lowest bin."""
    flat = gains.reshape(len(gains), -1)
    best = flat.argmax(axis=1)
    col, r = np.divmod(best, gains.shape[2])
    return col, r, flat[np.arange(len(flat)), best] > 0.0


def _rank_bins(rank_rows, r):
    """Per row of ranks, the occupied bin of rank r and the next occupied bin."""
    return (rank_rows < r[:, None]).sum(axis=1), (rank_rows <= r[:, None]).sum(axis=1)


def _threshold(bins: "HistogramBins", feature: int, ltop, rbot) -> float:
    """The recorded threshold of a cut between occupied bins ``ltop`` and
    ``rbot``: the midpoint between their training value bounds, so training
    rows route identically to the bin split; with lossless bins it is the
    midpoint between the rows' neighbouring distinct values."""
    return float(0.5 * (bins.bin_max[feature][ltop] + bins.bin_min[feature][rbot]))


def fit_trees(
    X, grads, hesses, rows, params: TreeParams, rng=None, bins=None, candidate_features=None
) -> list[DecisionTree]:
    """Grow a batch of trees together, one level at a time: tree t fits
    ``grads[t]`` and ``hesses[t]`` on ``rows[t]`` (None for every row;
    repeats allowed). Each node picks its features with ``_node_features``.

    With ``bins``, X is the binned matrix and a node cuts at a bin edge
    (exact and histogram backends). Without, X is the raw matrix and each
    node draws one uniform threshold inside each picked feature's node range
    (extra trees; Geurts, Ernst & Wehenkel 2006), each drawn cut scored as
    two bins.
    """
    if not rows:
        return []
    uniform = bins is None
    X = np.asarray(X, dtype=np.float64 if uniform else None)
    n, d = X.shape
    feats = _candidates(d, candidate_features)
    if rng is None:
        rng = np.random.default_rng(0)
    lam, mcw = params.reg_lambda, params.min_child_weight
    width = 2 if uniform else int(bins.n_edges[feats].max(initial=0)) + 1
    tree_rows = [np.arange(n) if r is None else np.asarray(r) for r in rows]
    # the level's samples, node after node, each node's in its row order
    samples = np.concatenate(tree_rows)
    grad = np.concatenate([np.asarray(g, dtype=np.float64)[r] for g, r in zip(grads, tree_rows)])
    hess = np.concatenate([np.asarray(h, dtype=np.float64)[r] for h, r in zip(hesses, tree_rows)])
    sizes = np.array([len(r) for r in tree_rows])
    nodes, node_g, node_h = _new_nodes(grad, hess, sizes, lam)
    roots = list(nodes)

    for _ in range(params.max_depth):
        live = sizes >= 2
        if not live.any() or feats.size == 0:
            break
        keep = np.repeat(live, sizes)
        samples, grad, hess = samples[keep], grad[keep], hess[keep]
        nodes = [node for node, k in zip(nodes, live) if k]
        sizes, node_g, node_h = sizes[live], node_g[live], node_h[live]
        node_of = np.repeat(np.arange(len(nodes)), sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        F = np.array([_node_features(feats, params, rng) for _ in nodes])
        m = F.shape[1]
        # nodes of like size share a run, so little of its table is padding
        runs = _runs(sizes, m * width, np.argsort(sizes, kind="stable"))

        if uniform:
            lo, hi = np.empty(F.shape), np.empty(F.shape)
            for run in runs:
                s = _positions(starts, run)
                vals = np.take(X, samples[s, None] * d + F[node_of[s]])
                run_starts = np.cumsum(sizes[run]) - sizes[run]
                lo[run] = np.minimum.reduceat(vals, run_starts)
                hi[run] = np.maximum.reduceat(vals, run_starts)
            drawn = hi > lo
            thresholds = np.full(F.shape, np.inf)  # an undrawn column has one bin
            thresholds[drawn] = rng.uniform(lo[drawn], hi[drawn])

        def binned(s, c):
            """Bin ids of level samples ``s`` in their nodes' columns ``c``."""
            values = np.take(X, samples[s] * d + F[node_of[s], c])
            if uniform:  # bin 0 goes left
                return (values >= thresholds[node_of[s], c]).astype(np.intp)
            return values

        col = np.zeros(len(nodes), dtype=np.intp)
        ltop = np.zeros(len(nodes), dtype=np.intp)
        rbot = np.zeros(len(nodes), dtype=np.intp)
        split = np.zeros(len(nodes), dtype=bool)
        for run in runs:
            s = _positions(starts, run)
            local = np.repeat(np.arange(len(run)), sizes[run])
            gains, rank = _level_gains(
                binned(s[:, None], np.arange(m)), local, len(run), width,
                grad[s], hess[s], node_g[run], node_h[run], lam, mcw,
            )
            col[run], r, split[run] = _best_cuts(gains)
            ltop[run], rbot[run] = _rank_bins(rank[np.arange(len(run)) * m + col[run]], r)
        if not split.any():
            break

        # children in (node, left then right) order, each keeping its rows' order
        pos = np.flatnonzero(split[node_of])
        right = binned(pos, col[node_of[pos]]) > ltop[node_of[pos]]
        child = 2 * (np.cumsum(split) - 1)[node_of[pos]] + right
        order = pos[np.argsort(child, kind="stable")]
        samples, grad, hess = samples[order], grad[order], hess[order]
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        children, node_g, node_h = _new_nodes(grad, hess, sizes, lam)
        for i, k in enumerate(np.flatnonzero(split)):
            node = nodes[k]
            node.feature = int(F[k, col[k]])
            if uniform:
                node.threshold = float(thresholds[k, col[k]])
            else:
                node.threshold = _threshold(bins, node.feature, ltop[k], rbot[k])
            node.left, node.right = children[2 * i], children[2 * i + 1]
        nodes = children
    return [DecisionTree(root, d) for root in roots]


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
    return fit_trees(X_binned, [grad], [hess], [rows], params, rng, bins, candidate_features)[0]


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
    gains at the bins the tree's rows occupy, where a leaf whose children
    would violate min_child_weight contributes zero; the level is applied
    only when the best total is strictly positive.
    """
    Xb = np.asarray(X_binned)
    rows = np.arange(Xb.shape[0]) if rows is None else np.asarray(rows)
    feats = _candidates(Xb.shape[1], candidate_features)
    xb = Xb[np.ix_(rows, feats)]
    g_all = np.asarray(grad, dtype=np.float64)[rows]
    h_all = np.asarray(hess, dtype=np.float64)[rows]
    m = len(feats)
    width = int(bins.n_edges[feats].max(initial=0)) + 1
    rank = _occupied_ranks(np.arange(m) * width + xb, m, width)  # shared by the leaves
    k = int(rank[:, -1].max(initial=-1)) + 1
    levels: list[tuple[int, float]] = []
    leaf_of = np.zeros(len(rows), dtype=np.int64)

    while True:
        order = np.argsort(leaf_of, kind="stable")
        sizes = np.bincount(leaf_of, minlength=2 ** len(levels))
        g, h = g_all[order], h_all[order]
        leaves, node_g, node_h = _new_nodes(g, h, sizes, params.reg_lambda)
        if len(levels) == params.max_depth or len(rows) < 2 or m == 0:
            break
        starts = np.concatenate([[0], np.cumsum(sizes)])
        totals = np.zeros((m, k))
        for run in _runs(sizes, m * k, np.arange(len(sizes))):
            a, b = starts[run[0]], starts[run[-1] + 1]
            gains, _ = _level_gains(
                xb[order[a:b]], leaf_of[order[a:b]] - run[0], len(run), width, g[a:b], h[a:b],
                node_g[run], node_h[run], params.reg_lambda, params.min_child_weight, rank=rank,
            )
            for leaf_gains in gains:
                totals += np.where(leaf_gains == -np.inf, 0.0, leaf_gains)
        col, r, ok = _best_cuts(totals[None])
        if not ok[0]:
            break
        col = int(col[0])
        (ltop,), (rbot,) = _rank_bins(rank[col][None], r)
        feature = int(feats[col])
        levels.append((feature, _threshold(bins, feature, ltop, rbot)))
        leaf_of = 2 * leaf_of + (xb[:, col] > ltop)

    def build(level: int, prefix: int) -> TreeNode:
        if level == len(levels):
            return leaves[prefix]
        feature, threshold = levels[level]
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(level + 1, prefix * 2),
            right=build(level + 1, prefix * 2 + 1),
        )

    return DecisionTree(build(0, 0), Xb.shape[1])
