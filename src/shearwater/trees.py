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

Bins belong to a matrix, not to a tree: ``build_bins`` bins a whole matrix
from one sort of each column, a block of columns at a time, and every tree
of a model fits on that one binned matrix. A fit reads only each column's
bin count and its bins' value bounds, so a lossless column keeps its
distinct values once, as the bounds, and its edges are derived from them
when asked for. Lossless bins over a superset of the matrix's values (as
``evalcv.prepare`` shares between a command's fits) give the very trees
that lossless bins over its own values give: the occupied bins, their
order, their per-bin sums and the midpoints between a node's neighbouring
occupied values are the same; only the width of the bin axis, and with it
how a level's nodes are cut into kernel runs, differs. The same holds for
histogram bins whenever they are lossless, that is when no feature has
more than ``max_edges + 1`` distinct values.

``fit_trees`` grows a batch of trees together (a forest); ``fit_tree_hist``
grows a batch of one on bins (a boosting round, which draws nothing, so it
and ``fit_tree_oblivious`` take no generator). A level's nodes go to the
kernel in runs of at most ``_KERNEL_ROWS`` samples and a gain table of at
most ``_KERNEL_SLOTS`` cells, so memory does not grow with the batch. A
run's table is its nodes x columns x the bins its largest node can occupy,
at most that node's sample count and the bin axis's width (an oblivious
leaf's is the tree's occupied bins, whatever the leaf's size). Random draws
follow the level, not the run: every node of a level that may split draws
its features in (tree, then left-to-right) order, and uniform thresholds
are then drawn for those nodes in the same order, so the runs never change
a tree.

Ties in gain resolve to the lowest feature index, then the lowest
threshold, up to the rounding of the histogram sums: two cuts whose gains
are equal in exact arithmetic may differ in the last bits. A gain of at
most 1e-12 times the node's own parent term G^2/(H+l) in magnitude is
rounding noise and counts as exactly 0, so a pure node never splits.

A fitted tree is four node arrays, ``feature``, ``threshold``, ``child``
and ``value``, numbered level by level from the root (node 0). A leaf has
child -1; an inner node sends a row to ``child[i]`` when its value is
< ``threshold[i]`` or missing (NaN), else to ``child[i] + 1``, so missing
values go left. Every node keeps its Newton value; predictions read the
leaves'. Fitting assumes finite inputs; prediction tolerates NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import PipelineError

# Upper bounds on one kernel call's samples and gain table cells (nodes x
# columns x occupied bins), so a call's memory does not grow with the batch.
_KERNEL_ROWS = 1024
_KERNEL_SLOTS = 1 << 14
# Columns that ``build_bins`` sorts at a time.
_BIN_BLOCK = 64


@dataclass
class TreeParams:
    max_depth: int = 5
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    # Node-level feature subsampling (random forests); None means use every
    # candidate feature at every node.
    features_per_node: int | None = None


@dataclass(frozen=True)
class Node:
    """A read-only view of node ``index`` of ``tree``; a leaf's children are None."""

    tree: "DecisionTree"
    index: int

    is_leaf = property(lambda self: bool(self.tree.child[self.index] < 0))
    feature = property(lambda self: int(self.tree.feature[self.index]))
    threshold = property(lambda self: float(self.tree.threshold[self.index]))
    value = property(lambda self: float(self.tree.value[self.index]))
    left = property(lambda self: None if self.is_leaf else Node(self.tree, self._first))
    right = property(lambda self: None if self.is_leaf else Node(self.tree, self._first + 1))
    _first = property(lambda self: int(self.tree.child[self.index]))


class DecisionTree:
    """A fitted binary tree as node arrays, laid out as the module docstring says."""

    # the node arrays, and the numpy kinds each one's JSON list may decode to
    ARRAYS = {"feature": "i", "threshold": "if", "child": "i", "value": "if"}

    def __init__(self, feature, threshold, child, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.child = np.asarray(child, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def root(self) -> Node:
        return Node(self, 0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.intp)
        rows = np.flatnonzero(self.child[node] >= 0)  # the rows still at inner nodes
        while rows.size:
            at = node[rows]
            # NaN compares False, so a missing value goes left
            node[rows] = self.child[at] + (X[rows, self.feature[at]] >= self.threshold[at])
            rows = rows[self.child[node[rows]] >= 0]
        return self.value[node]

    def leaves(self) -> np.ndarray:
        return np.flatnonzero(self.child < 0)

    def scale_leaves(self, factor: float) -> None:
        self.value *= factor

    def shift_leaves(self, delta: float) -> None:
        self.value += delta

    def depth(self) -> int:
        level, depth = np.zeros(1, dtype=np.intp), 0
        while (first := self.child[level][self.child[level] >= 0]).size:
            level, depth = np.concatenate([first, first + 1]), depth + 1
        return depth

    def to_dict(self) -> dict:
        return {key: getattr(self, key).tolist() for key in self.ARRAYS}

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "DecisionTree":
        """Decode one tree, checked as :meth:`from_dicts` checks trees."""
        return cls.from_dicts([doc], n_features)[0]

    @classmethod
    def from_dicts(cls, docs: list[dict], n_features: int) -> list["DecisionTree"]:
        """Decode trees; ValueError unless the arrays of each form one tree
        over ``n_features`` columns with no NaN threshold, so ``predict``
        ends and reads real columns. The trees are checked together, on their arrays laid end
        to end, and a data error refuses the nested nodes of the format
        before node arrays."""
        if not docs:
            return []
        if any("root" in doc for doc in docs):
            raise PipelineError("trees in the nested-node format of older versions; re-run train")
        lists = [[doc[key] for doc in docs] for key in cls.ARRAYS]
        if not all(type(a) is list for per_tree in lists for a in per_tree):
            raise ValueError("tree arrays must be lists")
        sizes = np.array([[len(a) for a in per_tree] for per_tree in lists])
        raw = [np.asarray(list(chain.from_iterable(per_tree))) for per_tree in lists]
        if any(a.dtype.kind not in kinds for a, kinds in zip(raw, cls.ARRAYS.values())):
            raise ValueError("tree indices must be int64 and thresholds and values numbers")
        n = sizes[0]
        if (sizes != n).any() or (n == 0).any() or any(a.ndim != 1 for a in raw):
            raise ValueError(f"tree arrays of sizes {sizes.T.tolist()}, not one size per tree")
        feature, threshold, child, _ = raw
        if np.isnan(threshold).any():  # such a node would send every row left
            raise ValueError("a tree threshold is NaN")
        start = np.repeat(np.cumsum(n) - n, n)  # each node's tree's first node
        index, size = np.arange(n.sum()) - start, np.repeat(n, n)
        if ((child != -1) & (child <= index)).any():
            raise ValueError("a tree node's child must come after it")
        inner = child >= 0
        first = child[inner] + start[inner]
        slots = np.sort(np.concatenate([first, first + 1]))
        others = np.delete(np.arange(n.sum()), np.cumsum(n) - n)  # every node but the roots
        past_end = (child[inner] + 1 >= size[inner]).any()
        if past_end or slots.size != others.size or (slots != others).any():
            raise ValueError("tree children out of range, or a node with two parents or none")
        split_on = feature[inner]
        if split_on.min(initial=0) < 0 or split_on.max(initial=0) >= n_features:
            raise ValueError(f"split feature outside 0..{n_features - 1}")
        cuts = np.cumsum(n)[:-1]
        return [cls(*arrays) for arrays in zip(*(np.split(a, cuts) for a in raw))]


def newton_gain(gl, hl, gr, hr, reg_lambda):
    """Second-order split gain; broadcasts over arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = (gl + gr) ** 2 / (hl + hr + reg_lambda)
        return 0.5 * (gl**2 / (hl + reg_lambda) + gr**2 / (hr + reg_lambda) - parent)


def _new_nodes(grad, hess, sizes, reg_lambda):
    """Newton values -G/(H+l) (0 where H+l is 0) of nodes over consecutive
    runs of samples, with each run's gradient and hessian sums; each run is
    summed on its own, so its sums are the floats a sum over that node's
    rows alone gives."""
    ends = np.cumsum(sizes)
    g = np.array([grad[end - size:end].sum() for size, end in zip(sizes, ends)])
    h = np.array([hess[end - size:end].sum() for size, end in zip(sizes, ends)])
    denom = h + reg_lambda
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom == 0.0, 0.0, -g / denom), g, h


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


def _runs(sizes, order, cells) -> list[np.ndarray]:
    """The nodes, taken in ``order``, cut into runs of at most
    ``_KERNEL_ROWS`` samples whose gain table has at most ``_KERNEL_SLOTS``
    cells (a node over either bound runs alone). ``cells(nodes, largest)``
    is the table of a run of that many nodes whose largest node holds
    ``largest`` samples: a node's (column, bin) table is no wider than the
    bins its samples occupy."""
    runs, start, rows, largest = [], 0, 0, 0
    for i, size in enumerate(sizes[order]):
        largest = max(largest, size)
        if i > start and (
            rows + size > _KERNEL_ROWS or cells(i - start + 1, largest) > _KERNEL_SLOTS
        ):
            runs.append(order[start:i])
            start, rows, largest = i, 0, size
        rows += size
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


def midpoint(lo, hi) -> np.ndarray:
    """(lo + hi) / 2 of float arrays, halving first where the sum overflows,
    which is then exact: the midpoint of two finite values is finite, and bit
    for bit the halved sum wherever that sum is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (lo + hi)
        return np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)


def _quantiles(sorted_values: np.ndarray, probs) -> np.ndarray:
    """Quantiles of a nonempty sorted sample at several probabilities, each
    interpolated linearly at fractional rank h = (n-1)p: the rule of the
    feature summaries (``featex``) and of quantile bin edges."""
    n = sorted_values.size
    h = (n - 1) * np.asarray(probs, dtype=np.float64)
    lo = np.floor(h).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def _thresholds(bins: "HistogramBins", features, ltop, rbot) -> np.ndarray:
    """The recorded thresholds of cuts of ``features`` between occupied bins
    ``ltop`` and ``rbot``: the midpoints between their training value bounds,
    so training rows route identically to the bin splits; with lossless bins
    each is the midpoint between the rows' neighbouring distinct values."""
    lo = np.array([bins.bin_max[f][b] for f, b in zip(features, ltop)])
    return midpoint(lo, np.array([bins.bin_min[f][b] for f, b in zip(features, rbot)]))


def fit_trees(
    X, grads, hesses, rows, params: TreeParams, rng=None, bins=None, candidate_features=None
) -> list[DecisionTree]:
    """Grow a nonempty batch of trees together, one level at a time: tree t
    fits ``grads[t]`` and ``hesses[t]`` on ``rows[t]`` (None for every row;
    repeats allowed). Each node picks its features with ``_node_features``;
    only a forest draws them, from ``rng`` (``params.features_per_node``).

    With ``bins``, X is the binned matrix and a node cuts at a bin edge
    (exact and histogram backends). Without, X is the raw matrix and each
    node draws one uniform threshold inside each picked feature's node range
    (extra trees; Geurts, Ernst & Wehenkel 2006), each drawn cut scored as
    two bins.
    """
    uniform = bins is None
    X = np.asarray(X, dtype=np.float64 if uniform else None)
    n, d = X.shape
    feats = _candidates(d, candidate_features)
    lam, mcw = params.reg_lambda, params.min_child_weight
    width = 2 if uniform else int(bins.n_edges[feats].max(initial=0)) + 1
    tree_rows = [np.arange(n) if r is None else np.asarray(r) for r in rows]
    # the level's samples, node after node, each node's in its row order
    samples = np.concatenate(tree_rows)
    grad = np.concatenate([np.asarray(g, dtype=np.float64)[r] for g, r in zip(grads, tree_rows)])
    hess = np.concatenate([np.asarray(h, dtype=np.float64)[r] for h, r in zip(hesses, tree_rows)])
    sizes = np.array([len(r) for r in tree_rows])
    value, node_g, node_h = _new_nodes(grad, hess, sizes, lam)
    # the batch's node arrays, each level's children appended after it, and
    # the batch number of each node of the level
    tree_of = ids = np.arange(len(rows))
    feature, threshold, child = np.full(len(rows), -1), np.zeros(len(rows)), np.full(len(rows), -1)

    for _ in range(params.max_depth):
        live = sizes >= 2
        if not live.any() or feats.size == 0:
            break
        keep = np.repeat(live, sizes)
        samples, grad, hess = samples[keep], grad[keep], hess[keep]
        ids, sizes, node_g, node_h = ids[live], sizes[live], node_g[live], node_h[live]
        node_of = np.repeat(np.arange(len(ids)), sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        F = np.array([_node_features(feats, params, rng) for _ in ids])
        m = F.shape[1]
        # nodes of like size share a run, so little of its table is padding;
        # ascending, so a run's last node is its largest
        runs = _runs(
            sizes, np.argsort(sizes, kind="stable"),
            lambda nodes, largest: nodes * m * min(width, largest),
        )

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

        col, ltop, rbot = np.zeros((3, len(ids)), dtype=np.intp)
        split = np.zeros(len(ids), dtype=bool)
        for run in runs:
            s = _positions(starts, run)
            local = np.repeat(np.arange(len(run)), sizes[run])
            gains, rank = _level_gains(
                binned(s[:, None], np.arange(m)), local, len(run), width,
                grad[s], hess[s], node_g[run], node_h[run], lam, mcw,
            )
            col[run], r, split[run] = _best_cuts(gains)
            ltop[run], rbot[run] = _rank_bins(rank[np.arange(len(run)) * m + col[run]], r)
            del gains, rank  # so one run's table is alive at a time, not two
        if not split.any():
            break

        # children in (node, left then right) order, each keeping its rows' order
        pos = np.flatnonzero(split[node_of])
        right = binned(pos, col[node_of[pos]]) > ltop[node_of[pos]]
        slot = 2 * (np.cumsum(split) - 1)[node_of[pos]] + right
        order = pos[np.argsort(slot, kind="stable")]
        samples, grad, hess = samples[order], grad[order], hess[order]
        k = np.flatnonzero(split)
        sizes = np.bincount(slot, minlength=2 * k.size)
        new_value, node_g, node_h = _new_nodes(grad, hess, sizes, lam)
        parent = ids[k]
        feature[parent] = F[k, col[k]]
        if uniform:
            threshold[parent] = thresholds[k, col[k]]
        else:
            threshold[parent] = _thresholds(bins, feature[parent], ltop[k], rbot[k])
        ids = len(value) + np.arange(2 * k.size)
        child[parent] = ids[::2]
        tree_of = np.concatenate([tree_of, np.repeat(tree_of[parent], 2)])
        value = np.concatenate([value, new_value])
        feature, child = (np.concatenate([a, np.full(2 * k.size, -1)]) for a in (feature, child))
        threshold = np.concatenate([threshold, np.zeros(2 * k.size)])

    # renumber each tree's nodes from 0; a stable sort keeps them level by level
    order = np.argsort(tree_of, kind="stable")
    counts = np.bincount(tree_of, minlength=len(rows))
    local = np.argsort(order) - (np.cumsum(counts) - counts)[tree_of]
    child = np.where(child < 0, -1, local[child])
    return [
        DecisionTree(feature[t], threshold[t], child[t], value[t])
        for t in np.split(order, np.cumsum(counts)[:-1])
    ]


@dataclass
class HistogramBins:
    """Per-feature bin edges plus per-bin training value bounds.

    Edges are strictly increasing; a feature with e edges has e+1 bins and
    the bin index of a value is the count of edges <= value. When every
    distinct value has its own bin (lossless bins) a bin's bounds are its
    value and the edges are exactly the midpoints between consecutive
    distinct values; they are not stored but derived on demand, so the
    values are held once. ``quantile_edges`` holds the edges of the other,
    quantile-binned, columns. Nothing changes a bins object once
    ``build_bins`` returns it, so ``n_edges`` is counted at its first read
    and kept.
    """

    bin_min: list[np.ndarray]
    bin_max: list[np.ndarray]
    quantile_edges: dict[int, np.ndarray]

    @cached_property
    def n_edges(self) -> np.ndarray:
        """Each feature's edge count: its bins less one (0 for no bins)."""
        sizes = np.fromiter(map(len, self.bin_min), np.int64, len(self.bin_min))
        return np.maximum(sizes - 1, 0)

    @property
    def edges(self) -> list[np.ndarray]:
        return [self._edges(f) for f in range(len(self.bin_min))]

    def _edges(self, f: int) -> np.ndarray:
        if f in self.quantile_edges:
            return self.quantile_edges[f]
        values = self.bin_min[f]
        return midpoint(values[:-1], values[1:])

    def bin_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape, dtype=np.int32)
        for f in range(X.shape[1]):
            out[:, f] = np.searchsorted(self._edges(f), X[:, f], side="right")
        return out


def build_bins(X: np.ndarray, max_edges: int | None = 255) -> tuple[HistogramBins, np.ndarray]:
    """Bins per feature and X binned by them, from one sort of each column.

    A feature whose distinct values fit (at most ``max_edges + 1``, or any
    number for ``max_edges=None``, which is how the exact backend bins) is
    binned losslessly: one bin per distinct value, a cell's bin its dense
    rank. Any other feature gets quantile bins. A NaN cell holds no value:
    it counts in no bin and its bin id is -1. A column's bins depend on that
    column alone, so the columns are sorted ``_BIN_BLOCK`` at a time and the
    sort's temporaries stay the size of one block.
    """
    X = np.asarray(X, dtype=np.float64)
    binned = np.empty(X.shape, dtype=np.int32)
    mins_list, maxs_list, quantile_edges = [], [], {}
    for lo in range(0, X.shape[1], _BIN_BLOCK):
        cols = slice(lo, lo + _BIN_BLOCK)
        mins, maxs, edges = _bin_block(X[:, cols], binned[:, cols], max_edges)
        mins_list += mins
        maxs_list += maxs
        quantile_edges.update((lo + f, e) for f, e in edges.items())
    return HistogramBins(mins_list, maxs_list, quantile_edges), binned


def _bin_block(X, binned, max_edges):
    """``build_bins`` of the columns of X, writing their bins to ``binned``:
    the columns' bin minima and maxima, and the edges of those it binned by
    quantiles, keyed by column within X."""
    order = np.argsort(X, axis=0, kind="stable")  # NaN sorts last
    s = np.take_along_axis(X, order, axis=0)
    first = np.zeros(s.shape, dtype=bool)  # the first cell of each distinct value
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    first &= ~np.isnan(s)
    np.put_along_axis(binned, order, np.cumsum(first, axis=0, dtype=np.int32) - 1, axis=0)
    binned[np.isnan(X)] = -1
    counts = first.sum(axis=0)
    distinct = np.split(s.T[first.T], np.cumsum(counts)[:-1])
    mins_list, maxs_list, quantile_edges = list(distinct), list(distinct), {}
    if max_edges is not None:
        probs = np.arange(1, max_edges + 1) / (max_edges + 1)
        for f in np.flatnonzero(counts - 1 > max_edges):
            valid = ~np.isnan(X[:, f])
            values, ranked = X[valid, f], s[: valid.sum(), f]
            # sorted, first of each run: np.unique's result, without its
            # import of numpy.ma
            edges = np.sort(_quantiles(ranked, probs))
            edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
            edges = edges[(edges > ranked[0]) & (edges <= ranked[-1])]
            idx = np.searchsorted(edges, values, side="right")
            mins = np.full(edges.size + 1, np.inf)
            maxs = np.full(edges.size + 1, -np.inf)
            np.minimum.at(mins, idx, values)
            np.maximum.at(maxs, idx, values)
            binned[valid, f] = idx
            quantile_edges[int(f)], mins_list[f], maxs_list[f] = edges, mins, maxs
    return mins_list, maxs_list, quantile_edges


def fit_tree_hist(
    X_binned,
    grad,
    hess,
    bins: HistogramBins,
    params: TreeParams,
    rows=None,
    candidate_features=None,
) -> DecisionTree:
    """Depth-wise tree with candidate thresholds restricted to bin edges."""
    return fit_trees(X_binned, [grad], [hess], [rows], params, None, bins, candidate_features)[0]


def fit_tree_oblivious(
    X_binned,
    grad,
    hess,
    bins: HistogramBins,
    params: TreeParams,
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
    values = []  # each level's node values
    leaf_of = np.zeros(len(rows), dtype=np.int64)

    while True:
        order = np.argsort(leaf_of, kind="stable")
        sizes = np.bincount(leaf_of, minlength=2 ** len(levels))
        g, h = g_all[order], h_all[order]
        value, node_g, node_h = _new_nodes(g, h, sizes, params.reg_lambda)
        values.append(value)
        if len(levels) == params.max_depth or len(rows) < 2 or m == 0:
            break
        starts = np.concatenate([[0], np.cumsum(sizes)])
        totals = np.zeros((m, k))
        # a leaf's table is the tree's k bins wide, whatever its size
        for run in _runs(sizes, np.arange(len(sizes)), lambda nodes, _: nodes * m * k):
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
        levels.append((feature, float(_thresholds(bins, [feature], [ltop], [rbot])[0])))
        leaf_of = 2 * leaf_of + (xb[:, col] > ltop)

    # a complete tree, numbered level by level: node i's children are 2i + 1 and 2i + 2
    inner = [cut for level, cut in enumerate(levels) for _ in range(2**level)]
    leaves = [-1] * len(values[-1])
    return DecisionTree(
        [feature for feature, _ in inner] + leaves,
        [threshold for _, threshold in inner] + [0.0] * len(leaves),
        [2 * i + 1 for i in range(len(inner))] + leaves,
        np.concatenate(values),
    )
