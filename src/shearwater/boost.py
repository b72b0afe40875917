"""The eight ensemble learners: logistic and pairwise-rank GBDT, random
forest, extra trees, and the linear SVM wrapper, the tree learners sharing
the Newton tree backends from :mod:`shearwater.trees`.

Brand differences reduce to (loss, split-candidate generation, tree shape,
bagging). :func:`fit_learner` is the one way to fit a learner: it picks the
fit matrix once, then branches on ``LearnerKind.family`` (logistic,
pairwise, forest or svm). ``LearnerKind.backend`` names each learner's
split search: the xgb variants and sk_rf use exact splits, the lgb variants
histogram splits, cat oblivious trees and sk_et uniform random thresholds.
``_fit_matrix`` is the one place that picks a backend's matrix and bins:
exact, hist and oblivious fit on one binned matrix per model, either
lossless bins a caller shares between fits (``evalcv.prepare`` bins each
training matrix once for every fold, setting and seed; hist takes them only
when its own bins would be lossless too, which always holds at <= 256 rows)
or bins made from the model's rows; uniform draws its thresholds from the
raw matrix and scores them with the same split kernel.
Both boosting families run one loop, ``_boost``, over a loss's
gradient/hessian and fit one tree a round on a binned backend
(no learner boosts on uniform); the forests grow all their trees together
through ``trees.fit_trees`` and average class-mean leaves instead of
boosting.

A model file holds each tree's node arrays; ``TrainedModel.from_dict``
checks every tree against the schema's width (ValueError otherwise).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import cache, partial

import numpy as np

from .errors import PipelineError
from .linsvm import SvmModel, fit_pegasos
from .trees import (
    DecisionTree,
    HistogramBins,
    TreeParams,
    build_bins,
    fit_tree_hist,
    fit_tree_oblivious,
    fit_trees,
)

PROB_CLAMP = 1e-6


class LearnerKind(str, Enum):
    XGB_BINARY = "xgb_binary"
    XGB_RANK = "xgb_rank"
    LGB_GBDT = "lgb_gbdt"
    LGB_RF = "lgb_rf"
    CAT = "cat"
    SK_RF = "sk_rf"
    SK_ET = "sk_et"
    SVC = "svc"

    @property
    def backend(self) -> str:
        if self in (LearnerKind.LGB_GBDT, LearnerKind.LGB_RF):
            return "hist"
        if self is LearnerKind.CAT:
            return "oblivious"
        if self is LearnerKind.SK_ET:
            return "uniform"
        return "exact"

    @property
    def reads_bins(self) -> bool:
        """Whether a fit reads the lossless bins a caller shares (see
        :func:`_fit_matrix`): svc and uniform's sk_et never do."""
        return self is not LearnerKind.SVC and self.backend != "uniform"

    @property
    def family(self) -> str:
        if self is LearnerKind.XGB_RANK:
            return "pairwise"
        if self in (LearnerKind.LGB_RF, LearnerKind.SK_RF, LearnerKind.SK_ET):
            return "forest"
        if self is LearnerKind.SVC:
            return "svm"
        return "logistic"


@dataclass
class GbdtParams:
    """Hyperparameters shared by every learner (unused fields are ignored
    by learners they do not apply to). Defaults are sensible tuned-range
    values; runs override them through the config.
    """

    n_rounds: int = 300
    learning_rate: float = 0.05
    max_depth: int = 5
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    subsample: float = 0.8
    colsample: float = 0.8
    n_trees: int = 500  # forests
    pair_cap_factor: int = 100  # rank loss: pairs per round capped at factor * n
    max_bin_edges: int = 255  # histogram backend
    svm_reg: float = 1e-2
    svm_epochs: int = 30

    def validate(self) -> None:
        """ValueError naming the first field outside its domain (NaN is in none)."""
        for name, domain, ok in (
            ("n_rounds", ">= 1", self.n_rounds >= 1),
            ("learning_rate", "> 0", self.learning_rate > 0),
            ("max_depth", ">= 1", self.max_depth >= 1),
            ("reg_lambda", ">= 0", self.reg_lambda >= 0),
            ("min_child_weight", ">= 0", self.min_child_weight >= 0),
            ("subsample", "in (0, 1]", 0 < self.subsample <= 1),
            ("colsample", "in (0, 1]", 0 < self.colsample <= 1),
            ("n_trees", ">= 1", self.n_trees >= 1),
            ("pair_cap_factor", ">= 1", self.pair_cap_factor >= 1),
            ("max_bin_edges", ">= 1", self.max_bin_edges >= 1),
            ("svm_reg", "> 0", self.svm_reg > 0),
            ("svm_epochs", ">= 1", self.svm_epochs >= 1),
        ):
            if not ok:
                raise ValueError(f"{name} must be {domain}, got {getattr(self, name)!r}")

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
        )


@dataclass
class TrainedModel:
    """A fitted learner plus its feature schema and decision threshold."""

    kind: LearnerKind
    params: GbdtParams
    feature_names: list[str]
    f0: float = 0.0
    trees: list[DecisionTree] | None = None
    svm: SvmModel | None = None
    threshold: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind.value,
            "params": asdict(self.params),
            "feature_names": list(self.feature_names),
            "f0": self.f0,
            "threshold": self.threshold,
        }
        if self.svm is not None:
            doc["svm"] = self.svm.to_dict()
        else:
            doc["trees"] = [t.to_dict() for t in self.trees]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainedModel":
        """Decode a model; ValueError unless it holds either trees or an svm,
        as wide as the feature schema, a float f0 and a finite float
        threshold or none (json reads ``true`` as a bool, not a number)."""
        if ("trees" in doc) == ("svm" in doc):
            raise ValueError("a model holds either trees or an svm")
        if not isinstance(doc["f0"], float):
            raise ValueError(f"f0 {doc['f0']!r} is not a float")
        if doc["threshold"] is not None and not isinstance(doc["threshold"], float):
            raise ValueError(f"threshold {doc['threshold']!r} is not a float")
        if doc["threshold"] is not None and not np.isfinite(doc["threshold"]):
            raise ValueError(f"threshold {doc['threshold']} is not finite")
        width = len(doc["feature_names"])
        trees = DecisionTree.from_dicts(doc["trees"], width) if "trees" in doc else None
        return cls(
            kind=LearnerKind(doc["kind"]),
            params=GbdtParams(**doc["params"]),
            feature_names=list(doc["feature_names"]),
            f0=doc["f0"],
            threshold=doc["threshold"],
            trees=trees,
            svm=SvmModel.from_dict(doc["svm"], width) if "svm" in doc else None,
        )


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_loss(margins, y) -> float:
    """Mean negative binomial log-likelihood at raw margins F."""
    margins = np.asarray(margins, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, margins) - y * margins))


def pairwise_loss(scores, y) -> float:
    """Sum over positive/negative pairs of log(1 + exp(-(s_i - s_j)))."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    diff = scores[y == 1][:, None] - scores[y == 0][None, :]
    return float(np.logaddexp(0.0, -diff).sum())


def logistic_grad_hess(margins, y) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance gradient p - y and hessian p(1 - p) of the logistic
    loss at raw margins F, where p = sigmoid(F).
    """
    p = sigmoid(margins)
    return p - y, p * (1.0 - p)


def pairwise_grad_hess(scores, y, pairs=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-instance gradient and hessian of the rank loss summed over pairs.

    ``pairs`` is a (positive rows, negative rows) pair of aligned index
    arrays; None means every positive/negative pair, positive-major.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if pairs is None:
        y = np.asarray(y)
        pos = np.flatnonzero(y == 1)
        neg = np.flatnonzero(y == 0)
        pairs = (np.repeat(pos, neg.size), np.tile(neg, pos.size))
    i_idx, j_idx = pairs
    s = sigmoid(scores[j_idx] - scores[i_idx])  # d loss / d (s_j - s_i)
    w = s * (1.0 - s)
    grad = np.zeros(scores.size)
    hess = np.zeros(scores.size)
    np.add.at(grad, i_idx, -s)
    np.add.at(grad, j_idx, s)
    np.add.at(hess, i_idx, w)
    np.add.at(hess, j_idx, w)
    return grad, hess


def _subsample(n: int, fraction: float, rng) -> np.ndarray | None:
    """Sorted draw without replacement of round(fraction * n) indices
    (at least one); None when the fraction keeps everything.
    """
    if fraction >= 1.0:
        return None
    size = max(1, int(round(fraction * n)))
    picked = rng.choice(n, size=size, replace=False)
    picked.sort()
    return picked


def _float_rows(X):
    """A function that makes X's float64 rows, at most once; X is the rows
    or a function that makes them."""
    return cache(lambda: np.asarray(X() if callable(X) else X, dtype=np.float64))


def _fit_matrix(backend: str, X, max_bin_edges: int, binned=None):
    """The matrix a backend's trees fit on and its bins.

    ``binned`` is X binned losslessly and those bins: one bin per value of
    a superset of each column's values, as ``evalcv.prepare`` shares them
    between fits. exact and oblivious fit on them; so does hist when its
    own quantile bins would be lossless too (no column of X has more than
    ``max_bin_edges + 1`` distinct values), for bins over more values give
    the same trees. Otherwise X is binned here, once per model: losslessly
    for exact and oblivious, by at most ``max_bin_edges`` quantile edges per
    feature for hist. uniform fits on raw X and no bins.

    X is the float rows or a function that makes them, and this is the one
    place that decides whether a tree fit reads them: only uniform and a
    fit that bins X here make them.
    """
    X = _float_rows(X)
    if backend == "uniform":
        return X(), None
    if binned is not None and (backend != "hist" or _lossless(*binned, max_bin_edges)):
        return binned
    bins, data = build_bins(X(), max_bin_edges if backend == "hist" else None)
    return data, bins


def _lossless(binned, bins, max_edges: int) -> bool:
    """Whether no column of ``binned`` occupies more than max_edges + 1 bins."""
    if len(binned) <= max_edges + 1 or bins.n_edges.max(initial=0) <= max_edges:
        return True
    occupied = np.zeros((binned.shape[1], int(bins.n_edges.max()) + 1), dtype=bool)
    occupied[np.arange(binned.shape[1]), binned] = True
    return bool(occupied.sum(axis=1).max() <= max_edges + 1)


def _boost(kind, X, data, bins, params: GbdtParams, rng, f0, grad_hess) -> list[DecisionTree]:
    """Stagewise Newton boosting from the constant margin f0; returns the
    trees.

    Each round asks ``grad_hess(margins)`` for per-instance gradients and
    hessians, fits one tree on ``data`` (X binned by ``kind.backend``) on an
    optionally row/column-subsampled view and adds learning_rate * tree to
    the margins. No loss curve is kept: summing the trees' predictions from
    f0 rebuilds each round's margins bit for bit, and so its training loss.
    The tree fitter is read from this module's globals each time this runs,
    so a wrapper installed on this module's attributes sees every fit.
    """
    fitter = fit_tree_oblivious if kind.backend == "oblivious" else fit_tree_hist
    tree_params = params.tree_params()
    n, d = X.shape
    margins = np.full(n, f0)
    trees: list[DecisionTree] = []
    for _ in range(params.n_rounds):
        grad, hess = grad_hess(margins)
        rows = _subsample(n, params.subsample, rng)
        feats = _subsample(d, params.colsample, rng)
        tree = fitter(
            data, grad, hess, bins=bins, params=tree_params, rng=rng, rows=rows,
            candidate_features=feats,
        )
        tree.scale_leaves(params.learning_rate)
        margins += tree.predict(X)
        trees.append(tree)
    return trees


def _forest(kind, data, bins, y, params: GbdtParams, rng) -> list[DecisionTree]:
    """Random forest / extra trees with class-mean leaves.

    Trees fit residual gradients g = p_bar - y with unit hessians and no
    regularization, then leaves are shifted by p_bar so each stores the
    class mean of its instances; the score is the mean tree output.

    * sk_rf:  bootstrap rows, sqrt(d) features per node, exact splits
    * lgb_rf: same bagging policy on the histogram backend
    * sk_et:  no bootstrap, sqrt(d) random uniform-threshold candidates

    Every tree's bootstrap rows are drawn first; then ``trees.fit_trees``
    grows all the trees together, level by level, each level's nodes
    drawing their features (and sk_et's thresholds) in (tree, then
    left-to-right) order.
    """
    n, d = data.shape
    tree_params = replace(
        params.tree_params(), reg_lambda=0.0, features_per_node=max(1, int(np.ceil(np.sqrt(d))))
    )
    if kind is LearnerKind.SK_ET:
        rows = [np.arange(n)] * params.n_trees
    else:
        rows = [rng.integers(0, n, size=n) for _ in range(params.n_trees)]
    p_bars = [float(y[r].mean()) for r in rows]
    trees = fit_trees(
        data, [p_bar - y for p_bar in p_bars], [np.ones(n)] * params.n_trees, rows,
        tree_params, rng, bins,
    )
    for tree, p_bar in zip(trees, p_bars):
        tree.shift_leaves(p_bar)
        # leaves are class means; clamp away shift rounding like -1e-17
        np.clip(tree.value, 0.0, 1.0, out=tree.value)
    return trees


def fit_learner(
    kind: LearnerKind,
    X,
    y,
    params: GbdtParams,
    rng: np.random.Generator,
    feature_names: list[str] | None = None,
    binned: tuple[np.ndarray, HistogramBins] | None = None,
) -> TrainedModel:
    """Fit one of the eight learners: ``kind.family`` picks the loss (or the
    forest or the SVM) and ``kind.backend`` the split search.

    * logistic: F0 is the clamped log-odds of the training prevalence, and
      each round fits a tree to (p - y, p(1 - p)).
    * pairwise: RankNet-style boosting; scores are raw margins from F0 = 0,
      and per-instance gradients aggregate over that instance's pairs, at
      most pair_cap_factor * n of them per round.
    * forest: see :func:`_forest`; svm: :func:`linsvm.fit_pegasos`.

    ``binned`` optionally gives X binned losslessly and its bins, which
    may hold more values than X (see :func:`_fit_matrix`); a fit on them
    equals the fit that bins X itself.

    X is the float rows or a function that makes them (``evalcv`` passes
    one). They are made at most once, and only where a fit reads floats:
    svc and sk_et fit on them, a booster adds each tree's predictions on
    them to its margins, and a tree learner bins them itself without
    ``binned``, or for hist when ``binned`` holds a column of more than
    ``max_bin_edges + 1`` occupied bins. So given ``binned``, sk_rf, and
    lgb_rf on lossless bins, fit on it alone and never make them.
    """
    X = _float_rows(X)
    y = np.asarray(y, dtype=np.float64)
    model = TrainedModel(kind, params, feature_names or [f"f{i}" for i in range(X().shape[1])])
    family = kind.family
    if family == "svm":
        model.svm = fit_pegasos(X(), y, params.svm_reg, params.svm_epochs, rng)
        return model
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    if family == "pairwise" and (pos.size == 0 or neg.size == 0):
        raise PipelineError("pairwise loss needs both classes")
    if y.size == 0:
        raise PipelineError("cannot fit on an empty label vector")
    data, bins = _fit_matrix(kind.backend, X, params.max_bin_edges, binned)
    if family == "forest":
        model.trees = _forest(kind, data, bins, y, params, rng)
        return model
    if family == "pairwise":
        cap = params.pair_cap_factor * len(y)

        def grad_hess(margins):
            pairs = None
            if pos.size * neg.size > cap:  # draw cap pairs without replacement
                pair_ids = rng.choice(pos.size * neg.size, size=cap, replace=False)
                pairs = (pos[pair_ids // neg.size], neg[pair_ids % neg.size])
            return pairwise_grad_hess(margins, y, pairs)
    else:
        p_bar = float(np.clip(y.mean(), PROB_CLAMP, 1.0 - PROB_CLAMP))
        model.f0 = float(np.log(p_bar / (1.0 - p_bar)))
        grad_hess = partial(logistic_grad_hess, y=y)
    model.trees = _boost(kind, X(), data, bins, params, rng, model.f0, grad_hess)
    return model


def predict_scores(model: TrainedModel, X, columns: list[str] | None = None) -> np.ndarray:
    """Deterministic scores: probabilities for logistic and forest
    learners, raw margins for rank and svc.
    """
    if columns is not None and list(columns) != list(model.feature_names):
        raise PipelineError(f"{model.kind.value}: feature columns do not match the model schema")
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(model.feature_names):
        raise PipelineError(
            f"{model.kind.value}: expected {len(model.feature_names)} features, got {X.shape[1]}"
        )
    if model.svm is not None:
        return model.svm.score(X)
    raw = np.full(X.shape[0], model.f0)
    for tree in model.trees:
        raw += tree.predict(X)
    family = model.kind.family
    if family == "logistic":
        return sigmoid(raw)
    if family == "forest":
        return raw / max(1, len(model.trees))
    return raw  # pairwise margins
