"""The ensemble learners: logistic and pairwise-rank GBDT, random forest,
extra trees, and the linear SVM wrapper, all sharing the Newton tree
backends from :mod:`shearwater.trees`.

Brand differences reduce to (loss, split-candidate generation, tree shape,
bagging). ``LearnerKind.backend`` names each learner's split search: the
xgb variants, sk_gbt and sk_rf use exact splits, the lgb variants
histogram splits, cat oblivious trees and sk_et uniform random thresholds.
``_backend_fitter`` is the one place that maps a backend to a tree fitter:
exact, hist and oblivious all fit on bins built once per model (lossless
for exact and oblivious, at most ``max_bin_edges`` edges per feature for
hist); uniform draws its thresholds from the raw matrix and scores them
with the same gain table.
Both boosting learners run one loop, ``_boost``, over a loss's
(gradient/hessian, loss) pair; the forests average class-mean leaves
instead of boosting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import partial

import numpy as np

from .errors import DegenerateLabels, SchemaMismatch, SingleClass
from .linsvm import SvmModel, fit_pegasos
from .trees import (
    DecisionTree,
    TreeParams,
    build_bins,
    fit_tree_hist,
    fit_tree_oblivious,
    fit_tree_uniform,
)

PROB_CLAMP = 1e-6


class LearnerKind(str, Enum):
    XGB_BINARY = "xgb_binary"
    XGB_RANK = "xgb_rank"
    LGB_GBDT = "lgb_gbdt"
    LGB_RF = "lgb_rf"
    CAT = "cat"
    SK_GBT = "sk_gbt"
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

    @classmethod
    def from_dict(cls, doc: dict) -> "GbdtParams":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise KeyError(f"unknown hyperparameters: {unknown}")
        return cls(**doc)

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
    loss_history: list[float] | None = None

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
        as wide as the feature schema."""
        if ("trees" in doc) == ("svm" in doc):
            raise ValueError("a model holds either trees or an svm")
        model = cls(
            kind=LearnerKind(doc["kind"]),
            params=GbdtParams.from_dict(doc["params"]),
            feature_names=list(doc["feature_names"]),
            f0=float(doc["f0"]),
            threshold=None if doc["threshold"] is None else float(doc["threshold"]),
            trees=[DecisionTree.from_dict(t) for t in doc["trees"]] if "trees" in doc else None,
            svm=SvmModel.from_dict(doc["svm"]) if "svm" in doc else None,
        )
        width = len(model.feature_names)
        for i, tree in enumerate(model.trees or ()):
            if tree.n_features != width:
                raise ValueError(f"tree {i} has {tree.n_features} features, schema has {width}")
        if model.svm is not None:
            for name in ("weights", "mean", "std"):
                shape = getattr(model.svm, name).shape
                if shape != (width,):
                    raise ValueError(f"svm {name} has shape {shape}, schema has {width} features")
        return model


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


def _backend_fitter(backend: str, X, tree_params: TreeParams, max_bin_edges: int):
    """The one map from a backend name to a tree fitter; returns
    fit(grad, hess, rng=, rows=, candidate_features=).

    The fitters are read from this module's globals each time this runs,
    so a wrapper installed on this module's attributes sees every fit.
    """
    if backend == "uniform":
        return partial(fit_tree_uniform, X, params=tree_params)
    fitters = {"exact": fit_tree_hist, "hist": fit_tree_hist, "oblivious": fit_tree_oblivious}
    if backend not in fitters:
        raise ValueError(f"unknown backend {backend!r}")
    bins = build_bins(X, max_bin_edges if backend == "hist" else None)
    return partial(fitters[backend], bins.bin_matrix(X), bins=bins, params=tree_params)


def _boost(X, y, params: GbdtParams, backend, rng, feature_names, kind, f0, grad_hess, loss):
    """Stagewise Newton boosting from the constant margin f0.

    Each round asks ``grad_hess(margins)`` for per-instance gradients and
    hessians, fits a tree on an optionally row/column-subsampled view, adds
    learning_rate * tree to the margins and records ``loss(margins, y)``.
    """
    fitter = _backend_fitter(backend, X, params.tree_params(), params.max_bin_edges)
    n, d = X.shape
    margins = np.full(n, f0)
    trees: list[DecisionTree] = []
    history: list[float] = []
    for _ in range(params.n_rounds):
        grad, hess = grad_hess(margins)
        rows = _subsample(n, params.subsample, rng)
        feats = _subsample(d, params.colsample, rng)
        tree = fitter(grad, hess, rng=rng, rows=rows, candidate_features=feats)
        tree.scale_leaves(params.learning_rate)
        margins += tree.predict(X)
        trees.append(tree)
        history.append(loss(margins, y))
    return TrainedModel(
        kind=kind,
        params=params,
        feature_names=feature_names or [f"f{i}" for i in range(d)],
        f0=f0,
        trees=trees,
        loss_history=history,
    )


def fit_gbdt_logistic(
    X,
    y,
    params: GbdtParams,
    backend: str = "exact",
    rng: np.random.Generator | None = None,
    feature_names: list[str] | None = None,
    kind: LearnerKind = LearnerKind.XGB_BINARY,
) -> TrainedModel:
    """Logistic-loss boosting with Newton trees.

    F0 is the clamped log-odds of the training prevalence; each round fits
    a tree to (p - y, p(1 - p)).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise DegenerateLabels("cannot fit on an empty label vector")
    if rng is None:
        rng = np.random.default_rng(0)
    p_bar = float(np.clip(y.mean(), PROB_CLAMP, 1.0 - PROB_CLAMP))
    f0 = float(np.log(p_bar / (1.0 - p_bar)))

    return _boost(
        X, y, params, backend, rng, feature_names, kind, f0,
        partial(logistic_grad_hess, y=y), logistic_loss,
    )


def fit_gbdt_pairwise(
    X,
    y,
    params: GbdtParams,
    backend: str = "exact",
    rng: np.random.Generator | None = None,
    feature_names: list[str] | None = None,
) -> TrainedModel:
    """RankNet-style pairwise boosting; scores are raw margins from F0 = 0.

    Per-instance gradients aggregate over that instance's sampled pairs;
    pairs are drawn uniformly without replacement up to
    pair_cap_factor * n per round (all pairs when they fit).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if pos.size == 0 or neg.size == 0:
        raise SingleClass("pairwise loss needs both classes")
    if rng is None:
        rng = np.random.default_rng(0)
    cap = params.pair_cap_factor * len(y)
    total_pairs = pos.size * neg.size

    def grad_hess(margins):
        pairs = None
        if total_pairs > cap:
            pair_ids = rng.choice(total_pairs, size=cap, replace=False)
            pairs = (pos[pair_ids // neg.size], neg[pair_ids % neg.size])
        return pairwise_grad_hess(margins, y, pairs)

    return _boost(
        X, y, params, backend, rng, feature_names, LearnerKind.XGB_RANK, 0.0, grad_hess,
        pairwise_loss,
    )


def fit_forest(
    X,
    y,
    params: GbdtParams,
    kind: LearnerKind = LearnerKind.SK_RF,
    rng: np.random.Generator | None = None,
    feature_names: list[str] | None = None,
) -> TrainedModel:
    """Random forest / extra trees with class-mean leaves.

    Trees fit residual gradients g = p_bar - y with unit hessians and no
    regularization, then leaves are shifted by p_bar so each stores the
    class mean of its instances; the score is the mean tree output.

    * sk_rf:  bootstrap rows, sqrt(d) features per node, exact splits
    * lgb_rf: same bagging policy on the histogram backend
    * sk_et:  no bootstrap, sqrt(d) random uniform-threshold candidates
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise DegenerateLabels("cannot fit on an empty label vector")
    if rng is None:
        rng = np.random.default_rng(0)
    n, d = X.shape
    per_node = max(1, int(np.ceil(np.sqrt(d))))
    tree_params = TreeParams(
        max_depth=params.max_depth,
        min_child_weight=params.min_child_weight,
        reg_lambda=0.0,
        features_per_node=per_node,
    )
    fitter = _backend_fitter(kind.backend, X, tree_params, params.max_bin_edges)
    bootstrap = kind is not LearnerKind.SK_ET
    trees: list[DecisionTree] = []
    for _ in range(params.n_trees):
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        p_bar = float(y[rows].mean())
        tree = fitter(p_bar - y, np.ones(n), rng=rng, rows=rows)
        tree.shift_leaves(p_bar)
        for leaf in tree.leaves():
            # leaves are class means; clamp away shift rounding like -1e-17
            leaf.value = float(np.clip(leaf.value, 0.0, 1.0))
        trees.append(tree)
    return TrainedModel(
        kind=kind,
        params=params,
        feature_names=feature_names or [f"f{i}" for i in range(d)],
        f0=0.0,
        trees=trees,
    )


def fit_learner(
    kind: LearnerKind,
    X,
    y,
    params: GbdtParams,
    rng: np.random.Generator,
    feature_names: list[str] | None = None,
) -> TrainedModel:
    """Dispatch one of the nine learner settings by family and backend."""
    family = kind.family
    if family == "svm":
        svm = fit_pegasos(X, y, params.svm_reg, params.svm_epochs, rng)
        return TrainedModel(
            kind=kind,
            params=params,
            feature_names=feature_names or [f"f{i}" for i in range(np.asarray(X).shape[1])],
            svm=svm,
        )
    if family == "forest":
        return fit_forest(X, y, params, kind, rng, feature_names)
    if family == "pairwise":
        return fit_gbdt_pairwise(X, y, params, kind.backend, rng, feature_names)
    return fit_gbdt_logistic(X, y, params, kind.backend, rng, feature_names, kind=kind)


def predict_scores(model: TrainedModel, X, columns: list[str] | None = None) -> np.ndarray:
    """Deterministic scores: probabilities for logistic and forest
    learners, raw margins for rank and svc.
    """
    if columns is None and hasattr(X, "columns") and hasattr(X, "values"):
        columns = list(X.columns)
        X = X.values
    if columns is not None and list(columns) != list(model.feature_names):
        raise SchemaMismatch(f"{model.kind.value}: feature columns do not match the model schema")
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != len(model.feature_names):
        raise SchemaMismatch(
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
