"""Shared fold construction, metrics, threshold tuning, the cross-validation
driver, and majority voting.

One stratified FoldAssignment is built once per run and shared by every
model setting and both dataset modes; hard labels come from a single
decision threshold tuned on pooled out-of-fold scores.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .boost import GbdtParams, LearnerKind, TrainedModel, fit_learner, predict_scores
from .datasets import DatasetMode, FeatureMatrix, column_medians
from .errors import PipelineError, csv_document, read_bird_table
from .trees import HistogramBins, build_bins


def stable_seed(text: str) -> int:
    """Platform-stable integer from a string, for seeding rng streams."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class ModelSetting:
    """One trainable setting: a learner on one dataset variant."""

    kind: LearnerKind
    mode: DatasetMode
    params: GbdtParams = field(default_factory=GbdtParams)

    @property
    def name(self) -> str:
        return f"{self.mode.value}_{self.kind.value}"


def setting_rng(setting_name: str, seed: int, stage: int) -> np.random.Generator:
    """Private random stream per (setting, replicate seed, fold/stage).

    Deriving the stream from the setting name keeps settings that share an
    algorithm (e.g. sk_rf and lgb_rf where every column's distinct values
    fit the histogram bins) from training bit-identical ensemble members.
    """
    return np.random.default_rng([seed, stable_seed(setting_name), stage])


@dataclass
class FoldAssignment:
    """Deterministic stratified bird -> fold map."""

    assignment: dict[str, int]
    k: int

    def fold_vector(self, bird_ids: list[str]) -> np.ndarray:
        return np.array([self.assignment[b] for b in bird_ids], dtype=np.int64)


def make_folds(labels: dict[str, int], k: int = 5, seed: int = 0) -> FoldAssignment:
    """Stratified k-fold assignment.

    Within each class the sorted bird ids are shuffled by a seeded
    generator and dealt round-robin, so per-class fold counts differ by at
    most one and the result is a pure function of (labels, k, seed).
    """
    rng = np.random.default_rng(seed)
    assignment: dict[str, int] = {}
    for cls in (0, 1):
        ids = sorted(b for b, lab in labels.items() if lab == cls)
        if len(ids) < k:
            raise PipelineError(f"class {cls} has {len(ids)} birds, need >= {k}")
        perm = rng.permutation(len(ids))
        for pos, idx in enumerate(perm):
            assignment[ids[idx]] = pos % k
    return FoldAssignment(assignment=assignment, k=k)


def _confusion(pred, truth) -> tuple[int, int, int, int]:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise PipelineError(f"pred {pred.shape} vs truth {truth.shape}")
    if pred.size == 0:
        raise PipelineError("empty prediction vector")
    tp = int(((pred == 1) & (truth == 1)).sum())
    fp = int(((pred == 1) & (truth == 0)).sum())
    fn = int(((pred == 0) & (truth == 1)).sum())
    tn = int(((pred == 0) & (truth == 0)).sum())
    return tp, fp, fn, tn


def f1_score(pred, truth) -> float:
    """F1 with positive class 1; zero when TP = 0 but errors exist, and 1.0
    in the vacuous all-true-negative case.
    """
    tp, fp, fn, _ = _confusion(pred, truth)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def accuracy(pred, truth) -> float:
    tp, fp, fn, tn = _confusion(pred, truth)
    return (tp + tn) / (tp + fp + fn + tn)


def tune_threshold(scores, truth) -> float:
    """Threshold maximizing F1 of (score > tau) over the distinct-score
    midpoints plus below-min / above-max sentinels; ties take the smallest.
    The below-min sentinel is the minimum less 1, or the next float down
    where that rounds back to it (the minimum itself at the lowest float).

    One sort of the scores: a candidate's predicted positives are the
    scores above it, so TP and FP are counts past its place in the sort.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise PipelineError(f"scores {scores.shape} vs truth {truth.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    # one pass, not np.unique: that sorts, and imports numpy.ma (about 1.3 MB)
    if truth.size == 0 or truth.min() == truth.max():
        raise PipelineError("threshold tuning needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    distinct = ranked[np.concatenate([[True], ranked[1:] != ranked[:-1]])]
    lo, hi = distinct[:-1], distinct[1:]
    with np.errstate(over="ignore"):
        mid = 0.5 * (lo + hi)
    # where lo + hi overflows, halving first is exact
    mid = np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi)
    lowest = distinct[0] - 1.0
    if lowest == distinct[0] and lowest != -np.finfo(np.float64).max:
        lowest = np.nextafter(lowest, -np.inf)
    candidates = np.concatenate([[lowest], mid, [distinct[-1] + 1.0]])
    below = np.searchsorted(ranked, candidates, side="right")  # scores <= each candidate

    def above(cls):  # how many of class ``cls`` score above each candidate
        total = np.concatenate([[0], np.cumsum(truth[order] == cls)])
        return total[-1] - total[below]

    tp, fp = above(1), above(0)
    fn = int((truth == 1).sum()) - tp
    denom = 2 * tp + fp + fn
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = np.where(denom == 0, 1.0, 2.0 * tp / denom)  # as f1_score
    return float(candidates[np.argmax(f1)])


def hard_labels(scores, tau: float) -> np.ndarray:
    return (np.asarray(scores) > tau).astype(np.int64)


def require_finite_scores(scores, bird_ids: list[str], where: str) -> None:
    """A data error naming ``where`` and the first birds scored NaN or
    infinite; hard_labels would quietly label each of them 0."""
    bad = [bird_ids[i] for i in np.flatnonzero(~np.isfinite(scores))]
    if bad:
        raise PipelineError(f"{where}: non-finite score for {len(bad)} birds: {bad[:5]}")


@dataclass
class CvResult:
    fold_f1: list[float]
    mean_f1: float
    oof_scores: np.ndarray
    threshold: float
    oof_labels: np.ndarray
    bird_ids: list[str]


@dataclass
class PreparedMatrix:
    """A training matrix made ready once, under one fold assignment, for
    every fit on it.

    Training set j < k is the rows outside fold j, and set k is every row,
    the final model's. Fill j is the column medians of set j's rows; it is
    kept only for columns with a missing cell, the only ones a fill reaches.
    ``bins`` is one lossless binning over every value set j's imputed rows
    can hold: the observed values and every fill. ``binned`` holds each
    observed cell's bin (-1 where missing) and ``fill_bins`` each fill's.
    The three are None when no learner that is fitted on the matrix reads
    bins.
    """

    matrix: FeatureMatrix
    fold_of: np.ndarray
    k: int
    fills: np.ndarray
    binned: np.ndarray | None = None
    fill_bins: np.ndarray | None = None
    bins: HistogramBins | None = None

    def rows(self, j: int, mask) -> np.ndarray:
        """The rows under ``mask``, imputed by fill j."""
        values = self.matrix.values[mask]
        nan_rows, nan_cols = np.nonzero(np.isnan(values))
        values[nan_rows, nan_cols] = self.fills[j, nan_cols]
        return values

    def binned_rows(self, j: int, mask) -> tuple[np.ndarray, HistogramBins] | None:
        """The bins of ``rows(j, mask)``, and the bins; None unbinned."""
        if self.bins is None:
            return None
        binned = self.binned[mask]
        nan_rows, nan_cols = np.nonzero(binned < 0)
        binned[nan_rows, nan_cols] = self.fill_bins[j, nan_cols]
        return binned, self.bins


def prepare(matrix: FeatureMatrix, folds: FoldAssignment, bins: bool = True) -> PreparedMatrix:
    """``matrix`` ready for the k + 1 training sets under ``folds``: the k
    of :func:`cross_validate` and the one of :func:`fit_final_model`;
    binned only with ``bins``, which a caller sets when some learner it
    fits reads bins (``LearnerKind.reads_bins``)."""
    if matrix.labels is None:
        raise PipelineError("training needs a labeled matrix")
    fold_of = folds.fold_vector(matrix.bird_ids)
    outside = [b for b, fold in zip(matrix.bird_ids, fold_of) if not 0 <= fold < folds.k]
    if outside:  # a bird in no fold would sit in every set j < k, and go unscored
        raise PipelineError(f"birds in no fold 0..{folds.k - 1}: {outside[:5]}")
    fills = np.array([column_medians(matrix.values[fold_of != j]) for j in range(folds.k + 1)])
    fills[:, ~np.isnan(matrix.values).any(axis=0)] = np.nan
    if not bins:
        return PreparedMatrix(matrix, fold_of, folds.k, fills)
    shared, binned = build_bins(np.concatenate([matrix.values, fills]), None)
    n = len(matrix.bird_ids)
    return PreparedMatrix(matrix, fold_of, folds.k, fills, binned[:n], binned[n:], shared)


def _fit(setting: ModelSetting, prepared: PreparedMatrix, j: int, seed: int) -> TrainedModel:
    """The setting's learner fitted on training set j, imputed by fill j,
    drawing from stream j of (setting, seed). The imputed float rows are
    handed over unmade, so a fit that reads only the shared bins never makes
    them (see :func:`fit_learner`)."""
    train = prepared.fold_of != j
    binned = prepared.binned_rows(j, train) if setting.kind.reads_bins else None
    return fit_learner(
        setting.kind, partial(prepared.rows, j, train), prepared.matrix.labels[train],
        setting.params, setting_rng(setting.name, seed, j), prepared.matrix.columns, binned,
    )


def cross_validate(setting: ModelSetting, prepared: PreparedMatrix, seed: int = 0) -> CvResult:
    """Out-of-fold evaluation of one setting on training sets 0..k-1 of
    ``prepared``.

    Fold j's model is fitted on set j and scores the held-out birds of fold
    j, imputed by fill j; the decision threshold is tuned once on the
    pooled out-of-fold scores and the per-fold F1 values are reported at
    that threshold.
    """
    matrix = prepared.matrix
    fold_of, y = prepared.fold_of, matrix.labels
    oof = np.zeros(len(y))
    for j in range(prepared.k):
        test_mask = fold_of == j
        model = _fit(setting, prepared, j, seed)
        scores = predict_scores(model, prepared.rows(j, test_mask), matrix.columns)
        held_out = [matrix.bird_ids[i] for i in np.flatnonzero(test_mask)]
        require_finite_scores(scores, held_out, f"{setting.name} seed {seed} fold {j}")
        oof[test_mask] = scores
    tau = tune_threshold(oof, y)
    labels = hard_labels(oof, tau)
    fold_f1 = [float(f1_score(labels[fold_of == j], y[fold_of == j])) for j in range(prepared.k)]
    return CvResult(
        fold_f1=fold_f1,
        mean_f1=float(np.mean(fold_f1)),
        oof_scores=oof,
        threshold=tau,
        oof_labels=labels,
        bird_ids=list(matrix.bird_ids),
    )


def fit_final_model(
    setting: ModelSetting, prepared: PreparedMatrix, seed: int, threshold: float
) -> TrainedModel:
    """Fit on training set k of ``prepared``, every row, drawing from the
    stream after the k fold streams; ``threshold`` is the one
    :func:`cross_validate` tuned on the out-of-fold scores of the same
    (setting, seed).
    """
    model = _fit(setting, prepared, prepared.k, seed)
    model.threshold = threshold
    return model


@dataclass
class PredictionSet:
    """Hard labels for a fixed bird set from one (setting, seed) run."""

    bird_ids: list[str]
    labels: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.bird_ids) != len(self.labels):
            raise PipelineError("bird_ids and labels lengths differ")

    def sorted(self) -> "PredictionSet":
        order = np.argsort(np.asarray(self.bird_ids, dtype=object))
        return PredictionSet(
            bird_ids=[self.bird_ids[i] for i in order],
            labels=self.labels[order],
            source=self.source,
        )

    def to_csv(self) -> str:
        return csv_document([("bird_id", "label"), *zip(self.bird_ids, self.labels.tolist())])

    @classmethod
    def from_csv(cls, text: str, source: str = "") -> "PredictionSet":
        """Read a ``bird_id,label`` file: each bird once, labelled 0 or 1."""
        table = read_bird_table(text, "label", values=(0, 1))
        return cls(bird_ids=list(table), labels=list(table.values()), source=source)


def prevalent_label(labels: np.ndarray | list[int]) -> int:
    """Majority class of a training label vector; exact ties go to 1."""
    labels = np.asarray(labels)
    ones = int((labels == 1).sum())
    zeros = int((labels == 0).sum())
    return 1 if ones >= zeros else 0


def majority_vote(sets: list[PredictionSet], tie_label: int = 1) -> PredictionSet:
    """Per-bird most frequent label across prediction sets.

    Exact vote ties resolve to ``tie_label`` (the training-prevalent
    class). All sets must cover identical bird ids.
    """
    if not sets:
        raise PipelineError("no prediction sets to vote over")
    base = sets[0].sorted()
    reference = base.bird_ids
    votes = np.zeros(len(reference), dtype=np.int64)
    for pset in sets:
        ordered = pset.sorted()
        if ordered.bird_ids != reference:
            raise PipelineError(
                f"prediction set {pset.source!r} covers different birds"
            )
        votes += ordered.labels
    n = len(sets)
    labels = np.where(votes * 2 > n, 1, np.where(votes * 2 < n, 0, tie_label))
    return PredictionSet(bird_ids=reference, labels=labels, source="majority_vote")


# --- file formats ---------------------------------------------------------

def folds_to_csv(folds: FoldAssignment) -> str:
    ids = sorted(folds.assignment)
    return csv_document([("bird_id", "fold"), *((b, folds.assignment[b]) for b in ids)])


def folds_from_csv(text: str) -> FoldAssignment:
    """Read a ``bird_id,fold`` file, each bird once; k is the fold count it
    holds, and its fold ids must be exactly 0..k-1.
    """
    assignment = read_bird_table(text, "fold")
    distinct = set(assignment.values())
    k = max(distinct, default=-1) + 1
    if min(distinct, default=0) < 0 or len(distinct) != k:
        raise PipelineError(f"fold ids {sorted(distinct)} are not 0..{k - 1}")
    return FoldAssignment(assignment=assignment, k=k)


def cv_report_csv(results: list[tuple[str, CvResult]]) -> str:
    """Per-fold F1 rows: setting,fold,f1."""
    rows = [("setting", "fold", "f1")]
    for name, result in results:
        rows += [(name, fold, repr(float(f1))) for fold, f1 in enumerate(result.fold_f1)]
    return csv_document(rows)


def cv_summary_csv(
    results: list[tuple[str, CvResult]],
    ensemble_f1: float | None = None,
) -> str:
    """Summary rows: setting,mean_f1,threshold, plus an ensemble row."""
    rows = [("setting", "mean_f1", "threshold")]
    for name, result in results:
        rows.append((name, repr(float(result.mean_f1)), repr(float(result.threshold))))
    if ensemble_f1 is not None:
        rows.append(("ensemble", repr(float(ensemble_f1)), ""))
    return csv_document(rows)
