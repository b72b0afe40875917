import numpy as np
import pytest
import json

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shearwater.boost import GbdtParams, LearnerKind, fit_learner, predict_scores
from shearwater.datasets import DatasetMode, FeatureMatrix, column_medians, fill_missing
from shearwater.errors import PipelineError
from shearwater.evalcv import (
    ModelSetting,
    PredictionSet,
    accuracy,
    cross_validate,
    f1_score,
    fit_final_model,
    folds_from_csv,
    folds_to_csv,
    majority_vote,
    make_folds,
    prepare,
    prevalent_label,
    setting_rng,
    tune_threshold,
)
from shearwater.trajdata import parse_labels


def paper_scale_labels():
    ids = [f"bird_{i:04d}" for i in range(631)]
    return {b: (1 if i < 326 else 0) for i, b in enumerate(ids)}


# --- folds -------------------------------------------------------------------

def test_fold_sizes_at_paper_scale():
    folds = make_folds(paper_scale_labels(), k=5, seed=7)
    sizes = sorted(
        np.bincount(list(folds.assignment.values()), minlength=5).tolist(), reverse=True
    )
    assert sizes == [127, 126, 126, 126, 126]


def test_fold_male_counts_at_paper_scale():
    labels = paper_scale_labels()
    folds = make_folds(labels, k=5, seed=7)
    male_counts = np.zeros(5, dtype=int)
    for bird, fold in folds.assignment.items():
        male_counts[fold] += labels[bird]
    assert sorted(male_counts.tolist(), reverse=True) == [66, 65, 65, 65, 65]


def test_folds_deterministic():
    labels = paper_scale_labels()
    a = make_folds(labels, k=5, seed=42)
    b = make_folds(labels, k=5, seed=42)
    assert a.assignment == b.assignment
    c = make_folds(labels, k=5, seed=43)
    assert c.assignment != a.assignment


def test_folds_too_few_per_class():
    labels = {"a": 1, "b": 1, "c": 0, "d": 0, "e": 0, "f": 0, "g": 0}
    with pytest.raises(PipelineError, match="^class 1 has 2 birds, need >= 5$"):
        make_folds(labels, k=5, seed=0)


@settings(max_examples=50, deadline=None)
@given(
    n_pos=st.integers(min_value=5, max_value=40),
    n_neg=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_folds_stratification_bound(n_pos, n_neg, seed):
    labels = {f"p{i}": 1 for i in range(n_pos)}
    labels.update({f"n{i}": 0 for i in range(n_neg)})
    folds = make_folds(labels, k=5, seed=seed)
    for cls in (0, 1):
        counts = np.zeros(5, dtype=int)
        for bird, fold in folds.assignment.items():
            if labels[bird] == cls:
                counts[fold] += 1
        assert counts.max() - counts.min() <= 1


def test_folds_csv_round_trip():
    folds = make_folds(paper_scale_labels(), k=5, seed=3)
    again = folds_from_csv(folds_to_csv(folds))
    assert again.assignment == folds.assignment
    assert again.k == 5


# --- metrics -------------------------------------------------------------------

def test_f1_perfect():
    assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0


def test_f1_hand_computed():
    # TP=2, FP=1, FN=1 -> 2*2 / (4+1+1)
    pred = [1, 1, 1, 0, 0]
    truth = [1, 1, 0, 1, 0]
    assert f1_score(pred, truth) == pytest.approx(2 / 3)


def test_f1_zero_tp_rule():
    assert f1_score([0, 0, 0], [1, 0, 1]) == 0.0


def test_f1_length_mismatch():
    with pytest.raises(PipelineError, match=r"^pred \(2,\) vs truth \(1,\)$"):
        f1_score([1, 0], [1])


def test_f1_matches_confusion_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 21))
        pred = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
        want = 1.0 if tp + fp + fn == 0 else (0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
        assert f1_score(pred, truth) == pytest.approx(want)
        assert accuracy(pred, truth) == pytest.approx(np.mean(pred == truth))


# --- threshold tuning ------------------------------------------------------------

def test_tune_threshold_midpoint():
    assert tune_threshold([0.1, 0.9], [0, 1]) == pytest.approx(0.5)


def test_tune_threshold_degenerate_all_positive():
    # equal scores, mixed truth: all-positive (below-min sentinel) wins
    tau = tune_threshold([0.5, 0.5, 0.5], [1, 0, 1])
    assert tau < 0.5
    assert f1_score((np.array([0.5, 0.5, 0.5]) > tau).astype(int), [1, 0, 1]) == pytest.approx(0.8)


def test_tune_threshold_all_positive_at_large_magnitudes():
    # the minimum less 1.0 rounds back to 1e17, so all-positive was never a
    # candidate: the tuned 1e17 labels the first bird 0 (F1 0.5, not 0.8)
    scores, truth = np.array([1e17, 2e17, 3e17]), np.array([1, 1, 0])
    tau = tune_threshold(scores, truth)
    assert tau < 1e17
    assert f1_score((scores > tau).astype(int), truth) == pytest.approx(0.8)


def test_tune_threshold_tie_takes_smallest():
    scores = np.array([1.0, 2.0, 3.0, 4.0])
    truth = np.array([1, 0, 0, 1])
    # all-positive (tau=0) and tau=3.5 both give F1 = 2/3; smallest wins
    assert tune_threshold(scores, truth) == 0.0


def test_tune_threshold_beats_half(rng):
    for _ in range(20):
        scores = rng.random(30)
        truth = rng.integers(0, 2, 30)
        if len(np.unique(truth)) < 2:
            continue
        tau = tune_threshold(scores, truth)
        best = f1_score((scores > tau).astype(int), truth)
        at_half = f1_score((scores > 0.5).astype(int), truth)
        assert best >= at_half - 1e-12


def test_tune_threshold_single_class():
    with pytest.raises(PipelineError, match="^threshold tuning needs both classes present$"):
        tune_threshold([0.1, 0.9], [1, 1])


def test_tune_threshold_refuses_a_shape_mismatch():
    with pytest.raises(PipelineError, match=r"^scores \(3,\) vs truth \(2,\)$"):
        tune_threshold([0.1, 0.5, 0.9], [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tune_threshold_refuses_a_non_finite_score(bad):
    with pytest.raises(ValueError, match="^scores must be finite$"):
        tune_threshold([0.1, bad, 0.9], [0, 1, 1])


def _tune_threshold_by_candidate(scores, truth) -> float:
    """The oracle: F1 of every candidate in turn, the first best kept."""
    scores = np.asarray(scores, dtype=np.float64)
    distinct = np.unique(scores)
    mids = []
    for lo, hi in zip(distinct[:-1], distinct[1:]):
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        mids.append(mid if np.isfinite(mid) else 0.5 * lo + 0.5 * hi)
    lowest = distinct[0] - 1.0
    if lowest == distinct[0] and lowest != -np.finfo(np.float64).max:
        lowest = np.nextafter(lowest, -np.inf)  # below the minimum, as 1.0 less is not
    candidates = np.concatenate([[lowest], mids, [distinct[-1] + 1.0]])
    best_tau, best_f1 = candidates[0], -1.0
    for tau in candidates:
        f1 = f1_score((scores > tau).astype(np.int64), truth)
        if f1 > best_f1:
            best_f1, best_tau = f1, tau
    return float(best_tau)


# scores drawn often from a few values, so that ties, signed zeros and
# neighbouring floats (whose midpoint rounds onto one of them) come up
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, float(np.nextafter(1.0, 2.0)), 2.0**60]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(SCORES, st.integers(0, 1)), min_size=2, max_size=40))
@example(pairs=[(-7.284817129801727e293, 0), (-1.7976931348623085e308, 1)])  # the sum overflows
@example(pairs=[(1e17, 1), (2e17, 1), (3e17, 0)])  # the minimum less 1.0 is the minimum
@example(pairs=[(-1.7976931348623157e308, 1), (0.0, 0)])  # no float below the minimum
def test_tune_threshold_equals_the_candidate_loop(pairs):
    scores, truth = (np.array(column) for column in zip(*pairs))
    assume(len(np.unique(truth)) == 2)
    tau, want = tune_threshold(scores, truth), _tune_threshold_by_candidate(scores, truth)
    assert np.float64(tau).tobytes() == np.float64(want).tobytes()  # the same float


# --- cross-validation -------------------------------------------------------------

def balanced_matrix(rng, n=40, d=3, signal=True):
    values = rng.normal(size=(n, d))
    labels = np.tile([0, 1], n // 2)
    if signal:
        values[:, 0] += labels * 4.0  # ~2 sigma per class from the boundary
    ids = [f"b{i:03d}" for i in range(n)]
    return FeatureMatrix(bird_ids=ids, columns=[f"x{j}" for j in range(d)], values=values, labels=labels)


def test_cv_constant_learner_hits_all_positive_baseline(rng):
    matrix = balanced_matrix(rng, n=40, signal=False)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=5, seed=1)
    setting = ModelSetting(
        kind=LearnerKind.SK_ET,
        mode=DatasetMode.TOGETHER,
        params=GbdtParams(n_trees=1, max_depth=0),
    )
    result = cross_validate(setting, prepare(matrix, folds), seed=0)
    # stump score = training-fold prevalence = 0.5 everywhere: the tuned
    # threshold can only pick all-positive (F1 2/3) or all-negative (0)
    assert result.mean_f1 == pytest.approx(2 / 3)
    assert all(0.0 <= f <= 1.0 for f in result.fold_f1)


def test_cv_learns_planted_signal(rng):
    matrix = balanced_matrix(rng, n=60, signal=True)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=5, seed=1)
    setting = ModelSetting(
        kind=LearnerKind.XGB_BINARY,
        mode=DatasetMode.TOGETHER,
        params=GbdtParams(n_rounds=20, learning_rate=0.3, max_depth=2, subsample=1.0, colsample=1.0),
    )
    result = cross_validate(setting, prepare(matrix, folds), seed=0)
    assert result.mean_f1 > 0.9
    assert result.oof_scores.shape == (60,)


def test_cv_deterministic(rng):
    matrix = balanced_matrix(rng, n=30)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=5, seed=1)
    setting = ModelSetting(
        kind=LearnerKind.SK_RF,
        mode=DatasetMode.TOGETHER,
        params=GbdtParams(n_trees=5, max_depth=3),
    )
    a = cross_validate(setting, prepare(matrix, folds), seed=4)
    b = cross_validate(setting, prepare(matrix, folds), seed=4)
    np.testing.assert_array_equal(a.oof_scores, b.oof_scores)
    assert a.threshold == b.threshold


def test_cv_imputation_refit_per_fold(rng):
    matrix = balanced_matrix(rng, n=30)
    matrix.values[rng.random(matrix.values.shape) < 0.2] = np.nan
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=5, seed=1)
    setting = ModelSetting(
        kind=LearnerKind.LGB_GBDT,
        mode=DatasetMode.TOGETHER,
        params=GbdtParams(n_rounds=5, max_depth=2),
    )
    result = cross_validate(setting, prepare(matrix, folds), seed=0)
    assert np.isfinite(result.oof_scores).all()



def _matrix_with_gaps(rng, n=40):
    """A labeled matrix with missing cells, ties and a column missing in
    every row but one."""
    matrix = balanced_matrix(rng, n=n, d=5)
    matrix.values[:, 3] = rng.integers(0, 4, size=n)
    matrix.values[rng.random(matrix.values.shape) < 0.15] = np.nan
    matrix.values[1:, 4] = np.nan
    return matrix


@pytest.mark.parametrize(
    "kind, max_bin_edges",
    [(kind.value, 255) for kind in LearnerKind if kind is not LearnerKind.SVC]
    + [("lgb_gbdt", 4), ("lgb_rf", 4)],  # hist bins each fit by quantiles
)
def test_fits_on_shared_bins_equal_fits_on_their_own_bins(rng, kind, max_bin_edges):
    # each fold's training rows, imputed and binned by prepare, fit the same
    # model as those rows binned by the learner itself
    matrix = _matrix_with_gaps(rng)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=4, seed=1)
    params = GbdtParams(
        n_rounds=4, n_trees=4, max_depth=3, learning_rate=0.3, max_bin_edges=max_bin_edges
    )
    fold_of = folds.fold_vector(matrix.bird_ids)
    prepared = prepare(matrix, folds)
    for j in range(folds.k + 1):  # set k, every row, is the final model's
        train = fold_of != j
        X = fill_missing(matrix.values[train], column_medians(matrix.values[train]))
        np.testing.assert_array_equal(prepared.rows(j, train), X)
        y = matrix.labels[train]
        shared = fit_learner(
            LearnerKind(kind), X, y, params, np.random.default_rng(j),
            binned=prepared.binned_rows(j, train),
        )
        alone = fit_learner(LearnerKind(kind), X, y, params, np.random.default_rng(j))
        assert json.dumps(shared.to_dict()) == json.dumps(alone.to_dict())


@pytest.mark.parametrize("kind", list(LearnerKind))
def test_final_model_fits_every_row_on_the_stream_after_the_folds(rng, kind):
    # set k of prepare is every row, imputed by the medians of every row,
    # which the model carries as its fill, and its fit draws from stream k,
    # after the k fold streams
    matrix = _matrix_with_gaps(rng)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=4, seed=1)
    setting = ModelSetting(
        kind=kind, mode=DatasetMode.TOGETHER,
        params=GbdtParams(n_rounds=4, n_trees=4, max_depth=3, learning_rate=0.3),
    )
    model = fit_final_model(setting, prepare(matrix, folds), 7, 0.25)
    want = fit_learner(
        kind, fill_missing(matrix.values.copy(), column_medians(matrix.values)), matrix.labels,
        setting.params, setting_rng(setting.name, 7, folds.k), matrix.columns,
    )
    want.threshold = 0.25
    want.fill = column_medians(matrix.values)
    assert json.dumps(model.to_dict()) == json.dumps(want.to_dict())



@pytest.mark.parametrize(
    "kind, n, made",
    [("sk_rf", 40, 0), ("lgb_rf", 40, 0), ("lgb_rf", 300, 1)]
    + [(kind, 40, 1) for kind in ("svc", "sk_et", "xgb_binary", "xgb_rank", "lgb_gbdt", "cat")],
)
def test_fit_makes_float_rows_only_for_learners_that_read_them(rng, monkeypatch, kind, n, made):
    # a forest on exact bins, and lgb_rf on bins that are lossless at its
    # 255 edges, fit on the shared bins alone; svc and sk_et fit on floats,
    # a booster's margins are its trees' predictions on them, and lgb_rf on
    # 300 rows with a column of 300 distinct values bins them by quantiles
    import shearwater.evalcv as evalcv

    matrix = _matrix_with_gaps(rng, n=n)
    matrix.values[:, 0] = rng.permutation(n) + 0.5  # n distinct values
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=4, seed=1)
    setting = ModelSetting(
        kind=LearnerKind(kind), mode=DatasetMode.TOGETHER,
        params=GbdtParams(n_rounds=3, n_trees=3, max_depth=2, learning_rate=0.3),
    )
    prepared = prepare(matrix, folds)
    calls = []
    rows = evalcv.PreparedMatrix.rows

    def counted(self, j, mask):
        calls.append(j)
        return rows(self, j, mask)

    monkeypatch.setattr(evalcv.PreparedMatrix, "rows", counted)
    model = evalcv._fit(setting, prepared, folds.k, 7)  # set k: all n rows
    assert len(calls) == made
    want = fit_learner(
        setting.kind, rows(prepared, folds.k, prepared.fold_of != folds.k), matrix.labels,
        setting.params, setting_rng(setting.name, 7, folds.k), matrix.columns,
    )
    want.fill = column_medians(matrix.values)  # set k's, which _fit gives the model
    assert json.dumps(model.to_dict()) == json.dumps(want.to_dict())


def test_prepare_refuses_an_unlabeled_matrix(rng):
    matrix = balanced_matrix(rng, n=30)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=5, seed=1)
    matrix.labels = None
    with pytest.raises(PipelineError, match="^training needs a labeled matrix$"):
        prepare(matrix, folds)


def test_held_out_rows_are_scored_raw_and_imputed_by_the_fold_models_fill(rng, monkeypatch):
    # cross_validate hands predict_scores the held-out rows with their
    # missing cells, and the fold model fills them from its own fill j
    import shearwater.evalcv as evalcv

    matrix = _matrix_with_gaps(rng)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=4, seed=1)
    prepared = prepare(matrix, folds)
    scored = []

    def recorded(model, X):
        scored.append((model.fill, X.copy()))
        return predict_scores(model, X)

    monkeypatch.setattr(evalcv, "predict_scores", recorded)
    setting = ModelSetting(kind=LearnerKind.SVC, mode=DatasetMode.TOGETHER)
    cross_validate(setting, prepared, seed=0)
    for j, (fill, X) in enumerate(scored):
        np.testing.assert_array_equal(X, matrix.values[prepared.fold_of == j])
        np.testing.assert_array_equal(fill, column_medians(matrix.values[prepared.fold_of != j]))
    assert any(np.isnan(X).any() for _, X in scored)


def test_cv_raises_when_a_bird_is_left_unscored(rng):
    matrix = balanced_matrix(rng, n=30)
    folds = make_folds(dict(zip(matrix.bird_ids, matrix.labels.tolist())), k=5, seed=1)
    folds.k = 4  # fold 4's birds are never held out
    setting = ModelSetting(kind=LearnerKind.SVC, mode=DatasetMode.TOGETHER)
    with pytest.raises(PipelineError, match=r"^birds in no fold 0\.\.3: \["):
        cross_validate(setting, prepare(matrix, folds), seed=0)


def test_folds_csv_rejects_gapped_fold_ids():
    with pytest.raises(PipelineError, match=r"^fold ids \[0, 2\] are not 0\.\.2$"):
        folds_from_csv("bird_id,fold\na,0\nb,2\n")

# --- voting -----------------------------------------------------------------------

def pset(labels, source="s"):
    return PredictionSet(bird_ids=[f"b{i}" for i in range(len(labels))], labels=np.array(labels), source=source)


def test_vote_simple_majority():
    voted = majority_vote([pset([1]), pset([1]), pset([0])], tie_label=0)
    assert voted.labels.tolist() == [1]


def test_vote_tie_goes_to_prevalent_class():
    # 326 male / 305 female training labels -> tie class 1
    train = np.array([1] * 326 + [0] * 305)
    tie = prevalent_label(train)
    assert tie == 1
    sets = [pset([1]) for _ in range(90)] + [pset([0]) for _ in range(90)]
    assert majority_vote(sets, tie).labels.tolist() == [1]


def test_prevalent_label_exact_tie_is_one():
    assert prevalent_label(np.array([0, 1, 0, 1])) == 1


def test_vote_single_set_identity():
    single = pset([1, 0, 1, 1])
    voted = majority_vote([single], tie_label=0)
    assert voted.labels.tolist() == single.labels.tolist()
    assert voted.bird_ids == single.bird_ids


def test_vote_permutation_invariant(rng):
    sets = [pset(rng.integers(0, 2, 7).tolist(), source=f"s{i}") for i in range(9)]
    a = majority_vote(sets, 1)
    b = majority_vote(list(reversed(sets)), 1)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_vote_unanimity():
    sets = [pset([1, 0, 0, 1], source=f"s{i}") for i in range(5)]
    assert majority_vote(sets, 0).labels.tolist() == [1, 0, 0, 1]


def test_vote_over_no_sets():
    with pytest.raises(PipelineError, match="^no prediction sets to vote over$"):
        majority_vote([], 1)


def test_prediction_set_refuses_labels_of_another_length():
    with pytest.raises(PipelineError, match="^bird_ids and labels lengths differ$"):
        PredictionSet(bird_ids=["b0", "b1"], labels=[1])


def test_vote_bird_set_mismatch():
    a = pset([1, 0])
    b = PredictionSet(bird_ids=["b0", "zz"], labels=np.array([1, 0]))
    with pytest.raises(PipelineError, match="^prediction set .* covers different birds$"):
        majority_vote([a, b], 1)


def test_vote_alignment_independent_of_row_order():
    a = PredictionSet(bird_ids=["b1", "b0"], labels=np.array([1, 0]))
    b = PredictionSet(bird_ids=["b0", "b1"], labels=np.array([0, 1]))
    voted = majority_vote([a, b], tie_label=0)
    assert voted.bird_ids == ["b0", "b1"]
    assert voted.labels.tolist() == [0, 1]


def test_prediction_set_csv_round_trip():
    original = pset([1, 0, 1])
    again = PredictionSet.from_csv(original.to_csv())
    assert again.bird_ids == original.bird_ids
    np.testing.assert_array_equal(again.labels, original.labels)


# --- bird tables ------------------------------------------------------------------

@pytest.mark.parametrize(
    "column, read",
    [("label", parse_labels), ("fold", folds_from_csv), ("label", PredictionSet.from_csv)],
)
def test_bird_table_header_allows_whitespace_and_nothing_else(column, read):
    read(f" bird_id , {column}\na,0\n")
    for header in ("", f"bird,{column}\n", f"bird_id,{column},x\n"):
        # folds and predictions once refused it through another check
        with pytest.raises(PipelineError, match=f"^bad header .*, expected bird_id,{column}$"):
            read(header + "a,0\n")
