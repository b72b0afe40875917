import math

import numpy as np
import pytest

from shearwater.boost import (
    GbdtParams,
    LearnerKind,
    TrainedModel,
    fit_learner,
    logistic_grad_hess,
    logistic_loss,
    pairwise_grad_hess,
    pairwise_loss,
    predict_scores,
    sigmoid,
)
from shearwater.errors import PipelineError
from tests.conftest import loss_curve


def small_params(**overrides):
    base = dict(
        n_rounds=20,
        learning_rate=0.3,
        max_depth=2,
        reg_lambda=1.0,
        min_child_weight=0.0,
        subsample=1.0,
        colsample=1.0,
        n_trees=10,
    )
    base.update(overrides)
    return GbdtParams(**base)


# --- base score -------------------------------------------------------------

def test_f0_balanced_labels_zero():
    X = np.arange(8.0).reshape(-1, 1)
    y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    model = fit_learner(
        LearnerKind.XGB_BINARY, X, y, small_params(n_rounds=1), np.random.default_rng(0)
    )
    assert model.f0 == 0.0


def test_f0_single_class_clamped():
    X = np.arange(4.0).reshape(-1, 1)
    y = np.ones(4)
    model = fit_learner(
        LearnerKind.XGB_BINARY, X, y, small_params(n_rounds=1), np.random.default_rng(0)
    )
    assert model.f0 == pytest.approx(math.log((1 - 1e-6) / 1e-6), rel=1e-9)
    assert model.f0 == pytest.approx(13.8155, abs=1e-4)


def test_empty_labels_raise():
    with pytest.raises(PipelineError, match="^cannot fit on an empty label vector$"):
        fit_learner(
            LearnerKind.XGB_BINARY, np.empty((0, 1)), np.empty(0), small_params(),
            np.random.default_rng(0),
        )


# --- logistic GBDT ------------------------------------------------------------

def test_separable_1d_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 80)
    y = (x >= 0).astype(float)
    params = small_params(n_rounds=50, learning_rate=0.3, max_depth=1)
    model = fit_learner(
        LearnerKind.XGB_BINARY, x.reshape(-1, 1), y, params, np.random.default_rng(0)
    )
    scores = predict_scores(model, x.reshape(-1, 1))
    assert np.mean((scores > 0.5) == y) == 1.0


def test_logistic_gradient_matches_finite_differences(rng):
    for _ in range(5):
        n = int(rng.integers(6, 11))
        margins = rng.normal(size=n)
        y = rng.integers(0, 2, n).astype(float)
        grad, _ = logistic_grad_hess(margins, y)  # gradient of the summed loss
        h = 1e-5
        for i in range(n):
            up, down = margins.copy(), margins.copy()
            up[i] += h
            down[i] -= h
            fd = (logistic_loss(up, y) * n - logistic_loss(down, y) * n) / (2 * h)
            assert abs(fd - grad[i]) / max(1e-8, abs(grad[i])) < 1e-6


def test_training_loss_monotone_without_sampling(rng):
    for _ in range(5):
        n = int(rng.integers(40, 80))
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
        params = small_params(n_rounds=100, learning_rate=0.1, max_depth=3)
        model = fit_learner(LearnerKind.XGB_BINARY, X, y, params, np.random.default_rng(0))
        diffs = np.diff(loss_curve(model, X, y, logistic_loss))
        assert np.all(diffs <= 1e-12)


def test_scores_in_open_unit_interval(rng):
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30).astype(float)
    model = fit_learner(LearnerKind.XGB_BINARY, X, y, small_params(), np.random.default_rng(0))
    scores = predict_scores(model, X)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_constant_features_constant_score(rng):
    X = np.full((20, 2), 3.0)
    y = rng.integers(0, 2, 20).astype(float)
    params = small_params(n_rounds=5)
    model = fit_learner(LearnerKind.XGB_BINARY, X, y, params, np.random.default_rng(0))
    scores = predict_scores(model, X)
    leaf_sum = sum(t.root.value for t in model.trees)
    assert np.all(scores == scores[0])
    assert scores[0] == pytest.approx(float(sigmoid(model.f0 + leaf_sum)), rel=1e-12)


def test_empty_tree_list_constant_sigmoid_f0():
    model = TrainedModel(
        kind=LearnerKind.XGB_BINARY,
        params=GbdtParams(),
        feature_names=["a", "b"],
        f0=0.37,
        trees=[],
    )
    scores = predict_scores(model, np.zeros((3, 2)))
    np.testing.assert_allclose(scores, sigmoid(0.37))


def test_hist_and_exact_backends_identical_without_sampling(rng):
    X = rng.normal(size=(40, 5))
    y = (X[:, 1] > 0).astype(float)
    params = small_params(n_rounds=10, learning_rate=0.2, max_depth=3)
    xgb = fit_learner(LearnerKind.XGB_BINARY, X, y, params, np.random.default_rng(0))
    lgb = fit_learner(LearnerKind.LGB_GBDT, X, y, params, np.random.default_rng(0))
    assert [t.to_dict() for t in xgb.trees] == [t.to_dict() for t in lgb.trees]
    np.testing.assert_array_equal(predict_scores(xgb, X), predict_scores(lgb, X))


# --- pairwise rank ------------------------------------------------------------

def test_pairwise_equal_scores_half_gradient():
    scores = np.array([0.0, 0.0])
    y = np.array([1, 0])
    grad, hess = pairwise_grad_hess(scores, y)
    np.testing.assert_allclose(grad, [-0.5, 0.5])
    assert np.all(hess == 0.25)


def test_pairwise_loss_vanishes_with_margin():
    y = np.array([1, 1, 0, 0])
    big = np.array([50.0, 60.0, -50.0, -60.0])
    assert pairwise_loss(big, y) < 1e-20


def test_pairwise_gradient_matches_finite_differences(rng):
    for _ in range(5):
        n = int(rng.integers(6, 11))
        scores = rng.normal(size=n)
        y = np.concatenate([np.ones(n // 2), np.zeros(n - n // 2)]).astype(int)
        grad, _ = pairwise_grad_hess(scores, y)
        h = 1e-5
        for i in range(n):
            up, down = scores.copy(), scores.copy()
            up[i] += h
            down[i] -= h
            fd = (pairwise_loss(up, y) - pairwise_loss(down, y)) / (2 * h)
            assert abs(fd - grad[i]) / max(1e-8, abs(grad[i])) < 1e-6


def test_pairwise_gradients_sum_to_zero(rng):
    scores = rng.normal(size=12)
    y = rng.permutation([1] * 5 + [0] * 7)
    grad, _ = pairwise_grad_hess(scores, y)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_pairwise_explicit_pairs_match_brute_force(rng):
    scores = rng.normal(size=9)
    y = np.array([1, 0, 1, 1, 0, 0, 1, 0, 0])
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    pairs = (np.array([pos[0], pos[2], pos[0], pos[3]]), np.array([neg[1], neg[0], neg[4], neg[1]]))
    grad, hess = pairwise_grad_hess(scores, y, pairs)
    want_grad, want_hess = np.zeros(9), np.zeros(9)
    for i, j in zip(*pairs):
        s = 1.0 / (1.0 + math.exp(scores[i] - scores[j]))
        want_grad[i] -= s
        want_grad[j] += s
        want_hess[i] += s * (1.0 - s)
        want_hess[j] += s * (1.0 - s)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(hess, want_hess, rtol=1e-12, atol=1e-15)


def test_pairwise_all_pairs_explicit_equals_default(rng):
    scores = rng.normal(size=10)
    y = rng.permutation([1] * 4 + [0] * 6)
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    every = ([i for i in pos for _ in neg], [j for _ in pos for j in neg])
    explicit = pairwise_grad_hess(scores, y, (np.array(every[0]), np.array(every[1])))
    default = pairwise_grad_hess(scores, y)
    np.testing.assert_array_equal(explicit[0], default[0])
    np.testing.assert_array_equal(explicit[1], default[1])


def test_pairwise_records_loss_history(rng):
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    for cap in (100, 1):  # all pairs, then a sampled subset per round
        params = small_params(n_rounds=12, pair_cap_factor=cap, subsample=0.8, colsample=0.8)
        model = fit_learner(LearnerKind.XGB_RANK, X, y, params, np.random.default_rng(0))
        curve = loss_curve(model, X, y, pairwise_loss)
        assert len(curve) == 12
        assert np.all(np.isfinite(curve))
        assert curve[-1] < pairwise_loss(np.zeros(40), y)


def test_pairwise_single_class_raises():
    with pytest.raises(PipelineError, match="^pairwise loss needs both classes$"):
        fit_learner(
            LearnerKind.XGB_RANK, np.zeros((3, 1)), np.ones(3), small_params(),
            np.random.default_rng(0),
        )


def test_pairwise_learns_ranking(rng):
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    params = small_params(n_rounds=30, learning_rate=0.2, max_depth=2)
    model = fit_learner(LearnerKind.XGB_RANK, X, y, params, np.random.default_rng(0))
    scores = predict_scores(model, X)
    assert scores[y == 1].min() > scores[y == 0].mean()


# --- forests -------------------------------------------------------------------

def test_forest_single_stump_is_prevalence(rng):
    X = rng.normal(size=(40, 3))
    y = np.array([1] * 10 + [0] * 30, dtype=float)
    params = small_params(n_trees=1, max_depth=0)
    model = fit_learner(LearnerKind.SK_ET, X, y, params, np.random.default_rng(0))
    scores = predict_scores(model, X)
    assert np.all(scores == scores[0])
    assert scores[0] == pytest.approx(0.25)


def test_forest_pure_class_constant_score(rng):
    X = rng.normal(size=(20, 3))
    y = np.ones(20)
    for kind in (LearnerKind.SK_RF, LearnerKind.SK_ET, LearnerKind.LGB_RF):
        model = fit_learner(
            kind, X, y, small_params(n_trees=3, max_depth=3), np.random.default_rng(0)
        )
        for tree in model.trees:
            assert tree.root.is_leaf
            assert tree.root.value == 1.0
        np.testing.assert_array_equal(predict_scores(model, X), np.ones(20))


def test_forest_scores_are_tree_means(rng):
    X = rng.normal(size=(50, 4))
    y = (X[:, 0] > 0).astype(float)
    model = fit_learner(
        LearnerKind.SK_RF, X, y, small_params(n_trees=7, max_depth=4), np.random.default_rng(0)
    )
    scores = predict_scores(model, X)
    manual = np.mean([t.predict(X) for t in model.trees], axis=0)
    np.testing.assert_allclose(scores, manual, rtol=1e-12)
    reversed_mean = np.mean([t.predict(X) for t in reversed(model.trees)], axis=0)
    np.testing.assert_allclose(scores, reversed_mean, rtol=1e-12)
    assert np.all((0.0 <= scores) & (scores <= 1.0))


def test_forest_learns_signal(rng):
    X = rng.normal(size=(120, 4))
    y = (X[:, 2] > 0).astype(float)
    model = fit_learner(
        LearnerKind.SK_RF, X, y, small_params(n_trees=30, max_depth=6), np.random.default_rng(0)
    )
    scores = predict_scores(model, X)
    assert np.mean((scores > 0.5) == y) > 0.95


# --- dispatch / persistence ------------------------------------------------------

def test_all_learners_reproducible(rng):
    X = rng.normal(size=(50, 6))
    y = (X[:, 0] + 0.3 * rng.normal(size=50) > 0).astype(int)
    params = small_params(n_rounds=5, n_trees=3, subsample=0.8, colsample=0.8)
    for kind in LearnerKind:
        a = fit_learner(kind, X, y, params, np.random.default_rng(7))
        b = fit_learner(kind, X, y, params, np.random.default_rng(7))
        np.testing.assert_array_equal(
            predict_scores(a, X), predict_scores(b, X), err_msg=kind.value
        )


@pytest.mark.parametrize("kind", ["xgb_binary", "xgb_rank", "lgb_gbdt", "cat"])
def test_a_boosting_round_draws_nothing(rng, kind):
    # with no row or column subsample a booster never draws (xgb_rank's
    # pairs are all within its cap), so its trees need no generator
    X = rng.normal(size=(60, 5))
    X[:, 1] = X[:, 1].round(1)
    y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(int)
    gen = np.random.default_rng(3)
    before = gen.bit_generator.state
    params = small_params(n_rounds=5, max_depth=3, max_bin_edges=7)  # lgb_gbdt: quantile bins
    fit_learner(LearnerKind(kind), X, y, params, gen)
    assert gen.bit_generator.state == before


def test_predict_scores_deterministic(rng):
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, 30)
    model = fit_learner(LearnerKind.XGB_BINARY, X, y, small_params(n_rounds=4), np.random.default_rng(1))
    np.testing.assert_array_equal(predict_scores(model, X), predict_scores(model, X))


def test_predict_scores_schema_mismatch(rng):
    X = rng.normal(size=(10, 2))
    y = rng.integers(0, 2, 10)
    model = fit_learner(
        LearnerKind.XGB_BINARY, X, y, small_params(n_rounds=2), np.random.default_rng(1),
        feature_names=["a", "b"],
    )
    with pytest.raises(PipelineError, match="^xgb_binary: expected 2 features, got 5$"):
        predict_scores(model, np.zeros((3, 5)))


def test_model_json_round_trip(rng):
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30)
    for kind in LearnerKind:
        model = fit_learner(kind, X, y, small_params(n_rounds=3, n_trees=2), np.random.default_rng(2))
        model.threshold = 0.41
        again = TrainedModel.from_dict(model.to_dict())
        np.testing.assert_allclose(
            predict_scores(model, X), predict_scores(again, X), rtol=0, atol=0
        )
        assert again.threshold == 0.41
        assert again.kind == kind


def test_a_model_scores_missing_cells_as_its_fill_and_keeps_the_rows(rng):
    X = rng.normal(size=(30, 3))
    y = np.tile([0, 1], 15)
    gappy = X.copy()
    gappy[::4, 0] = np.nan
    gappy[1::3, 2] = np.nan
    fill = np.array([0.25, -1.5, 2.0])
    filled = np.where(np.isnan(gappy), fill, gappy)
    for kind in LearnerKind:
        model = fit_learner(kind, X, y, small_params(n_rounds=3, n_trees=2), np.random.default_rng(2))
        want = predict_scores(model, filled)
        model.fill = fill
        again = TrainedModel.from_dict(model.to_dict())
        for scorer in (model, again):
            before = gappy.copy()
            np.testing.assert_array_equal(predict_scores(scorer, gappy), want)
            np.testing.assert_array_equal(gappy, before)  # the caller's rows are not filled
        np.testing.assert_array_equal(again.fill, fill)


def test_cat_bins_each_model_once(rng, monkeypatch):
    import shearwater.boost
    import shearwater.trees

    calls = []
    build_bins = shearwater.trees.build_bins

    def counted(*args, **kwargs):
        calls.append(args)
        return build_bins(*args, **kwargs)

    monkeypatch.setattr(shearwater.boost, "build_bins", counted)
    monkeypatch.setattr(shearwater.trees, "build_bins", counted)
    X = rng.normal(size=(40, 5))
    y = (X[:, 0] > 0).astype(int)
    params = small_params(n_rounds=5, subsample=0.8, colsample=0.8)
    model = fit_learner(LearnerKind.CAT, X, y, params, np.random.default_rng(3))
    assert len(model.trees) == 5
    assert len(calls) == 1


def _pinned_data():
    rng = np.random.default_rng(2018)
    n = 80
    X = np.column_stack([
        rng.normal(size=(n, 4)),
        rng.integers(0, 5, size=(n, 2)).astype(float),  # tied values
        np.full(n, 1.5),  # a column with no cut
        rng.choice([-1.0, 0.0, 2.5], size=n),
    ])
    y = (X[:, 0] + 0.5 * X[:, 4] + rng.normal(scale=0.8, size=n) > 0.5).astype(np.int64)
    return X, y


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("xgb_binary", "999010e7ef6439d6ca86f7b46e05ca11e4e8a0413fc98ef19bd1bbf9073588e2"),
        ("xgb_rank", "04637fe2c7812f879138a558dc77455356c767cd9d0a41947abb54a1646a5dd9"),
        ("lgb_gbdt", "b4f5be9a53eb4e306b1140d58da9f6644149cfaaa3a0765da5b3cea88cdbe996"),
        ("cat", "8fd4dd44993e3a0580c6037d0f040b9b1d244ddfe08069007f961f11f1eaf787"),
    ],
)
def test_boosting_model_bytes_are_pinned(kind, digest):
    # the sha256 of each boosting learner's model JSON on a fixed dataset, in
    # the node-array format; test_tree_learner_scores_are_pinned pins what
    # these models score
    import hashlib
    import json

    X, y = _pinned_data()
    params = GbdtParams(
        n_rounds=8, learning_rate=0.3, max_depth=3, subsample=0.8, colsample=0.8,
        max_bin_edges=15, n_trees=6,
    )
    model = fit_learner(LearnerKind(kind), X, y, params, np.random.default_rng(7))
    text = json.dumps(model.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("xgb_binary", "8e2f9b4d4e35db910fe6b36e477405f3c06f67ff13f8215bec60cae926bb2a0b"),
        ("xgb_rank", "7043106edcc3d103bbba94a9af8e7517a3b789b615cf29d93456ecfa8b21a401"),
        ("lgb_gbdt", "d0c8a8b3c48ec41aa08cd86100aa7665ddfd3499b68c36d42d5063d0fc572965"),
        ("lgb_rf", "18719f16f21134a413f87fafd65a72dfae6ef5ebfa8ec9e3743d1510a5198a57"),
        ("cat", "d1c22bed9bb4247a47203c0e92a609243ebda2ad1a9d4a689a74d043a1e21129"),
        ("sk_rf", "2a60d30043b76d894cdfdebee15a2c947a8d520df3354edfec16b71f5a6747ed"),
        ("sk_et", "0c54f06ff741fde39e99c52c712d2e5adb7f3fe94d5ba6b128d337aa71a602b5"),
    ],
)
def test_tree_learner_scores_are_pinned(kind, digest):
    # the sha256 of each tree learner's score bytes on a fixed dataset, scored
    # on a matrix with missing cells; a change of the model format must keep
    # every score to the last bit
    import hashlib

    X, y = _pinned_data()
    params = GbdtParams(
        n_rounds=8, learning_rate=0.3, max_depth=3, subsample=0.8, colsample=0.8,
        max_bin_edges=15, n_trees=6,
    )
    model = fit_learner(LearnerKind(kind), X, y, params, np.random.default_rng(7))
    scored = X.copy()
    scored[::7, 0] = np.nan
    scored[3::5, 4] = np.nan
    scored[1::9, 7] = np.nan
    assert hashlib.sha256(predict_scores(model, scored).tobytes()).hexdigest() == digest


def test_svc_model_bytes_and_scores_are_pinned():
    # the sha256 of svc's model JSON and of its scores on a shifted matrix,
    # so that a change to how Pegasos standardizes keeps every bit
    import hashlib
    import json

    X, y = _pinned_data()
    params = GbdtParams(
        n_rounds=8, learning_rate=0.3, max_depth=3, subsample=0.8, colsample=0.8,
        max_bin_edges=15, n_trees=6,
    )
    model = fit_learner(LearnerKind.SVC, X, y, params, np.random.default_rng(7))
    text = json.dumps(model.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c46100c6556282b45c21d12c2b39d390ae52b79529ca19d7f4ed12c7733f3600"
    )
    scores = predict_scores(model, X * 1.5 - 0.25)
    assert hashlib.sha256(scores.tobytes()).hexdigest() == (
        "bb7dd32474cf0f295523469293131eb344c819a7abc2a3a0f6cffbcea93b8ac6"
    )

@pytest.mark.parametrize("kind", ["sk_rf", "lgb_rf", "sk_et", "lgb_gbdt", "cat"])
@pytest.mark.parametrize("rows, slots", [(1, 1), (70, 2000)])
def test_forest_does_not_depend_on_kernel_runs(monkeypatch, kind, rows, slots):
    # a level's nodes reach the split kernel in runs bounded by module
    # constants; every random draw is made per level, so the runs never
    # change a forest: one node per call, or a few, equals the default. The
    # forests and boosted trees (fit_trees) and the oblivious trees count
    # their runs' tables each in their own way, and no table they build is
    # over the cell bound unless it scores one node
    import shearwater.trees

    tables = []
    level_gains = shearwater.trees._level_gains

    def recorded(*args, **kwargs):
        gains, rank = level_gains(*args, **kwargs)
        tables.append((len(gains), gains.size, shearwater.trees._KERNEL_SLOTS))
        return gains, rank

    monkeypatch.setattr(shearwater.trees, "_level_gains", recorded)
    X, y = _pinned_data()
    params = small_params(n_trees=6, max_depth=4, max_bin_edges=15, min_child_weight=1.0)
    default = fit_learner(LearnerKind(kind), X, y, params, np.random.default_rng(5))
    monkeypatch.setattr(shearwater.trees, "_KERNEL_ROWS", rows)
    monkeypatch.setattr(shearwater.trees, "_KERNEL_SLOTS", slots)
    bounded = fit_learner(LearnerKind(kind), X, y, params, np.random.default_rng(5))
    assert bounded.to_dict() == default.to_dict()
    assert max(t.depth() for t in default.trees) >= 3
    assert tables and all(nodes == 1 or cells <= bound for nodes, cells, bound in tables)
    assert any(nodes > 1 for nodes, _, _ in tables)


def test_hist_fit_on_its_own_quantile_bins_does_not_import_numpy_ma():
    # 300 rows with a column of 300 distinct values: lgb_rf bins them itself
    # by quantiles, and the distinct edges are taken without np.unique,
    # which imports numpy.ma (about 1.2 MB); a fresh interpreter shows it
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from shearwater.boost import GbdtParams, LearnerKind, fit_learner\n"
        "X = np.random.default_rng(0).normal(size=(300, 3))\n"
        "y = (X[:, 0] > 0).astype(float)\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "model = fit_learner(LearnerKind.LGB_RF, X, y, GbdtParams(n_trees=2, max_depth=2),\n"
        "                    np.random.default_rng(0))\n"
        "assert model.trees, 'no trees'\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


# --- metamorphic relations ----------------------------------------------------
#
# A relation between two fits says whether a score is wrong without pinning
# its bytes: a change that keeps every learner's meaning keeps each one.

def _relation_data():
    """150 x 12 rows with a tied column and missing cells filled by their
    column medians, as evalcv fills a training set, and labels that depend
    on three columns."""
    from shearwater.datasets import column_medians, fill_missing

    rng = np.random.default_rng(2011)
    X = rng.normal(size=(150, 12))
    X[:, 3] = X[:, 3].round(1)  # ties: about 40 distinct values
    X[rng.random(X.shape) < 0.05] = np.nan
    X = fill_missing(X, column_medians(X))
    y = (X[:, 0] + 0.5 * X[:, 3] - 0.5 * X[:, 7] + rng.normal(0, 0.5, 150) > 0).astype(float)
    return X, y


def _relation_scores(kind, X, y, params):
    """The scores on X of ``kind`` fitted on X with a generator of seed 3."""
    return predict_scores(fit_learner(LearnerKind(kind), X, y, params, np.random.default_rng(3)), X)


@pytest.mark.parametrize("max_bin_edges", [255, 7], ids=["lossless", "quantile_bins"])
@pytest.mark.parametrize("kind", [kind.value for kind in LearnerKind])
def test_scaling_by_a_power_of_two_changes_no_score(kind, max_bin_edges):
    # 2x and 0.25x are exact in binary floating point, and every step of
    # every learner commutes with them: midpoint cuts, medians, quantile
    # interpolation, sk_et's uniform draws between a node's bounds and svc's
    # standardization; so at default sampling (subsample and colsample 0.8,
    # the same draws) each score on cX equals, bit for bit, the one on X.
    # At max_bin_edges 7 every column of 150 rows is binned by quantiles
    X, y = _relation_data()
    params = GbdtParams(n_rounds=20, max_depth=3, n_trees=30, max_bin_edges=max_bin_edges)
    base = _relation_scores(kind, X, y, params)
    assert np.unique(base).size > 2  # the fit used the features
    for c in (2.0, 0.25):
        assert _relation_scores(kind, c * X, y, params).tobytes() == base.tobytes(), c


@pytest.mark.parametrize("max_bin_edges", [255, 7], ids=["lossless", "quantile_bins"])
@pytest.mark.parametrize("kind", ["xgb_binary", "xgb_rank", "lgb_gbdt", "cat"])
def test_a_monotone_transform_changes_no_booster(kind, max_bin_edges):
    # without sampling a booster's trees depend on each column's ranks
    # alone: which rows share a bin, which cut wins, and on which side each
    # training row falls, also where a quantile edge falls between two
    # values; so g(x) = x**3 + x, strictly increasing, changes no score on
    # the training rows. The other learners are left out, for they need not
    # agree, and on these rows each does not in at least one bin setting: a
    # bootstrap cut falls midway between in-bag values, so an out-of-bag
    # value between them can change sides under g (lgb_rf, sk_rf); sk_et
    # draws its thresholds on the raw scale; svc is linear
    X, y = _relation_data()
    params = GbdtParams(n_rounds=20, max_depth=3, subsample=1.0, colsample=1.0,
                        max_bin_edges=max_bin_edges)
    base = _relation_scores(kind, X, y, params)
    assert np.unique(base).size > 2
    assert _relation_scores(kind, X**3 + X, y, params).tobytes() == base.tobytes()
