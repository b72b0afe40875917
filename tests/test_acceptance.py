"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
drive the real CLI on synthetic corpora with a lean (config-overridable)
hyperparameter profile sized for a single desktop core.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from shearwater.boost import (
    GbdtParams,
    LearnerKind,
    _fit_matrix,
    fit_learner,
    logistic_grad_hess,
    logistic_loss,
    pairwise_grad_hess,
    pairwise_loss,
    predict_scores,
)
from shearwater.cli import EXIT_OK, main
from shearwater.errors import PipelineError
from shearwater.evalcv import f1_score, make_folds
from shearwater.featex import SUMMARY_PROBS, quantile
from shearwater.geokin import EARTH_RADIUS_M, haversine
from shearwater.synthgen import SynthParams, generate_corpus
from shearwater.trees import TreeParams, build_bins, fit_tree_hist
from tests.conftest import loss_curve
from tests.test_trees import assert_root_matches_oracle

ACCEPTANCE_PARAMS = {
    "n_rounds": 40,
    "learning_rate": 0.15,
    "max_depth": 3,
    "subsample": 0.8,
    "colsample": 0.8,
    "n_trees": 50,
    "svm_epochs": 15,
    "svm_reg": 0.01,
}


def log(msg):
    print(f"\nPASS {msg}")


# --- criterion 1: geodesy oracle ------------------------------------------------

def test_criterion_01_geodesy_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    assert haversine(12.0, 34.0, 12.0, 34.0) == 0.0

    checked = 0
    while checked < 1000:
        lat1, lat2 = rng.uniform(-89, 89, 2)
        lon1, lon2 = rng.uniform(-179, 179, 2)
        p1, p2 = math.radians(lat1), math.radians(lat2)
        cosc = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(
            math.radians(lon2 - lon1)
        )
        oracle = EARTH_RADIUS_M * math.acos(min(1.0, max(-1.0, cosc)))
        if oracle <= 1000.0:
            continue
        got = haversine(lat1, lon1, lat2, lon2)
        assert abs(got - oracle) / oracle < 0.005
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    log(f"criterion 1: haversine within 0.5% of law-of-cosines on 1000 pairs ({elapsed:.2f}s)")


# --- criterion 2: quantile oracle ------------------------------------------------

def test_criterion_02_quantile_oracle():
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(1, 80))
        values = rng.normal(scale=rng.uniform(0.1, 100.0), size=n)
        for p in SUMMARY_PROBS:
            got = quantile(values, p)
            s = sorted(values.tolist())
            h = (n - 1) * p
            lo = math.floor(h)
            want = s[-1] if lo >= n - 1 else s[lo] + (h - lo) * (s[lo + 1] - s[lo])
            assert got == want or abs(got - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(PipelineError, match="^quantile of empty series$"):
        quantile(np.empty(0), 0.5)
    log("criterion 2: quantile matches sort-and-interpolate oracle on 500 series x 15 levels")


# --- criterion 3: tree split oracle ----------------------------------------------

def test_criterion_03_tree_root_oracle():
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        grad = rng.normal(size=n)
        hess = rng.uniform(0.05, 2.0, size=n)
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        mcw = float(rng.choice([0.0, 0.3]))
        # the exact backend's bins, as xgb_binary builds them once per model
        binned, bins = _fit_matrix("exact", X, GbdtParams().max_bin_edges)
        tree = fit_tree_hist(
            binned, grad, hess, bins, TreeParams(max_depth=1, reg_lambda=lam, min_child_weight=mcw)
        )
        assert_root_matches_oracle(tree, X, grad, hess, lam, mcw, tol=1e-9)
    log("criterion 3: exact-split root matches brute-force enumeration on 200 instances")


# --- criterion 4: histogram equivalence -------------------------------------------

def test_criterion_04_histogram_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(50):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        params = GbdtParams(
            n_rounds=8,
            learning_rate=0.2,
            max_depth=3,
            subsample=1.0,
            colsample=1.0,
            min_child_weight=0.0,
        )
        bins, _ = build_bins(X)
        assert all(e.size <= 255 for e in bins.edges)  # lossless here
        exact = fit_learner(LearnerKind.XGB_BINARY, X, y, params, np.random.default_rng(0))
        hist = fit_learner(LearnerKind.LGB_GBDT, X, y, params, np.random.default_rng(0))
        np.testing.assert_array_equal(predict_scores(exact, X), predict_scores(hist, X))
    log("criterion 4: lossless-bin histogram models reproduce exact-backend predictions, 50 datasets")


# --- criterion 5: gradient checks ---------------------------------------------------

def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(505)
    h = 1e-5
    for _ in range(10):
        n = int(rng.integers(6, 11))
        margins = rng.normal(size=n)
        y = rng.integers(0, 2, n).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]

        # logistic: d/dF sum_i [softplus(F_i) - y_i F_i] = sigmoid(F) - y
        grad, _ = logistic_grad_hess(margins, y)
        for i in range(n):
            up, down = margins.copy(), margins.copy()
            up[i] += h
            down[i] -= h
            loss_up = float(np.sum(np.logaddexp(0.0, up) - y * up))
            loss_down = float(np.sum(np.logaddexp(0.0, down) - y * down))
            fd = (loss_up - loss_down) / (2 * h)
            assert abs(fd - grad[i]) / max(1e-8, abs(grad[i])) < 1e-6

        # pairwise rank loss, aggregated per instance
        scores = rng.normal(size=n)
        pgrad, _ = pairwise_grad_hess(scores, y.astype(int))
        for i in range(n):
            up, down = scores.copy(), scores.copy()
            up[i] += h
            down[i] -= h
            fd = (pairwise_loss(up, y) - pairwise_loss(down, y)) / (2 * h)
            assert abs(fd - pgrad[i]) / max(1e-8, abs(pgrad[i])) < 1e-6
    log("criterion 5: logistic and pairwise gradients match central finite differences at 1e-6")


# --- criterion 6: monotone training loss ---------------------------------------------

def test_criterion_06_monotone_training_loss():
    rng = np.random.default_rng(606)
    for _ in range(5):
        n = int(rng.integers(50, 90))
        X = rng.normal(size=(n, 5))
        y = (X[:, 1] - X[:, 3] + rng.normal(size=n) > 0).astype(float)
        params = GbdtParams(
            n_rounds=100, learning_rate=0.1, max_depth=3, subsample=1.0, colsample=1.0
        )
        model = fit_learner(LearnerKind.XGB_BINARY, X, y, params, np.random.default_rng(0))
        curve = loss_curve(model, X, y, logistic_loss)
        assert len(curve) == 100
        assert np.all(np.diff(curve) <= 1e-12)
    log("criterion 6: logistic GBDT training loss nonincreasing over 100 rounds, 5 datasets")


# --- pipeline helpers -------------------------------------------------------------------

def write_config(root, *, learners=None, modes=None, n_seeds, synth, base_seed=2018):
    doc = {
        "paths": {
            "train_dir": str(root / "train"),
            "train_labels": str(root / "train_labels.csv"),
            "test_dir": str(root / "test"),
            "test_labels": str(root / "test_labels.csv"),
            "out_dir": str(root / "out"),
        },
        "modes": modes or ["together", "split"],
        "learners": learners or [k.value for k in LearnerKind],
        "params": {"default": dict(ACCEPTANCE_PARAMS)},
        "n_seeds": n_seeds,
        "base_seed": base_seed,
        "k_folds": 5,
        "synth": synth,
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def run(args):
    code = main(args)
    assert code == EXIT_OK, f"command {args} exited {code}"


def read_summary(path):
    settings = {}
    ensemble = None
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["setting"] == "ensemble":
                ensemble = float(row["mean_f1"])
            else:
                settings[row["setting"]] = float(row["mean_f1"])
    return settings, ensemble


# --- criterion 7: end-to-end synthetic benchmark -------------------------------------------

def test_criterion_07_end_to_end_benchmark(tmp_path):
    start = time.monotonic()
    cfg = write_config(tmp_path, n_seeds=3, synth={})  # synth defaults: 600 birds
    run(["synth", "--config", str(cfg)])
    run(["extract", "--config", str(cfg)])
    run(["folds", "--config", str(cfg)])
    run(["cv", "--config", str(cfg)])
    settings, ensemble = read_summary(tmp_path / "out" / "cv_summary.csv")
    assert len(settings) == 16 * 3  # 8 learners x 2 modes x 3 seeds
    median_individual = float(np.median(list(settings.values())))
    elapsed = time.monotonic() - start
    assert ensemble is not None
    assert ensemble >= 0.85
    assert ensemble >= median_individual
    assert elapsed < 600.0
    log(
        "criterion 7: ensemble CV F1 "
        f"{ensemble:.4f} >= 0.85 and >= median setting {median_individual:.4f} "
        f"({elapsed:.0f}s for 16 settings x 3 seeds)"
    )


# --- criterion 8: null-signal control ---------------------------------------------------

def test_criterion_08_null_signal_control(tmp_path):
    null_synth = {
        "n_birds": 200,
        "male_speed": 9.0,
        "female_speed": 9.0,
        "male_turn_concentration": 4.0,
        "female_turn_concentration": 4.0,
    }
    cfg = write_config(tmp_path, n_seeds=1, synth=null_synth)
    run(["synth", "--config", str(cfg)])
    run(["extract", "--config", str(cfg)])
    run(["folds", "--config", str(cfg)])
    run(["cv", "--config", str(cfg)])

    corpus = generate_corpus(SynthParams(**null_synth))
    y = np.array([corpus.labels[b] for b in corpus.bird_ids])
    baseline = f1_score(np.ones_like(y), y)  # all-positive F1

    _, ensemble = read_summary(tmp_path / "out" / "cv_summary.csv")
    assert ensemble is not None
    assert baseline - 0.1 <= ensemble <= baseline + 0.1
    log(
        f"criterion 8: null-signal ensemble CV F1 {ensemble:.4f} within "
        f"[{baseline - 0.1:.4f}, {baseline + 0.1:.4f}] of all-positive baseline {baseline:.4f}"
    )


# --- criterion 9: determinism across runs and --jobs ---------------------------------------

def test_criterion_09_pipeline_determinism(tmp_path):
    outputs = []
    for run_id, jobs in (("a", 1), ("b", 2)):
        root = tmp_path / run_id
        root.mkdir()
        cfg = write_config(
            root,
            learners=["xgb_binary", "lgb_gbdt", "sk_rf", "svc"],
            n_seeds=2,
            synth={"n_birds": 60, "trip_length_min": 30, "trip_length_max": 60},
        )
        run(["synth", "--config", str(cfg)])
        run(["synth", "--config", str(cfg), "--role", "test"])
        run(["extract", "--config", str(cfg)])
        run(["folds", "--config", str(cfg)])
        run(["cv", "--config", str(cfg), "--jobs", str(jobs)])
        run(["train", "--config", str(cfg), "--jobs", str(jobs)])
        run(["predict", "--config", str(cfg)])
        run(["ensemble", "--config", str(cfg)])
        out = root / "out"
        prediction_files = sorted((out / "predictions").glob("*.csv"))
        outputs.append(
            {
                "ensemble": (out / "ensemble.csv").read_bytes(),
                "summary": (out / "cv_summary.csv").read_bytes(),
                "report": (out / "cv_report.csv").read_bytes(),
                "predictions": {p.name: p.read_bytes() for p in prediction_files},
                "folds": (out / "folds.csv").read_bytes(),
            }
        )
    assert outputs[0]["ensemble"] == outputs[1]["ensemble"]
    assert outputs[0]["summary"] == outputs[1]["summary"]
    assert outputs[0]["report"] == outputs[1]["report"]
    assert outputs[0]["folds"] == outputs[1]["folds"]
    assert outputs[0]["predictions"] == outputs[1]["predictions"]
    log("criterion 9: byte-identical pipeline outputs across reruns with --jobs 1 vs 2")


# --- criterion 10: fold contract --------------------------------------------------------

def test_criterion_10_fold_contract():
    rng = np.random.default_rng(1010)

    # one assignment is a pure function of (labels, k, seed): every setting
    # and both dataset modes consume the same file, so equality here is the
    # shared-split guarantee
    labels = {f"b{i:03d}": int(rng.integers(0, 2)) for i in range(80)}
    while min(sum(labels.values()), 80 - sum(labels.values())) < 5:
        labels = {f"b{i:03d}": int(rng.integers(0, 2)) for i in range(80)}
    reference = make_folds(labels, k=5, seed=77)
    for _ in range(5):
        assert make_folds(labels, k=5, seed=77).assignment == reference.assignment

    checked = 0
    while checked < 50:
        n = int(rng.integers(12, 120))
        labs = {f"b{i:03d}": int(rng.integers(0, 2)) for i in range(n)}
        ones = sum(labs.values())
        if min(ones, n - ones) < 5:
            continue
        folds = make_folds(labs, k=5, seed=int(rng.integers(0, 10000)))
        for cls in (0, 1):
            counts = np.zeros(5, dtype=int)
            for bird, fold in folds.assignment.items():
                if labs[bird] == cls:
                    counts[fold] += 1
            assert counts.max() - counts.min() <= 1
        checked += 1
    log("criterion 10: shared fold assignment deterministic; stratification bound holds on 50 label vectors")
