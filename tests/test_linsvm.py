import numpy as np
import pytest

from shearwater.errors import PipelineError
from shearwater.linsvm import SvmModel, fit_pegasos, standardize_stats


def svm_objective(u, X_aug, y_signed, reg):
    """The objective Pegasos minimizes, in homogeneous form (bias inside the
    norm): reg/2 * ||u||^2 + mean_i max(0, 1 - y_i * (u . x_i))."""
    margins = y_signed * (X_aug @ u)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * reg * float(u @ u) + float(hinge.mean())


def blobs(rng, n_per=40, gap=3.0, sigma=0.3):
    a = rng.normal((-gap, -gap), sigma, size=(n_per, 2))
    b = rng.normal((gap, gap), sigma, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_per), np.ones(n_per)]).astype(int)
    return X, y


def test_separable_blobs_perfect_training_accuracy(rng):
    X, y = blobs(rng)
    model = fit_pegasos(X, y, reg_lambda=1e-2, epochs=40, rng=np.random.default_rng(1))
    scores = model.score(X)
    assert np.mean((scores > 0.0) == y) == 1.0


def test_single_class_raises():
    with pytest.raises(PipelineError, match="^pegasos needs both classes present$"):
        fit_pegasos(np.zeros((4, 2)), np.ones(4), rng=np.random.default_rng(0))


def test_objective_invariant_under_row_duplication(rng):
    X, y = blobs(rng, n_per=15)
    y_signed = np.where(y == 1, 1.0, -1.0)
    mean, std = standardize_stats(X)
    X_aug = np.column_stack([(X - mean) / std, np.ones(len(X))])
    u = rng.normal(size=3)
    doubled = np.vstack([X_aug, X_aug])
    assert svm_objective(u, X_aug, y_signed, 0.01) == pytest.approx(
        svm_objective(u, doubled, np.concatenate([y_signed, y_signed]), 0.01), rel=1e-12
    )


def test_constant_columns_get_zero_weight(rng):
    X, y = blobs(rng, n_per=20)
    X = np.column_stack([X, np.full(len(X), 7.0)])
    model = fit_pegasos(X, y, reg_lambda=1e-2, epochs=10, rng=np.random.default_rng(2))
    assert model.std[2] == 1.0
    assert model.weights[2] == 0.0


def test_objective_decreases_epoch1_to_final(rng):
    wins = 0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        n = 60
        X = gen.normal(size=(n, 4))
        noisy = X[:, 0] + 1.5 * gen.normal(size=n)
        y = (noisy > 0).astype(int)
        y_signed = np.where(y == 1, 1.0, -1.0)
        mean, std = standardize_stats(X)
        X_aug = np.column_stack([(X - mean) / std, np.ones(n)])

        early = fit_pegasos(X, y, reg_lambda=1e-2, epochs=1, rng=np.random.default_rng(seed))
        late = fit_pegasos(X, y, reg_lambda=1e-2, epochs=30, rng=np.random.default_rng(seed))
        obj_early = svm_objective(
            np.append(early.weights, early.bias), X_aug, y_signed, 1e-2
        )
        obj_late = svm_objective(np.append(late.weights, late.bias), X_aug, y_signed, 1e-2)
        if obj_late < obj_early:
            wins += 1
    assert wins >= 18


def test_hard_labels_invariant_to_affine_column_rescaling(rng):
    X, y = blobs(rng)
    model_a = fit_pegasos(X, y, reg_lambda=1e-2, epochs=25, rng=np.random.default_rng(5))
    X2 = X.copy()
    X2[:, 0] = 40.0 * X2[:, 0] - 17.0
    model_b = fit_pegasos(X2, y, reg_lambda=1e-2, epochs=25, rng=np.random.default_rng(5))
    labels_a = model_a.score(X) > 0.0
    labels_b = model_b.score(X2) > 0.0
    np.testing.assert_array_equal(labels_a, labels_b)


def test_svm_model_json_round_trip(rng):
    X, y = blobs(rng, n_per=10)
    model = fit_pegasos(X, y, reg_lambda=1e-2, epochs=5, rng=np.random.default_rng(3))
    again = SvmModel.from_dict(model.to_dict(), X.shape[1])
    np.testing.assert_array_equal(model.score(X), again.score(X))
