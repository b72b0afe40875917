"""Linear support-vector classifier trained with Pegasos.

Columns are z-scored with statistics from the training fold (constant
columns get unit scale, leaving their weights at zero), then a bias column
of ones is appended and the homogeneous-form Pegasos recursion minimizes

    reg/2 * ||u||^2 + mean_i max(0, 1 - y_i * (u . x_i))

over the augmented vector u = (w, b) with step 1/(reg * t). The averaged
iterate is returned; scores are raw margins w . x_std + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PipelineError


@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    mean: np.ndarray
    std: np.ndarray

    def score(self, X: np.ndarray) -> np.ndarray:
        Z = np.array(X, dtype=np.float64)  # the one copy, standardized in place
        Z -= self.mean
        Z /= self.std
        return Z @ self.weights + self.bias

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict, n_features: int) -> "SvmModel":
        """Decode a model; ValueError unless bias is a float and weights, mean
        and std are lists of ``n_features`` floats, NaN included (json reads
        ``true`` as a bool and ``7`` as an int)."""
        if not isinstance(doc["bias"], float):
            raise ValueError(f"svm bias {doc['bias']!r} is not a float")
        arrays = {name: doc[name] for name in ("weights", "mean", "std")}
        for name, values in arrays.items():
            if type(values) is not list or [type(v) for v in values] != [float] * n_features:
                raise ValueError(f"svm {name} is not a list of {n_features} floats")
        return cls(bias=doc["bias"], **{name: np.array(v) for name, v in arrays.items()})


def standardize_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and standard deviation; constant columns get std 1."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    return mean, std


def fit_pegasos(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    reg_lambda: float = 1e-2,
    epochs: int = 30,
) -> SvmModel:
    """Averaged Pegasos on standardized features.

    ``y`` is 0/1 and mapped internally to -1/+1. A data error when one
    class is absent.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.size == 0 or y.min() == y.max():  # not np.unique, as in evalcv.tune_threshold
        raise PipelineError("pegasos needs both classes present")
    y_signed = np.where(y == 1, 1.0, -1.0)
    mean, std = standardize_stats(X)
    n, d = X.shape[0], X.shape[1] + 1
    X_aug = np.empty((n, d))  # (X - mean) / std and a bias column, with no temporaries
    np.subtract(X, mean, out=X_aug[:, :-1])
    np.divide(X_aug[:, :-1], std, out=X_aug[:, :-1])
    X_aug[:, -1] = 1.0

    u = np.zeros(d)
    u_sum = np.zeros(d)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg_lambda * t)
            u *= 1.0 - eta * reg_lambda  # = 1 - 1/t
            if y_signed[i] * (u @ X_aug[i]) < 1.0:
                u += eta * y_signed[i] * X_aug[i]
            u_sum += u
    u_avg = u_sum / t
    return SvmModel(weights=u_avg[:-1], bias=float(u_avg[-1]), mean=mean, std=std)
