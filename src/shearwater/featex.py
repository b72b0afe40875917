"""Per-bird feature extraction: series summaries, velocity exceedance
counts, leading coordinates, and PCA of the point-aligned kinematics.

One bird reduces to a fixed-width vector of 248 named features; missing
values are NaN and get imputed downstream. :func:`bird_features` derives
the track's kinematic series once, reads its velocity array by name for the
PCA and returns it with the vector, whose exceedance counts need thresholds
pooled over a whole corpus (``datasets.build_datasets`` fills them in). Every
function here takes and returns plain arrays; the thresholds are a 12-vector
aligned with :data:`THRESHOLD_NAMES`. Summaries and thresholds interpolate
their quantiles by ``trees._quantiles``, the rule quantile bins cut by.
"""

from __future__ import annotations

import numpy as np

from .errors import PipelineError
from .geokin import SERIES_NAMES, feature_series
from .trajdata import Trajectory
from .trees import _quantiles

# Quantile levels of every series summary, plus mean/min/max.
SUMMARY_PROBS = (
    0.0, 0.05, 0.10, 0.20, 0.25, 0.30, 0.40, 0.50,
    0.60, 0.70, 0.75, 0.80, 0.90, 0.95, 1.0,
)
SUMMARY_SUFFIXES = tuple(f"q{int(round(p * 100)):03d}" for p in SUMMARY_PROBS) + (
    "mean",
    "min",
    "max",
)

# Pooled-velocity threshold levels: corpus mean plus these quantiles.
THRESHOLD_PROBS = (0.05, 0.10, 0.15, 0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)
THRESHOLD_NAMES = ("mean",) + tuple(f"q{int(round(p * 100)):03d}" for p in THRESHOLD_PROBS)

# Where the exceedance counts sit in a feature vector: after the summaries.
_N_SUMMARIES = len(SERIES_NAMES) * len(SUMMARY_SUFFIXES)
EXCEEDANCE = slice(_N_SUMMARIES, _N_SUMMARIES + len(THRESHOLD_NAMES))

PCA_COLUMNS = ("lon", "lat", "azimuth", "elevation", "velocity")
FIRST_K = 5

MISSING = np.nan


def summarize(values: np.ndarray) -> np.ndarray:
    """18 summary statistics: the 15 SUMMARY_PROBS quantiles, mean, min, max.

    An empty array yields an all-missing summary.
    """
    if values.size == 0:
        return np.full(len(SUMMARY_SUFFIXES), MISSING)
    s = np.sort(values)
    q = _quantiles(s, np.array(SUMMARY_PROBS))
    # mean over the sorted sample keeps the summary permutation-invariant
    # down to the last bit
    return np.concatenate([q, [s.mean(), s[0], s[-1]]])


def velocity_thresholds(pooled: np.ndarray) -> np.ndarray:
    """The 12 thresholds, aligned with THRESHOLD_NAMES, of a nonempty pooled
    velocity sample: its mean, then its THRESHOLD_PROBS quantiles."""
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.size == 0:
        raise PipelineError("cannot compute thresholds from an empty pool")
    s = np.sort(pooled)
    q = _quantiles(s, np.array(THRESHOLD_PROBS))
    return np.concatenate([[pooled.mean()], q])


def exceedance_counts(velocity: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many velocity samples strictly exceed each threshold."""
    if velocity.size == 0:
        return np.zeros(len(THRESHOLD_NAMES), dtype=np.int64)
    return (velocity[:, None] > thresholds[None, :]).sum(axis=0)


def first_k_coords(traj: Trajectory, k: int = FIRST_K) -> np.ndarray:
    """First k longitudes then first k latitudes of a nonempty track (last
    point repeated to pad)."""
    idx = np.minimum(np.arange(k), len(traj) - 1)
    return np.concatenate([traj.longitude[idx], traj.latitude[idx]])


def pca_features(traj: Trajectory, velocity: np.ndarray) -> np.ndarray:
    """PCA of the (lon, lat, azimuth, elevation, velocity) point matrix.

    ``velocity`` is the track's per-step speed (length n-1), so rows are
    points 1..n-1 and the positional columns drop their last point.
    Returns the five explained-variance ratios in descending order
    followed by the five loadings of the first principal axis, sign-fixed
    so the largest-magnitude loading is positive. Trajectories with n < 3
    or zero total variance yield all-missing.
    """
    if len(traj) < 3:
        return np.full(2 * len(PCA_COLUMNS), MISSING)
    m = np.column_stack(
        [
            traj.longitude[:-1],
            traj.latitude[:-1],
            traj.sun_azimuth[:-1],
            traj.sun_elevation[:-1],
            velocity,
        ]
    )
    centered = m - m.mean(axis=0)
    cov = centered.T @ centered / (m.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.clip(eigvals[::-1], 0.0, None)
    eigvecs = eigvecs[:, ::-1]
    total = eigvals.sum()
    if total <= 0.0:
        return np.full(2 * len(PCA_COLUMNS), MISSING)
    ratios = eigvals / total
    axis = eigvecs[:, 0]
    if axis[np.argmax(np.abs(axis))] < 0:
        axis = -axis
    return np.concatenate([ratios, axis])


def feature_names() -> list[str]:
    """The 248 feature names in extraction order."""
    names: list[str] = []
    for series_name in SERIES_NAMES:
        names += [f"{series_name}_{suffix}" for suffix in SUMMARY_SUFFIXES]
    names += [f"exceed_gt_{level}" for level in THRESHOLD_NAMES]
    names += [f"first_lon_{i + 1}" for i in range(FIRST_K)]
    names += [f"first_lat_{i + 1}" for i in range(FIRST_K)]
    names += [f"pca_var_ratio_{i + 1}" for i in range(len(PCA_COLUMNS))]
    names += [f"pca_axis1_{col}" for col in PCA_COLUMNS]
    return names


def bird_features(traj: Trajectory) -> tuple[np.ndarray, np.ndarray | None]:
    """The per-bird feature vector, aligned with :func:`feature_names`, with
    its exceedance block (at :data:`EXCEEDANCE`) missing, and the track's
    speeds, from which the exceedance counts are taken once the pooled
    thresholds are known.

    The trajectory may be arbitrarily short; statistics that cannot be
    computed come back as NaN. An empty trajectory (a day or night subset
    without points) is all NaN and has no speeds (None), so its exceedance
    block stays missing.
    """
    if len(traj) == 0:
        return np.full(len(feature_names()), MISSING), None
    series = feature_series(traj)
    velocity = series["velocity"]
    parts = [summarize(values) for values in series.values()]
    parts.append(np.full(len(THRESHOLD_NAMES), MISSING))
    parts.append(first_k_coords(traj))
    parts.append(pca_features(traj, velocity))
    return np.concatenate(parts), velocity
