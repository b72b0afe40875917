import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwater import geokin
from shearwater.errors import PipelineError
from shearwater.featex import (
    EXCEEDANCE,
    SUMMARY_PROBS,
    SUMMARY_SUFFIXES,
    THRESHOLD_NAMES,
    bird_features,
    exceedance_counts,
    feature_names,
    first_k_coords,
    pca_features,
    summarize,
    velocity_thresholds,
)
from shearwater.geokin import feature_series
from shearwater.trees import _quantiles
from tests.conftest import make_traj


def quantile_oracle(values, p):
    """Brute-force sort-and-interpolate, written independently."""
    s = sorted(float(v) for v in values)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    if lo >= len(s) - 1:
        return s[-1]
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


def quantile(values, p):
    """The quantile rule of the summaries and thresholds at one level."""
    return float(_quantiles(np.sort(values), [p])[0])


def test_quantile_even_median():
    assert quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.5


def test_quantile_p0_is_min():
    assert quantile(np.array([4.0, 1.0, 3.0]), 0.0) == 1.0


def test_quantile_interpolated():
    # h = 3 * 0.25 = 0.75 -> 10 + 0.75 * 10
    assert quantile(np.array([10.0, 20.0, 30.0, 40.0]), 0.25) == 17.5


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    ),
    p=st.floats(min_value=0.0, max_value=1.0),
)
def test_quantile_matches_oracle(values, p):
    got = quantile(np.array(values), p)
    want = quantile_oracle(values, p)
    if want == 0.0:
        assert got == 0.0
    else:
        assert got == want or abs(got - want) / abs(want) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
    ),
    p1=st.floats(min_value=0.0, max_value=1.0),
    p2=st.floats(min_value=0.0, max_value=1.0),
)
def test_quantile_monotone_in_p(values, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    arr = np.array(values)
    assert quantile(arr, lo) <= quantile(arr, hi)


def test_summarize_constant_series():
    out = summarize(np.full(7, 3.25))
    np.testing.assert_array_equal(out, np.full(18, 3.25))


def test_summarize_empty_all_missing():
    out = summarize(np.empty(0))
    assert out.shape == (18,)
    assert np.isnan(out).all()


def test_summarize_mean_min_max():
    out = summarize(np.array([0.0, 10.0]))
    label = dict(zip(SUMMARY_SUFFIXES, out))
    assert label["mean"] == 5.0
    assert label["min"] == 0.0 == label["q000"]
    assert label["max"] == 10.0 == label["q100"]


def test_summarize_permutation_invariant(rng):
    values = rng.normal(size=40)
    a = summarize(values)
    b = summarize(values[rng.permutation(40)])
    np.testing.assert_array_equal(a, b)


def test_summarize_quantiles_nondecreasing(rng):
    out = summarize(rng.normal(size=25))
    quantile_block = out[: len(SUMMARY_PROBS)]
    assert np.all(np.diff(quantile_block) >= 0)


def test_velocity_thresholds_layout(rng):
    pooled = rng.uniform(0, 20, 500)
    th = velocity_thresholds(pooled)
    assert th.shape == (12,)
    assert th[0] == pytest.approx(pooled.mean())
    assert np.all(np.diff(th[1:]) >= 0)  # quantiles nondecreasing


def test_velocity_thresholds_refuses_an_empty_pool():
    with pytest.raises(PipelineError, match="^cannot compute thresholds from an empty pool$"):
        velocity_thresholds(np.empty(0))


def test_exceedance_strict_inequality():
    th = np.full(12, 2.0)
    counts = exceedance_counts(np.array([1.0, 2.0, 3.0]), th)
    np.testing.assert_array_equal(counts, np.full(12, 1))


def test_exceedance_empty_series_is_zeros():
    th = np.arange(12.0)
    np.testing.assert_array_equal(exceedance_counts(np.empty(0), th), np.zeros(12))


def test_exceedance_all_below():
    th = np.full(12, 100.0)
    counts = exceedance_counts(np.array([1.0, 2.0]), th)
    assert counts.sum() == 0


def test_first_k_exact_five():
    traj = make_traj(
        longitude=[1.0, 2.0, 3.0, 4.0, 5.0], latitude=[11.0, 12.0, 13.0, 14.0, 15.0]
    )
    out = first_k_coords(traj)
    np.testing.assert_array_equal(out, [1, 2, 3, 4, 5, 11, 12, 13, 14, 15])


def test_first_k_padding_repeats_last():
    traj = make_traj(longitude=[1.0, 2.0], latitude=[11.0, 12.0])
    out = first_k_coords(traj)
    np.testing.assert_array_equal(out, [1, 2, 2, 2, 2, 11, 12, 12, 12, 12])


def test_first_k_length_always_ten(rng):
    for n in (2, 3, 7, 12):
        traj = make_traj(longitude=rng.uniform(0, 1, n), latitude=rng.uniform(0, 1, n))
        assert first_k_coords(traj).shape == (10,)


def test_pca_rank_one_data():
    # collinear lon/lat, constant elapsed spacing on a meridian -> constant
    # velocity; azimuth/elevation constant: single nonzero eigenvalue
    n = 10
    lat = np.linspace(0.0, 0.009, n)
    traj = make_traj(longitude=np.full(n, 5.0), latitude=lat)
    out = pca_features(traj, feature_series(traj)["velocity"])
    ratios = out[:5]
    np.testing.assert_allclose(ratios, [1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_pca_ratios_sum_to_one(rng):
    n = 30
    traj = make_traj(
        longitude=rng.uniform(0, 1, n),
        latitude=rng.uniform(0, 1, n),
        sun_azimuth=rng.uniform(0, 359, n),
        sun_elevation=rng.uniform(-50, 50, n),
    )
    out = pca_features(traj, feature_series(traj)["velocity"])
    ratios, axis = out[:5], out[5:]
    assert ratios.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(ratios >= 0)
    assert np.all(np.diff(ratios) <= 1e-12)  # descending
    assert np.linalg.norm(axis) == pytest.approx(1.0, rel=1e-9)
    assert axis[np.argmax(np.abs(axis))] > 0


def test_pca_too_short_missing():
    traj = make_traj(longitude=[0.0, 1.0], latitude=[0.0, 0.0])
    assert np.isnan(pca_features(traj, feature_series(traj)["velocity"])).all()


def test_feature_names_width_and_uniqueness():
    names = feature_names()
    assert len(names) == 248  # 12*18 + 12 + 10 + 10
    assert len(set(names)) == 248


def test_bird_features_width(rng):
    n = 15
    traj = make_traj(longitude=rng.uniform(0, 1, n), latitude=rng.uniform(0, 1, n))
    row, velocity = bird_features(traj)
    assert row.shape == (248,)
    np.testing.assert_array_equal(velocity, feature_series(traj)["velocity"])


def test_bird_features_deterministic(rng):
    n = 12
    traj = make_traj(
        longitude=rng.uniform(0, 1, n),
        latitude=rng.uniform(0, 1, n),
        sun_azimuth=rng.uniform(0, 359, n),
    )
    a = bird_features(traj)
    b = bird_features(traj)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_bird_features_stationary_velocity_blocks():
    traj = make_traj(longitude=[3.0] * 8, latitude=[4.0] * 8)
    row, velocity = bird_features(traj)
    feats = dict(zip(feature_names(), row))
    for suffix in SUMMARY_SUFFIXES:
        assert feats[f"velocity_{suffix}"] == 0.0
    assert np.all(exceedance_counts(velocity, np.zeros(12)) == 0)


def test_bird_features_no_thresholds_marks_exceedance_missing():
    # the counts need thresholds pooled over a corpus; the matrix build fills them
    traj = make_traj(longitude=[0.0, 1.0, 2.0], latitude=[0.0, 0.0, 0.0])
    row, _ = bird_features(traj)
    feats = dict(zip(feature_names(), row))
    for level in THRESHOLD_NAMES:
        assert np.isnan(feats[f"exceed_gt_{level}"])
    assert np.isnan(row[EXCEEDANCE]).all()
    assert np.isfinite(np.delete(row, np.r_[EXCEEDANCE])).all()


def test_bird_features_makes_one_haversine_pass(rng, monkeypatch):
    real, calls = geokin.haversine, []
    monkeypatch.setattr(geokin, "haversine", lambda *args: calls.append(args) or real(*args))
    n = 12
    traj = make_traj(longitude=rng.uniform(0, 1, n), latitude=rng.uniform(0, 1, n))
    bird_features(traj)
    assert len(calls) == 1


def test_bird_features_empty_track_all_missing():
    traj = make_traj(longitude=[0.0, 1.0], latitude=[0.0, 0.0], daytime=[1, 1]).filter_daytime(0)
    out, velocity = bird_features(traj)
    assert out.shape == (248,)
    assert np.isnan(out).all()
    assert velocity is None
