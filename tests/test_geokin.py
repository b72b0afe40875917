import math

import numpy as np
import pytest

from shearwater.geokin import (
    EARTH_RADIUS_M,
    Series,
    delta_series,
    feature_series,
    haversine,
    wrap_degrees,
)
from tests.conftest import make_traj


def law_of_cosines(lat1, lon1, lat2, lon2):
    """Independent spherical distance oracle."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(min(1.0, max(-1.0, c)))


ONE_DEGREE_M = math.pi * EARTH_RADIUS_M / 180.0  # 111194.92664455874


def series_named(traj, name):
    return next(s for s in feature_series(traj) if s.name == name)


def test_haversine_identical_points():
    assert haversine(38.5, 139.0, 38.5, 139.0) == 0.0


def test_haversine_one_degree_latitude():
    assert haversine(0.0, 0.0, 1.0, 0.0) == pytest.approx(ONE_DEGREE_M, abs=0.1)


def test_haversine_quarter_circle():
    assert haversine(0.0, 0.0, 90.0, 0.0) == pytest.approx(math.pi * EARTH_RADIUS_M / 2, abs=1.0)


def test_haversine_symmetry_and_triangle(rng):
    pts = rng.uniform([-89, -179], [89, 179], size=(300, 2))
    for a, b, c in zip(pts[:100], pts[100:200], pts[200:]):
        dab = haversine(a[0], a[1], b[0], b[1])
        dba = haversine(b[0], b[1], a[0], a[1])
        assert dab == pytest.approx(dba, rel=1e-12)
        dac = haversine(a[0], a[1], c[0], c[1])
        dbc = haversine(b[0], b[1], c[0], c[1])
        assert dac <= dab + dbc + 1e-6


def test_haversine_matches_law_of_cosines_oracle(rng):
    done = 0
    while done < 1000:
        lat1, lat2 = rng.uniform(-89, 89, 2)
        lon1, lon2 = rng.uniform(-179, 179, 2)
        expected = law_of_cosines(lat1, lon1, lat2, lon2)
        if expected < 1000.0:
            continue
        got = haversine(lat1, lon1, lat2, lon2)
        assert abs(got - expected) / expected < 0.005
        done += 1


def test_step_distances_two_points():
    traj = make_traj(longitude=[139.0, 139.0], latitude=[38.0, 39.0])
    d = series_named(traj, "distance")
    assert len(d) == 1
    assert d.values[0] == pytest.approx(ONE_DEGREE_M, abs=0.1)


def test_step_distances_stationary():
    traj = make_traj(longitude=[139.0] * 4, latitude=[38.0] * 4)
    assert np.all(series_named(traj, "distance").values == 0.0)


def test_step_distances_three_points_one_degree():
    traj = make_traj(longitude=[0.0, 0.0, 0.0], latitude=[0.0, 1.0, 2.0])
    np.testing.assert_allclose(series_named(traj, "distance").values, [ONE_DEGREE_M] * 2, atol=0.1)


def test_velocity_one_degree_per_hour():
    traj = make_traj(longitude=[0.0, 0.0], latitude=[0.0, 1.0], elapsed=[0.0, 3600.0])
    assert series_named(traj, "velocity").values[0] == pytest.approx(30.887, abs=1e-3)


def test_velocity_stationary_zero():
    traj = make_traj(longitude=[5.0] * 3, latitude=[5.0] * 3)
    assert np.all(series_named(traj, "velocity").values == 0.0)


def test_velocity_halves_when_gaps_double(rng):
    lon = rng.uniform(10, 11, 5)
    lat = rng.uniform(40, 41, 5)
    t = np.cumsum(rng.uniform(30, 90, 5))
    v1 = series_named(make_traj(longitude=lon, latitude=lat, elapsed=t), "velocity").values
    v2 = series_named(make_traj(longitude=lon, latitude=lat, elapsed=2 * t), "velocity").values
    np.testing.assert_allclose(v2, v1 / 2)


def test_velocity_invariant_to_elapsed_shift(rng):
    lon = rng.uniform(10, 11, 6)
    lat = rng.uniform(40, 41, 6)
    t = np.cumsum(rng.uniform(30, 90, 6))
    v1 = series_named(make_traj(longitude=lon, latitude=lat, elapsed=t), "velocity").values
    shifted = make_traj(longitude=lon, latitude=lat, elapsed=t + 12345.0)
    v2 = series_named(shifted, "velocity").values
    np.testing.assert_allclose(v1, v2, rtol=1e-12)


def test_acceleration_constant_velocity_zero():
    traj = make_traj(longitude=[0.0] * 4, latitude=[0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(series_named(traj, "acceleration").values, 0.0, atol=1e-12)


def test_acceleration_too_short():
    traj = make_traj(longitude=[0.0, 1.0], latitude=[0.0, 0.0])
    assert len(series_named(traj, "acceleration")) == 0


def test_acceleration_hand_computed():
    # velocities 10 then 16 m/s, second gap 60 s -> (16-10)/60 = 0.1
    lat0 = 0.0
    lat1 = np.degrees(10.0 * 60.0 / EARTH_RADIUS_M)
    lat2 = lat1 + np.degrees(16.0 * 60.0 / EARTH_RADIUS_M)
    traj = make_traj(
        longitude=[0.0] * 3, latitude=[lat0, lat1, lat2], elapsed=[0.0, 60.0, 120.0]
    )
    assert series_named(traj, "acceleration").values[0] == pytest.approx(0.1, rel=1e-6)


def test_delta_series_linear():
    s = Series("x", np.array([1.0, 4.0, 9.0]))
    np.testing.assert_array_equal(delta_series(s).values, [3.0, 5.0])


def test_delta_series_constant_zero():
    s = Series("x", np.full(5, 7.0))
    assert np.all(delta_series(s).values == 0.0)


def test_delta_series_angular_wrap():
    s = Series("azimuth", np.array([350.0, 10.0]))
    np.testing.assert_array_equal(delta_series(s, angular=True).values, [20.0])


def test_wrap_degrees_half_open_interval():
    assert wrap_degrees(180.0) == 180.0
    assert wrap_degrees(-180.0) == 180.0
    assert wrap_degrees(190.0) == -170.0
    assert wrap_degrees(0.0) == 0.0


def test_series_lengths(rng):
    n = 9
    traj = make_traj(
        longitude=rng.uniform(0, 1, n),
        latitude=rng.uniform(0, 1, n),
        sun_azimuth=rng.uniform(0, 359, n),
        sun_elevation=rng.uniform(-10, 10, n),
    )
    by_name = {s.name: s for s in feature_series(traj)}
    assert len(by_name) == 12
    assert len(by_name["velocity"]) == n - 1
    assert len(by_name["distance"]) == n - 1
    assert len(by_name["acceleration"]) == n - 2
    assert len(by_name["longitude"]) == n
    assert len(by_name["velocity_delta"]) == n - 2
    assert len(by_name["azimuth_delta"]) == n - 1


def test_series_rejects_nan():
    with pytest.raises(ValueError):
        Series("x", np.array([1.0, np.nan]))
