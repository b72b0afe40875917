import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearwater.errors import PipelineError
from shearwater.geokin import (
    EARTH_RADIUS_M,
    KINEMATIC_LIMIT,
    SERIES_NAMES,
    feature_series,
    haversine,
    wrap_degrees,
)
from shearwater.trajdata import parse_trajectory, trajectory_to_csv
from tests.conftest import make_traj


def law_of_cosines(lat1, lon1, lat2, lon2):
    """Independent spherical distance oracle."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return EARTH_RADIUS_M * math.acos(min(1.0, max(-1.0, c)))


ONE_DEGREE_M = math.pi * EARTH_RADIUS_M / 180.0  # 111194.92664455874


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
    d = feature_series(traj)["distance"]
    assert len(d) == 1
    assert d[0] == pytest.approx(ONE_DEGREE_M, abs=0.1)


def test_step_distances_stationary():
    traj = make_traj(longitude=[139.0] * 4, latitude=[38.0] * 4)
    assert np.all(feature_series(traj)["distance"] == 0.0)


def test_step_distances_three_points_one_degree():
    traj = make_traj(longitude=[0.0, 0.0, 0.0], latitude=[0.0, 1.0, 2.0])
    np.testing.assert_allclose(feature_series(traj)["distance"], [ONE_DEGREE_M] * 2, atol=0.1)


def test_velocity_one_degree_per_hour():
    traj = make_traj(longitude=[0.0, 0.0], latitude=[0.0, 1.0], elapsed=[0.0, 3600.0])
    assert feature_series(traj)["velocity"][0] == pytest.approx(30.887, abs=1e-3)


def test_velocity_stationary_zero():
    traj = make_traj(longitude=[5.0] * 3, latitude=[5.0] * 3)
    assert np.all(feature_series(traj)["velocity"] == 0.0)


def test_velocity_halves_when_gaps_double(rng):
    lon = rng.uniform(10, 11, 5)
    lat = rng.uniform(40, 41, 5)
    t = np.cumsum(rng.uniform(30, 90, 5))
    v1 = feature_series(make_traj(longitude=lon, latitude=lat, elapsed=t))["velocity"]
    v2 = feature_series(make_traj(longitude=lon, latitude=lat, elapsed=2 * t))["velocity"]
    np.testing.assert_allclose(v2, v1 / 2)


def test_velocity_invariant_to_elapsed_shift(rng):
    lon = rng.uniform(10, 11, 6)
    lat = rng.uniform(40, 41, 6)
    t = np.cumsum(rng.uniform(30, 90, 6))
    v1 = feature_series(make_traj(longitude=lon, latitude=lat, elapsed=t))["velocity"]
    shifted = make_traj(longitude=lon, latitude=lat, elapsed=t + 12345.0)
    v2 = feature_series(shifted)["velocity"]
    np.testing.assert_allclose(v1, v2, rtol=1e-12)


def test_acceleration_constant_velocity_zero():
    traj = make_traj(longitude=[0.0] * 4, latitude=[0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(feature_series(traj)["acceleration"], 0.0, atol=1e-12)


def test_acceleration_too_short():
    traj = make_traj(longitude=[0.0, 1.0], latitude=[0.0, 0.0])
    assert len(feature_series(traj)["acceleration"]) == 0


def test_acceleration_hand_computed():
    # velocities 10 then 16 m/s, second gap 60 s -> (16-10)/60 = 0.1
    lat0 = 0.0
    lat1 = np.degrees(10.0 * 60.0 / EARTH_RADIUS_M)
    lat2 = lat1 + np.degrees(16.0 * 60.0 / EARTH_RADIUS_M)
    traj = make_traj(
        longitude=[0.0] * 3, latitude=[lat0, lat1, lat2], elapsed=[0.0, 60.0, 120.0]
    )
    assert feature_series(traj)["acceleration"][0] == pytest.approx(0.1, rel=1e-6)


def test_deltas_linear():
    traj = make_traj(longitude=[1.0, 4.0, 9.0])
    np.testing.assert_array_equal(feature_series(traj)["longitude_delta"], [3.0, 5.0])


def test_deltas_constant_zero():
    traj = make_traj(longitude=[7.0] * 5, sun_elevation=[12.0] * 5)
    series = feature_series(traj)
    assert np.all(series["longitude_delta"] == 0.0)
    assert np.all(series["elevation_delta"] == 0.0)


def test_deltas_angular_wrap():
    traj = make_traj(longitude=[0.0, 0.1], sun_azimuth=[350.0, 10.0])
    np.testing.assert_array_equal(feature_series(traj)["azimuth_delta"], [20.0])


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
    by_name = feature_series(traj)
    assert tuple(by_name) == SERIES_NAMES
    assert len(by_name["velocity"]) == n - 1
    assert len(by_name["distance"]) == n - 1
    assert len(by_name["acceleration"]) == n - 2
    assert len(by_name["longitude"]) == n
    assert len(by_name["velocity_delta"]) == n - 2
    assert len(by_name["azimuth_delta"]) == n - 1


def _parsed(latitude, steps, azimuth):
    n = len(latitude)
    text = trajectory_to_csv(make_traj(
        longitude=[139.0] * n,
        latitude=latitude,
        elapsed=np.cumsum([0.0, *steps[: n - 1]]),
        sun_azimuth=azimuth[:n],
    ))
    return parse_trajectory("b1", text)


# elapsed steps that take a 1-degree latitude step's speed, or the
# acceleration of two such steps, to just under KINEMATIC_LIMIT
NEAR_LIMIT = {
    "velocity": ([0.0, 1.0], [ONE_DEGREE_M / KINEMATIC_LIMIT * 1.001]),
    "acceleration": ([0.0, 1.0, 2.0], [5.3e-73, 1.06e-72]),
}


@pytest.mark.parametrize("name", NEAR_LIMIT)
def test_series_near_the_kinematic_limit_are_finite(name):
    latitude, steps = NEAR_LIMIT[name]
    series = feature_series(_parsed(latitude, steps, [350.0, 10.0, 20.0]))
    assert KINEMATIC_LIMIT / 100 < np.abs(series[name]).max() <= KINEMATIC_LIMIT
    for values in series.values():
        assert np.isfinite(values).all()


@settings(max_examples=200, deadline=None)
@given(
    latitude=st.lists(st.floats(-90, 90) | st.floats(), min_size=2, max_size=6),
    steps=st.lists(st.floats(1e-300, 1e6) | st.sampled_from([1e-300, 1e-100]) | st.floats(),
                   min_size=5),
    azimuth=st.lists(st.floats(0, 359.9) | st.floats(), min_size=6),
)
@example(latitude=[0.0, 1.0, 3.0], steps=[1e-300] * 5, azimuth=[0.0] * 6)  # overflows
def test_every_series_of_a_parsed_track_is_finite(latitude, steps, azimuth):
    # parsing range-checks every coordinate and sun angle, and feature_series
    # refuses a speed or acceleration past the limit: a track either fails
    # there or has no NaN or infinity in any series
    try:
        series = feature_series(_parsed(latitude, steps, azimuth))
    except PipelineError:
        return
    for name, values in series.items():
        assert np.isfinite(values).all(), name
