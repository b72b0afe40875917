"""Geodesic distances and kinematic series derived from a trajectory.

One haversine pass per track gives its per-step distance, speed and
acceleration (:func:`_steps`); :func:`feature_series` returns them with the
point-aligned series and their deltas, as float64 arrays keyed by
:data:`SERIES_NAMES`. All functions are pure. Degenerate inputs (too few
points for a difference) yield empty series rather than errors. Every
series of a parsed track is finite: parsing range-checks each coordinate
and sun angle, and a track whose elapsed_time steps are so small that a
speed or acceleration passes :data:`KINEMATIC_LIMIT` is a data error.
"""

from __future__ import annotations

import numpy as np

from .errors import PipelineError
from .trajdata import Trajectory

# Mean Earth radius, meters (IUGG mean radius R1).
EARTH_RADIUS_M = 6371008.8

# The largest speed (m/s) or acceleration (m/s^2) a track may have: far past
# any bird, and small enough that the squares and sums of a track's
# summaries and PCA stay finite.
KINEMATIC_LIMIT = 1e150

# The twelve per-point feature series, in canonical order: seven base
# series plus the five deltas.
SERIES_NAMES = (
    "velocity",
    "acceleration",
    "distance",
    "longitude",
    "latitude",
    "azimuth",
    "elevation",
    "velocity_delta",
    "longitude_delta",
    "latitude_delta",
    "azimuth_delta",
    "elevation_delta",
)


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters on a sphere of mean Earth radius.

    Accepts scalars or aligned arrays (degrees); symmetric and nonnegative.
    """
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lon2) - np.asarray(lon1))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _steps(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step distance (n-1), speed (n-1) and acceleration (n-2), from one
    haversine pass; all empty when n < 2.

    Speed is step distance over the elapsed gap. Acceleration element t is
    (v[t+1] - v[t]) / (elapsed[t+2] - elapsed[t+1]), the forward difference
    of speed over the following gap. A data error names the bird and the
    series when one passes KINEMATIC_LIMIT.
    """
    if len(traj) < 2:
        return np.empty(0), np.empty(0), np.empty(0)
    distance = haversine(
        traj.latitude[:-1], traj.longitude[:-1], traj.latitude[1:], traj.longitude[1:]
    )
    dt = np.diff(traj.elapsed)
    with np.errstate(all="ignore"):  # an overflow or NaN is refused below
        velocity = distance / dt
        acceleration = np.diff(velocity) / dt[1:]
    for name, values in (("velocity", velocity), ("acceleration", acceleration)):
        if not np.abs(values).max(initial=0.0) <= KINEMATIC_LIMIT:  # False for NaN
            raise PipelineError(
                f"{traj.bird_id}: {name} passes {KINEMATIC_LIMIT:g}; "
                "its elapsed_time steps are too small"
            )
    return distance, velocity, acceleration


def wrap_degrees(delta):
    """Wrap an angular difference in degrees into (-180, 180]."""
    return 180.0 - np.mod(180.0 - np.asarray(delta, dtype=np.float64), 360.0)


def feature_series(traj: Trajectory) -> dict[str, np.ndarray]:
    """The twelve per-point series of a trajectory, keyed and ordered by
    SERIES_NAMES.

    Point-aligned series (longitude, latitude, azimuth, elevation) keep full
    length n; step series have length n-1 and acceleration n-2. A delta is
    the consecutive difference s[t+1] - s[t] of its series; azimuth deltas
    wrap into (-180, 180], the remaining deltas are plain differences (the
    breeding range never crosses the antimeridian, so longitude is treated
    as linear).
    """
    distance, velocity, acceleration = _steps(traj)
    lon, lat, azi, ele = traj.longitude, traj.latitude, traj.sun_azimuth, traj.sun_elevation
    return dict(zip(SERIES_NAMES, (
        velocity, acceleration, distance, lon, lat, azi, ele,
        np.diff(velocity), np.diff(lon), np.diff(lat), wrap_degrees(np.diff(azi)), np.diff(ele),
    )))
