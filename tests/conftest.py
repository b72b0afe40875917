import numpy as np
import pytest

from shearwater.trajdata import Trajectory


def make_traj(
    bird_id="b1",
    longitude=None,
    latitude=None,
    elapsed=None,
    sun_azimuth=None,
    sun_elevation=None,
    daytime=None,
    local_time=None,
    days=None,
):
    """Trajectory with sensible fill-ins for fields a test does not care about."""
    longitude = np.asarray(longitude if longitude is not None else [139.0, 139.1], float)
    n = len(longitude)
    latitude = np.asarray(latitude if latitude is not None else [38.5] * n, float)
    elapsed = np.asarray(elapsed if elapsed is not None else np.arange(n) * 60.0, float)
    sun_azimuth = np.asarray(sun_azimuth if sun_azimuth is not None else [180.0] * n, float)
    sun_elevation = np.asarray(sun_elevation if sun_elevation is not None else [30.0] * n, float)
    daytime = np.asarray(daytime if daytime is not None else [1] * n, np.int64)
    local_time = np.asarray(local_time if local_time is not None else [43200] * n, np.int64)
    days = np.asarray(days if days is not None else [1] * n, np.int64)
    return Trajectory(
        bird_id=bird_id,
        longitude=longitude,
        latitude=latitude,
        sun_azimuth=sun_azimuth,
        sun_elevation=sun_elevation,
        daytime=daytime,
        elapsed=elapsed,
        local_time=local_time,
        days=days,
    )


def loss_curve(model, X, y, loss):
    """The training loss after each boosting round, rebuilt from a fitted
    model: a round's margins are f0 plus its trees' predictions so far,
    summed in fit order as the boosting loop sums them."""
    margins = np.full(len(X), model.f0)
    curve = []
    for tree in model.trees:
        margins += tree.predict(X)
        curve.append(loss(margins, y))
    return curve


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
