"""Deterministic synthetic shearwater-trip generator.

Each bird is a correlated random walk on the sphere with gender-dependent
cruise speed and turning concentration; the velocity-mean separation is
the planted signal because the velocity summaries downstream measure it
directly. The walk has no per-step loop: headings are a cumulative sum of
the turns, and latitude then longitude are cumulative sums of their steps,
clipped to ±85° / ±179° (:func:`_clipped_walk`). Sun geometry is a crude
diurnal sinusoid (features consume it numerically, so astronomical fidelity
is irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geokin import EARTH_RADIUS_M
from .trajdata import SECONDS_PER_DAY, Corpus, Trajectory


@dataclass
class SynthParams:
    n_birds: int = 600
    seed: int = 20180531
    male_speed: float = 12.0  # mean cruise speed, m/s
    female_speed: float = 9.0
    speed_sigma: float = 2.0
    male_turn_concentration: float = 8.0  # higher = straighter flight
    female_turn_concentration: float = 4.0
    trip_length_min: int = 60  # points per trip
    trip_length_max: int = 150
    cadence_s: float = 60.0  # nominal fix interval
    cadence_jitter_s: float = 5.0
    cycle_period_s: float = float(SECONDS_PER_DAY)
    start_lon: float = 139.0
    start_lat: float = 38.5

    def validate(self) -> None:
        """ValueError naming the first field outside its domain (NaN is in none)."""
        for name, domain, ok in (
            ("n_birds", ">= 1", self.n_birds >= 1),
            ("seed", ">= 0", self.seed >= 0),
            ("male_speed", "> 0", self.male_speed > 0),
            ("female_speed", "> 0", self.female_speed > 0),
            ("speed_sigma", ">= 0", self.speed_sigma >= 0),
            ("male_turn_concentration", "> 0", self.male_turn_concentration > 0),
            ("female_turn_concentration", "> 0", self.female_turn_concentration > 0),
            ("trip_length_min", ">= 10", self.trip_length_min >= 10),
            ("trip_length_max", ">= trip_length_min", self.trip_length_max >= self.trip_length_min),
            ("cadence_jitter_s", "in [0, cadence_s / 2)", 0 <= self.cadence_jitter_s < self.cadence_s / 2),
            ("cycle_period_s", "> 0", self.cycle_period_s > 0),
            # the first point lies within 0.2 degrees of the start, and must be on the globe
            ("start_lat", "in [-89.8, 89.8]", abs(self.start_lat) <= 89.8),
            ("start_lon", "in [-179.8, 179.8]", abs(self.start_lon) <= 179.8),
        ):
            if not ok:
                raise ValueError(f"{name} must be {domain}, got {getattr(self, name)!r}")


def _clipped_walk(start: float, steps: np.ndarray, bound: float) -> np.ndarray:
    """Points ``x[0] = start``, ``x[t + 1] = clip(x[t] + steps[t], -bound, bound)``.

    ``np.cumsum`` adds in sequence, so a run of unclipped points is the same
    floats as adding one step at a time. Each point past the bound is set to
    the bound and the sum restarts from it.
    """
    out = np.empty(len(steps) + 1)
    out[0] = start
    fixed = 0  # out[: fixed + 1] is final
    while fixed < len(steps):
        run = np.cumsum(np.concatenate((out[fixed : fixed + 1], steps[fixed:])))[1:]
        over = np.flatnonzero(np.abs(run) > bound)
        end = len(run) if over.size == 0 else int(over[0]) + 1
        out[fixed + 1 : fixed + 1 + end] = run[:end]
        if over.size:
            out[fixed + end] = np.clip(run[end - 1], -bound, bound)
        fixed += end
    return out


def _generate_bird(params: SynthParams, index: int) -> tuple[Trajectory, int]:
    # Private stream per bird so generation order / parallelism is irrelevant.
    rng = np.random.default_rng([params.seed, index])
    gender = int(rng.random() < 0.5)  # 1 = male
    speed_mu = params.male_speed if gender else params.female_speed
    kappa = params.male_turn_concentration if gender else params.female_turn_concentration
    n = int(rng.integers(params.trip_length_min, params.trip_length_max + 1))

    jitter = rng.uniform(-params.cadence_jitter_s, params.cadence_jitter_s, size=n)
    jitter[0] = 0.0
    elapsed = np.arange(n) * params.cadence_s + jitter

    start_local = float(rng.integers(0, SECONDS_PER_DAY))
    heading = rng.uniform(0.0, 2.0 * np.pi)
    lon0 = params.start_lon + rng.uniform(-0.2, 0.2)
    lat0 = params.start_lat + rng.uniform(-0.2, 0.2)
    speeds = np.maximum(0.1, rng.normal(speed_mu, params.speed_sigma, size=n - 1))
    turns = rng.normal(0.0, 1.0 / np.sqrt(kappa), size=n - 1)
    headings = np.cumsum(np.concatenate(([heading], turns)))[1:]
    dist = speeds * np.diff(elapsed)
    dlat = np.degrees(dist * np.cos(headings) / EARTH_RADIUS_M)
    lat = _clipped_walk(lat0, dlat, 85.0)
    dlon = np.degrees(dist * np.sin(headings) / (EARTH_RADIUS_M * np.cos(np.radians(lat[:-1]))))
    lon = _clipped_walk(lon0, dlon, 179.0)

    absolute = start_local + elapsed
    local_time = (absolute % SECONDS_PER_DAY).astype(np.int64)
    days = 1 + (absolute // SECONDS_PER_DAY).astype(np.int64)
    phase = np.mod(absolute, params.cycle_period_s) / params.cycle_period_s
    elevation = 60.0 * np.sin(2.0 * np.pi * phase - np.pi / 2.0)
    daytime = (elevation > 0.0).astype(np.int64)
    azimuth = np.mod(360.0 * phase + 180.0, 360.0)
    azimuth[azimuth >= 360.0] = 0.0

    traj = Trajectory(
        bird_id=f"bird_{index:04d}",
        longitude=lon,
        latitude=lat,
        sun_azimuth=azimuth,
        sun_elevation=elevation,
        daytime=daytime,
        elapsed=elapsed,
        local_time=local_time,
        days=days,
    )
    return traj, gender


def generate_corpus(params: SynthParams) -> Corpus:
    """Labeled synthetic corpus, bit-identical for identical params."""
    params.validate()
    trajectories = {}
    labels = {}
    for i in range(params.n_birds):
        traj, gender = _generate_bird(params, i)
        traj.validate()
        trajectories[traj.bird_id] = traj
        labels[traj.bird_id] = gender
    return Corpus(trajectories=trajectories, labels=labels)


def null_signal_params(base: SynthParams | None = None) -> SynthParams:
    """Copy of the params with both genders statistically identical."""
    base = base or SynthParams()
    return replace(
        base,
        male_speed=base.female_speed,
        male_turn_concentration=base.female_turn_concentration,
    )
