import hashlib
from dataclasses import replace

import numpy as np
import pytest

from shearwater.datasets import DatasetMode, build_datasets
from shearwater.geokin import feature_series
from shearwater.synthgen import SynthParams, _clipped_walk, generate_corpus
from shearwater.trajdata import CorpusReader, labels_to_csv, load_labels, save_corpus, trajectory_to_csv


def tiny_params(**overrides):
    base = dict(n_birds=12, seed=99, trip_length_min=20, trip_length_max=40)
    base.update(overrides)
    return SynthParams(**base)


def corpus_sha256(corpus):
    """sha256 of every trajectory's CSV text in bird order, then the labels CSV."""
    digest = hashlib.sha256()
    for bird in corpus.bird_ids:
        digest.update(trajectory_to_csv(corpus[bird]).encode())
    digest.update(labels_to_csv(corpus.labels).encode())
    return digest.hexdigest()


# Corpus bytes as the per-step walk wrote them; the vectorized walk must keep them.
# The second corpus starts next to the 85° / 179° clip at high speed.
CLIPPING = dict(start_lat=84.95, start_lon=178.9, male_speed=300, female_speed=250, speed_sigma=50)


@pytest.mark.parametrize(
    "params, sha256",
    [
        (tiny_params(), "2fcbabfd5b337b6cfe870945ba5b3f07d3f8992d7cf32314d849ff3498477b2e"),
        (
            SynthParams(n_birds=40, seed=7, **CLIPPING),
            "16469bd61c80e9c71a8d94d05519ee494addf119802a2d27a0a39303cee213d9",
        ),
    ],
    ids=["tiny", "clipping"],
)
def test_corpus_bytes_are_pinned(params, sha256):
    assert corpus_sha256(generate_corpus(params)) == sha256


def test_clipping_corpus_reaches_the_clip_bounds():
    for traj in generate_corpus(SynthParams(n_birds=40, seed=7, **CLIPPING)).trajectories.values():
        # every point after the unclipped start is within bounds, and some sit on one
        lat, lon = np.abs(traj.latitude[1:]), np.abs(traj.longitude[1:])
        assert lat.max() <= 85.0 and lon.max() <= 179.0
        assert (lat == 85.0).any() or (lon == 179.0).any()


def _per_step_walk(start, steps, bound):
    """The one-step-at-a-time walk that _clipped_walk replaced, kept as its oracle."""
    out = np.empty(len(steps) + 1)
    out[0] = start
    for t, step in enumerate(steps):
        out[t + 1] = np.clip(out[t] + step, -bound, bound)
    return out


@pytest.mark.parametrize("start", [84.9, -84.9, 0.0, 90.0, -200.0])
def test_clipped_walk_matches_the_per_step_walk(start):
    rng = np.random.default_rng(int(abs(start) * 10))
    for scale in (0.01, 0.5, 5.0):
        steps = rng.normal(0.0, scale, size=300) + np.sign(start) * scale / 4
        for bound in (85.0, 179.0):
            walk = _clipped_walk(start, steps, bound)
            assert walk.tobytes() == _per_step_walk(start, steps, bound).tobytes()
    assert _clipped_walk(start, np.empty(0), 85.0).tolist() == [start]


def test_generation_deterministic():
    a = generate_corpus(tiny_params())
    b = generate_corpus(tiny_params())
    assert a.bird_ids == b.bird_ids
    assert a.labels == b.labels
    for bird in a.bird_ids:
        assert a[bird] == b[bird]


def test_different_seed_different_corpus():
    a = generate_corpus(tiny_params(seed=1))
    b = generate_corpus(tiny_params(seed=2))
    assert any(a[x] != b[x] for x in a.bird_ids)


def test_all_points_satisfy_invariants():
    corpus = generate_corpus(tiny_params(n_birds=20))
    for traj in corpus.trajectories.values():
        traj.validate()  # raises on any violation
        assert len(traj) >= 20


def test_trajectories_survive_csv_round_trip(tmp_path):
    corpus = generate_corpus(tiny_params())
    save_corpus(corpus, tmp_path / "trips", tmp_path / "labels.csv")
    reader = CorpusReader(tmp_path / "trips")
    assert reader.bird_ids == corpus.bird_ids
    assert load_labels(tmp_path / "labels.csv", reader.bird_ids) == corpus.labels
    for bird in corpus.bird_ids:
        assert reader[bird] == corpus[bird]


def test_gender_draw_roughly_balanced():
    corpus = generate_corpus(tiny_params(n_birds=300))
    males = sum(corpus.labels.values())
    assert 110 <= males <= 190


def test_planted_velocity_signal_is_measurable():
    corpus = generate_corpus(tiny_params(n_birds=60))
    means = {0: [], 1: []}
    for bird in corpus.bird_ids:
        means[corpus.labels[bird]].append(feature_series(corpus[bird])["velocity"].mean())
    assert np.mean(means[1]) > np.mean(means[0]) + 1.0


def test_null_signal_params_equalize_genders():
    base = tiny_params()
    params = replace(base, male_speed=base.female_speed,
                     male_turn_concentration=base.female_turn_concentration)
    corpus = generate_corpus(params)
    means = {0: [], 1: []}
    for bird in corpus.bird_ids:
        means[corpus.labels[bird]].append(feature_series(corpus[bird])["velocity"].mean())
    assert abs(np.mean(means[1]) - np.mean(means[0])) < 1.0


def test_day_and_night_both_present():
    corpus = generate_corpus(tiny_params(n_birds=30, trip_length_min=100, trip_length_max=200))
    day_points = sum(int(t.daytime.sum()) for t in corpus.trajectories.values())
    total = sum(len(t) for t in corpus.trajectories.values())
    assert 0 < day_points < total


def test_corpus_feeds_both_dataset_modes():
    corpus = generate_corpus(tiny_params(n_birds=8, trip_length_min=40, trip_length_max=60))
    built = build_datasets(corpus, [DatasetMode.TOGETHER, DatasetMode.SPLIT])
    (together, _), (split, _) = built[DatasetMode.TOGETHER], built[DatasetMode.SPLIT]
    assert together.values.shape == (8, 248)
    assert split.values.shape == (8, 496)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        generate_corpus(tiny_params(trip_length_min=5))
    with pytest.raises(ValueError):
        generate_corpus(tiny_params(male_speed=-1.0))
    with pytest.raises(ValueError):
        generate_corpus(tiny_params(cadence_jitter_s=40.0))
