import csv
import io

import numpy as np
import pytest

from shearwater.datasets import (
    DatasetMode,
    FeatureMatrix,
    build_dataset,
    impute,
    schema_columns,
)
from shearwater.errors import PipelineError
from shearwater.geokin import feature_series
from shearwater.trajdata import Corpus
from tests.conftest import make_traj


def small_corpus(rng, n_birds=3, n_points=10, labeled=True, daytime=None):
    trajectories = {}
    for i in range(n_birds):
        bird = f"b{i}"
        day = daytime if daytime is not None else rng.integers(0, 2, n_points)
        trajectories[bird] = make_traj(
            bird_id=bird,
            longitude=rng.uniform(139, 140, n_points),
            latitude=rng.uniform(38, 39, n_points),
            daytime=day,
        )
    labels = {f"b{i}": int(i % 2) for i in range(n_birds)} if labeled else None
    return Corpus(trajectories=trajectories, labels=labels)


def test_thresholds_stationary_corpus():
    traj = make_traj(longitude=[5.0] * 6, latitude=[5.0] * 6)
    corpus = Corpus(trajectories={"b0": traj})
    th = build_dataset(corpus, DatasetMode.TOGETHER)[1]["all"]
    assert th[0] == 0.0  # pooled mean velocity


def test_thresholds_match_bruteforce_pool(rng):
    corpus = small_corpus(rng, n_birds=3, n_points=7)
    pooled = np.concatenate([feature_series(corpus[b])["velocity"] for b in corpus.bird_ids])
    th = build_dataset(corpus, DatasetMode.TOGETHER)[1]["all"]
    # oracle: sort and interpolate by hand
    s = np.sort(pooled)
    for k, p in zip(range(1, 12), (0.05, 0.10, 0.15, 0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)):
        h = (len(s) - 1) * p
        lo = int(np.floor(h))
        hi = min(lo + 1, len(s) - 1)
        want = s[lo] + (h - lo) * (s[hi] - s[lo])
        assert th[k] == pytest.approx(want, rel=1e-12)
    assert th[0] == pytest.approx(pooled.mean())


def test_day_subset_of_all_day_corpus_equals_all(rng):
    corpus = small_corpus(rng, daytime=np.ones(10, dtype=np.int64))
    th_all = build_dataset(corpus, DatasetMode.TOGETHER)[1]["all"]
    th_day = build_dataset(corpus, DatasetMode.SPLIT)[1]["day"]
    np.testing.assert_array_equal(th_all, th_day)


def test_empty_pool_raises(rng):
    corpus = small_corpus(rng, daytime=np.ones(10, dtype=np.int64))
    assert build_dataset(corpus, DatasetMode.SPLIT)[1]["night"] is None


def test_build_together_shape(rng):
    corpus = small_corpus(rng, n_birds=3)
    matrix, _ = build_dataset(corpus, DatasetMode.TOGETHER)
    assert matrix.values.shape == (3, 248)
    assert matrix.bird_ids == ["b0", "b1", "b2"]
    assert matrix.labels is not None


def test_split_doubles_columns(rng):
    corpus = small_corpus(rng)
    together, _ = build_dataset(corpus, DatasetMode.TOGETHER)
    split, _ = build_dataset(corpus, DatasetMode.SPLIT)
    assert len(split.columns) == 2 * len(together.columns) == 496
    assert split.columns[0] == "day_" + together.columns[0]
    assert split.columns[248] == "night_" + together.columns[0]


def test_schema_pure_function_of_mode(rng):
    c1 = small_corpus(rng, n_birds=2)
    c2 = small_corpus(rng, n_birds=4)
    split1, _ = build_dataset(c1, DatasetMode.SPLIT)
    split2, _ = build_dataset(c2, DatasetMode.SPLIT)
    assert split1.columns == split2.columns
    together, _ = build_dataset(c1, DatasetMode.TOGETHER)
    assert schema_columns(DatasetMode.TOGETHER) == together.columns


def test_all_day_bird_has_missing_night_columns(rng):
    corpus = small_corpus(rng, n_birds=2, daytime=np.ones(10, dtype=np.int64))
    matrix, _ = build_dataset(corpus, DatasetMode.SPLIT)
    night_cols = [i for i, c in enumerate(matrix.columns) if c.startswith("night_")]
    assert np.isnan(matrix.values[:, night_cols]).all()


def test_all_day_bird_day_features_equal_together(rng):
    corpus = small_corpus(rng, daytime=np.ones(10, dtype=np.int64))
    together, _ = build_dataset(corpus, DatasetMode.TOGETHER)
    split, _ = build_dataset(corpus, DatasetMode.SPLIT)
    day_block = split.values[:, :248]
    np.testing.assert_array_equal(day_block, together.values)


def test_impute_median_rule():
    train = FeatureMatrix(
        bird_ids=["a", "b", "c"],
        columns=["x"],
        values=np.array([[1.0], [3.0], [np.nan]]),
    )
    target = FeatureMatrix(bird_ids=["z"], columns=["x"], values=np.array([[np.nan]]))
    out = impute(train, target)
    assert out.values[0, 0] == 2.0


def test_impute_no_missing_unchanged(rng):
    values = rng.normal(size=(4, 3))
    m = FeatureMatrix(bird_ids=list("abcd"), columns=["x", "y", "z"], values=values)
    out = impute(m, m)
    np.testing.assert_array_equal(out.values, values)


def test_impute_all_missing_column_fills_zero():
    train = FeatureMatrix(
        bird_ids=["a", "b"], columns=["x"], values=np.array([[np.nan], [np.nan]])
    )
    target = FeatureMatrix(bird_ids=["z"], columns=["x"], values=np.array([[np.nan]]))
    assert impute(train, target).values[0, 0] == 0.0


def test_impute_idempotent(rng):
    values = rng.normal(size=(5, 4))
    values[rng.random((5, 4)) < 0.3] = np.nan
    m = FeatureMatrix(bird_ids=list("abcde"), columns=list("wxyz"), values=values)
    once = impute(m, m)
    twice = impute(m, once)
    np.testing.assert_array_equal(once.values, twice.values)
    assert not np.isnan(once.values).any()


def test_impute_fill_equals_nanmedian(rng):
    # odd and even counts of observed values, an all-NaN column, signed zeros
    # and infinities; np.nanmedian's own warnings (inf - inf) are not ours
    for n in (1, 2, 7, 8, 40, 41):
        values = rng.choice([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan, 3.25], size=(n, 6))
        values[:, 0] = np.nan
        values[:, 1] = rng.normal(size=n)
        columns = list("abcdef")
        train = FeatureMatrix(bird_ids=[f"b{i}" for i in range(n)], columns=columns, values=values)
        target = FeatureMatrix(bird_ids=["z"], columns=columns, values=np.full((1, 6), np.nan))
        observed = ~np.isnan(values).all(axis=0)
        expected = np.zeros(6)
        with np.errstate(invalid="ignore"):
            expected[observed] = np.nanmedian(values[:, observed], axis=0)
        np.testing.assert_array_equal(impute(train, target).values[0], expected)


def test_impute_schema_mismatch():
    a = FeatureMatrix(bird_ids=["a"], columns=["x"], values=np.zeros((1, 1)))
    b = FeatureMatrix(bird_ids=["a"], columns=["y"], values=np.zeros((1, 1)))
    with pytest.raises(PipelineError, match="^imputation train/apply column schemas differ$"):
        impute(a, b)


def test_matrix_csv_round_trip(rng):
    corpus = small_corpus(rng)
    matrix, _ = build_dataset(corpus, DatasetMode.SPLIT)
    again = FeatureMatrix.from_csv(matrix.to_csv())
    assert again.bird_ids == matrix.bird_ids
    assert again.columns == matrix.columns
    np.testing.assert_array_equal(again.values, matrix.values)
    np.testing.assert_array_equal(again.labels, matrix.labels)


def test_matrix_csv_missing_serialized_empty(rng):
    corpus = small_corpus(rng, n_birds=2, daytime=np.ones(10, dtype=np.int64))
    matrix, _ = build_dataset(corpus, DatasetMode.SPLIT)
    first_row = matrix.to_csv().splitlines()[1]
    assert ",," in first_row  # consecutive empties from the night block


def _matrix_csv_per_cell(matrix):
    """The one-cell-at-a-time writer that FeatureMatrix.to_csv replaced, kept as its oracle."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    labels = ["label"] if matrix.labels is not None else []
    writer.writerow(["bird_id", *labels, *matrix.columns])
    for i, bird_id in enumerate(matrix.bird_ids):
        row = [bird_id]
        if matrix.labels is not None:
            row.append(str(int(matrix.labels[i])))
        row += ["" if np.isnan(v) else repr(float(v)) for v in matrix.values[i]]
        writer.writerow(row)
    return out.getvalue()


EDGE_ROWS = np.array([
    [-0.0, 5e-324, np.nan],
    [1e-300, 1e16, np.inf],
    [-np.inf, np.nan, np.nan],
    [np.nan, 0.1, -1e-5],
])


@pytest.mark.parametrize("n_columns", [0, 1, 3])
@pytest.mark.parametrize("labels", [None, [0, 1, 1, 0]], ids=["unlabeled", "labeled"])
def test_matrix_writer_matches_per_cell_oracle_on_edge_values(n_columns, labels):
    matrix = FeatureMatrix(
        bird_ids=["plain", "has,comma", 'has"quote', ""],
        columns=["x", "y,z", 'w"'][:n_columns],
        values=EDGE_ROWS[:, :n_columns],
        labels=labels,
    )
    text = matrix.to_csv()
    assert text == _matrix_csv_per_cell(matrix)
    infinite_rows = np.flatnonzero(np.isinf(matrix.values).any(axis=1))
    if infinite_rows.size:  # written, but an infinite cell is a data error to read
        line = infinite_rows[0] + 2
        with pytest.raises(PipelineError, match=f"^line {line}: .* is -?inf, not a finite number$"):
            FeatureMatrix.from_csv(text)
        return
    again = FeatureMatrix.from_csv(text)
    assert again.bird_ids == matrix.bird_ids
    assert again.columns == matrix.columns
    np.testing.assert_array_equal(again.values, matrix.values)
    np.testing.assert_array_equal(again.labels, matrix.labels)


def test_matrix_reader_peaks_below_twice_its_text(rng):
    # rows become float64 arrays as they are read: no copy of the text and
    # no Python float per cell (about six times the text when it had both)
    import tracemalloc

    values = rng.normal(size=(200, 250))
    values[rng.random(values.shape) < 0.05] = np.nan
    matrix = FeatureMatrix(
        bird_ids=[f"b{i}" for i in range(200)],
        columns=[f"c{j}" for j in range(250)],
        values=values,
        labels=rng.integers(0, 2, 200),
    )
    text = matrix.to_csv()
    assert len(text) > 900_000
    tracemalloc.start()
    try:
        again = FeatureMatrix.from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text)
    np.testing.assert_array_equal(again.values, values)


@pytest.mark.parametrize(
    "last, message",
    [
        ("c,1,x", "could not convert string to float: 'x'"),
        ("c,1,inf", "a is inf, not a finite number"),
        ("c,2,1.0", "label '2' is not 0 or 1"),
    ],
    ids=["cell", "infinite", "label"],
)
def test_matrix_reader_names_the_physical_line(last, message):
    # the first bird id is quoted and spans lines 2 and 3
    text = f'bird_id,label,a\n"b\n0",1,1.0\n{last}\n'
    with pytest.raises(PipelineError, match=f"^line 4: {message}$"):
        FeatureMatrix.from_csv(text)


@pytest.mark.parametrize(
    "columns, values, message",
    [
        (["a", "b"], np.zeros((2, 3)), "matrix shape does not match ids/columns"),
        (["a", "a"], np.zeros((2, 2)), "duplicate column names"),
    ],
    ids=["shape", "duplicate-column"],
)
def test_matrix_schema_errors_are_schema_mismatch(columns, values, message):
    with pytest.raises(PipelineError, match=f"^{message}$"):
        FeatureMatrix(bird_ids=["b0", "b1"], columns=columns, values=values)


def test_a_streamed_matrix_write_holds_no_document(tmp_path):
    # extract writes csv_lines through atomic_write_text; the text of a
    # 300-bird split matrix is never held whole (to_csv peaks above twice
    # the document's length)
    import tracemalloc

    from shearwater.trajdata import atomic_write_text

    rng = np.random.default_rng(0)
    values = rng.normal(size=(300, 496))
    values[rng.random(values.shape) < 0.05] = np.nan
    matrix = FeatureMatrix(
        bird_ids=[f"bird_{i:04d}" for i in range(300)],
        columns=schema_columns(DatasetMode.SPLIT),
        values=values,
        labels=np.arange(300) % 2,
    )
    path = tmp_path / "train_split.csv"
    tracemalloc.start()
    try:
        atomic_write_text(path, matrix.csv_lines())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    document = path.read_text(encoding="utf-8")
    assert document == matrix.to_csv()
    assert peak < len(document) / 4, (peak, len(document))
