import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shearwater.errors import PipelineError
from shearwater.trajdata import (
    Corpus,
    atomic_write_text,
    load_corpus,
    parse_labels,
    parse_local_time,
    parse_trajectory,
    save_corpus,
    trajectory_to_csv,
)

HEADER = "longitude,latitude,sun_azimuth,sun_elevation,daytime,elapsed_time,local_time,days"


def doc(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


TWO_ROWS = doc(
    "139.0,38.5,180.0,45.0,1,0,12:00:00,1",
    "139.1,38.6,181.0,44.0,1,60,12:01:00,1",
)


def test_minimal_valid_input():
    traj = parse_trajectory("b1", TWO_ROWS)
    assert len(traj) == 2
    assert traj.longitude[1] == 139.1
    assert traj.local_time[0] == 12 * 3600


def test_local_time_seconds_of_day():
    assert parse_local_time("13:05:30") == 47130
    assert parse_local_time("00:00:00") == 0
    assert parse_local_time("23:59:59") == 86399


@pytest.mark.parametrize("text", ["13:05", "13:05:30:00", "ab:cd:ef", "13:61:00", "13:00:60"])
def test_local_time_malformed(text):
    with pytest.raises(PipelineError, match=f"^bad local_time {re.escape(repr(text))}$"):
        parse_local_time(text)


def test_duplicate_elapsed_rejected():
    text = doc(
        "139.0,38.5,180.0,45.0,1,0,12:00:00,1",
        "139.1,38.6,181.0,44.0,1,60,12:01:00,1",
        "139.2,38.7,182.0,43.0,1,60,12:02:00,1",
    )
    with pytest.raises(PipelineError, match="^b1: line 4: elapsed_time not strictly increasing$"):
        parse_trajectory("b1", text)


def test_too_short():
    with pytest.raises(PipelineError, match="^b1: trajectory has 1 rows, need >= 2$"):
        parse_trajectory("b1", doc("139.0,38.5,180.0,45.0,1,0,12:00:00,1"))


def test_wrong_column_count():
    with pytest.raises(PipelineError, match="^line 2: expected 8 fields, got 7$"):
        parse_trajectory("b1", doc("139.0,38.5,180.0,45.0,1,0,12:00:00"))


def test_unparseable_number():
    with pytest.raises(PipelineError, match="^b1: line 2: unparseable longitude 'oops'$"):
        parse_trajectory(
            "b1",
            doc(
                "oops,38.5,180.0,45.0,1,0,12:00:00,1",
                "139.1,38.6,181.0,44.0,1,60,12:01:00,1",
            ),
        )


OUT_OF_RANGE = [
    ("181.0,38.5,180.0,45.0,1,0,12:00:00,1", "longitude"),
    ("139.0,91.0,180.0,45.0,1,0,12:00:00,1", "latitude"),
    ("139.0,38.5,360.0,45.0,1,0,12:00:00,1", "sun_azimuth"),  # 360 excluded
    ("139.0,38.5,180.0,95.0,1,0,12:00:00,1", "sun_elevation"),
    ("139.0,38.5,180.0,45.0,2,0,12:00:00,1", "daytime"),
    ("139.0,38.5,180.0,45.0,1,-5,12:00:00,1", "elapsed"),
    ("139.0,38.5,180.0,45.0,1,0,12:00:00,0", "days"),
]


@pytest.mark.parametrize("row, field", OUT_OF_RANGE, ids=[row for row, _ in OUT_OF_RANGE])
def test_out_of_range_fields(row, field):
    with pytest.raises(PipelineError, match=f"^b1: line 2: {field} out of range$"):
        parse_trajectory("b1", doc(row, "139.1,38.6,181.0,44.0,1,60,12:01:00,1"))


@pytest.mark.parametrize(
    "last, message",
    [
        ("139.1,95.0,181.0,44.0,1,60,12:01:00,1", "b1: line 4: latitude out of range"),
        ("139.1,38.6,181.0,44.0,1,0,12:01:00,1", "b1: line 4: elapsed_time not strictly increasing"),
        ("139.1,x,181.0,44.0,1,60,12:01:00,1", "b1: line 4: unparseable latitude 'x'"),
        ("139.1,38.6", "line 4: expected 8 fields, got 2"),
    ],
    ids=["range", "invariant", "cell", "field-count"],
)
def test_errors_name_the_physical_line(last, message):
    # the first record's quoted longitude spans lines 2 and 3
    text = doc('"139.0\n",38.5,180.0,45.0,1,0,12:00:00,1', last)
    with pytest.raises(PipelineError, match=f"^{message}$"):
        parse_trajectory("b1", text)


def test_bad_header():
    with pytest.raises(PipelineError, match=r"^b1: bad header \['lon', 'lat'\]$"):
        parse_trajectory("b1", "lon,lat\n1,2\n")


def test_round_trip_identity():
    traj = parse_trajectory("b1", TWO_ROWS)
    again = parse_trajectory("b1", trajectory_to_csv(traj))
    assert again == traj


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_random_trajectories(n, seed):
    rng = np.random.default_rng(seed)
    from tests.conftest import make_traj

    traj = make_traj(
        longitude=rng.uniform(-179, 179, n),
        latitude=rng.uniform(-89, 89, n),
        elapsed=np.cumsum(rng.uniform(1, 600, n)) - 1.0,
        sun_azimuth=rng.uniform(0, 359.99, n),
        sun_elevation=rng.uniform(-89, 89, n),
        daytime=rng.integers(0, 2, n),
        local_time=rng.integers(0, 86400, n),
        days=rng.integers(1, 5, n),
    )
    traj.validate()
    again = parse_trajectory("b1", trajectory_to_csv(traj))
    assert again == traj


def _format_local_time(seconds):
    h, rem = divmod(int(seconds), 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def _trajectory_to_csv_per_cell(traj):
    """The one-cell-at-a-time writer that trajectory_to_csv replaced, kept as its oracle."""
    lines = [HEADER]
    for i in range(len(traj)):
        lines.append(
            ",".join(
                (
                    repr(float(traj.longitude[i])),
                    repr(float(traj.latitude[i])),
                    repr(float(traj.sun_azimuth[i])),
                    repr(float(traj.sun_elevation[i])),
                    str(int(traj.daytime[i])),
                    repr(float(traj.elapsed[i])),
                    _format_local_time(int(traj.local_time[i])),
                    str(int(traj.days[i])),
                )
            )
        )
    return "\n".join(lines) + "\n"


def test_writer_matches_per_cell_oracle_on_edge_values():
    from tests.conftest import make_traj

    traj = make_traj(
        longitude=[-0.0, 5e-324, 1e-300, -179.99999999999997],
        latitude=[5e-324, -0.0, 89.99999999999999, 1e-300],
        elapsed=[-0.0, 5e-324, 1e-300, 1e16],
        sun_azimuth=[0.0, 5e-324, 359.99999999999994, 1e-300],
        sun_elevation=[-0.0, -90.0, 1e-300, 90.0],
        daytime=[0, 1, 1, 0],
        local_time=[0, 59, 3599, 86399],
        days=[1, 1, 2, 10**12],
    )
    traj.validate()
    text = trajectory_to_csv(traj)
    assert text == _trajectory_to_csv_per_cell(traj)
    assert [line.split(",")[6] for line in text.splitlines()[1:]] == [
        "00:00:00", "00:00:59", "00:59:59", "23:59:59",
    ]
    again = parse_trajectory("b1", text)
    assert again == traj
    assert np.signbit(again.longitude[0]) and again.elapsed[3] == 1e16
    assert trajectory_to_csv(traj.filter_daytime(2)) == HEADER + "\n"  # no rows


@pytest.mark.parametrize("seconds", [-1, 86400])
def test_writer_refuses_a_local_time_outside_the_day(seconds):
    from tests.conftest import make_traj

    with pytest.raises(PipelineError, match="local_time out of range$"):
        trajectory_to_csv(make_traj(local_time=[0, seconds]))


def test_corpus_iteration_order_lexicographic(tmp_path):
    for name in ("b2", "b1", "b10"):
        (tmp_path / f"{name}.csv").write_text(TWO_ROWS)
    corpus = load_corpus(tmp_path)
    assert corpus.bird_ids == ["b1", "b10", "b2"]


def test_corpus_order_independent_of_insertion():
    t = parse_trajectory("x", TWO_ROWS)
    c = Corpus(trajectories={"b2": t, "b1": t})
    assert c.bird_ids == ["b1", "b2"]


def test_load_corpus_annotates_file(tmp_path):
    (tmp_path / "bad.csv").write_text(doc("139.0,38.5,180.0,45.0,1,0,12:00:00,1"))
    with pytest.raises(PipelineError, match=r"bad\.csv: bad: trajectory has 1 rows, need >= 2$"):
        load_corpus(tmp_path)


def test_labels_unknown_bird(tmp_path):
    trips = tmp_path / "trips"
    trips.mkdir()
    (trips / "b1.csv").write_text(TWO_ROWS)
    labels = tmp_path / "labels.csv"  # outside the trajectory dir
    labels.write_text("bird_id,label\nb1,1\nghost,0\n")
    with pytest.raises(PipelineError, match=r"labels\.csv: labels reference birds with no "
                                            r"trajectory: \['ghost'\]$"):
        load_corpus(trips, labels)


def test_corpus_refuses_an_unlabeled_trajectory():
    t = parse_trajectory("x", TWO_ROWS)
    with pytest.raises(PipelineError, match=r"^birds without labels: \['b2'\]$"):
        Corpus(trajectories={"b1": t, "b2": t}, labels={"b1": 1})


def test_labels_value_validation():
    with pytest.raises(PipelineError, match=r"^line 2: label 2 is not one of \(0, 1\)$"):
        parse_labels("bird_id,label\nb1,2\n")
    with pytest.raises(PipelineError, match="^line 2: label 'x' is not an integer$"):
        parse_labels("bird_id,label\nb1,x\n")
    assert parse_labels("bird_id,label\nb1,1\nb0,0\n") == {"b0": 0, "b1": 1}


def test_corpus_save_load_round_trip(tmp_path):
    t1 = parse_trajectory("b1", TWO_ROWS)
    corpus = Corpus(trajectories={"b1": t1}, labels={"b1": 1})
    save_corpus(corpus, tmp_path / "trips", tmp_path / "labels.csv")
    loaded = load_corpus(tmp_path / "trips", tmp_path / "labels.csv")
    assert loaded.bird_ids == ["b1"]
    assert loaded["b1"] == t1
    assert loaded.labels == {"b1": 1}


def test_atomic_write_takes_a_string_or_pieces_and_writes_utf8(tmp_path):
    path = tmp_path / "labels.csv"
    atomic_write_text(path, iter(["bird_id,label\n", "bird_\u00e9,1\n"]))
    assert path.read_bytes() == "bird_id,label\nbird_\u00e9,1\n".encode("utf-8")
    atomic_write_text(path, "\u00e4\n")
    assert path.read_bytes() == b"\xc3\xa4\n"


def _raises_after_first_piece():
    yield "bird_id,label\n"
    raise RuntimeError("formatting failed")


@pytest.mark.parametrize(
    "pieces, error",
    [(_raises_after_first_piece, RuntimeError), (lambda: ["b0,1\n", "bird_\udcff,0\n"],
                                                  UnicodeEncodeError)],
    ids=["raising", "not-utf8"],
)
def test_a_failed_atomic_write_keeps_the_target_and_removes_its_temp_file(tmp_path, pieces,
                                                                         error):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(error):
        atomic_write_text(path, pieces())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["labels.csv"]

def test_corpus_at_paper_scale():
    # 631 birds, 326 labeled 1 and 305 labeled 0
    t = parse_trajectory("x", TWO_ROWS)
    ids = [f"bird_{i:04d}" for i in range(631)]
    labels = {b: (1 if i < 326 else 0) for i, b in enumerate(ids)}
    corpus = Corpus(trajectories={b: t for b in ids}, labels=labels)
    assert len(corpus) == 631
    assert sum(corpus.labels.values()) == 326
    assert sum(1 for v in corpus.labels.values() if v == 0) == 305


def test_filter_daytime_keeps_timestamps():
    from tests.conftest import make_traj

    traj = make_traj(
        longitude=[1.0, 2.0, 3.0, 4.0],
        daytime=[1, 0, 1, 0],
        elapsed=[0.0, 60.0, 120.0, 180.0],
    )
    day = traj.filter_daytime(1)
    assert list(day.elapsed) == [0.0, 120.0]
    assert len(traj.filter_daytime(0)) == 2


# --- the column-wise parser against the per-cell parser ----------------------------

def _parse_per_cell(bird_id, csv_text):
    """The oracle: each row's cells converted in turn, as they are read."""
    from shearwater.errors import csv_rows, parse_int64
    from shearwater.trajdata import CSV_HEADER, Trajectory

    def number(text, column):
        try:
            return float(text)
        except ValueError:
            raise PipelineError(f"unparseable {column} {text!r}") from None

    rows = csv_rows(csv_text)
    _, header = next(rows, (1, None))
    if header is None:
        raise PipelineError(f"{bird_id}: empty file")
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise PipelineError(f"{bird_id}: bad header {header!r}")
    cols, lines = [[] for _ in CSV_HEADER], []
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise PipelineError(f"line {lineno}: expected 8 fields, got {len(row)}")
        try:
            cols[0].append(number(row[0], "longitude"))
            cols[1].append(number(row[1], "latitude"))
            cols[2].append(number(row[2], "sun_azimuth"))
            cols[3].append(number(row[3], "sun_elevation"))
            cols[4].append(parse_int64(row[4], "daytime"))
            cols[5].append(number(row[5], "elapsed_time"))
            cols[6].append(parse_local_time(row[6]))
            cols[7].append(parse_int64(row[7], "days"))
        except PipelineError as exc:
            raise PipelineError(f"{bird_id}: line {lineno}: {exc}") from None
        lines.append(lineno)
    kinds = [np.float64] * 4 + [np.int64, np.float64, np.int64, np.int64]
    traj = Trajectory(bird_id, *(np.array(c, dtype=k) for c, k in zip(cols, kinds)))
    traj.validate(lines)
    return traj


BAD_CELLS = st.one_of(
    st.sampled_from([
        "", "x", "nan", "inf", "1e400", " 7 ", "1_0", "-1", "0x1", "1.5", '"2"', "2 ",
        "99999999999999999999", "-9223372036854775809", "24:00:00", "12:60:00", "12:00",
        "1:2:3", " 12:00:00", "12:00:00 ", "١٢:00:00", "12:0a:00", "12;00:00",
    ]),
    st.text(alphabet=st.sampled_from(list('0123456789:.-e" \r\n,x')), max_size=9),
)
TIMES = st.sampled_from(["12:00:00", "00:00:00", "23:59:59", "07:30:15"])


@st.composite
def trajectory_docs(draw):
    """Trajectory files that are mostly well-formed: some cells corrupt, some
    rows too short or long, blank lines, and either line ending."""
    lines, elapsed = [HEADER], 0.0
    for _ in range(draw(st.integers(0, 6))):
        elapsed += draw(st.sampled_from([0.5, 60.0, 60.0, 0.0]))
        row = [
            repr(draw(st.floats(-200, 200))), repr(draw(st.floats(-90, 90))), "180.0", "45.0",
            draw(st.sampled_from(["0", "1"])), repr(elapsed), draw(TIMES),
            draw(st.sampled_from(["1", "3"])),
        ]
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            row[draw(st.integers(0, 7))] = draw(BAD_CELLS)
        row = (row + ["1"])[: draw(st.sampled_from([8] * 10 + [7, 9]))]
        lines += [",".join(row)] + [""] * draw(st.integers(0, 1))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(text=trajectory_docs())
def test_column_parser_equals_the_per_cell_parser(text):
    def outcome(parse):
        try:
            return parse("b7", text)
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)

    assert outcome(parse_trajectory) == outcome(_parse_per_cell)
