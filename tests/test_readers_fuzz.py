"""Property tests: every text reader either returns a value or raises a
PipelineError (exit 2 at the CLI), whatever text it is given; every table
reader skips blank lines and names the line of a row of another width; the
line reader splits a document as ``io.StringIO`` does, and the file decoder
reads bytes as ``Path.read_text`` does.
"""

import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearwater.datasets import FeatureMatrix
from shearwater.errors import PipelineError, csv_rows, decode_text
from shearwater.evalcv import PredictionSet, folds_from_csv
from shearwater.trajdata import CSV_HEADER, parse_labels, parse_trajectory

# CSV structure characters are drawn often, so that bodies reach the row
# parsers and not only the header check.
CELLS = st.text(alphabet=st.sampled_from(list('0123456789-.,e"ab \r\n')) | st.characters())


def _never_crashes(reader, header, examples=()):
    @settings(max_examples=150, deadline=None)
    @given(text=st.one_of(st.text(), CELLS, CELLS.map(lambda body: header + body)))
    @example(text="")
    @example(text="\r0")
    @example(text=header + 'b0,"1')
    @example(text=header + "b0,99999999999999999999")  # wider than int64
    @example(text=header + "b0,1000000000000")  # a fold id far beyond the row count
    def check(text):
        try:
            reader(text)
        except PipelineError:
            pass

    for text in examples:
        check = example(text=text)(check)
    return check


test_feature_matrix_reader = _never_crashes(FeatureMatrix.from_csv, "bird_id,label,a,b\n")
test_folds_reader = _never_crashes(lambda text: folds_from_csv(text), "bird_id,fold\n")
test_prediction_set_reader = _never_crashes(PredictionSet.from_csv, "bird_id,label\n")
test_labels_reader = _never_crashes(parse_labels, "bird_id,label\n")

TRAJECTORY_HEADER = ",".join(CSV_HEADER) + "\n"
FIRST_ROW = "139.0,38.5,180.0,45.0,1,0,12:00:00,1\n"
test_trajectory_reader = _never_crashes(
    lambda text: parse_trajectory("b0", text),
    TRAJECTORY_HEADER,
    examples=[
        TRAJECTORY_HEADER + FIRST_ROW + "139.1,38.6,181.0,44.0,1,60,12:01:00,99999999999999999999",
        TRAJECTORY_HEADER + FIRST_ROW + "139.1,38.6,181.0,44.0,1,60,99999999999999999999:01:00,1",
    ],
)


# one well-formed document of n rows per table kind, as a list of lines, and
# its reader; a blank line anywhere, or a row of another width, must read the
# same in each
def _bird_table(n):
    return ["bird_id,label", *(f"b{i},{i % 2}" for i in range(n))]


def _feature_matrix(n):
    rows = (f"b{i},{i % 2},{i * 0.25},{'' if i % 3 else i}" for i in range(n))
    return ["bird_id,label,a,b", *rows]


def _trajectory(n):
    rows = (f"139.0,38.5,180.0,45.0,1,{60 * i},12:{i:02d}:00,1" for i in range(n))
    return [",".join(CSV_HEADER), *rows]


TABLES = [
    (_bird_table, parse_labels),
    (_feature_matrix, lambda text: FeatureMatrix.from_csv(text).to_csv()),
    (_trajectory, lambda text: parse_trajectory("b0", text)),
]


def _with_blank_lines(lines, blanks):
    """``lines`` with a blank line before each index in ``blanks`` (the end
    when past it)."""
    spaced = list(lines)
    for at in sorted(blanks, reverse=True):
        spaced.insert(min(at, len(lines)), "")
    return spaced


TABLE_DOCS = {
    "table": st.sampled_from(TABLES),
    "n": st.integers(2, 5),
    "blanks": st.lists(st.integers(0, 6), max_size=4),
    "end": st.sampled_from(["\n", "\r\n"]),
}


@settings(max_examples=150, deadline=None)
@given(**TABLE_DOCS)
@example(table=TABLES[0], n=2, blanks=[0], end="\n")  # a blank line before the header
@example(table=TABLES[1], n=2, blanks=[0], end="\n")
@example(table=TABLES[2], n=2, blanks=[0], end="\n")
def test_blank_lines_leave_every_table_as_it_was(table, n, blanks, end):
    document, parse = table
    lines = document(n)
    spaced = _with_blank_lines(lines, blanks)
    assert parse(end.join(spaced) + end) == parse(end.join(lines) + end)


@settings(max_examples=150, deadline=None)
@given(**TABLE_DOCS, row=st.integers(1, 5), extra=st.booleans())
def test_a_row_of_another_width_names_its_line_in_every_table(table, n, blanks, end, row, extra):
    document, parse = table
    lines = document(n)
    row, width = min(row, n), len(lines[0].split(","))
    lines[row] = lines[row] + ",1" if extra else lines[row].rsplit(",", 1)[0]
    spaced = _with_blank_lines(lines, blanks)
    line = spaced.index(lines[row]) + 1
    got = width + 1 if extra else width - 1
    with pytest.raises(PipelineError, match=f"^line {line}: expected {width} fields, got {got}$"):
        parse(end.join(spaced) + end)


def _rows_through_stringio(text):
    """The reader csv_rows replaced, kept as its oracle: the csv module
    over a copy of the whole text in io.StringIO, blank records dropped and
    each later record held to the first one's width."""
    reader = csv.reader(io.StringIO(text))
    out, start = [], 1
    try:
        for row in reader:
            if row and out and len(row) != len(out[0][1]):
                out.append(f"line {start}: expected {len(out[0][1])} fields, got {len(row)}")
                break
            if row:
                out.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        out.append(f"line {reader.line_num}: {exc}")
    return out


@settings(max_examples=300, deadline=None)
@given(text=CELLS)
@example(text='a\r\nb,"c\rd"\n\n"e\nf"\r\ng')
@example(text="a\rb")  # a bare carriage return in an unquoted field
def test_rows_split_lines_as_stringio_does(text):
    out = []
    try:
        for row in csv_rows(text):
            out.append(row)
    except PipelineError as exc:
        out.append(str(exc))
    assert out == _rows_through_stringio(text)


@settings(max_examples=300, deadline=None)
@given(data=st.binary() | st.text(alphabet="ab\r\n\u00e9").map(str.encode))
@example(data=b"a\r\nb\rc\n\xff")
@example(data=b"\xef\xbb\xbfa\r\nb\n")  # a leading byte-order mark
def test_decoder_reads_bytes_as_read_text_does(data):
    def read_text(data):  # Path.read_text: UTF-8 less a leading mark, universal newlines
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig").read()

    try:
        data.decode()
    except UnicodeDecodeError as exc:
        line = read_text(data[: exc.start]).count("\n") + 1
        with pytest.raises(PipelineError, match=f"^line {line}: byte 0x.. is not UTF-8 text$"):
            decode_text(data)
    else:
        assert decode_text(data) == read_text(data)
