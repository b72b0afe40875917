"""Property tests: every text reader either returns a value or raises a
PipelineError (exit 2 at the CLI), whatever text it is given; the line
reader splits a document as ``io.StringIO`` does, and the file decoder reads
bytes as ``Path.read_text`` does.
"""

import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearwater.datasets import FeatureMatrix
from shearwater.errors import MalformedRow, PipelineError, csv_rows, decode_text
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


def _rows_through_stringio(text):
    """The reader csv_rows replaced, kept as its oracle: the csv module
    over a copy of the whole text in io.StringIO."""
    reader = csv.reader(io.StringIO(text))
    out, start = [], 1
    try:
        for row in reader:
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
    except MalformedRow as exc:
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
        with pytest.raises(MalformedRow, match=f"^line {line}: "):
            decode_text(data)
    else:
        assert decode_text(data) == read_text(data)
