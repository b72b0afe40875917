"""Property tests: every text reader either returns a value or raises a
PipelineError (exit 2 at the CLI), whatever text it is given.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearwater.datasets import FeatureMatrix
from shearwater.errors import PipelineError
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
