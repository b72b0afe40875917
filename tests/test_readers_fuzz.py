"""Property tests: every text reader either returns a value or raises a
PipelineError (exit 2 at the CLI), whatever text it is given.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shearwater.datasets import FeatureMatrix
from shearwater.errors import PipelineError
from shearwater.evalcv import PredictionSet, folds_from_csv
from shearwater.trajdata import parse_labels

# CSV structure characters are drawn often, so that bodies reach the row
# parsers and not only the header check.
CELLS = st.text(alphabet=st.sampled_from(list('0123456789-.,e"ab \r\n')) | st.characters())


def _never_crashes(reader, header):
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

    return check


test_feature_matrix_reader = _never_crashes(FeatureMatrix.from_csv, "bird_id,label,a,b\n")
test_folds_reader = _never_crashes(lambda text: folds_from_csv(text, seed=0), "bird_id,fold\n")
test_prediction_set_reader = _never_crashes(PredictionSet.from_csv, "bird_id,label\n")
test_labels_reader = _never_crashes(parse_labels, "bird_id,label\n")
