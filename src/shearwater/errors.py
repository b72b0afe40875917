"""Exception types raised across the pipeline, and the one CSV row reader
and integer field parser that every text reader shares.

Everything inherits from :class:`PipelineError` so callers (notably the CLI)
can distinguish data problems from genuine bugs with a single except clause.
"""

import csv
import io
from collections.abc import Iterator


class PipelineError(ValueError):
    """Base class for all data and modeling errors raised by this package."""


# --- trajectory parsing -------------------------------------------------

class MalformedRow(PipelineError):
    """CSV row has the wrong column count or an unparseable field."""


class NonMonotonicTime(PipelineError):
    """Elapsed-time column is not strictly increasing."""


class OutOfRange(PipelineError):
    """A field value lies outside its documented range."""


class TooShort(PipelineError):
    """Trajectory has fewer than two points."""


class UnknownBirdInLabels(PipelineError):
    """Labels file references a bird with no trajectory file."""


class MissingLabel(PipelineError):
    """A labeled corpus is missing the label for some bird."""


# --- feature extraction / datasets --------------------------------------

class EmptySeries(PipelineError):
    """Quantile requested on an empty series."""


class SchemaMismatch(PipelineError):
    """Two feature matrices (or a model and a matrix) disagree on columns."""


# --- learners ------------------------------------------------------------

class DegenerateLabels(PipelineError):
    """Label vector is empty or contains a single class where two are required."""


class SingleClass(PipelineError):
    """Operation needs both classes present (ranking pairs, threshold tuning)."""


class NonFiniteScore(PipelineError):
    """A fitted learner scored a row NaN or infinite."""


# --- evaluation ----------------------------------------------------------

class TooFewPerClass(PipelineError):
    """Stratified folds need at least k instances of every class."""


class LengthMismatch(PipelineError):
    """Prediction and truth vectors have different lengths."""


class BirdSetMismatch(PipelineError):
    """Prediction sets being voted do not cover identical bird ids."""


class StaleArtifact(PipelineError):
    """An artifact was computed from inputs that have changed since."""


# --- reading -------------------------------------------------------------

def csv_rows(text: str) -> Iterator[list[str]]:
    """The rows of a CSV document, read lazily. A parse error of the csv
    module (a stray quote, a bare carriage return, an overlong field)
    becomes MalformedRow.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None


def parse_int64(text: str, what: str) -> int:
    """An integer field that must fit a numpy int64 column."""
    try:
        value = int(text)
    except ValueError:
        raise MalformedRow(f"{what} {text!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise OutOfRange(f"{what} {text!r} does not fit in 64 bits")
    return value
