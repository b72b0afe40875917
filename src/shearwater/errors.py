"""The one data-error type of the pipeline, and the helpers the
readers and writers share: the one reader of every file the CLI reads,
which decodes its UTF-8 and makes a file-system failure a data error
naming the file, the line-wise row reader and int64 field parser of every
text reader, the one reader of the ``bird_id,<column>`` tables (labels,
``folds.csv``, prediction sets), which name each bird once, and the one
``csv.writer`` set-up of those tables and the CV reports.

Every problem with the data, a model file or the inputs of a stage is a
:class:`PipelineError`, which ``cli.main`` reports as exit 2 with its
message; anything else is a bug.
"""

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path


class PipelineError(ValueError):
    """A data error: bad input, or inputs a stage cannot use."""


def decode_text(data: bytes) -> str:
    """The text of a UTF-8 file's bytes, line ends read as
    ``Path.read_text`` reads them (``\\r\\n`` and a lone ``\\r`` become
    ``\\n``), without one leading byte-order mark. Bytes that are not UTF-8
    are a data error naming the line of the first."""
    try:
        text = data.decode()  # not utf-8-sig: its error offsets skip the mark
    except UnicodeDecodeError as exc:
        at = exc.start
        line = 1 + data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
        raise PipelineError(f"line {line}: byte {data[at]:#04x} is not UTF-8 text") from None
    text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n")  # no copy when there is no \r


@contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Prefix ``path``, a file or a corpus directory, to a data error."""
    try:
        yield
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from None


@contextmanager
def reading(path: str | Path, what: str, made_by: str | None = None) -> Iterator[str]:
    """The text of the file at ``path`` (see :func:`decode_text`), its
    bytes dropped before the block runs; a data error in the block names
    ``path``. A missing file is "``what`` not found", naming the command
    ``made_by`` when given; a directory or any other unreadable path is a
    data error too."""
    with naming(path):
        try:
            data = Path(path).read_bytes()
        except FileNotFoundError:
            hint = f" (run {made_by} first)" if made_by else ""
            raise PipelineError(f"{what} not found{hint}") from None
        except OSError as exc:
            raise PipelineError(f"cannot read {what}: {exc.strerror}") from None
        text = decode_text(data)
        del data
        yield text


def _lines(text: str) -> Iterator[str]:
    """Each line of ``text`` with its ``\\n``, split where ``io.StringIO``
    splits it: at ``\\n`` only, so a ``\\r`` stays inside its line."""
    start = 0
    while end := text.find("\n", start) + 1:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each record of a CSV document with the line it starts on, read
    lazily, one line at a time, so the reader holds no copy of the text; a
    quoted field may span lines, so a record starts on the line after the
    one that ended the record before it. Blank lines are skipped, the first
    record is the header, and a later record with another field count is
    a data error naming its line. A parse error of the csv module (a stray
    quote, a bare carriage return, an overlong field) becomes a data error.
    """
    reader = csv.reader(_lines(text))
    start, width = 1, None
    try:
        for row in reader:
            if row:
                width = width or len(row)  # the header's
                if len(row) != width:
                    raise PipelineError(f"line {start}: expected {width} fields, got {len(row)}")
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise PipelineError(f"line {reader.line_num}: {exc}") from None


def parse_int64(text: str, what: str) -> int:
    """An integer field that must fit a numpy int64 column."""
    try:
        value = int(text)
    except ValueError:
        raise PipelineError(f"{what} {text!r} is not an integer") from None
    if not -(2**63) <= value < 2**63:
        raise PipelineError(f"{what} {text!r} does not fit in 64 bits")
    return value


def read_bird_table(text: str, column: str, values: tuple | None = None) -> dict[str, int]:
    """The ``bird_id,<column>`` table of a CSV document, in file order.

    The header holds those two names (whitespace around each is allowed).
    Each row (see :func:`csv_rows`) holds a bird that no earlier row names
    and an int64 value, one of ``values`` when given. An error names its
    line.
    """
    rows = csv_rows(text)
    _, header = next(rows, (1, []))  # an empty file has an empty header
    if [name.strip() for name in header] != ["bird_id", column]:
        raise PipelineError(f"bad header {header!r}, expected bird_id,{column}")
    table: dict[str, int] = {}
    for lineno, row in rows:
        try:
            value = parse_int64(row[1], column)
        except PipelineError as exc:
            raise PipelineError(f"line {lineno}: {exc}") from None
        if values is not None and value not in values:
            raise PipelineError(f"line {lineno}: {column} {value} is not one of {values}")
        if row[0] in table:
            raise PipelineError(f"line {lineno}: bird {row[0]!r} is listed twice")
        table[row[0]] = value
    return table


def csv_document(rows: Iterable[Sequence]) -> str:
    """``rows`` as a CSV document, each line ended by a newline;
    ``csv.writer`` quotes a field when it needs it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
