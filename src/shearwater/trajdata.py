"""Trajectory corpus parsing and persistence in the competition CSV schema.

A trajectory file is UTF-8 CSV with the mandatory header::

    longitude,latitude,sun_azimuth,sun_elevation,daytime,elapsed_time,local_time,days

``local_time`` is formatted ``hh:mm:ss`` and stored as integer seconds of
day; ``elapsed_time`` is read as seconds since trip start (the data ships
without a unit, so seconds is a declared assumption and every kinematic
quantity downstream is consistent with it).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import PipelineError, csv_document, csv_rows, parse_int64, read_bird_table, reading

CSV_HEADER = (
    "longitude",
    "latitude",
    "sun_azimuth",
    "sun_elevation",
    "daytime",
    "elapsed_time",
    "local_time",
    "days",
)

SECONDS_PER_DAY = 86400


@dataclass
class Trajectory:
    """Column-oriented trajectory for one bird trip.

    Parsing validates all invariants; direct construction (used for
    day/night subsequences) does not, so short or empty tracks are
    representable internally.
    """

    bird_id: str
    longitude: np.ndarray
    latitude: np.ndarray
    sun_azimuth: np.ndarray
    sun_elevation: np.ndarray
    daytime: np.ndarray
    elapsed: np.ndarray
    local_time: np.ndarray
    days: np.ndarray

    def __len__(self) -> int:
        return len(self.longitude)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.bird_id == other.bird_id and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def filter_daytime(self, flag: int) -> "Trajectory":
        """Subsequence of points with the given daytime flag.

        The result keeps original elapsed timestamps and may be arbitrarily
        short (down to empty); it is not re-validated.
        """
        mask = self.daytime == flag
        return Trajectory(self.bird_id, *(getattr(self, name)[mask] for name in _COLUMNS))

    def validate(self, lines: Sequence[int] | None = None) -> None:
        """Check every invariant; ``lines`` holds each row's line in its file
        so that messages name the line, else rows are counted from 0.
        """
        if len(self) < 2:
            raise PipelineError(f"{self.bird_id}: trajectory has {len(self)} rows, need >= 2")
        checks = (
            ("longitude", self.longitude >= -180, self.longitude <= 180),
            ("latitude", self.latitude >= -90, self.latitude <= 90),
            ("sun_azimuth", self.sun_azimuth >= 0, self.sun_azimuth < 360),
            ("sun_elevation", self.sun_elevation >= -90, self.sun_elevation <= 90),
            ("daytime", self.daytime >= 0, self.daytime <= 1),
            ("elapsed", self.elapsed >= 0, np.isfinite(self.elapsed)),
            ("local_time", self.local_time >= 0, self.local_time < SECONDS_PER_DAY),
            ("days", self.days >= 1, self.days < np.inf),
        )
        for name, lo_ok, hi_ok in checks:
            bad = ~(np.asarray(lo_ok) & np.asarray(hi_ok))
            if bad.any():
                row = int(np.argmax(bad))
                raise PipelineError(f"{self.bird_id}: {_where(row, lines)}: {name} out of range")
        if not (np.diff(self.elapsed) > 0).all():
            row = int(np.argmax(~(np.diff(self.elapsed) > 0))) + 1
            raise PipelineError(
                f"{self.bird_id}: {_where(row, lines)}: elapsed_time not strictly increasing"
            )


_COLUMNS = tuple(f.name for f in fields(Trajectory))[1:]  # the arrays, in file order


def _where(row: int, lines: Sequence[int] | None) -> str:
    return f"row {row}" if lines is None else f"line {lines[row]}"


def parse_local_time(text: str) -> int:
    """``hh:mm:ss`` -> integer seconds of day. The hour must be 0-23, which
    also keeps an hour wider than int64 out of the int64 column.
    """
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise PipelineError(f"bad local_time {text!r}")
    try:
        h, m, s = (int(p) for p in parts)
    except ValueError:
        raise PipelineError(f"bad local_time {text!r}") from None
    if not (0 <= h < 24 and 0 <= m < 60 and 0 <= s < 60):
        raise PipelineError(f"bad local_time {text!r}")
    return h * 3600 + m * 60 + s


def _float(text: str, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise PipelineError(f"unparseable {column} {text!r}") from None


def _local_times(cells: tuple[str, ...]) -> np.ndarray:
    """parse_local_time of every cell; the cells of a well-formed column,
    all ``dd:dd:dd`` with the hour below 24, are read in one pass over their
    bytes."""
    if set(map(len, cells)) == {8} and (text := "".join(cells)).isascii():
        chars = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, 8).astype(np.int64) - 48
        digits = chars[:, [0, 1, 3, 4, 6, 7]]
        hms = 10 * digits[:, 0::2] + digits[:, 1::2]  # hours, minutes, seconds
        well_formed = (chars[:, [2, 5]] == ord(":") - 48).all() and (
            (digits >= 0) & (digits <= 9)
        ).all()
        if well_formed and (hms < [24, 60, 60]).all():
            return hms @ np.array([3600, 60, 1])
    return np.array([parse_local_time(cell) for cell in cells], dtype=np.int64)


def _bulk(kind: type, cells: tuple[str, ...]) -> np.ndarray:
    return np.array(list(map(kind, cells)), dtype=np.float64 if kind is float else np.int64)


# each column's bulk converter, which raises ValueError or OverflowError when
# a cell does not convert, and the cell parser that converts a cell as it
# does and whose error names the field; in file order
_COLUMN_PARSERS = (
    *((partial(_bulk, float), partial(_float, column=name)) for name in CSV_HEADER[:4]),
    (partial(_bulk, int), partial(parse_int64, what="daytime")),
    (partial(_bulk, float), partial(_float, column="elapsed_time")),
    (_local_times, parse_local_time),
    (partial(_bulk, int), partial(parse_int64, what="days")),
)


def parse_trajectory(bird_id: str, csv_text: str) -> Trajectory:
    """Parse one trajectory CSV document and validate all invariants.

    The rows are read first, up to the first one :func:`csv_rows` refuses;
    then each column is converted in bulk. Errors come in file order: the
    first cell that does not convert, else that row, else the first
    invariant a row breaks.
    """
    rows = csv_rows(csv_text)
    _, header = next(rows, (1, None))
    if header is None:
        raise PipelineError(f"{bird_id}: empty file")
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise PipelineError(f"{bird_id}: bad header {header!r}")

    records: list[tuple[int, list[str]]] = []
    problem = None
    try:
        records.extend(rows)
    except PipelineError as exc:  # the records before it are read
        problem = exc
    lines, body = zip(*records) if records else ((), ())
    cells = list(zip(*body)) or [()] * len(CSV_HEADER)
    try:
        columns = [convert(column) for (convert, _), column in zip(_COLUMN_PARSERS, cells)]
    except (ValueError, OverflowError):
        for lineno, row in zip(lines, body):  # the first cell that fails, in file order
            for (_, parse), cell in zip(_COLUMN_PARSERS, row):
                try:
                    parse(cell)
                except PipelineError as exc:
                    raise PipelineError(f"{bird_id}: line {lineno}: {exc}") from None
        raise
    if problem is not None:
        raise problem

    traj = Trajectory(bird_id, *columns)
    traj.validate(lines)
    return traj


_TWO_DIGITS = [f"{i:02d}" for i in range(60)]
_DAY_MINUTES = [f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60)]


def trajectory_to_csv(traj: Trajectory) -> str:
    """Inverse of :func:`parse_trajectory`; floats use shortest round-trip repr.

    Each column is converted to Python numbers once and formatted as a whole;
    ``hh:mm:ss`` comes from a table of the day's 1440 ``hh:mm:`` prefixes.
    """
    seconds = traj.local_time.tolist()
    if seconds and not (0 <= min(seconds) and max(seconds) < SECONDS_PER_DAY):
        raise PipelineError(f"{traj.bird_id}: local_time out of range")
    rows = zip(
        map(repr, traj.longitude.tolist()),
        map(repr, traj.latitude.tolist()),
        map(repr, traj.sun_azimuth.tolist()),
        map(repr, traj.sun_elevation.tolist()),
        map(str, traj.daytime.tolist()),
        map(repr, traj.elapsed.tolist()),
        [_DAY_MINUTES[t // 60] + _TWO_DIGITS[t % 60] for t in seconds],
        map(str, traj.days.tolist()),
    )
    return "\n".join([",".join(CSV_HEADER), *map(",".join, rows), ""])


def parse_labels(csv_text: str) -> dict[str, int]:
    """Parse a ``bird_id,label`` CSV: each bird once, labelled 0 or 1."""
    return read_bird_table(csv_text, "label", values=(0, 1))


def labels_to_csv(labels: dict[str, int]) -> str:
    return csv_document([("bird_id", "label"), *((b, labels[b]) for b in sorted(labels))])


def _check_labels(bird_ids: Iterable[str], labels: dict[str, int]) -> None:
    """A data error unless ``labels`` cover exactly ``bird_ids``: it names
    unlabeled birds first, then labels of birds with no trajectory."""
    unlabeled = sorted(set(bird_ids) - set(labels))
    if unlabeled:
        raise PipelineError(f"birds without labels: {unlabeled[:5]}")
    unknown = sorted(set(labels) - set(bird_ids))
    if unknown:
        raise PipelineError(f"labels reference birds with no trajectory: {unknown[:5]}")


def load_labels(labels_path: str | Path, bird_ids: Iterable[str]) -> dict[str, int]:
    """The labels file at ``labels_path``, which must label exactly
    ``bird_ids`` (see :func:`_check_labels`); a data error names the file."""
    with reading(labels_path, "labels file") as text:
        labels = parse_labels(text)
        _check_labels(bird_ids, labels)
    return labels


@dataclass
class Corpus:
    """Immutable collection of trajectories keyed by bird id.

    Iteration order is always lexicographic in bird_id regardless of how
    the corpus was assembled. Labels, when given, cover exactly the birds
    with a trajectory (see :func:`_check_labels`).
    """

    trajectories: dict[str, Trajectory]
    labels: dict[str, int] | None = None

    def __post_init__(self) -> None:
        self.trajectories = dict(sorted(self.trajectories.items()))
        if self.labels is not None:
            _check_labels(self.trajectories, self.labels)
            self.labels = dict(sorted(self.labels.items()))

    @property
    def bird_ids(self) -> list[str]:
        return list(self.trajectories)

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories.values())

    def __getitem__(self, bird_id: str) -> Trajectory:
        return self.trajectories[bird_id]


class CorpusReader:
    """The ``<bird_id>.csv`` files of a trajectory directory, each parsed
    only when it is asked for, so a reader holds no trajectory.

    Opening it checks the directory: it must exist and be a directory, hold
    at least one trajectory file, and hold no file name that is not UTF-8,
    since no output could hold its bird id. The bird ids are then known, in
    lexicographic order, before any file is parsed. ``reader[bird_id]``
    parses that bird's file; an error names the file's path, so that it
    tells corpora with the same bird ids apart.
    """

    def __init__(self, trajectory_dir: str | Path) -> None:
        directory = Path(trajectory_dir)
        if not directory.is_dir():
            problem = "not a directory" if directory.exists() else "trajectory directory not found"
            raise PipelineError(f"{directory}: {problem}")
        paths = sorted(directory.glob("*.csv"), key=lambda p: p.stem)
        for path in paths:
            try:  # a name that is not UTF-8 decodes to lone surrogates
                path.name.encode()
            except UnicodeEncodeError:
                raise PipelineError(f"{directory}: file name {path.name!r} is not UTF-8") from None
        if not paths:
            raise PipelineError(f"{directory}: no trajectory files (*.csv)")
        self.directory = directory
        self.paths = {path.stem: path for path in paths}

    @property
    def bird_ids(self) -> list[str]:
        return list(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, bird_id: str) -> Trajectory:
        with reading(self.paths[bird_id], "trajectory file") as text:
            return parse_trajectory(bird_id, text)


def load_corpus(trajectory_dir: str | Path, labels_path: str | Path | None = None) -> Corpus:
    """Every trajectory of a :class:`CorpusReader` held at once, in
    lexicographic bird_id order, plus optional labels, which must cover
    exactly the birds with a trajectory; a mismatch either way names the
    labels file.
    """
    reader = CorpusReader(trajectory_dir)
    trajectories = {bird_id: reader[bird_id] for bird_id in reader.bird_ids}
    labels = None if labels_path is None else load_labels(labels_path, reader.bird_ids)
    return Corpus(trajectories=trajectories, labels=labels)


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write UTF-8 text, one string or an iterable of pieces written as they
    come, to a temporary file and rename it over ``path``, so reruns
    overwrite outputs atomically; missing parent directories are created.
    If anything fails, the temporary file is removed and ``path`` is left as
    it was; a file-system failure is a data error naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as out:
            out.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # a parent that is not a directory holds no temporary file
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # mkdir raises FileExistsError when it meets a file
            reason = f"{exc.filename} is a file" if isinstance(exc, FileExistsError) else exc.strerror
            raise PipelineError(f"{path}: cannot write: {reason}") from None
        raise


def remove_file(path: Path) -> None:
    """Remove the file at ``path``, if any; a file-system failure is a data error naming it."""
    try:
        path.unlink(missing_ok=True)
    except OSError as exc:
        raise PipelineError(f"{path}: cannot remove: {exc.strerror}") from None


def save_corpus(
    corpus: Corpus,
    trajectory_dir: str | Path,
    labels_path: str | Path | None = None,
) -> None:
    """Write one CSV per bird (plus the labels file when labels exist)."""
    trajectory_dir = Path(trajectory_dir)
    for bird_id, traj in corpus.trajectories.items():
        atomic_write_text(trajectory_dir / f"{bird_id}.csv", trajectory_to_csv(traj))
    if labels_path is not None and corpus.labels is not None:
        atomic_write_text(labels_path, labels_to_csv(corpus.labels))
