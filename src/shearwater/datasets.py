"""Feature-matrix assembly for the two dataset variants.

``together`` runs feature extraction on full trajectories (248 columns);
``split`` filters each trajectory to its day and night subsequences,
extracts the full battery independently on each, and prefixes the columns
``day_`` / ``night_`` (496 columns). :attr:`DatasetMode.subsets` is the one
place that says which subsets a mode has; the column schema and the matrix
build iterate it. :func:`build_datasets` fills every mode's rows from one
trajectory at a time: it filters each bird's subset and derives its series
once, keeping only the speeds, then pools the exceedance thresholds from
them and fills in the counts. Exceedance thresholds always come from the
matching pooled subset of the *training* corpus.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import PipelineError, csv_rows, naming
from .featex import (
    EXCEEDANCE,
    bird_features,
    exceedance_counts,
    feature_names,
    velocity_thresholds,
)
from .trajdata import Corpus, CorpusReader, Trajectory, atomic_write_text


class DatasetMode(str, Enum):
    TOGETHER = "together"
    SPLIT = "split"

    @property
    def subsets(self) -> tuple[tuple[str, int | None, str], ...]:
        """(name, daytime flag or None for the whole track, column prefix)
        of each feature block, in column order.
        """
        if self is DatasetMode.TOGETHER:
            return (("all", None, ""),)
        return (("day", 1, "day_"), ("night", 0, "night_"))


def _track(traj: Trajectory, daytime: int | None) -> Trajectory:
    return traj if daytime is None else traj.filter_daytime(daytime)


def schema_columns(mode: DatasetMode) -> list[str]:
    """Column names of a built matrix; a pure function of the mode."""
    base = feature_names()
    return [f"{prefix}{c}" for _, _, prefix in mode.subsets for c in base]


@dataclass
class FeatureMatrix:
    """Dense per-bird feature rows with NaN as the missing sentinel."""

    bird_ids: list[str]
    columns: list[str]
    values: np.ndarray  # (n_birds, n_columns) float64
    labels: np.ndarray | None = None  # int64, aligned with bird_ids

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.bird_ids), len(self.columns)):
            raise PipelineError("matrix shape does not match ids/columns")
        if len(set(self.columns)) != len(self.columns):
            raise PipelineError("duplicate column names")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    def labeled(self, labels: dict[str, int]) -> "FeatureMatrix":
        """This matrix with each row labeled from ``labels`` by its bird id."""
        return replace(self, labels=[labels[b] for b in self.bird_ids])

    def subset(self, mask: np.ndarray) -> "FeatureMatrix":
        idx = np.flatnonzero(mask)
        return FeatureMatrix(
            bird_ids=[self.bird_ids[i] for i in idx],
            columns=list(self.columns),
            values=self.values[idx],
            labels=None if self.labels is None else self.labels[idx],
        )

    def csv_lines(self) -> Iterator[str]:
        """The CSV document one line at a time, each made as it is asked
        for, so a writer holds one row's text. The header and each row's
        lead go through ``csv.writer``, which quotes a bird id when it needs
        it. The value cells (``repr``, NaN as ``""``) never need quoting, so
        all but the first are joined directly in place of the row's line end.
        """
        parts: list[str] = []
        writer = csv.writer(SimpleNamespace(write=parts.append), lineterminator="\n")
        has_label = self.labels is not None
        writer.writerow(["bird_id"] + (["label"] if has_label else []) + self.columns)
        yield parts.pop()
        labels = [[str(y)] for y in self.labels.tolist()] if has_label else [[]] * len(self.bird_ids)
        for bird_id, label, values in zip(self.bird_ids, labels, self.values):
            cells = ["" if v != v else repr(v) for v in values.tolist()]
            writer.writerow([bird_id, *label, *cells[:1]])
            lead = parts.pop()[:-1]  # drop the writer's "\n"; the row goes on
            yield ",".join([lead, *cells[1:]]) + "\n"

    def to_csv(self) -> str:
        """The whole :meth:`csv_lines` document as one string."""
        return "".join(self.csv_lines())

    @classmethod
    def from_csv(cls, text: str) -> "FeatureMatrix":
        """Read a ``to_csv`` document: each bird once, an empty cell is
        missing, and an infinite one (``inf``, ``1e400``) is a data error
        naming its line. Each row is converted as it is read, to a float64
        array, so the reader holds little more than the matrix."""
        rows = csv_rows(text)
        _, header = next(rows, (1, []))
        if not header or header[0] != "bird_id":
            raise PipelineError("feature CSV must start with a bird_id column")
        has_label = len(header) > 1 and header[1] == "label"
        columns = header[2:] if has_label else header[1:]
        lines: dict[str, int] = {}  # each bird's line, in file order
        labels, values = [], []
        for lineno, row in rows:
            if row[0] in lines:
                raise PipelineError(f"line {lineno}: bird {row[0]!r} is listed twice")
            lines[row[0]] = lineno
            body = row[1:]
            if has_label:
                if body[0] not in ("0", "1"):
                    raise PipelineError(f"line {lineno}: label {body[0]!r} is not 0 or 1")
                labels.append(int(body[0]))
                body = body[1:]
            try:
                values.append(np.array([np.nan if cell == "" else float(cell) for cell in body]))
            except ValueError as exc:
                raise PipelineError(f"line {lineno}: {exc}") from None
        matrix = np.array(values, dtype=np.float64).reshape(len(lines), len(columns))
        infinite = np.argwhere(np.isinf(matrix))
        if infinite.size:
            row, col = infinite[0]
            where = f"line {list(lines.values())[row]}: {columns[col]}"
            raise PipelineError(f"{where} is {matrix[row, col]}, not a finite number")
        return cls(
            bird_ids=list(lines),
            columns=columns,
            values=matrix,
            labels=np.array(labels, dtype=np.int64) if has_label else None,
        )


Thresholds = dict[str, np.ndarray | None]  # a velocity_thresholds vector per subset


def build_datasets(
    corpus: Corpus | CorpusReader,
    modes: list[DatasetMode],
    thresholds: dict[DatasetMode, Thresholds] | None = None,
) -> dict[DatasetMode, tuple[FeatureMatrix, Thresholds]]:
    """Each mode's unlabeled feature matrix of a corpus, and the thresholds
    of its exceedance counts, from one trajectory at a time.

    The trajectories are taken in bird_id order, and each is dropped once
    every mode's row of it is filled, before the next is taken; from a
    :class:`CorpusReader` that is before the next file is parsed. Each
    subset is filtered and its series derived once. With ``thresholds`` (a
    test corpus takes the training corpus's), the exceedance counts are
    filled at once. Without, each subset's speeds are kept and pooled over
    the corpus in bird_id order, None for a subset with no speed samples
    (its exceedance counts stay missing), and the counts are filled after.
    A :class:`CorpusReader`'s parse error names the file, and a feature
    error of one of its trajectories names its directory.
    """
    n = len(corpus)
    values = {mode: np.empty((n, len(mode.subsets), len(feature_names()))) for mode in modes}
    speeds = {mode: [[] for _ in mode.subsets] for mode in modes}  # per subset, per bird
    directory = corpus.directory if isinstance(corpus, CorpusReader) else None
    for i, bird_id in enumerate(corpus.bird_ids):
        traj = corpus[bird_id]
        with naming(directory) if directory is not None else nullcontext():
            for mode in modes:
                for j, (name, daytime, _) in enumerate(mode.subsets):
                    values[mode][i, j], track_speeds = bird_features(_track(traj, daytime))
                    if thresholds is None:
                        speeds[mode][j].append(track_speeds)
                    else:
                        _fill_exceedance(values[mode][i, j], track_speeds, thresholds[mode][name])
        del traj  # before the next trajectory is taken
    if thresholds is None:
        thresholds = {mode: {} for mode in modes}
        for mode in modes:
            for j, (name, _, _) in enumerate(mode.subsets):
                per_bird = speeds[mode][j]
                pooled = np.concatenate([np.empty(0)] + [v for v in per_bird if v is not None])
                thresholds[mode][name] = velocity_thresholds(pooled) if pooled.size else None
                for i, track_speeds in enumerate(per_bird):
                    _fill_exceedance(values[mode][i, j], track_speeds, thresholds[mode][name])
    return {
        mode: (
            FeatureMatrix(corpus.bird_ids, schema_columns(mode), values[mode].reshape(n, -1)),
            thresholds[mode],
        )
        for mode in modes
    }


def _fill_exceedance(row: np.ndarray, speeds: np.ndarray | None, thresholds: np.ndarray | None):
    """Set a feature row's exceedance counts, unless its track or its
    corpus's subset has no speed samples."""
    if thresholds is not None and speeds is not None:
        row[EXCEEDANCE] = exceedance_counts(speeds, thresholds)


def build_dataset(
    corpus: Corpus, mode: DatasetMode, thresholds: Thresholds | None = None
) -> tuple[FeatureMatrix, Thresholds]:
    """:func:`build_datasets` of one mode, its matrix labeled when the corpus is."""
    matrix, thresholds = build_datasets(
        corpus, [mode], None if thresholds is None else {mode: thresholds}
    )[mode]
    return (matrix if corpus.labels is None else matrix.labeled(corpus.labels)), thresholds


def column_medians(values: np.ndarray) -> np.ndarray:
    """Each column's median over its non-NaN entries, 0 for a column with
    none. A sort puts NaN last, so a column's k observed values lead it; the
    median is (s[(k-1)//2] + s[k//2]) / 2, the sum-then-halve np.nanmedian
    takes below 600 rows (an odd count's middle value is added to itself).
    Only a tie of 0.0 and -0.0 can differ from it, in the zero's sign."""
    if values.shape[0] == 0:
        return np.zeros(values.shape[1])
    s = np.sort(values, axis=0)
    k = (~np.isnan(values)).sum(axis=0)
    cols = np.arange(values.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):  # as np.nanmedian: inf - inf, huge sums
        medians = (s[(k - 1) // 2, cols] + s[k // 2, cols]) / 2
    return np.where(k > 0, medians, 0.0)


def impute(train: FeatureMatrix, apply_to: FeatureMatrix) -> FeatureMatrix:
    """Fill missing entries with training-column medians (0 when a training
    column is entirely missing). Idempotent; never touches the train matrix.
    """
    if train.columns != apply_to.columns:
        raise PipelineError("imputation train/apply column schemas differ")
    fill = column_medians(train.values)
    values = apply_to.values.copy()
    nan_rows, nan_cols = np.nonzero(np.isnan(values))
    values[nan_rows, nan_cols] = fill[nan_cols]
    return FeatureMatrix(
        bird_ids=list(apply_to.bird_ids),
        columns=list(apply_to.columns),
        values=values,
        labels=None if apply_to.labels is None else apply_to.labels.copy(),
    )


def write_manifest(columns: list[str], path: str | Path) -> None:
    """Persist the ordered column schema, one name per line."""
    atomic_write_text(path, "\n".join(columns) + "\n")
