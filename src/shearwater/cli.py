"""Multi-command batch interface orchestrating the full pipeline.

All paths and hyperparameters live in a JSON config; flags override
scalars. Commands overwrite each output file atomically and can be re-run
one by one, except that `train` needs the thresholds of a `cv` run on the
same inputs (`cv_thresholds.json`) and `predict` only uses models that
`train` fitted on the current inputs and hyperparameters. `train` writes
each model as soon as it is fitted, so one stopped part-way leaves the
models before the failure new and the rest stale, which `predict` refuses
by name. A run is reproducible end to end: identical config and seed
give byte-identical final predictions regardless of --jobs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
import zlib
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import evalcv
from .boost import GbdtParams, LearnerKind, TrainedModel, predict_scores
from .datasets import (
    DatasetMode,
    FeatureMatrix,
    build_datasets,
    impute,
    write_manifest,
)
from .errors import PipelineError, reading
from .evalcv import (
    CvResult,
    FoldAssignment,
    ModelSetting,
    PredictionSet,
    cross_validate,
    f1_score,
    accuracy,
    fit_final_model,
    folds_from_csv,
    folds_to_csv,
    hard_labels,
    majority_vote,
    make_folds,
    prepare,
    prevalent_label,
    require_finite_scores,
)
from .featex import THRESHOLD_NAMES
from .synthgen import SynthParams, generate_corpus
from .trajdata import (
    CorpusReader,
    atomic_write_text,
    load_labels,
    parse_labels,
    remove_file,
    save_corpus,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

ALL_LEARNERS = [k.value for k in LearnerKind]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _fits(value, kind: type) -> bool:
    """Whether a JSON value fits a field of type ``kind``: an int field takes
    an int in int64's range, a float field an int or a float whose ``float()``
    is finite (by type(), so never a bool), and a str field no NUL byte, which
    no file system takes in a path."""
    if kind is int:
        return type(value) is int and -(2**63) <= value < 2**63
    if kind is float:
        try:
            return type(value) in (int, float) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    return isinstance(value, kind) and not (kind is str and "\0" in value)


_EXPECTED = {int: "a 64-bit integer", float: "a finite number", str: "a string with no NUL byte",
             dict: "an object", list: "a list"}


def _read_fields(doc, types: dict, prefix: str, required=()) -> dict:
    """``doc``, a config object whose fields are named and typed by ``types``;
    UsageError naming, after ``prefix``, the first misfit: ``doc`` is not an
    object, holds a name ``types`` lacks, lacks a ``required`` name, or holds
    a value that does not fit its type."""
    if not isinstance(doc, dict):
        where = f"{prefix[:-1]}: " if prefix else ""
        raise UsageError(f"bad config: {where}expected an object, got {doc!r}")
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise UsageError(f"bad config: {prefix}{unknown[0]} is not a parameter")
    missing = [name for name in required if name not in doc]
    if missing:
        raise UsageError(f"bad config: {prefix}{missing[0]} is missing")
    for name, value in doc.items():
        if not _fits(value, types[name]):
            expected = _EXPECTED[types[name]]
            raise UsageError(f"bad config: {prefix}{name}: expected {expected}, got {value!r}")
    return doc


def _read_block(cls: type, doc: dict, prefix: str):
    """A validated ``cls`` built from ``doc``; UsageError naming, after ``prefix``,
    the first field that ``cls`` lacks or that fails its type or ``cls.validate``."""
    params = cls(**_read_fields(doc, get_type_hints(cls), prefix))
    try:
        params.validate()
    except ValueError as exc:
        raise UsageError(f"bad config: {prefix}{exc}") from None
    return params


def _choices(doc: dict, key: str, enum: type, default: list) -> list:
    """The ``enum`` members a list field names, each once."""
    try:
        chosen = [enum(name) for name in doc.get(key, default)]
    except ValueError as exc:
        raise UsageError(f"bad config: {key}: {exc}") from None
    repeated = sorted({m.value for m in chosen if chosen.count(m) > 1})
    if repeated:
        raise UsageError(f"bad config: {key} lists {repeated} more than once")
    return chosen


_TOP_LEVEL = {"paths": dict, "modes": list, "learners": list, "params": dict,
              "n_seeds": int, "base_seed": int, "k_folds": int, "synth": dict}
_PATHS = ["train_dir", "train_labels", "out_dir", "test_dir", "test_labels"]


@dataclass
class RunConfig:
    """A config file's settings; :meth:`from_file` holds their defaults."""

    train_dir: Path
    train_labels: Path
    out_dir: Path
    modes: list[DatasetMode]
    learners: list[LearnerKind]
    params: dict  # the "default" block and one block per learner
    n_seeds: int
    base_seed: int
    k_folds: int
    synth: dict
    test_dir: Path | None = None
    test_labels: Path | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            with reading(path, "file") as text:
                doc = json.loads(text)
        except PipelineError as exc:  # it names the path
            raise UsageError(f"config {exc}") from None
        except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
            raise UsageError(f"config is not valid JSON: {exc}") from None
        _read_fields(doc, _TOP_LEVEL, "", required=["paths"])
        paths = _read_fields(doc["paths"], dict.fromkeys(_PATHS, str), "paths.", _PATHS[:3])
        params = doc.get("params", {})
        _read_fields(params, dict.fromkeys(["default", *ALL_LEARNERS], dict), "params.")
        cfg = cls(
            **{name: Path(value) for name, value in paths.items()},
            modes=_choices(doc, "modes", DatasetMode, ["together", "split"]),
            learners=_choices(doc, "learners", LearnerKind, ALL_LEARNERS),
            params=params,
            n_seeds=doc.get("n_seeds", 10),
            base_seed=doc.get("base_seed", 2018),
            k_folds=doc.get("k_folds", 5),
            synth=doc.get("synth", {}),
        )
        for name, domain, ok in (
            ("n_seeds", ">= 1", cfg.n_seeds >= 1),
            ("k_folds", ">= 2", cfg.k_folds >= 2),
            ("base_seed", ">= 0", cfg.base_seed >= 0),
        ):
            if not ok:
                raise UsageError(f"bad config: {name} must be {domain}, got {getattr(cfg, name)!r}")
        if not cfg.learners or not cfg.modes:
            raise UsageError("config enables no settings")
        for kind in LearnerKind:  # every block present, enabled or not, in a fixed order
            if kind in cfg.learners or kind.value in params:
                cfg.params_for(kind)
        return cfg

    def params_for(self, kind: LearnerKind) -> GbdtParams:
        merged = {**self.params.get("default", {}), **self.params.get(kind.value, {})}
        return _read_block(GbdtParams, merged, f"params.{kind.value}.")

    def settings(self) -> list[ModelSetting]:
        return [
            ModelSetting(kind=kind, mode=mode, params=self.params_for(kind))
            for mode in self.modes
            for kind in self.learners
        ]

    def seeds(self) -> list[int]:
        return [self.base_seed + r for r in range(self.n_seeds)]

    def runs(self) -> list[tuple[ModelSetting, int]]:
        """Every (setting, replicate seed) pair, in output order."""
        return [(s, seed) for s in self.settings() for seed in self.seeds()]

    def synth_params(self, seed: int | None = None) -> SynthParams:
        flag = {} if seed is None else {"seed": seed}
        return _read_block(SynthParams, {**self.synth, **flag}, "synth.")

    # fixed output locations under out_dir
    def features_path(self, role: str, mode: DatasetMode) -> Path:
        return self.out_dir / "features" / f"{role}_{mode.value}.csv"

    def manifest_path(self, mode: DatasetMode) -> Path:
        return self.out_dir / "features" / f"manifest_{mode.value}.txt"

    def thresholds_path(self, mode: DatasetMode) -> Path:
        return self.out_dir / "features" / f"thresholds_{mode.value}.json"

    def folds_path(self) -> Path:
        return self.out_dir / "folds.csv"

    def cv_thresholds_path(self) -> Path:
        return self.out_dir / "cv_thresholds.json"

    def models_dir(self) -> Path:
        return self.out_dir / "models"

    def model_path(self, setting: ModelSetting, seed: int) -> Path:
        return self.models_dir() / f"{setting.name}_s{seed}.json"

    def predictions_dir(self) -> Path:
        return self.out_dir / "predictions"

    def predictions_path(self, setting: ModelSetting, seed: int) -> Path:
        return self.predictions_dir() / f"{setting.name}_s{seed}.csv"

    def ensemble_path(self) -> Path:
        return self.out_dir / "ensemble.csv"


def _load_matrix(path: Path, what: str, crc: int = 0) -> tuple[FeatureMatrix, int]:
    """A feature matrix, and ``crc`` carried on over its text (not held after)."""
    with reading(path, what, made_by="extract") as text:
        crc = zlib.crc32(text.encode(), crc)
        return FeatureMatrix.from_csv(text), crc


def _load_model(path: Path, fingerprint: str) -> TrainedModel:
    """A model file, refused unless ``train`` fitted it under ``fingerprint``."""
    with reading(path, "model", made_by="train") as text:
        try:
            doc = json.loads(text)
            model = TrainedModel.from_dict(doc)
        except PipelineError:  # a model file in an older format
            raise
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise PipelineError(f"not a model file: {exc!r}") from None
        if doc.get("fingerprint") != fingerprint:
            raise PipelineError("trained on other inputs or hyperparameters; re-run train")
    return model


def _load_labels(path: Path, what: str) -> dict[str, int]:
    with reading(path, what) as text:
        return parse_labels(text)


# --- commands --------------------------------------------------------------

def cmd_synth(cfg: RunConfig, role: str, seed: int | None, out: str | None) -> None:
    params = cfg.synth_params(seed)
    if role == "test":
        # a held-out corpus must not repeat the training draw
        params = replace(params, seed=params.seed + 1)
    corpus = generate_corpus(params)
    if out is not None:
        traj_dir = Path(out)
        labels_path = traj_dir.parent / f"{traj_dir.name}_labels.csv"
    elif role == "train":
        traj_dir, labels_path = cfg.train_dir, cfg.train_labels
    else:
        if cfg.test_dir is None:
            raise UsageError("config has no paths.test_dir for --role test")
        traj_dir = cfg.test_dir
        labels_path = cfg.test_labels or cfg.test_dir.parent / "test_labels.csv"
    save_corpus(corpus, traj_dir, labels_path)
    print(f"wrote {len(corpus)} trajectories to {traj_dir} (labels: {labels_path})")


def _thresholds_json(thresholds: dict) -> str:
    doc = {
        subset: None if th is None else dict(zip(THRESHOLD_NAMES, th.tolist()))
        for subset, th in thresholds.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_extract(cfg: RunConfig) -> None:
    """Build every mode's matrices from one trajectory at a time: each
    corpus's reader parses a file only when the builder reaches it, and the
    builder keeps the rows and, of the training corpus, each subset's speeds
    for the pooled thresholds. The training labels are read and checked
    against the training birds before the test corpus is read, and the
    test matrices take the training thresholds. Nothing is written until
    both corpora are built, and each matrix is written line by line as it
    is formatted, so its whole text is never held. Without a test corpus,
    an earlier run's test matrices are removed first, so ``predict``
    cannot score them."""
    reader = CorpusReader(cfg.train_dir)
    train = build_datasets(reader, cfg.modes)
    labels = load_labels(cfg.train_labels, reader.bird_ids)
    train = {mode: (matrix.labeled(labels), th) for mode, (matrix, th) in train.items()}
    test = {}
    if cfg.test_dir is not None and cfg.test_dir.exists():  # a file is refused by CorpusReader
        # test matrices reuse training thresholds (leakage-safe)
        thresholds = {mode: th for mode, (_, th) in train.items()}
        built = build_datasets(CorpusReader(cfg.test_dir), cfg.modes, thresholds)
        test = {mode: matrix for mode, (matrix, _) in built.items()}
    else:
        for mode in cfg.modes:
            remove_file(cfg.features_path("test", mode))
    for mode, (train_matrix, thresholds) in train.items():
        atomic_write_text(cfg.features_path("train", mode), train_matrix.csv_lines())
        write_manifest(train_matrix.columns, cfg.manifest_path(mode))
        atomic_write_text(cfg.thresholds_path(mode), _thresholds_json(thresholds))
        rows = [f"train {mode.value}: {len(train_matrix.bird_ids)}x{len(train_matrix.columns)}"]
        if mode in test:
            test_matrix = test[mode]
            atomic_write_text(cfg.features_path("test", mode), test_matrix.csv_lines())
            rows.append(f"test {mode.value}: {len(test_matrix.bird_ids)}x{len(test_matrix.columns)}")
        print("; ".join(rows))


def cmd_folds(cfg: RunConfig) -> None:
    labels = _load_labels(cfg.train_labels, "training labels file")
    folds = make_folds(labels, k=cfg.k_folds, seed=cfg.base_seed)
    atomic_write_text(cfg.folds_path(), folds_to_csv(folds))
    print(f"wrote {cfg.folds_path()} ({len(folds.assignment)} birds, k={folds.k})")


_WORKER: dict = {}


def _init_worker(prepared):
    _WORKER["prepared"] = prepared


def _cv_task(item):
    setting, seed = item
    return cross_validate(setting, _WORKER["prepared"][setting.mode], seed)


def _train_task(item):
    setting, seed, threshold = item
    return fit_final_model(setting, _WORKER["prepared"][setting.mode], seed, threshold).to_dict()


def _parallel_map(task_fn, items, jobs, prepared):
    """``task_fn`` over ``items``, yielded in item order as each result is
    ready, with the prepared matrices of each mode in ``_WORKER``; in
    ``jobs`` worker processes when > 1, one per item at most. Closing the
    generator early (a consumer that raises) cancels the tasks not yet
    started."""
    jobs = min(jobs, len(items))  # the pool starts every worker at its first submit
    if jobs <= 1:
        _init_worker(prepared)
        yield from map(task_fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor  # its import is slow; one job needs none

    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(prepared,)
    ) as pool:
        yield from pool.map(task_fn, items)


def _load_cv_inputs(cfg: RunConfig):
    """The training matrices, the folds, and the crc32 of their texts (the
    inputs part of :func:`_cv_fingerprint`), which for a file the pipeline
    wrote (UTF-8, no mark, ``\n``) is the crc32 of its bytes.
    """
    crc = 0
    matrices = {}
    for mode in cfg.modes:
        path = cfg.features_path("train", mode)
        matrices[mode], crc = _load_matrix(path, f"{mode.value} feature matrix", crc)
    with reading(cfg.folds_path(), "fold assignment", made_by="folds") as text:
        crc = zlib.crc32(text.encode(), crc)
        folds = folds_from_csv(text)
        for matrix in matrices.values():
            unshared = sorted(set(matrix.bird_ids) ^ set(folds.assignment))
            if unshared:
                raise PipelineError(f"birds not in both folds and features: {unshared[:5]}")
    return matrices, folds, crc


def _run_name(setting: ModelSetting, seed: int) -> str:
    return f"{setting.name}#s{seed}"


def _cv_fingerprint(inputs_crc: int, setting: ModelSetting, seed: int) -> str:
    """What a tuned threshold and a trained model depend on: the training
    matrices and folds (``inputs_crc``), the setting with its
    hyperparameters, and the seed.
    """
    key = f"{_run_name(setting, seed)} {setting.params!r}"
    return f"{zlib.crc32(key.encode(), inputs_crc):08x}"


def _train_items(cfg: RunConfig, inputs_crc: int) -> list[tuple[ModelSetting, int, float]]:
    """Each of ``cfg.runs()`` with the threshold ``cv`` tuned for it on the
    current inputs.
    """
    items = []
    with reading(cfg.cv_thresholds_path(), "thresholds file", made_by="cv") as text:
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError
            raise PipelineError(f"not a thresholds file: {exc}") from None
        for setting, seed in cfg.runs():
            name = _run_name(setting, seed)
            entry = doc.get(name) if isinstance(doc, dict) else None
            if not isinstance(entry, dict) or type(entry.get("threshold")) is not float:
                raise PipelineError(f"no threshold for {name} (run cv first)")
            if not np.isfinite(entry["threshold"]):  # json reads NaN and Infinity
                raise PipelineError(f"threshold of {name} is {entry['threshold']}, not finite")
            if entry.get("fingerprint") != _cv_fingerprint(inputs_crc, setting, seed):
                raise PipelineError(f"{name} is stale: its inputs changed since cv; re-run cv")
            items.append((setting, seed, entry["threshold"]))
    return items


def cmd_cv(cfg: RunConfig, jobs: int) -> None:
    matrices, folds, inputs_crc = _load_cv_inputs(cfg)
    items = cfg.runs()
    bins = any(kind.reads_bins for kind in cfg.learners)
    prepared = {mode: prepare(matrix, folds, bins) for mode, matrix in matrices.items()}
    results: list[CvResult] = list(_parallel_map(_cv_task, items, jobs, prepared))
    tuned = {
        _run_name(s, seed): {
            "threshold": r.threshold,
            "fingerprint": _cv_fingerprint(inputs_crc, s, seed),
        }
        for (s, seed), r in zip(items, results)
    }
    keyed = sorted(
        zip((_run_name(s, seed) for s, seed in items), results), key=lambda kv: kv[0]
    )

    first = matrices[cfg.modes[0]]
    tie = prevalent_label(first.labels)
    votes = majority_vote(
        [PredictionSet(r.bird_ids, r.oof_labels, source=name) for name, r in keyed], tie
    ).sorted()
    truth = dict(zip(first.bird_ids, first.labels))
    fold_of = folds.fold_vector(votes.bird_ids)
    y = np.array([truth[b] for b in votes.bird_ids])
    ensemble_f1 = float(
        np.mean(
            [f1_score(votes.labels[fold_of == k], y[fold_of == k]) for k in range(folds.k)]
        )
    )
    atomic_write_text(cfg.out_dir / "cv_report.csv", evalcv.cv_report_csv(keyed))
    atomic_write_text(cfg.out_dir / "cv_summary.csv", evalcv.cv_summary_csv(keyed, ensemble_f1))
    atomic_write_text(cfg.cv_thresholds_path(), json.dumps(tuned, indent=1, sort_keys=True) + "\n")
    for name, r in keyed:
        print(f"{name}: mean_f1={r.mean_f1:.6f} tau={r.threshold:.6f}")
    print(f"ensemble: mean_f1={ensemble_f1:.6f}")


def cmd_train(cfg: RunConfig, jobs: int) -> None:
    matrices, folds, inputs_crc = _load_cv_inputs(cfg)
    items = _train_items(cfg, inputs_crc)
    bins = any(kind.reads_bins for kind in cfg.learners)
    prepared = {mode: prepare(matrix, folds, bins) for mode, matrix in matrices.items()}
    # Each model is written as it arrives and dropped before the next fit
    # starts, so memory holds one model, not settings x seeds of them (not
    # zip: its reused result tuple would keep the last model through the
    # next fit). A failed fit or write closes the map, which cancels the fits
    # not yet started, and leaves the models written so far.
    with closing(_parallel_map(_train_task, items, jobs, prepared)) as docs:
        for setting, seed, _ in items:
            doc = next(docs)
            doc["fingerprint"] = _cv_fingerprint(inputs_crc, setting, seed)
            atomic_write_text(cfg.model_path(setting, seed), json.dumps(doc, sort_keys=True))
            del doc
    print(f"wrote {len(items)} models to {cfg.models_dir()}")


def cmd_predict(cfg: RunConfig) -> None:
    """Score every model before any prediction set is written, so that a
    missing, stale or broken model leaves the last run's predictions."""
    train_matrices, _, inputs_crc = _load_cv_inputs(cfg)
    test_matrices = {
        mode: _load_matrix(cfg.features_path("test", mode), f"{mode.value} test matrix")[0]
        for mode in cfg.modes
    }
    imputed = {
        mode: impute(train_matrices[mode], test_matrices[mode]) for mode in cfg.modes
    }
    runs = cfg.runs()
    sets = []
    for setting, seed in runs:
        path = cfg.model_path(setting, seed)
        model = _load_model(path, _cv_fingerprint(inputs_crc, setting, seed))
        matrix = imputed[setting.mode]
        scores = predict_scores(model, matrix.values, matrix.columns)
        require_finite_scores(scores, matrix.bird_ids, str(path))
        if model.threshold is None:
            raise PipelineError(f"model {path.name} has no tuned threshold")
        labels = hard_labels(scores, model.threshold)
        sets.append(PredictionSet(matrix.bird_ids, labels, source=path.stem))
    for (setting, seed), pset in zip(runs, sets):
        atomic_write_text(cfg.predictions_path(setting, seed), pset.to_csv())
    print(f"wrote {len(runs)} prediction sets to {cfg.predictions_dir()}")


def cmd_ensemble(cfg: RunConfig) -> None:
    sets = []
    for setting, seed in cfg.runs():
        path = cfg.predictions_path(setting, seed)
        with reading(path, "prediction set", made_by="predict") as text:
            sets.append(PredictionSet.from_csv(text, source=path.stem))
    labels = _load_labels(cfg.train_labels, "training labels file")
    tie = prevalent_label(np.array(list(labels.values())))
    voted = majority_vote(sets, tie)
    atomic_write_text(cfg.ensemble_path(), voted.to_csv())
    print(f"wrote {cfg.ensemble_path()} ({len(sets)} sets voted, tie class {tie})")


def cmd_evaluate(predictions_path: str, truth_path: str) -> None:
    path = Path(predictions_path)
    with reading(path, "predictions file") as text:
        pred = PredictionSet.from_csv(text, source=path.stem)
    truth = _load_labels(Path(truth_path), "truth file")
    missing = sorted(set(pred.bird_ids) - set(truth))
    if missing:
        raise PipelineError(f"truth file lacks birds: {missing[:5]}")
    y = np.array([truth[b] for b in pred.bird_ids])
    acc = accuracy(pred.labels, y)
    f1 = f1_score(pred.labels, y)
    print(f"accuracy={acc:.6f} f1={f1:.6f}")


# --- entry point -----------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="shearwater", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        return p

    p = with_config(sub.add_parser("synth", help="generate a synthetic corpus"))
    p.add_argument("--role", choices=["train", "test"], default="train")
    p.add_argument("--out", default=None, help="override the output trajectory dir")
    with_config(sub.add_parser("extract", help="build feature matrices"))
    with_config(sub.add_parser("folds", help="write the shared fold assignment"))
    p = with_config(sub.add_parser("cv", help="cross-validate every setting"))
    p.add_argument("--jobs", type=int, default=1)
    p = with_config(sub.add_parser("train", help="fit and persist all settings x seeds"))
    p.add_argument("--jobs", type=int, default=1)
    with_config(sub.add_parser("predict", help="hard labels per trained model"))
    with_config(sub.add_parser("ensemble", help="majority-vote the prediction sets"))
    p = sub.add_parser("evaluate", help="score a predictions file against truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    return parser


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "evaluate":
        cmd_evaluate(args.predictions, args.truth)
        return EXIT_OK
    cfg = RunConfig.from_file(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise UsageError("--seed must be >= 0")
        cfg.base_seed = args.seed
    if getattr(args, "jobs", 1) < 1:
        raise UsageError("--jobs must be >= 1")
    if args.command == "synth":
        cmd_synth(cfg, args.role, args.seed, args.out)
    elif args.command == "extract":
        cmd_extract(cfg)
    elif args.command == "folds":
        cmd_folds(cfg)
    elif args.command == "cv":
        cmd_cv(cfg, args.jobs)
    elif args.command == "train":
        cmd_train(cfg, args.jobs)
    elif args.command == "predict":
        cmd_predict(cfg)
    elif args.command == "ensemble":
        cmd_ensemble(cfg)
    else:  # unreachable: argparse enforces the choices
        raise UsageError(f"unknown command {args.command!r}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return _run(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PipelineError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
