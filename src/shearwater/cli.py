"""Multi-command batch interface orchestrating the full pipeline.

All paths and hyperparameters live in a JSON config; flags override
scalars. Commands overwrite their outputs atomically and can be re-run one
by one, except that `train` needs the thresholds of a `cv` run on the same
inputs (`cv_thresholds.json`) and `predict` only uses models that `train`
fitted on the current inputs and hyperparameters. A run is reproducible
end to end: identical config and seed give byte-identical final
predictions regardless of --jobs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import evalcv
from .boost import GbdtParams, LearnerKind, TrainedModel, predict_scores
from .datasets import (
    DatasetMode,
    FeatureMatrix,
    build_dataset_with_thresholds,
    compute_thresholds,
    impute,
    write_manifest,
)
from .errors import BirdSetMismatch, MalformedRow, PipelineError, StaleArtifact
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
    prevalent_label,
)
from .featex import THRESHOLD_NAMES
from .synthgen import SynthParams, generate_corpus
from .trajdata import atomic_write_text, load_corpus, parse_labels, save_corpus

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


@dataclass
class RunConfig:
    train_dir: Path
    train_labels: Path
    out_dir: Path
    test_dir: Path | None = None
    test_labels: Path | None = None
    modes: list[DatasetMode] = field(
        default_factory=lambda: [DatasetMode.TOGETHER, DatasetMode.SPLIT]
    )
    learners: list[LearnerKind] = field(
        default_factory=lambda: [LearnerKind(k) for k in ALL_LEARNERS]
    )
    default_params: dict = field(default_factory=dict)
    learner_params: dict = field(default_factory=dict)
    n_seeds: int = 10
    base_seed: int = 2018
    k_folds: int = 5
    synth: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None
        try:
            paths = doc["paths"]
            params = doc.get("params", {})
            cfg = cls(
                train_dir=Path(paths["train_dir"]),
                train_labels=Path(paths["train_labels"]),
                out_dir=Path(paths["out_dir"]),
                test_dir=Path(paths["test_dir"]) if "test_dir" in paths else None,
                test_labels=Path(paths["test_labels"]) if "test_labels" in paths else None,
                modes=[DatasetMode(m) for m in doc.get("modes", ["together", "split"])],
                learners=[LearnerKind(k) for k in doc.get("learners", ALL_LEARNERS)],
                default_params=params.get("default", {}),
                learner_params={k: v for k, v in params.items() if k != "default"},
                n_seeds=int(doc.get("n_seeds", 10)),
                base_seed=int(doc.get("base_seed", 2018)),
                k_folds=int(doc.get("k_folds", 5)),
                synth=doc.get("synth", {}),
            )
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad config: {exc}") from None
        if cfg.n_seeds < 1:
            raise UsageError("n_seeds must be >= 1")
        if cfg.k_folds < 2:
            raise UsageError("k_folds must be >= 2")
        if cfg.base_seed < 0:
            raise UsageError("base_seed must be >= 0")
        if not cfg.learners or not cfg.modes:
            raise UsageError("config enables no settings")
        unknown = set(cfg.learner_params) - set(ALL_LEARNERS)
        if unknown:
            raise UsageError(f"params for unknown learners: {sorted(unknown)}")
        for kind in cfg.learners:  # surface hyperparameter typos up front
            cfg.params_for(kind)
        return cfg

    def params_for(self, kind: LearnerKind) -> GbdtParams:
        merged = dict(self.default_params)
        merged.update(self.learner_params.get(kind.value, {}))
        try:
            return GbdtParams.from_dict(merged)
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad hyperparameters for {kind.value}: {exc}") from None

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
        known = {f.name for f in fields(SynthParams)}
        unknown = sorted(set(self.synth) - known)
        if unknown:
            raise UsageError(f"unknown synth parameters: {unknown}")
        params = SynthParams(**self.synth)
        if seed is not None:
            params = replace(params, seed=seed)
        try:
            params.validate()
        except ValueError as exc:
            raise UsageError(f"bad synth parameters: {exc}") from None
        return params

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


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise PipelineError(f"{hint} not found: {path} (run the upstream command first)")
    return path


@contextmanager
def _naming(path: Path):
    """Prefix the file name to a data error raised while reading the file."""
    try:
        yield
    except PipelineError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_matrix(path: Path, hint: str) -> FeatureMatrix:
    with _naming(_require(path, hint)):
        return FeatureMatrix.from_csv(path.read_text())


def _load_model(path: Path, fingerprint: str) -> TrainedModel:
    """A model file, refused unless ``train`` fitted it under ``fingerprint``."""
    with _naming(path):
        try:
            doc = json.loads(path.read_text())
            model = TrainedModel.from_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise MalformedRow(f"not a model file: {exc!r}") from None
        if doc.get("fingerprint") != fingerprint:
            raise StaleArtifact("trained on other inputs or hyperparameters; re-run train")
    return model


def _load_predictions(path: Path) -> PredictionSet:
    with _naming(path):
        return PredictionSet.from_csv(path.read_text(), source=path.stem)


def _load_labels(path: Path, hint: str) -> dict[str, int]:
    with _naming(_require(path, hint)):
        return parse_labels(path.read_text())


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
        subset: None if th is None else dict(zip(THRESHOLD_NAMES, th.values.tolist()))
        for subset, th in thresholds.items()
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_extract(cfg: RunConfig) -> None:
    train_corpus = load_corpus(
        _require(cfg.train_dir, "training trajectory directory"),
        _require(cfg.train_labels, "training labels file"),
    )
    test_corpus = None
    if cfg.test_dir is not None and cfg.test_dir.is_dir():
        test_corpus = load_corpus(cfg.test_dir, None)
    cfg.features_path("train", cfg.modes[0]).parent.mkdir(parents=True, exist_ok=True)
    for mode in cfg.modes:
        thresholds = compute_thresholds(train_corpus, mode)
        train_matrix = build_dataset_with_thresholds(train_corpus, mode, thresholds)
        atomic_write_text(cfg.features_path("train", mode), train_matrix.to_csv())
        write_manifest(train_matrix.columns, cfg.manifest_path(mode))
        atomic_write_text(cfg.thresholds_path(mode), _thresholds_json(thresholds))
        rows = [f"train {mode.value}: {len(train_matrix.bird_ids)}x{len(train_matrix.columns)}"]
        if test_corpus is not None:
            # test matrices reuse training thresholds (leakage-safe)
            test_matrix = build_dataset_with_thresholds(test_corpus, mode, thresholds)
            atomic_write_text(cfg.features_path("test", mode), test_matrix.to_csv())
            rows.append(f"test {mode.value}: {len(test_matrix.bird_ids)}x{len(test_matrix.columns)}")
        print("; ".join(rows))


def cmd_folds(cfg: RunConfig) -> None:
    labels = _load_labels(cfg.train_labels, "training labels file")
    folds = make_folds(labels, k=cfg.k_folds, seed=cfg.base_seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.folds_path(), folds_to_csv(folds))
    print(f"wrote {cfg.folds_path()} ({len(folds.assignment)} birds, k={folds.k})")


_WORKER: dict = {}


def _init_worker(matrices, folds):
    _WORKER["matrices"] = matrices
    _WORKER["folds"] = folds


def _cv_task(item):
    setting, seed = item
    return cross_validate(setting, _WORKER["matrices"][setting.mode], _WORKER["folds"], seed)


def _train_task(item):
    setting, seed, threshold = item
    model = fit_final_model(
        setting, _WORKER["matrices"][setting.mode], _WORKER["folds"], seed, threshold
    )
    return model.to_dict()


def _parallel_map(task_fn, items, jobs, matrices, folds):
    if jobs <= 1:
        _init_worker(matrices, folds)
        return [task_fn(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(matrices, folds)
    ) as pool:
        return list(pool.map(task_fn, items))


def _read_with_crc(path: Path, crc: int) -> tuple[str, int]:
    """The text of a file, and ``crc`` carried on over its bytes."""
    data = path.read_bytes()
    return data.decode(), zlib.crc32(data, crc)


def _load_cv_inputs(cfg: RunConfig):
    """The training matrices, the folds, and the crc32 of the files they
    were read from (the inputs part of :func:`_cv_fingerprint`).
    """
    crc = 0
    matrices = {}
    for mode in cfg.modes:
        path = _require(cfg.features_path("train", mode), f"{mode.value} feature matrix")
        text, crc = _read_with_crc(path, crc)
        with _naming(path):
            matrices[mode] = FeatureMatrix.from_csv(text)
    folds_path = _require(cfg.folds_path(), "fold assignment")
    text, crc = _read_with_crc(folds_path, crc)
    with _naming(folds_path):
        folds = folds_from_csv(text)
        for matrix in matrices.values():
            unshared = sorted(set(matrix.bird_ids) ^ set(folds.assignment))
            if unshared:
                raise BirdSetMismatch(f"birds not in both folds and features: {unshared[:5]}")
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
    path = cfg.cv_thresholds_path()
    if not path.exists():
        raise PipelineError(f"{path}: not found (run cv first)")
    items = []
    with _naming(path):
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:  # JSONDecodeError, or undecodable text
            raise MalformedRow(f"not a thresholds file: {exc}") from None
        for setting, seed in cfg.runs():
            name = _run_name(setting, seed)
            entry = doc.get(name) if isinstance(doc, dict) else None
            if not isinstance(entry, dict) or type(entry.get("threshold")) is not float:
                raise MalformedRow(f"no threshold for {name} (run cv first)")
            if entry.get("fingerprint") != _cv_fingerprint(inputs_crc, setting, seed):
                raise StaleArtifact(f"{name} is stale: its inputs changed since cv; re-run cv")
            items.append((setting, seed, entry["threshold"]))
    return items


def cmd_cv(cfg: RunConfig, jobs: int) -> None:
    matrices, folds, inputs_crc = _load_cv_inputs(cfg)
    items = cfg.runs()
    results: list[CvResult] = _parallel_map(_cv_task, items, jobs, matrices, folds)
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
    docs = _parallel_map(_train_task, items, jobs, matrices, folds)
    cfg.models_dir().mkdir(parents=True, exist_ok=True)
    for (setting, seed, _), doc in zip(items, docs):
        doc["fingerprint"] = _cv_fingerprint(inputs_crc, setting, seed)
        atomic_write_text(cfg.model_path(setting, seed), json.dumps(doc, sort_keys=True))
    print(f"wrote {len(items)} models to {cfg.models_dir()}")


def cmd_predict(cfg: RunConfig) -> None:
    train_matrices, _, inputs_crc = _load_cv_inputs(cfg)
    test_matrices = {
        mode: _load_matrix(cfg.features_path("test", mode), f"{mode.value} test matrix")
        for mode in cfg.modes
    }
    imputed = {
        mode: impute(train_matrices[mode], test_matrices[mode]) for mode in cfg.modes
    }
    runs = cfg.runs()
    model_paths = [_require(cfg.model_path(setting, seed), "model") for setting, seed in runs]
    cfg.predictions_dir().mkdir(parents=True, exist_ok=True)
    for (setting, seed), path in zip(runs, model_paths):
        model = _load_model(path, _cv_fingerprint(inputs_crc, setting, seed))
        matrix = imputed[setting.mode]
        scores = predict_scores(model, matrix)
        if model.threshold is None:
            raise PipelineError(f"model {path.name} has no tuned threshold")
        pset = PredictionSet(
            bird_ids=matrix.bird_ids,
            labels=hard_labels(scores, model.threshold),
            source=path.stem,
        )
        atomic_write_text(cfg.predictions_path(setting, seed), pset.to_csv())
    print(f"wrote {len(runs)} prediction sets to {cfg.predictions_dir()}")


def cmd_ensemble(cfg: RunConfig) -> None:
    pred_paths = [
        _require(cfg.predictions_path(setting, seed), "prediction set")
        for setting, seed in cfg.runs()
    ]
    sets = [_load_predictions(p) for p in pred_paths]
    labels = _load_labels(cfg.train_labels, "training labels file")
    tie = prevalent_label(np.array(list(labels.values())))
    voted = majority_vote(sets, tie)
    atomic_write_text(cfg.ensemble_path(), voted.to_csv())
    print(f"wrote {cfg.ensemble_path()} ({len(sets)} sets voted, tie class {tie})")


def cmd_evaluate(predictions_path: str, truth_path: str) -> None:
    pred = _load_predictions(Path(predictions_path))
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
    except (PipelineError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
