"""The whole pipeline, end to end, on a small synthetic corpus.

Drives the same CLI commands a batch run would use: generate train/test
corpora, extract both dataset variants, build the shared folds,
cross-validate every enabled setting, train final models, predict, vote,
and score the ensemble against the held-out truth.

Runs in about a minute; artifacts land in ./pipeline_demo/.
"""

import json
from pathlib import Path

from shearwater.cli import main

root = Path("pipeline_demo")
root.mkdir(exist_ok=True)
config = {
    "paths": {
        "train_dir": str(root / "train"),
        "train_labels": str(root / "train_labels.csv"),
        "test_dir": str(root / "test"),
        "test_labels": str(root / "test_labels.csv"),
        "out_dir": str(root / "out"),
    },
    "modes": ["together", "split"],
    "learners": ["xgb_binary", "xgb_rank", "lgb_gbdt", "cat", "sk_rf", "svc"],
    "params": {
        "default": {"n_rounds": 25, "max_depth": 3, "learning_rate": 0.2, "n_trees": 30},
        "svc": {"svm_epochs": 15, "svm_reg": 0.01},
    },
    "n_seeds": 2,
    "base_seed": 2018,
    "k_folds": 5,
    "synth": {"n_birds": 80, "trip_length_min": 40, "trip_length_max": 80},
}
cfg = root / "config.json"
cfg.write_text(json.dumps(config, indent=2), encoding="utf-8")

steps = [
    ["synth", "--config", str(cfg)],
    ["synth", "--config", str(cfg), "--role", "test"],
    ["extract", "--config", str(cfg)],
    ["folds", "--config", str(cfg)],
    ["cv", "--config", str(cfg)],
    ["train", "--config", str(cfg)],
    ["predict", "--config", str(cfg)],
    ["ensemble", "--config", str(cfg)],
    [
        "evaluate",
        "--predictions", str(root / "out" / "ensemble.csv"),
        "--truth", str(root / "test_labels.csv"),
    ],
]
for args in steps:
    print(f"\n$ shearwater {' '.join(args)}")
    code = main(args)
    if code != 0:
        raise SystemExit(code)

print(f"\nartifacts under {root}/out: features/, folds.csv, cv_report.csv, "
      "cv_summary.csv, models/, predictions/, ensemble.csv")
