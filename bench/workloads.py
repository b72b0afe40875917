"""The benchmark's workloads: synthetic inputs, configs and command chains.

Every workload runs the ``weak`` synthetic profile (``male_speed`` 9.4, all
other ``SynthParams`` defaults), on which per-setting CV F1 sits around
0.80-0.93 instead of 1.000, so a change that hurts quality shows. Fit
hyperparameters are the acceptance-gate profile of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

MODES = ["together", "split"]
K_FOLDS = 5
BASE_SEED = 2018
FIT_PARAMS = {
    "n_rounds": 40, "learning_rate": 0.15, "max_depth": 3, "subsample": 0.8,
    "colsample": 0.8, "n_trees": 50, "svm_epochs": 15, "svm_reg": 0.01,
}
WEAK_PROFILE = {"male_speed": 9.4}


@dataclass(frozen=True)
class Workload:
    name: str
    train_birds: int
    test_birds: int
    learners: list[str]
    n_seeds: int
    synth: dict = field(default_factory=dict)

    @property
    def commands(self) -> list[str]:
        return ["extract", "folds", "cv", "train", "predict", "ensemble", "evaluate"]

    @property
    def n_settings(self) -> int:
        return len(self.learners) * len(MODES)

    def config(self, seed: int, birds: int) -> dict:
        """The run config; ``synth --role test`` derives its corpus seed as
        ``seed + 1`` from ``synth.seed``, so the test birds never repeat the
        training draw. ``--seed`` is never passed to ``synth``: it would set
        both roles to one seed and also override ``base_seed``.
        """
        return {
            "paths": {"train_dir": "data/train", "train_labels": "data/train_labels.csv",
                      "test_dir": "data/test", "test_labels": "data/test_labels.csv",
                      "out_dir": "out"},
            "modes": MODES,
            "learners": self.learners,
            "params": {"default": FIT_PARAMS},
            "n_seeds": self.n_seeds,
            "base_seed": BASE_SEED,
            "k_folds": K_FOLDS,
            "synth": {**WEAK_PROFILE, **self.synth, "n_birds": birds, "seed": seed},
        }

    def write_configs(self, run_dir: Path, seed: int) -> None:
        """``cfg.json`` drives every command; ``cfg_test.json`` differs only
        in ``synth.n_birds`` so the held-out corpus can have its own size.
        """
        (run_dir / "cfg.json").write_text(json.dumps(self.config(seed, self.train_birds)))
        (run_dir / "cfg_test.json").write_text(json.dumps(self.config(seed, self.test_birds)))

    def sizes(self) -> dict:
        return {
            "train_birds": self.train_birds,
            "test_birds": self.test_birds,
            "settings": self.n_settings,
            "seeds": self.n_seeds,
            "folds": K_FOLDS,
            "rounds": FIT_PARAMS["n_rounds"],
            "trees": FIT_PARAMS["n_trees"],
        }


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="replicate_chain",
            train_birds=200,
            test_birds=400,
            learners=["lgb_rf", "sk_rf", "sk_et", "svc"],
            n_seeds=3,
        ),
        Workload(
            name="ingest",
            train_birds=400,
            test_birds=400,
            learners=["svc"],
            n_seeds=1,
            synth={"trip_length_min": 150, "trip_length_max": 400},
        ),
    ]
}
