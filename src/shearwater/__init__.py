"""shearwater: gender classification of seabirds from GPS trip trajectories.

Library layout follows the pipeline stages, one path each: trajdata (parsing,
``CorpusReader``), geokin (kinematics), featex (per-bird features), datasets
(``build_datasets``, ``fill_missing``), trees/boost/linsvm (learners), evalcv
(folds, metrics, voting), synthgen (synthetic corpora), cli (batch orchestration).
"""

from .boost import GbdtParams, LearnerKind, TrainedModel, fit_learner, predict_scores
from .datasets import DatasetMode, FeatureMatrix
from .evalcv import (
    FoldAssignment,
    ModelSetting,
    PredictionSet,
    accuracy,
    cross_validate,
    f1_score,
    majority_vote,
    make_folds,
    tune_threshold,
)
from .geokin import haversine
from .synthgen import SynthParams, generate_corpus
from .trajdata import Corpus, Trajectory, parse_trajectory

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "DatasetMode",
    "FeatureMatrix",
    "FoldAssignment",
    "GbdtParams",
    "LearnerKind",
    "ModelSetting",
    "PredictionSet",
    "SynthParams",
    "TrainedModel",
    "Trajectory",
    "accuracy",
    "cross_validate",
    "f1_score",
    "fit_learner",
    "generate_corpus",
    "haversine",
    "majority_vote",
    "make_folds",
    "parse_trajectory",
    "predict_scores",
    "tune_threshold",
    "__version__",
]
