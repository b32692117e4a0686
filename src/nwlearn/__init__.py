"""Invariant representation learning with a Nadaraya-Watson head.

Predictions are kernel-weighted votes over a labeled support set; causal
assumptions are encoded by manipulating which examples enter the support
set during training and inference.
"""

from .data import Dataset, LabeledExample
from .errors import (
    ConfigError,
    ContractError,
    CoverageError,
    DomainError,
    FormatError,
    NwError,
    ParseError,
    ShapeError,
    TrainingDiverged,
)
from .experiment import ExperimentConfig, run_experiment, run_prevalence_sweep
from .featnet import FeatureNet
from .infer import (
    FeatureCache,
    InferenceMode,
    build_cache,
    dump_neighbors,
    knn_predict,
    predict,
    train_probe,
)
from .io import load_checkpoint, load_csv, save_checkpoint, save_csv
from .metrics import compute_metric
from .nwhead import cross_entropy, nw_predict, onehot
from .rng import Rng
from .scmgen import (
    ScmConfig,
    imbalanced_benchmark,
    prevalence_filter,
    sample_dataset,
    spurious_benchmark,
)
from .support import SupportSpec, sample_env_pair, sample_query_batch, sample_support
from .tensor import Tape, Tensor, backward, grad_check
from .trainer import TrainConfig, TrainReport, train

__all__ = [
    "ConfigError",
    "ContractError",
    "CoverageError",
    "Dataset",
    "DomainError",
    "ExperimentConfig",
    "FeatureCache",
    "FeatureNet",
    "FormatError",
    "InferenceMode",
    "LabeledExample",
    "NwError",
    "ParseError",
    "Rng",
    "ScmConfig",
    "ShapeError",
    "SupportSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainReport",
    "TrainingDiverged",
    "backward",
    "build_cache",
    "compute_metric",
    "cross_entropy",
    "dump_neighbors",
    "grad_check",
    "imbalanced_benchmark",
    "knn_predict",
    "load_checkpoint",
    "load_csv",
    "nw_predict",
    "onehot",
    "predict",
    "prevalence_filter",
    "run_experiment",
    "run_prevalence_sweep",
    "sample_dataset",
    "sample_env_pair",
    "sample_query_batch",
    "sample_support",
    "save_checkpoint",
    "save_csv",
    "spurious_benchmark",
    "train",
    "train_probe",
]
