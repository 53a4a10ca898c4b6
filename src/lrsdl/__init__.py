"""Discriminative dictionary learning with a low-rank shared dictionary.

Train with fit(), classify with classify()/evaluate(), persist with
save_model()/load_model(). The lrsdl console script exposes the same
workflow from the shell.
"""

from .archive import load_model, save_model
from .classifier import Prediction, classify, evaluate
from .data import (
    CoefBundle,
    Dataset,
    DictionaryBundle,
    HyperParams,
    IterationRecord,
    LearnedModel,
    MeanStats,
    generate_synthetic,
    mean_stats,
    normalize_columns,
)
from .errors import (
    DataError,
    DimensionError,
    DomainError,
    FormatError,
    NumericalError,
    ParameterError,
    ToolkitError,
)
from .gradients import objective_terms
from .learner import (
    TrainConfig,
    bench_joint_vs_sequential,
    fit,
    initialize,
    sparse_code_sequential,
    sparse_code_train,
)
from .matio import load_labels, load_matrix, save_labels, save_matrix
from .prox import admm_nuclear, fista, soft_threshold, svt

__version__ = "0.1.0"

__all__ = [
    "CoefBundle",
    "DataError",
    "Dataset",
    "DictionaryBundle",
    "DimensionError",
    "DomainError",
    "FormatError",
    "HyperParams",
    "IterationRecord",
    "LearnedModel",
    "MeanStats",
    "NumericalError",
    "ParameterError",
    "Prediction",
    "ToolkitError",
    "TrainConfig",
    "admm_nuclear",
    "bench_joint_vs_sequential",
    "classify",
    "evaluate",
    "fista",
    "fit",
    "generate_synthetic",
    "initialize",
    "load_labels",
    "load_matrix",
    "load_model",
    "mean_stats",
    "normalize_columns",
    "objective_terms",
    "save_labels",
    "save_matrix",
    "save_model",
    "soft_threshold",
    "sparse_code_sequential",
    "sparse_code_train",
    "svt",
]
