"""Multi-label tweet emotion detection with pyramid attention pooling.

A from-scratch numpy implementation: tape-based reverse-mode autodiff,
stacked bidirectional GRUs, two-level attention pooling over progressively
deeper feature stacks, weighted BCE training with the full regularization
and scheduling regime, and multi-label evaluation metrics.
"""

from .autodiff import Tape, Tensor, backward
from .metrics import MetricsReport, compute_report, f1_scores, jaccard_accuracy, threshold
from .model import ModelConfig, ModelParams, forward, init_params
from .textprep import (
    Dataset,
    EMOTIONS,
    Example,
    Vocabulary,
    build_vocabulary,
    encode,
    load_embeddings,
    load_semeval_tsv,
    tokenize,
)
from .training import TrainingConfig, TrainingLog, train
from .verify import grad_check

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "grad_check",
    "MetricsReport",
    "compute_report",
    "f1_scores",
    "jaccard_accuracy",
    "threshold",
    "ModelConfig",
    "ModelParams",
    "forward",
    "init_params",
    "Dataset",
    "EMOTIONS",
    "Example",
    "Vocabulary",
    "build_vocabulary",
    "encode",
    "load_embeddings",
    "load_semeval_tsv",
    "tokenize",
    "TrainingConfig",
    "TrainingLog",
    "train",
    "__version__",
]
