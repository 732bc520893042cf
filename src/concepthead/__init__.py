"""concepthead: a trainable, interpretable concept-attention classifier head.

Concept slots bind to input features through competitive attention, the
features read the refined slots back through cross-attention, and the class
logits decompose exactly into per-concept relevances times per-concept class
scores. Training combines cross-entropy with explanation-matching and
entropy-sparsity penalties on the attention maps. Everything runs on a
small built-in reverse-mode autodiff core in float64.
"""

from .autodiff import Tensor, backward, grad_check
from .data import Dataset, Sample, SynthConfig, gen_synthetic, read_emb, write_emb
from .errors import (ConceptHeadError, ConfigError, DomainError, FormatError,
                     MetricError, NumericError, RecordConsumedError, ShapeError)
from .head import (CrossAttentionParams, HeadConfig, HeadOutput, HeadParams,
                   PathwayParams, SlotAttentionParams, head_forward, init_head_params)
from .losses import LossWeights, cross_entropy, explanation_loss, sparsity_loss, total_loss
from .metrics import Metrics
from .trainer import (TrainConfig, TrainState, evaluate, fit, load_checkpoint,
                      save_checkpoint)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "grad_check",
    "Dataset", "Sample", "SynthConfig", "gen_synthetic", "read_emb", "write_emb",
    "ConceptHeadError", "ConfigError", "DomainError", "FormatError",
    "MetricError", "NumericError", "RecordConsumedError", "ShapeError",
    "CrossAttentionParams", "HeadConfig", "HeadOutput", "HeadParams",
    "PathwayParams", "SlotAttentionParams", "head_forward", "init_head_params",
    "LossWeights", "cross_entropy", "explanation_loss", "sparsity_loss", "total_loss",
    "Metrics",
    "TrainConfig", "TrainState", "evaluate", "fit", "load_checkpoint", "save_checkpoint",
    "__version__",
]
