"""Training objectives: classification, explanation match, attention sparsity.

All logs are natural. The sparsity entropy uses the 0*log(0) = 0 convention
in the forward pass and clamps the log argument at autodiff's LOG_FLOOR
(1e-9) so the backward pass stays bounded at one-hot attention maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LOG_FLOOR, Tensor
from .errors import ConfigError, DomainError, ShapeError

__all__ = [
    "LOG_FLOOR",
    "LossWeights",
    "cross_entropy",
    "explanation_loss",
    "sparsity_loss",
    "total_loss",
]


@dataclass(frozen=True)
class LossWeights:
    """Non-negative finite mixing weights; lambda_expl = 0 disables explanation
    supervision."""

    lambda_expl: float = 1.0
    lambda_sparse: float = 0.5

    def __post_init__(self):
        for name in ("lambda_expl", "lambda_sparse"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"loss weight {name} must be non-negative and finite, "
                                  f"got {value}")


def cross_entropy(logits: Tensor, label) -> Tensor:
    """-log softmax(logits)[label], via the stable log-sum-exp form.

    1-D logits and an int label give a scalar; (B, n) logits and B labels
    give one loss per sample. A label out of range raises IndexError, and
    labels that do not match the logits' rows a ShapeError (from pick).
    """
    return ad.sub(ad.log_sum_exp(logits), ad.pick(logits, label))


def _per_sample_sum(x: Tensor) -> Tensor:
    """Sum of each (L, C) map over its last two axes: a scalar for one map,
    one value per sample for a (B, L, C) stack."""
    return ad.reduce_sum(x, keep=x.data.ndim - 2)


def explanation_loss(attn: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Squared Frobenius distance between each attention map and its target."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    if attn.shape != target.shape:
        raise ShapeError(f"explanation target shape {target.shape} does not "
                         f"match attention shape {attn.shape}")
    diff = ad.sub(attn, target)
    return _per_sample_sum(ad.mul(diff, diff))


def sparsity_loss(attn: Tensor) -> Tensor:
    """Mean elementwise entropy -a*ln(a) of each attention map."""
    if np.any(attn.data < -1e-12) or np.any(attn.data > 1.0 + 1e-12):
        raise DomainError("sparsity_loss expects entries in [0, 1]")
    per_entry = ad.mul(attn, ad.clamped_log(attn))
    return ad.scale(_per_sample_sum(per_entry), -1.0 / (attn.shape[-2] * attn.shape[-1]))


def total_loss(cls: Tensor, expl: Tensor | None, sparse: Tensor | None,
               weights: LossWeights) -> Tensor:
    """cls + lambda_expl * expl + lambda_sparse * sparse.

    A missing explanation term (sample without a target) contributes zero.
    """
    out = cls
    if expl is not None and weights.lambda_expl != 0.0:
        out = ad.add(out, ad.scale(expl, weights.lambda_expl))
    if sparse is not None and weights.lambda_sparse != 0.0:
        out = ad.add(out, ad.scale(sparse, weights.lambda_sparse))
    return out
