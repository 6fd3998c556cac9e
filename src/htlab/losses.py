"""The adaptation loss suite: cross-entropy, selective distillation on the
unseen-class logits, a feature-spectrum regularizer, and their weighted
composition.

Selective distillation matches the softmax of the frozen source model and
the training model restricted to the unseen columns only (renormalized
among themselves), in the direction KL(source || target); seen columns
receive exactly zero gradient. The feature regularizer penalizes the
squared diagonal energy of C^T C where C is the batch-feature covariance;
its sign is configurable because flattening versus sharpening the spectrum
are both defensible readings (default +1 penalizes large diagonal energy,
which flattens the spectrum).

All functions return mean-over-batch losses and gradients that already
carry the 1/N scaling, so they can be fed straight to model.backward.
Each also takes M batches stacked on a leading run axis, as (M, N, ...)
arrays and (M, N) labels, for stacked params (see model.forward). The
losses are then an (M,) array, one per run, each equal bitwise to the float
the run's own 2-D call returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .model import ModelParams, forward
from .numkit import _centred_covariance, softmax


@dataclass(frozen=True)
class LossSpec:
    lambda_distill: float = 0.0
    lambda_rank: float = 0.0
    rank_sign: int = 1

    def __post_init__(self):
        if not (0 <= self.lambda_distill < math.inf and 0 <= self.lambda_rank < math.inf):
            raise ValueError("loss weights must be nonnegative and finite")
        if self.rank_sign not in (1, -1):
            raise ValueError("rank_sign must be +1 or -1")


@dataclass
class LossBreakdown:
    """Each term a float, or for stacked batches an (M,) array; a term that
    is off stays the scalar 0.0."""

    ce: float
    distill: float
    rank: float
    total: float


def _batch_mean(per_sample: np.ndarray):
    """Mean over the batch (last) axis: a float for one batch, an (M,)
    array for a stack. The sum and division np.mean makes, without its
    wrapper."""
    mean = per_sample.sum(axis=-1) / per_sample.shape[-1]
    return float(mean) if mean.ndim == 0 else mean


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-softmax of the true class.

    Returns (loss, grad_at_logits) with grad = (softmax - onehot) / N.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape[-2:]
    # as unsigned, a negative label is above every class too
    if labels.shape != logits.shape[:-1] or (labels.size and labels.view(np.uint64).max() >= c):
        raise ValueError("labels out of range")
    grad = softmax(logits, axis=-1)
    # one flat index per (run, row) pair picks each true-class entry
    flat, at = grad.reshape(-1), np.arange(0, grad.size, c) + labels.ravel()
    picked = flat[at]
    loss = -_batch_mean(np.log(picked).reshape(labels.shape))
    flat[at] = picked - 1.0
    grad /= n
    return loss, grad


def selective_distill(source_logits: np.ndarray, target_logits: np.ndarray,
                      seen_mask) -> tuple:
    """Per-sample KL between source and target softmaxes restricted to the
    unseen columns, averaged over the batch.

    Returns (loss, grad_at_target_logits); the gradient is
    (sigma(t_unseen) - sigma(s_unseen)) / N scattered into the unseen
    columns, exactly zero elsewhere.
    """
    seen_mask = np.asarray(seen_mask, dtype=bool)
    unseen = np.flatnonzero(~seen_mask)
    if unseen.size == 0:
        raise ValueError("no unseen classes to distill")
    if source_logits.shape != target_logits.shape:
        raise ValueError("logit shape mismatch")
    n = target_logits.shape[-2]
    ps = softmax(source_logits[..., unseen], axis=-1)
    pt = softmax(target_logits[..., unseen], axis=-1)
    # KL(ps || pt) rowwise; both sides are softmax outputs so strictly positive
    loss = _batch_mean((ps * (np.log(ps) - np.log(pt))).sum(axis=-1))
    grad = np.zeros_like(target_logits)
    grad[..., unseen] = (pt - ps) / n
    return loss, grad


def rank_reg(features: np.ndarray) -> tuple:
    """Squared diagonal energy of C^T C for the batch covariance C.

    Returns (loss, grad_at_features). loss = sum_j (C^T C)_jj^2 with the
    1/N covariance normalization.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[-2]
    if n < 2:
        raise ValueError("rank regularizer needs at least 2 samples")
    Zc, C = _centred_covariance(features)
    s = (C * C).sum(axis=-2)           # (C^T C)_jj = squared norm of column j
    loss = (s * s).sum(axis=-1)
    # dL/dC_ab = 4 C_ab s_b; then through C = (1/N) Zc^T Zc and centering
    G = 4.0 * C
    G *= s[..., None, :]
    grad = Zc @ (G + G.swapaxes(-1, -2))
    grad /= n
    grad -= grad.sum(axis=-2, keepdims=True) / n
    return (float(loss) if loss.ndim == 0 else loss), grad


def compose(ce_parts, distill_parts, rank_parts, spec: LossSpec):
    """Weighted sum of the three loss terms.

    Each *_parts is a (loss, grad) pair or None when the term is disabled;
    the losses are floats, or (M,) arrays for stacked batches.
    A zero weight leaves the corresponding gradient untouched bitwise.
    Returns (LossBreakdown, grad_at_logits, grad_at_features_or_None).
    """
    ce_loss, grad_logits = ce_parts
    distill_loss = rank_loss = 0.0
    grad_features = None
    if spec.lambda_distill > 0:
        if distill_parts is None:
            raise ValueError("lambda_distill > 0 but no distillation parts")
        distill_loss, dgrad = distill_parts
        grad_logits = grad_logits + spec.lambda_distill * dgrad
    if spec.lambda_rank > 0:
        if rank_parts is None:
            raise ValueError("lambda_rank > 0 but no rank parts")
        rank_loss, rgrad = rank_parts
        grad_features = spec.rank_sign * spec.lambda_rank * rgrad
    total = ce_loss + spec.lambda_distill * distill_loss \
        + spec.rank_sign * spec.lambda_rank * rank_loss
    return LossBreakdown(ce=ce_loss, distill=distill_loss, rank=rank_loss,
                         total=total), grad_logits, grad_features


class CompositeLoss:
    """Batch loss used by the trainers: cross-entropy plus the configured
    regularizers. Distillation targets are recomputed from the frozen
    source model on every batch (never cached), one 2-D forward per run of
    a stacked batch. `source_params` is one model that every run distills
    from, or a sequence of one source per run of the stacked batches (each
    seed of a seed stack has its own)."""

    def __init__(self, spec: LossSpec,
                 source_params: Union[ModelParams, Sequence[ModelParams], None] = None,
                 seen_mask=None):
        self.spec = spec
        self.sources = [source_params] if isinstance(source_params, ModelParams) \
            else list(source_params or ())
        self.seen_mask = None if seen_mask is None else np.asarray(seen_mask, bool)
        if spec.lambda_distill > 0 and (not self.sources or self.seen_mask is None):
            raise ValueError("distillation needs source params and a seen mask")

    def __call__(self, trace, labels):
        """Returns (LossBreakdown, grad_at_logits, grad_at_features_or_None)
        for a train-mode trace."""
        ce_parts = cross_entropy(trace.logits, labels)
        distill_parts = None
        if self.spec.lambda_distill > 0:
            X, sources = trace.X, self.sources
            if X.ndim == 2:
                src_logits = forward(sources[0], X, mode="eval").logits
            else:
                if len(sources) == 1:
                    sources = sources * len(X)
                elif len(sources) != len(X):
                    raise ValueError("need one source model per run of the batch")
                src_logits = np.stack([forward(src, x, mode="eval").logits
                                       for src, x in zip(sources, X)])
            distill_parts = selective_distill(src_logits, trace.logits, self.seen_mask)
        rank_parts = None
        if self.spec.lambda_rank > 0:
            rank_parts = rank_reg(trace.features)
        return compose(ce_parts, distill_parts, rank_parts, self.spec)
