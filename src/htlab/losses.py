"""The adaptation loss suite: cross-entropy, selective distillation on the
unseen-class logits, a feature-spectrum regularizer, and CompositeLoss,
which weights and sums them.

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
They take the batches of M runs stacked on a leading run axis, as
(M, N, ...) arrays and (M, N) labels (see model.forward), and return an
(M,) array of losses, one per run. Every reduction runs along the batch or
class axis, so each run's loss and gradient are bitwise those of its own
batch alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, forward
from .numkit import _NONNEGATIVE, _bounded, _centred_covariance, _check_fields, softmax


@dataclass(frozen=True)
class LossSpec:
    lambda_distill: float = _bounded(0.0, _NONNEGATIVE)
    lambda_rank: float = _bounded(0.0, _NONNEGATIVE)
    rank_sign: int = _bounded(1, (lambda v: v in (1, -1), "must be +1 or -1"))

    __post_init__ = _check_fields


@dataclass
class LossBreakdown:
    """Each term an (M,) array of per-run losses; a term that is off stays
    the scalar 0.0."""

    ce: float
    distill: float
    rank: float
    total: float


def _batch_mean(per_sample: np.ndarray):
    """Mean over the batch (last) axis: the sum and division np.mean makes,
    without its wrapper."""
    return per_sample.sum(axis=-1) / per_sample.shape[-1]


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
    # dL/dC_ab = 4 C_ab s_b, in C's buffer; then through C = (1/N) Zc^T Zc and centering
    C *= 4.0
    C *= s[..., None, :]
    grad = Zc @ (C + C.swapaxes(-1, -2))
    grad /= n
    grad -= grad.sum(axis=-2, keepdims=True) / n
    return loss, grad


class CompositeLoss:
    """Batch loss used by the trainers: cross-entropy plus the configured
    regularizers, each weighted here. Distillation targets are recomputed
    from the frozen source model on every batch (never cached), one eval
    forward per run of the batch stack. `source_params` is a sequence of one
    source model per run (each seed of a seed stack has its own), or of one
    that every run distills from."""

    def __init__(self, spec: LossSpec, source_params: Sequence[ModelParams] = (),
                 seen_mask=None):
        self.spec = spec
        self.sources = list(source_params)
        self.seen_mask = None if seen_mask is None else np.asarray(seen_mask, bool)
        if spec.lambda_distill > 0 and (not self.sources or self.seen_mask is None):
            raise ValueError("distillation needs source params and a seen mask")

    def __call__(self, trace, labels):
        """Returns (LossBreakdown, grad_at_logits, grad_at_features_or_None)
        for a train-mode trace of a batch stack; a single (N, d) batch
        reads as a stack of one. A term whose weight is 0 is not computed,
        so the total and the gradients stay bitwise cross-entropy's."""
        spec = self.spec
        ce, grad_logits = cross_entropy(trace.logits, labels)
        total, distill, rank, grad_features = ce, 0.0, 0.0, None
        if spec.lambda_distill > 0:
            batches = trace.X.reshape(-1, *trace.X.shape[-2:])  # each run's (N, d) batch
            sources = self.sources * len(batches) if len(self.sources) == 1 else self.sources
            if len(sources) != len(batches):
                raise ValueError("need one source model per run of the batch")
            src_logits = np.stack([forward(src, x, mode="eval").logits
                                   for src, x in zip(sources, batches)])
            distill, grad = selective_distill(src_logits.reshape(trace.logits.shape),
                                              trace.logits, self.seen_mask)
            grad_logits = grad_logits + spec.lambda_distill * grad
            total = total + spec.lambda_distill * distill
        if spec.lambda_rank > 0:
            rank, grad = rank_reg(trace.features)
            weight = spec.rank_sign * spec.lambda_rank
            grad_features = weight * grad
            total = total + weight * rank
        return LossBreakdown(ce=ce, distill=distill, rank=rank, total=total), \
            grad_logits, grad_features
