"""Metrics and diagnostics: the four accuracy views, the toxic-pair
false-negative rate, and feature-spectrum summaries.

Every evaluation reads its test set through one EvalSet: the Dataset, with
the row and column masks its seen classes and toxicity map give, built
once. evaluate scores a model on it and report_from_scores a prediction
ensemble's class scores; _report turns the accuracy views of either into
an EvalReport. Its fields are the METRICS, which are also the metric
columns of every result row, in row order, and `sv`, the spectrum.

Accuracy views. `overall` is plain test accuracy; `seen`/`unseen` restrict
to samples whose true class is seen/unseen; `seen_chopped` re-scores the
seen samples with the unseen logit columns removed, isolating feature
quality from the extra difficulty of the full label space. Ties always
break to the lowest class index.

The false-negative rate `fnr` (confusable-pair scenarios only) is the
fraction of toxic-class test samples predicted as any non-toxic class.

Spectrum diagnostics come from the penultimate features of the full test
set: `sv` holds their top singular values, descending. `effective_rank`
counts those at or above RANK_TAU times the leading one; the paper-style
presentation is the raw spectrum, the scalar exists for ordering
assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .data import Dataset, ToxicityMap
from .model import ModelParams, forward
from .numkit import top_singular_values

RANK_TAU = 0.01

METRICS = ("overall", "seen", "unseen", "seen_chopped", "fnr", "effective_rank")


@dataclass
class EvalReport:
    overall: float
    seen: float
    unseen: float
    seen_chopped: float
    fnr: Optional[float]
    effective_rank: float
    sv: np.ndarray  # the feature spectrum, descending; empty without features


def effective_rank(sv: np.ndarray) -> int:
    if sv.size == 0 or sv[0] <= 0:
        return 0
    return int(np.sum(sv >= RANK_TAU * sv[0]))


class EvalSet:
    """A test set as the evaluation reads it: the Dataset, its seen mask,
    and what the accuracy views need of its labels besides the scores (the
    seen rows, the seen columns, the toxic rows and which classes are
    non-toxic). Built once per test set, it serves every evaluation of it."""

    def __init__(self, data: Dataset, seen_mask, toxicity: Optional[ToxicityMap] = None):
        seen_mask = np.asarray(seen_mask, dtype=bool)
        y = data.y
        if len(y) == 0:
            raise ValueError("empty test set")
        self.data, self.seen_mask = data, seen_mask
        self.is_seen = seen_mask[y]
        self.n_seen = int(np.count_nonzero(self.is_seen))
        self.n_unseen = len(y) - self.n_seen
        if self.n_seen == 0 or self.n_unseen == 0:
            raise ValueError("test set must contain both seen and unseen samples")
        self.seen_cols = np.flatnonzero(seen_mask)
        # the seen rows' scores in the seen columns, as one fancy index
        self.chop = (np.flatnonzero(self.is_seen)[:, None], self.seen_cols)
        self.y_seen = y[self.is_seen]
        self.toxic = self.non_toxic = None
        if toxicity is not None:
            self.toxic = np.flatnonzero(np.isin(y, toxicity.toxic_classes()))
            if self.toxic.size == 0:
                raise ValueError("toxicity map given but no toxic samples present")
            self.non_toxic = np.zeros(seen_mask.size, dtype=bool)
            self.non_toxic[toxicity.non_toxic_classes()] = True


def accuracy_views(scores: np.ndarray, test: EvalSet) -> dict:
    """The accuracy views and the false-negative rate (None without a
    toxicity map) of per-class scores (logits or probabilities) on `test`,
    keyed by EvalReport's field names. Each accuracy is a count over a row
    count, the float bool.mean() gives."""
    preds = np.argmax(scores, axis=1)
    y = test.data.y
    correct = preds == y
    n_correct = int(np.count_nonzero(correct))
    n_seen_correct = int(np.count_nonzero(correct & test.is_seen))
    chop_preds = test.seen_cols[np.argmax(scores[test.chop], axis=1)]
    out = {
        "overall": n_correct / len(y),
        "seen": n_seen_correct / test.n_seen,
        "unseen": (n_correct - n_seen_correct) / test.n_unseen,
        "seen_chopped": int(np.count_nonzero(chop_preds == test.y_seen)) / test.n_seen,
        "fnr": None,
    }
    if test.toxic is not None:
        misrouted = test.non_toxic[preds[test.toxic]]
        out["fnr"] = int(np.count_nonzero(misrouted)) / test.toxic.size
    return out


def _report(views: dict, sv: Optional[np.ndarray] = None) -> EvalReport:
    """The EvalReport of accuracy views; without a feature spectrum `sv` is
    empty and the effective rank NaN."""
    if sv is None:
        return EvalReport(**views, effective_rank=float("nan"), sv=np.empty(0))
    return EvalReport(**views, effective_rank=effective_rank(sv), sv=sv)


def evaluate(params: ModelParams, test: EvalSet, k_spectrum: int = 20,
             scratch: Optional[dict] = None) -> EvalReport:
    """Eval-mode evaluation of a model on the full test set; the forward
    pass uses the buffers of `scratch` (see model.forward). Features whose
    Gram is not finite raise FloatingPointError."""
    trace = forward(params, test.data.X, mode="eval", scratch=scratch)
    feats = trace.features
    k = min(k_spectrum, feats.shape[0], feats.shape[1])
    return _report(accuracy_views(trace.logits, test), top_singular_values(feats, k))


def report_from_scores(scores: np.ndarray, test: EvalSet) -> EvalReport:
    """EvalReport for prediction-level ensembles, which have class scores
    but no feature space; `sv` is empty and the effective rank NaN."""
    return _report(accuracy_views(scores, test))


def aggregate_seeds(rows: Iterable[tuple]) -> dict:
    """Per-protocol mean and population variance of each metric across seeds.

    `rows` holds (protocol, seed, {metric: value}) triples. The result maps
    each protocol, in first-seen order, to {"seeds": sorted seeds, metric:
    {"mean", "variance"}}. A metric that is None or NaN for every seed is
    left out, and "variance" is given only for two or more seeds.
    """
    by_protocol: dict = {}
    for name, seed, values in rows:
        by_protocol.setdefault(name, []).append((seed, values))
    table = {}
    for name, members in by_protocol.items():
        entry = {"seeds": sorted(seed for seed, _ in members)}
        for m in members[0][1]:
            vals = np.array([values[m] for _, values in members], dtype=np.float64)
            if np.all(np.isnan(vals)):
                continue
            entry[m] = {"mean": float(np.mean(vals))}
            if len(vals) > 1:
                entry[m]["variance"] = float(np.var(vals))  # population variance
        table[name] = entry
    return table
