"""Metrics and diagnostics: the four accuracy views, the toxic-pair
false-negative rate, and feature-spectrum summaries.

Accuracy views. `overall` is plain test accuracy; `seen`/`unseen` restrict
to samples whose true class is seen/unseen; `seen_chopped` re-scores the
seen samples with the unseen logit columns removed, isolating feature
quality from the extra difficulty of the full label space. Ties always
break to the lowest class index.

The false-negative rate (confusable-pair scenarios only) is the fraction
of toxic-class test samples predicted as any non-toxic class.

Spectrum diagnostics come from the penultimate features of the full test
set. `effective_rank` counts singular values at or above RANK_TAU times
the leading one; the paper-style presentation is the raw spectrum, the
scalar exists for ordering assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .data import Dataset, ToxicityMap
from .model import ModelParams, chopped_logits, forward
from .numkit import Spectrum, top_singular_values

RANK_TAU = 0.01


@dataclass
class EvalReport:
    overall_acc: float
    seen_acc: float
    unseen_acc: float
    seen_chopped_acc: float
    false_negative_rate: Optional[float]
    spectrum: Spectrum
    effective_rank: float
    n_seen: int
    n_unseen: int


def effective_rank(spectrum: Spectrum, tau: float = RANK_TAU) -> int:
    v = spectrum.values
    if v.size == 0 or v[0] <= 0:
        return 0
    return int(np.sum(v >= tau * v[0]))


def accuracy_views(scores: np.ndarray, y: np.ndarray, seen_mask: np.ndarray,
                   toxicity: Optional[ToxicityMap] = None) -> dict:
    """Accuracy views from per-class scores (logits or probabilities)."""
    seen_mask = np.asarray(seen_mask, dtype=bool)
    preds = np.argmax(scores, axis=1)
    is_seen = seen_mask[y]
    n_seen = int(is_seen.sum())
    n_unseen = int((~is_seen).sum())
    if n_seen == 0 or n_unseen == 0:
        raise ValueError("test set must contain both seen and unseen samples")
    correct = preds == y
    out = {
        "overall_acc": float(correct.mean()),
        "seen_acc": float(correct[is_seen].mean()),
        "unseen_acc": float(correct[~is_seen].mean()),
        "n_seen": n_seen,
        "n_unseen": n_unseen,
    }
    cols = np.flatnonzero(seen_mask)
    chop = chopped_logits(scores[is_seen], seen_mask)
    chop_preds = cols[np.argmax(chop, axis=1)]
    out["seen_chopped_acc"] = float((chop_preds == y[is_seen]).mean())
    if toxicity is not None:
        toxic = np.isin(y, toxicity.toxic_classes())
        if not toxic.any():
            raise ValueError("toxicity map given but no toxic samples present")
        misrouted = np.isin(preds[toxic], toxicity.non_toxic_classes())
        out["false_negative_rate"] = float(misrouted.mean())
    else:
        out["false_negative_rate"] = None
    return out


def evaluate(params: ModelParams, target_test: Dataset, seen_mask,
             toxicity: Optional[ToxicityMap] = None,
             k_spectrum: int = 20, scratch: Optional[dict] = None) -> EvalReport:
    """Eval-mode evaluation of a model on the full target test set; the
    forward pass uses the buffers of `scratch` (see model.forward)."""
    if len(target_test) == 0:
        raise ValueError("empty test set")
    trace = forward(params, target_test.X, mode="eval", scratch=scratch)
    views = accuracy_views(trace.logits, target_test.y, seen_mask, toxicity)
    feats = trace.features
    k = min(k_spectrum, feats.shape[0], feats.shape[1])
    spectrum = top_singular_values(feats, k)
    return EvalReport(
        overall_acc=views["overall_acc"],
        seen_acc=views["seen_acc"],
        unseen_acc=views["unseen_acc"],
        seen_chopped_acc=views["seen_chopped_acc"],
        false_negative_rate=views["false_negative_rate"],
        spectrum=spectrum,
        effective_rank=effective_rank(spectrum),
        n_seen=views["n_seen"],
        n_unseen=views["n_unseen"],
    )


def report_from_scores(scores: np.ndarray, target_test: Dataset, seen_mask,
                       toxicity: Optional[ToxicityMap] = None) -> EvalReport:
    """EvalReport for prediction-level ensembles, which have class scores
    but no feature space; spectrum fields are empty/NaN."""
    views = accuracy_views(scores, target_test.y, seen_mask, toxicity)
    return EvalReport(
        overall_acc=views["overall_acc"],
        seen_acc=views["seen_acc"],
        unseen_acc=views["unseen_acc"],
        seen_chopped_acc=views["seen_chopped_acc"],
        false_negative_rate=views["false_negative_rate"],
        spectrum=Spectrum(np.empty(0)),
        effective_rank=float("nan"),
        n_seen=views["n_seen"],
        n_unseen=views["n_unseen"],
    )


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
