"""Optimizers: minibatch SGD with momentum and weight decay, leave-out
local SGD (averaged pseudo-gradients from class-subset runs), and tail
weight averaging over checkpoint streams.

Leave-out local SGD works in rounds. Each round snapshots the parameters,
runs M short local SGD passes that each drop `leave_k` randomly chosen
classes from the training set, and treats the averaged displacement
g = mean_m (snapshot - theta_m) as a pseudo-gradient for the outer update
theta <- snapshot - outer_step * g. Local runs start from the shared
snapshot with fresh momentum buffers; the outer update carries no momentum.
Displacements are summed in ascending subset order so results are bitwise
reproducible regardless of how local runs might be scheduled.

Compute budget: one round spends round(M * local_budget * E) minibatches,
where E = ceil(N / batch) is the per-epoch minibatch count, split as evenly
as possible across the M runs. With the default local_budget = 1/M a round
costs exactly one epoch, so `rounds = epochs` matches plain SGD's budget.

Each local minibatch is drawn independently from the retained subset
(without replacement inside the batch, so a batch never repeats a sample,
but batches may overlap across steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .losses import CompositeLoss
from .model import FreezeMask, ModelParams, backward, forward, group_of, params_axpy
from .numkit import Rng


@dataclass(frozen=True)
class SgdConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 32
    epochs: int = 20

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad sgd config")


@dataclass(frozen=True)
class LolConfig:
    subsets: int = 10          # M: local runs per round
    leave_k: int = 3           # classes dropped per local run
    local_budget: float = 0.0  # fraction of an epoch per local run; 0 -> 1/M
    outer_step: float = 1.0
    rounds: int = 0            # 0 -> match the sgd epochs

    def __post_init__(self):
        if self.subsets < 1 or self.leave_k < 0:
            raise ValueError("bad lol config")
        if not (0.0 < self.outer_step <= 1.0):
            raise ValueError("outer_step must be in (0, 1]")
        if self.local_budget < 0:
            raise ValueError("local_budget must be nonnegative")

    def budget(self) -> float:
        return self.local_budget if self.local_budget > 0 else 1.0 / self.subsets


@dataclass(frozen=True)
class SwaConfig:
    start_epoch: int = 0
    cadence: str = "per_epoch"  # per_epoch (SWA) or per_iteration (SWAD-lite)

    def __post_init__(self):
        if self.cadence not in ("per_epoch", "per_iteration"):
            raise ValueError("cadence must be per_epoch or per_iteration")
        if self.start_epoch < 0:
            raise ValueError("start_epoch must be nonnegative")


def _decayable(key: str) -> bool:
    # weight decay applies to weight matrices only, never to biases or to
    # normalization affine parameters
    return key.endswith(".W")


def sgd_step(params: ModelParams, grads: dict, state: dict, cfg: SgdConfig,
             mask: FreezeMask) -> ModelParams:
    """One momentum SGD update, in place on `params`.

    v <- momentum * v + grad (+ weight_decay * param on weight matrices);
    param <- param - lr * v. Frozen groups are left untouched bitwise and
    their momentum buffers do not accumulate.
    """
    spec = params.spec
    for k in params.keys():
        g = group_of(k, spec)
        if g == "bn_stats" or not mask.trainable(g):
            continue
        grad = grads[k]
        if cfg.weight_decay > 0 and _decayable(k):
            grad = grad + cfg.weight_decay * params[k]
        v = state.get(k)
        if v is None:
            v = np.zeros_like(params[k])
        v = cfg.momentum * v + grad
        state[k] = v
        params[k] = params[k] - cfg.lr * v
    return params


def _train_batch(work: ModelParams, X, y, loss: CompositeLoss, cfg: SgdConfig,
                 mask: FreezeMask, state: dict) -> float:
    trace = forward(work, X, mode="train", update_stats=mask.bn_stats)
    breakdown, grad_logits, grad_features = loss(trace, y)
    grads = backward(work, trace, grad_logits, mask, grad_at_features=grad_features)
    sgd_step(work, grads, state, cfg, mask)
    return breakdown.total


def train_sgd(params: ModelParams, dataset: Dataset, loss: CompositeLoss,
              cfg: SgdConfig, mask: FreezeMask, rng: Rng,
              on_epoch=None, on_step=None):
    """Minibatch SGD over per-epoch reshuffles of `dataset`.

    Returns (new_params, per_epoch_loss_curve); the input params are not
    modified. Deterministic in (params, dataset, cfg, rng). `on_epoch` is
    called as on_epoch(epoch, params, epoch_loss) after every epoch.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    work = params.clone()
    state: dict = {}
    curve = []
    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = rng.derive(f"epoch-{epoch}").permutation(n)
        total, count = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch_loss = _train_batch(work, dataset.X[idx], dataset.y[idx],
                                      loss, cfg, mask, state)
            total += batch_loss * len(idx)
            count += len(idx)
            if on_step is not None:
                on_step(work)
        curve.append(total / count)
        if on_epoch is not None:
            on_epoch(epoch, work, curve[-1])
    return work, curve


def _round_step_allocation(n: int, cfg: SgdConfig, lol: LolConfig) -> list:
    """Minibatch counts for the M local runs of one round; the total is
    round(M * budget * E) split as evenly as possible (ascending index
    gets the remainder)."""
    epoch_batches = math.ceil(n / cfg.batch_size)
    total = max(1, round(lol.subsets * lol.budget() * epoch_batches))
    base, rem = divmod(total, lol.subsets)
    return [base + (1 if m < rem else 0) for m in range(lol.subsets)]


def lolsgd_round(params: ModelParams, dataset: Dataset, loss: CompositeLoss,
                 cfg: SgdConfig, lol: LolConfig, mask: FreezeMask, rng: Rng,
                 on_step=None, loss_sink: Optional[list] = None) -> ModelParams:
    """One leave-out round: M local runs from a shared snapshot, averaged
    displacement applied as the outer update. Returns new params."""
    classes = dataset.classes_present()
    if lol.leave_k >= classes.size:
        raise ValueError("leave_k must be smaller than the number of classes present")
    steps = _round_step_allocation(len(dataset), cfg, lol)
    snapshot = params
    deltas = None
    for m in range(lol.subsets):
        sub_rng = rng.derive(f"subset-{m}")
        if lol.leave_k > 0:
            drop = classes[sub_rng.derive("drop").choice(classes.size, size=lol.leave_k,
                                                         replace=False)]
            keep_idx = np.flatnonzero(~np.isin(dataset.y, drop))
        else:
            keep_idx = np.arange(len(dataset))
        local = snapshot.clone()
        state: dict = {}
        batch_rng = sub_rng.derive("batches")
        n_m = len(keep_idx)
        for _ in range(steps[m]):
            pick = batch_rng.choice(n_m, size=min(cfg.batch_size, n_m), replace=False)
            idx = keep_idx[pick]
            batch_loss = _train_batch(local, dataset.X[idx], dataset.y[idx],
                                      loss, cfg, mask, state)
            if loss_sink is not None:
                loss_sink.append(batch_loss)
            if on_step is not None:
                on_step(local)
        # displacement accumulated in ascending m order for determinism
        if deltas is None:
            deltas = {k: snapshot[k] - local[k] for k in snapshot.keys()}
        else:
            for k in deltas:
                deltas[k] += snapshot[k] - local[k]
    scale = lol.outer_step / lol.subsets
    return params_axpy(1.0, snapshot, -scale, ModelParams(snapshot.spec, deltas))


def train_lolsgd(params: ModelParams, dataset: Dataset, loss: CompositeLoss,
                 cfg: SgdConfig, lol: LolConfig, mask: FreezeMask, rng: Rng,
                 on_round=None, on_step=None):
    """Iterated leave-out rounds. With the default budget one round costs
    one epoch of minibatches, so the default `rounds = epochs` spends the
    same compute as train_sgd. Returns (new_params, per_round_loss_curve);
    `on_round` is called as on_round(round, params, round_loss)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rounds = lol.rounds if lol.rounds > 0 else cfg.epochs
    work = params
    curve = []
    for r in range(rounds):
        sink: list = []
        work = lolsgd_round(work, dataset, loss, cfg, lol, mask,
                            rng.derive(f"round-{r}"), on_step=on_step,
                            loss_sink=sink)
        curve.append(float(np.mean(sink)) if sink else float("nan"))
        if on_round is not None:
            on_round(r, work, curve[-1])
    return work, curve


class RunningAverage:
    """Equal-weight average of a parameter stream, folded in one checkpoint
    at a time: after k folds it is the mean of those k checkpoints, and no
    checkpoint is kept besides the average itself."""

    def __init__(self):
        self.count = 0
        self._avg: Optional[ModelParams] = None

    def fold(self, params: ModelParams):
        k = self.count
        if k == 0:
            self._avg = params.clone()
        else:
            self._avg = params_axpy(k / (k + 1.0), self._avg, 1.0 / (k + 1.0), params)
        self.count = k + 1

    def value(self) -> ModelParams:
        if self.count == 0:
            raise ValueError("empty checkpoint stream")
        return self._avg
