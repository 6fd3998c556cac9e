"""Optimizers: minibatch SGD with momentum and weight decay, leave-out
local SGD (averaged pseudo-gradients from class-subset runs), and tail
weight averaging over checkpoint streams.

Minibatch SGD also trains S independent runs at once when given params
stacked on a leading run axis, one Rng per run: transfer.run_protocol
stacks the seeds of an SGD-trained protocol this way when its cells run
in one process. Each run reshuffles from its own stream, and one stacked
step advances all S, each slice bitwise as if it trained alone.

Leave-out local SGD works in rounds. Each round snapshots the parameters,
runs M short local SGD passes that each drop `leave_k` randomly chosen
classes from the training set, and treats the averaged displacement
g = mean_m (snapshot - theta_m) as a pseudo-gradient for the outer update
theta <- snapshot - outer_step * g. Local runs start from the shared
snapshot with fresh momentum buffers; the outer update carries no momentum.
Displacements are summed in ascending subset order so results are bitwise
reproducible regardless of how local runs are scheduled.

The M local runs are independent, so a round trains them together: the
snapshot is repeated on a leading run axis (see model.forward) and one
stacked SGD step advances every run that is still training. Each run's
minibatches are drawn before training starts, from the run's own stream.
Runs whose retained subsets give the same batch size share one stack; in
a stack the runs still training at step s are always a prefix, because
the step allocation gives the remainder to the lowest indices. Every run
goes through the same per-slice arithmetic as if it trained alone, so the
result does not depend on this scheduling.

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
from .model import FreezeMask, ModelParams, _buffer, backward, forward, params_axpy
from .numkit import Rng


@dataclass(frozen=True)
class SgdConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 32
    epochs: int = 20

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < math.inf or self.batch_size < 1 or self.epochs < 0:
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
        if not 0 <= self.local_budget < math.inf:
            raise ValueError("local_budget must be nonnegative and finite")

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


def sgd_step(params: ModelParams, grads: ModelParams, state: dict, cfg: SgdConfig,
             mask: FreezeMask) -> ModelParams:
    """One momentum SGD update, in place on `params` (stacked or not; the
    update is elementwise over the trained slices of the flat buffer).

    v <- momentum * v + grad (+ weight_decay * param on weight matrices);
    param <- param - lr * v. Frozen groups are left untouched bitwise and
    their momentum buffers do not accumulate. `state` keeps the momentum
    buffers, as params under "velocity", and a scratch buffer between steps.
    """
    plan = params.layout.plan(mask)
    p, g = params.flat, grads.flat
    if "velocity" not in state:
        state["velocity"] = ModelParams.from_flat(params.spec, np.zeros_like(p))
    v, t = state["velocity"].flat, _buffer(state, "update", p.shape)
    decay = cfg.weight_decay > 0
    for s in plan.runs:
        v[..., s] *= cfg.momentum
        if decay:  # t <- grad + weight_decay * param on weight matrices, grad elsewhere
            np.multiply(p[..., s], cfg.weight_decay, out=t[..., s])
    for s in plan.decay if decay else ():
        t[..., s] += g[..., s]
    for s in plan.undecayed if decay else ():
        t[..., s] = g[..., s]
    grad = t if decay else g
    for s in plan.runs:
        v[..., s] += grad[..., s]
        p[..., s] -= np.multiply(v[..., s], cfg.lr, out=t[..., s])
    return params


def _train_batch(work: ModelParams, X, y, loss: CompositeLoss, cfg: SgdConfig,
                 mask: FreezeMask, state: dict):
    """One SGD step on a batch; returns its loss (an (M,) array of per-run
    losses for stacked params). `state` keeps the momentum and the buffers
    forward, backward and sgd_step reuse from step to step."""
    trace = forward(work, X, mode="train", update_stats=mask.bn_stats, scratch=state)
    breakdown, grad_logits, grad_features = loss(trace, y)
    grads = backward(work, trace, grad_logits, mask, grad_at_features=grad_features,
                     scratch=state)
    sgd_step(work, grads, state, cfg, mask)
    return breakdown.total


def train_sgd(params: ModelParams, dataset: Dataset, loss: CompositeLoss,
              cfg: SgdConfig, mask: FreezeMask, rng, on_epoch=None, on_step=None):
    """Minibatch SGD over per-epoch reshuffles of `dataset`.

    `rng` is an Rng, or for stacked (S, P) params a sequence of S Rngs, one
    per run: each run reshuffles from its own stream and the S runs take
    every step together, each slice bitwise as if it trained alone (see
    model.forward). Returns (new_params, loss_curve); the input params are
    not modified. The curve holds each epoch's mean loss, or for stacked
    params one such list per run. Deterministic in (params, dataset, cfg,
    rng). `on_epoch` is called as on_epoch(epoch, params, epoch_loss) after
    every epoch, epoch_loss being an (S,) array for stacked params.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    stacked = params.flat.ndim == 2
    rngs = list(rng) if stacked else [rng]
    if stacked and len(rngs) != len(params.flat):
        raise ValueError("stacked params need one rng per run")
    work = params.clone()
    state: dict = {}
    curve = []
    n = len(dataset)
    for epoch in range(cfg.epochs):
        orders = [r.derive(f"epoch-{epoch}").permutation(n) for r in rngs]
        order = np.stack(orders) if stacked else orders[0]
        total, count = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[..., lo:lo + cfg.batch_size]
            batch_loss = _train_batch(work, dataset.X[idx], dataset.y[idx],
                                      loss, cfg, mask, state)
            total += batch_loss * idx.shape[-1]
            count += idx.shape[-1]
            if on_step is not None:
                on_step(work)
        curve.append(total / count)
        if on_epoch is not None:
            on_epoch(epoch, work, curve[-1])
    if stacked:  # per run, as floats
        curve = np.reshape(curve, (len(curve), len(rngs))).T.tolist()
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
                 loss_sink: Optional[list] = None,
                 scratch: Optional[dict] = None) -> ModelParams:
    """One leave-out round: M local runs from a shared snapshot, averaged
    displacement applied as the outer update. Returns new params.

    The runs train stacked (see the module docstring). `loss_sink` gets
    every local minibatch loss, run by run in ascending m. `scratch` keeps
    the step's buffers for the next round of the same mask.
    """
    classes = dataset.classes_present()
    if lol.leave_k >= classes.size:
        raise ValueError("leave_k must be smaller than the number of classes present")
    steps = _round_step_allocation(len(dataset), cfg, lol)
    # batches[m]: run m's dataset rows, one row of the array per local step
    batches = []
    for m in range(lol.subsets):
        sub_rng = rng.derive(f"subset-{m}")
        if lol.leave_k > 0:
            dropped = np.zeros(dataset.num_classes, dtype=bool)
            dropped[classes[sub_rng.derive("drop").choice(classes.size, size=lol.leave_k,
                                                          replace=False)]] = True
            keep_idx = np.flatnonzero(~dropped[dataset.y])
        else:
            keep_idx = np.arange(len(dataset))
        batch_rng = sub_rng.derive("batches")
        n_m, size = len(keep_idx), min(cfg.batch_size, len(keep_idx))
        batches.append(np.array([keep_idx[batch_rng.choice(n_m, size=size, replace=False)]
                                 for _ in range(steps[m])], dtype=np.int64).reshape(-1, size))

    snapshot, spec = params, params.spec
    state = {} if scratch is None else scratch
    local = np.repeat(snapshot.flat[None], lol.subsets, axis=0)
    losses = [[] for _ in range(lol.subsets)]
    for size in sorted({b.shape[1] for b in batches}):
        runs = [m for m in range(lol.subsets) if batches[m].shape[1] == size]
        work = ModelParams.from_flat(spec, local[runs])
        state.pop("velocity", None)  # each local run starts without momentum
        active = len(runs)
        for s in range(steps[runs[0]]):
            trained = sum(1 for m in runs if steps[m] > s)  # a prefix of `runs`
            if trained < active:
                local[runs[trained:active]] = work.flat[trained:]
                work = ModelParams.from_flat(spec, work.flat[:trained])
                if "velocity" in state:
                    state["velocity"] = ModelParams.from_flat(
                        spec, state["velocity"].flat[:trained])
                active = trained
            idx = np.stack([batches[m][s] for m in runs[:active]])
            batch_losses = _train_batch(work, dataset.X[idx], dataset.y[idx],
                                        loss, cfg, mask, state)
            for m, batch_loss in zip(runs[:active], batch_losses.tolist()):
                losses[m].append(batch_loss)
        local[runs[:active]] = work.flat
    if loss_sink is not None:
        for run_losses in losses:
            loss_sink.extend(run_losses)
    d = np.subtract(snapshot.flat, local, out=local)
    total = d[0]
    for m in range(1, lol.subsets):  # ascending m, one run at a time
        total += d[m]
    scale = lol.outer_step / lol.subsets
    return params_axpy(1.0, snapshot, -scale, ModelParams.from_flat(spec, total))


def train_lolsgd(params: ModelParams, dataset: Dataset, loss: CompositeLoss,
                 cfg: SgdConfig, lol: LolConfig, mask: FreezeMask, rng: Rng,
                 on_round=None):
    """Iterated leave-out rounds. With the default budget one round costs
    one epoch of minibatches, so the default `rounds = epochs` spends the
    same compute as train_sgd. Returns (new_params, per_round_loss_curve);
    `on_round` is called as on_round(round, params, round_loss)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rounds = lol.rounds if lol.rounds > 0 else cfg.epochs
    work, scratch = params, {}
    curve = []
    for r in range(rounds):
        sink: list = []
        work = lolsgd_round(work, dataset, loss, cfg, lol, mask,
                            rng.derive(f"round-{r}"), loss_sink=sink, scratch=scratch)
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
