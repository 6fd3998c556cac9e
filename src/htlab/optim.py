"""Optimizers: minibatch SGD with momentum and weight decay, leave-out
local SGD (averaged pseudo-gradients from class-subset runs), and tail
weight averaging over checkpoint streams.

Both trainers take a run stack, params of shape (S, P), S >= 1, and train
one epoch (or round) per call; the callers in transfer loop over epochs.
train_sgd trains the S runs at once, one Rng per run: run_protocol stacks
the seeds of an SGD-trained protocol this way, and a single model trains
as a one-row stack. Each run reshuffles from its own stream, and one
stacked step advances all S, each slice bitwise as if it trained alone.
lolsgd_round trains one run (S = 1), since its M local runs already fill
the run axis.

Leave-out local SGD works in rounds. Each round snapshots the parameters,
runs M short local SGD passes that each drop `leave_k` randomly chosen
classes from the training set, and treats the averaged displacement
g = mean_m (snapshot - theta_m) as a pseudo-gradient for the outer update
theta <- snapshot - outer_step * g. Local runs start from the shared
snapshot with fresh momentum buffers; the outer update carries no momentum.
Displacements are summed in ascending subset order so results are bitwise
reproducible regardless of how local runs are scheduled.

The M local runs are independent, so a round trains them together as one
stack, the snapshot repeated on a leading run axis (see model.forward).
Each run's minibatches are drawn before training starts, from the run's
own stream. Runs whose retained subsets give the same batch size share one
stack; a run with no steps stays out of it, its row already the snapshot.

train_sgd and lolsgd_round step through one loop, _train_steps, which
trains the first A runs of the stack in place at each step. A never grows:
in train_sgd it is S, and in a leave-out stack the runs still training
are a prefix, because the step allocation gives the remainder to the
lowest indices, so a finished run's row stays as its last step left it. Every run does the
arithmetic of a run trained alone, whatever this scheduling.

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
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .losses import CompositeLoss
from .model import FreezeMask, ModelParams, _buffer, backward, forward, params_axpy
from .numkit import (_FRACTION, _NONNEGATIVE, _POSITIVE, Rng, _at_least, _bounded,
                     _check_fields, _one_of)


@dataclass(frozen=True)
class SgdConfig:
    lr: float = _bounded(0.01, _POSITIVE)
    momentum: float = _bounded(0.9, (lambda v: 0 <= v < 1, "must be in [0, 1)"))
    weight_decay: float = _bounded(0.0, _NONNEGATIVE)
    batch_size: int = _bounded(32, _at_least(1))
    epochs: int = _bounded(20, _at_least(0))

    __post_init__ = _check_fields


@dataclass(frozen=True)
class LolConfig:
    subsets: int = _bounded(10, _at_least(1))  # M: local runs per round
    leave_k: int = _bounded(3, _at_least(0))  # classes dropped per local run
    local_budget: float = _bounded(0.0, _NONNEGATIVE)  # of an epoch per local run; 0 -> 1/M
    outer_step: float = _bounded(1.0, _FRACTION)
    rounds: int = _bounded(0, (lambda v: v >= 0, "must be at least 0 (0 runs the sgd epochs)"))

    __post_init__ = _check_fields

    def budget(self) -> float:
        return self.local_budget if self.local_budget > 0 else 1.0 / self.subsets


@dataclass(frozen=True)
class SwaConfig:
    start_epoch: int = _bounded(0, _at_least(0))
    cadence: str = _bounded("per_epoch", _one_of("per_epoch", "per_iteration"))

    __post_init__ = _check_fields


def sgd_step(params: ModelParams, grads: ModelParams, state: dict, cfg: SgdConfig,
             mask: FreezeMask) -> ModelParams:
    """One momentum SGD update, in place on `params`, over the whole flat buffer.

    v <- momentum * v + grad (+ weight_decay * param on the trained weight
    matrices); param <- param - lr * v. An untrained slice carries a zero
    gradient, as backward leaves it, so from zero momentum it moves by
    exactly lr * 0 and keeps zero momentum: frozen groups and the running
    BN statistics stay bitwise put. `state` keeps the momentum, an array of
    the buffer's shape under "velocity", and a scratch buffer between steps.
    """
    p, g = params.flat, grads.flat
    if "velocity" not in state:
        state["velocity"] = np.zeros_like(p)
    v, t = state["velocity"], _buffer(state, "update", p.shape)
    v *= cfg.momentum
    if cfg.weight_decay > 0:  # t <- grad + weight_decay * param on weight matrices
        t[...] = g
        for s in params.layout.plan(mask).decay:
            np.multiply(p[..., s], cfg.weight_decay, out=t[..., s])
            t[..., s] += g[..., s]
        g = t
    v += g
    p -= np.multiply(v, cfg.lr, out=t)
    return params


def _train_steps(work: ModelParams, dataset: Dataset, steps, loss: CompositeLoss,
                 cfg: SgdConfig, mask: FreezeMask, state: dict, on_step=None) -> list:
    """The one training loop: an SGD step on the (S, P) stack `work`, in
    place, per (A, b) array of `steps`, whose row a is run a's batch of
    dataset rows. The first A is S and A never grows; a step trains
    work.flat[:A], so the rows past it keep what their last step left.
    Returns each step's LossBreakdown. `state` keeps the momentum and the
    buffers forward, backward and sgd_step reuse; on_step(work) follows
    every step."""
    out, run = [], work
    for idx in steps:
        if len(idx) < len(run.flat):  # the runs past len(idx) have finished
            run = ModelParams(work.spec, work.flat[:len(idx)])
            state["velocity"] = state["velocity"][:len(idx)]
        trace = forward(run, dataset.X[idx], mode="train", update_stats=mask.bn_stats,
                        scratch=state)
        breakdown, grad_logits, grad_features = loss(trace, dataset.y[idx])
        grads = backward(run, trace, grad_logits, mask, grad_at_features=grad_features,
                         scratch=state)
        sgd_step(run, grads, state, cfg, mask)
        out.append(breakdown)
        if on_step is not None:
            on_step(work)
    return out


def train_sgd(params: ModelParams, dataset: Dataset, loss: CompositeLoss, cfg: SgdConfig,
              mask: FreezeMask, rngs: Sequence[Rng], epoch: int, state: dict,
              on_step=None) -> np.ndarray:
    """Epoch `epoch` of minibatch SGD, in place on the S runs of (S, P)
    params, one of `rngs` per run: each run reshuffles `dataset` from its
    own stream and the S runs take every step together, each slice bitwise
    as if it trained alone (see model.forward). Returns the (S,) array of
    the epoch's mean minibatch losses. `state` keeps the momentum across
    the epochs of a phase, which the caller counts: cfg.epochs is unread.
    on_step(params) follows every step."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    if params.flat.ndim != 2 or len(rngs) != len(params.flat):
        raise ValueError("train_sgd takes (S, P) params and one rng per run")
    n = len(dataset)
    order = np.stack([r.derive(f"epoch-{epoch}").permutation(n) for r in rngs])
    steps = [order[:, lo:lo + cfg.batch_size] for lo in range(0, n, cfg.batch_size)]
    totals = [0.0] * len(rngs)
    for idx, step in zip(steps, _train_steps(params, dataset, steps, loss, cfg, mask, state,
                                             on_step)):
        # Python floats round as f64 array ops do, at less cost per step
        totals = [t + b * idx.shape[1] for t, b in zip(totals, step.total.tolist())]
    return np.array(totals) / n


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
                 loss_sink: list, scratch: dict) -> ModelParams:
    """One leave-out round: M local runs from the snapshot `params`, one
    model, averaged displacement applied as the outer update. Returns the
    new params, of the snapshot's shape: (P,), or (1, P) as
    transfer.run_protocol passes it.

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
        dropped = np.zeros(dataset.num_classes, dtype=bool)
        dropped[classes[sub_rng.derive("drop").choice(classes.size, size=lol.leave_k,
                                                      replace=False)]] = True
        keep_idx = np.flatnonzero(~dropped[dataset.y])
        batch_rng = sub_rng.derive("batches")
        n_m, size = len(keep_idx), min(cfg.batch_size, len(keep_idx))
        batches.append(np.array([keep_idx[batch_rng.choice(n_m, size=size, replace=False)]
                                 for _ in range(steps[m])], dtype=np.int64).reshape(-1, size))

    snapshot, spec = params, params.spec
    local = np.repeat(snapshot.flat.reshape(1, -1), lol.subsets, axis=0)
    losses = []  # (m, loss) per local step; a stable sort on m gives the sink's order
    for size in sorted({b.shape[1] for b in batches if len(b)}):
        runs = [m for m, b in enumerate(batches) if len(b) and b.shape[1] == size]
        whole = len(runs) == lol.subsets  # every run: train `local` itself, not a copy
        work = ModelParams(spec, local if whole else local[runs])
        scratch.pop("velocity", None)  # each local run starts without momentum
        group = [np.stack([batches[m][s] for m in runs if steps[m] > s])
                 for s in range(steps[runs[0]])]
        for step in _train_steps(work, dataset, group, loss, cfg, mask, scratch):
            losses += zip(runs, step.total.tolist())
        if not whole:
            local[runs] = work.flat
    loss_sink.extend(run_loss for _, run_loss in sorted(losses, key=lambda ml: ml[0]))
    d = np.subtract(snapshot.flat, local, out=local)
    total = d[0]
    for m in range(1, lol.subsets):  # ascending m, one run at a time
        total += d[m]
    scale = lol.outer_step / lol.subsets
    return params_axpy(1.0, snapshot, -scale, ModelParams(spec, total))


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
