"""End-to-end adaptation protocols: source pre-training, every target
adaptation recipe, and post-hoc ensembles with the source model.

Protocols never see the source dataset: run_protocol gets only the target
training split, the test EvalSet and the frozen source parameters, so the
source-data-free constraint is structural. Distillation targets always
come from the original source parameters, never intermediate checkpoints.

Every protocol name maps to a preset (_PRESETS): training phases with
their freeze masks, the loss terms carried, the inner step and whether the
SWA tail average is deployed. One loop in run_protocol runs any preset.

run_protocol takes one protocol and any number of seeds, each with its own
source model, and trains them as one (S, P) stack of params: one call is
one stack, so one minibatch step serves all its seeds. Each seed's slice
does the arithmetic of a run of its own, so its results are bitwise those
of a one-seed call. Which seeds share a call is the caller's rule,
Protocol.seed_groups: all of them, except for a LOL preset, whose M local
runs already fill the run axis, so its seeds are a call each.

A run is its final params and a per-epoch evaluation curve whose entry 0
is the source model itself, so curves from different protocols share an
x-axis. run_protocol drives the epoch (or round) loop: each trainer call
returns that epoch's training losses, checked below with the params, as
the source models are checked before training.

Training that diverges fails loudly: params and the epoch (or round) loss
are checked for finite values at every epoch boundary of pretrain_source
and run_protocol (epoch 0 of run_protocol being the source params), and
so is the Gram of the features every run_protocol evaluation takes, which
can overflow while the params stay finite. pretrain_source raises the
first failure as a DivergenceError; run_protocol returns it in place of
that seed's run, and the seed's stack-mates train on unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import Dataset, HTScenario
from .losses import CompositeLoss, LossSpec
from .metrics import EvalSet, evaluate
from .model import (
    GROUPS,
    FreezeMask,
    MlpSpec,
    ModelParams,
    _Layout,
    forward,
    group_of,
    init_model,
    params_axpy,
    recompute_bn_stats,
)
from .numkit import Rng, _check, _one_of, softmax
from .optim import LolConfig, RunningAverage, SgdConfig, SwaConfig, lolsgd_round, train_sgd


@dataclass(frozen=True)
class _Preset:
    """What a protocol name stands for.

    phases: (rng_label, FreezeMask) pairs run in order from the source
        model; the first of two phases gets epochs // 2, the second the rest.
    distill, rank: the loss terms the protocol carries.
    step: "sgd" (train_sgd), "lol" (lolsgd_round) or "bn_stats" (one exact
        recalibration of the running BN statistics, no training).
    swa: whether the [swa] tail average of the trained weights is deployed.
    """

    phases: tuple = ()
    distill: bool = False
    rank: bool = False
    step: str = "sgd"
    swa: bool = False


_FROZEN_HEAD = (("train", FreezeMask.frozen_classifier()),)

_PRESETS = {
    "source_only": _Preset(),
    "naive_ft": _Preset((("train", FreezeMask.all_trainable()),)),
    "frozen_ft": _Preset(_FROZEN_HEAD),
    "lp_ft": _Preset((("probe", FreezeMask.only("classifier")),
                      ("ft", FreezeMask.all_trainable()))),
    "bn_affine_only": _Preset((("train", FreezeMask.only("bn_affine", "bn_stats")),)),
    "bn_stats_only": _Preset(((None, FreezeMask.only("bn_stats")),), step="bn_stats"),
    "in_adapter_only": _Preset((("train", FreezeMask.only("in_adapter")),)),
    "sgd_distill": _Preset(_FROZEN_HEAD, distill=True),
    "sgd_rank": _Preset(_FROZEN_HEAD, rank=True),
    "lolsgd": _Preset(_FROZEN_HEAD, step="lol"),
    "lolsgd_distill": _Preset(_FROZEN_HEAD, distill=True, step="lol"),
    "lolsgd_rank": _Preset(_FROZEN_HEAD, rank=True, step="lol"),
    "lolsgd_distill_rank": _Preset(_FROZEN_HEAD, distill=True, rank=True, step="lol"),
    "swa": _Preset(_FROZEN_HEAD, swa=True),
    "swad_lite": _Preset(_FROZEN_HEAD, swa=True),
}

# how an error message names a model part a protocol needs
_PART_NAMES = {"bn_affine": "batchnorm", "bn_stats": "batchnorm",
               "in_adapter": "the input adapter"}


@dataclass(frozen=True)
class Protocol:
    kind: str
    loss: LossSpec = field(default_factory=LossSpec)
    sgd: SgdConfig = field(default_factory=SgdConfig)
    lol: LolConfig = field(default_factory=LolConfig)
    swa: SwaConfig = field(default_factory=SwaConfig)

    def __post_init__(self):
        # a key is named by its config section, as is the field that holds it
        _check("[protocols] names", self.kind, _one_of(*_PRESETS))
        preset = _PRESETS[self.kind]
        weight = (lambda v: v > 0, f"must be positive for {self.kind}")
        for key, carried in (("lambda_distill", preset.distill), ("lambda_rank", preset.rank)):
            if carried:
                _check(f"[loss] {key}", getattr(self.loss, key), weight)
        if preset.swa:
            _check("[swa] start_epoch", self.swa.start_epoch, (
                lambda v: v < self.sgd.epochs,
                f"must be below [sgd] epochs ({self.sgd.epochs}) for {self.kind}"))
        _check("[sgd] epochs", self.sgd.epochs, (lambda v: not 0 < v < len(preset.phases),
               f"must be 0 or at least {len(preset.phases)}, the phases of {self.kind}"))

    @property
    def local_sgd(self) -> bool:
        """Whether the protocol trains with leave-out local SGD ([lol])."""
        return _PRESETS[self.kind].step == "lol"

    def seed_groups(self, seeds: Sequence) -> list:
        """`seeds` split, in order, into the groups that train as one stack,
        one run_protocol call each: one seed each for a leave-out preset,
        whose M local runs already fill the run axis, all of them otherwise."""
        if self.local_sgd:
            return [[seed] for seed in seeds]
        return [list(seeds)] if seeds else []

    def effective_loss(self) -> LossSpec:
        """The protocol's loss weights with terms the kind does not carry
        zeroed out, so one weight config can drive a whole grid."""
        preset, loss = _PRESETS[self.kind], self.loss
        return replace(loss, lambda_distill=loss.lambda_distill if preset.distill else 0.0,
                       lambda_rank=loss.lambda_rank if preset.rank else 0.0)


class DivergenceError(ArithmeticError):
    """Training produced a non-finite parameter, loss or feature Gram.
    `where` is the protocol kind or "pretrain"; `epoch` numbers epochs (or
    rounds) from 1 as curves.csv does, 0 being the model training started
    from; `part` is the first non-finite parameter group, "loss" or
    "features"."""

    def __init__(self, where: str, epoch: int, part: str):
        super().__init__(where, epoch, part)  # args rebuild it after pickling
        self.where, self.epoch, self.part = where, epoch, part

    def __str__(self):
        return f"{self.where} diverged at epoch {self.epoch}: non-finite {self.part}"


def _check_finite(where: str, epoch: int, params: ModelParams, loss=None):
    if not np.isfinite(params.flat).all():
        bad = next(k for k in params.keys() if not np.isfinite(params[k]).all())
        raise DivergenceError(where, epoch, group_of(bad, params.spec))
    if loss is not None and not np.isfinite(loss).all():
        raise DivergenceError(where, epoch, "loss")


@dataclass
class TransferRun:
    """What one seed of run_protocol produced: the params it deploys (the
    tail average for SWA presets) and one EvalReport per epoch (or round),
    entry 0 being the source model."""
    final_params: ModelParams
    curve: list


def _stack(runs: Sequence[ModelParams]) -> ModelParams:
    """The runs' params, copied into one (S, P) stack."""
    return ModelParams(runs[0].spec, np.stack([run.flat for run in runs]))


def _rows(params: ModelParams) -> list:
    """The (P,) params of each run of an (S, P) stack, as views."""
    return [ModelParams(params.spec, row) for row in params.flat]


def pretrain_source(scenario: HTScenario, spec: MlpSpec, cfg: SgdConfig,
                    rng: Rng) -> ModelParams:
    """Train the source model from scratch on the source split. After this
    returns, nothing else ever reads the source data."""
    params = _stack([init_model(spec, rng.derive("init"))])
    loss, rngs, state = CompositeLoss(LossSpec()), [rng.derive("pretrain")], {}
    with np.errstate(all="ignore"):  # divergence is reported by DivergenceError alone
        for epoch in range(cfg.epochs):
            epoch_loss = train_sgd(params, scenario.source_train, loss, cfg,
                                   FreezeMask.all_trainable(), rngs, epoch, state)
            _check_finite("pretrain", epoch + 1, params, epoch_loss)
    return _rows(params)[0]


def _check_model(kind: str, spec: MlpSpec):
    """Reject a protocol with a phase that would change nothing, because a
    model of `spec` has none of the groups the phase's mask trains."""
    present = {group_of(k, spec) for k in _Layout.of(spec).keys}
    for _, mask in _PRESETS[kind].phases:
        trained = [g for g in GROUPS if mask.trainable(g)]
        if not present.intersection(trained):
            raise ValueError(f"{kind} requires a model with {_PART_NAMES[trained[0]]}")


def run_protocol(target_train: Dataset, test: EvalSet, k_spectrum: int,
                 sources: Sequence[ModelParams], protocol: Protocol,
                 seeds: Sequence[int]) -> list:
    """Adapt each seed's source model (`sources[i]` for `seeds[i]`) on the
    target training split with one protocol, and evaluate on `test`, with
    up to `k_spectrum` singular values, after every epoch (or round).
    Returns, per seed in order, its TransferRun (final params and
    evaluation curve) or what it failed with: a DivergenceError once its
    params, epoch loss or evaluated features go non-finite, or another
    error its evaluation raised. The epoch losses feed that check alone. A
    fault of the call as a whole, such as a model without the parts the
    protocol trains or more than one seed of a leave-out protocol, raises.

    Each epoch (or round) is one train_sgd, lolsgd_round or
    recompute_bn_stats call, after which each seed still running is checked
    and evaluated; once none is, training stops. The seeds train as one
    (S, P) stack; which seeds share a call is the caller's choice
    (Protocol.seed_groups). Each seed's slice does the arithmetic of a run
    of its own, so every result is bitwise that of a one-seed call. A seed
    fails alone, its source model included: its slice keeps its place in
    the stack but is no longer checked or evaluated, and the others finish
    bitwise as if it were absent.
    """
    preset = _PRESETS[protocol.kind]
    if len(sources) != len(seeds):
        raise ValueError("need one source model per seed")
    if protocol.local_sgd and len(seeds) != 1:
        raise ValueError(f"{protocol.kind} takes one seed per call: its runs fill the run axis")
    if any(source.spec != sources[0].spec for source in sources):
        raise ValueError("the seeds' source models must share one spec")
    _check_model(protocol.kind, sources[0].spec)  # the one spec of every seed's source
    scratch: dict = {}  # the evaluation forward's buffers, reused every epoch
    swa = protocol.swa
    fold_per_epoch = preset.swa and swa.cadence == "per_epoch"
    fold_per_step = preset.swa and swa.cadence == "per_iteration"
    rngs = [Rng(seed).derive(f"protocol-{protocol.kind}") for seed in seeds]
    loss = CompositeLoss(protocol.effective_loss(), sources, test.seen_mask)
    tail = RunningAverage() if preset.swa else None
    curves: list = [[] for _ in seeds]
    errors: list = [None] * len(seeds)

    def evaluated(epoch, params, epoch_loss) -> bool:
        """Check and evaluate each seed still running after `epoch` epochs
        (or rounds); whether any seed is still running."""
        if fold_per_epoch and epoch > swa.start_epoch:
            tail.fold(params)
        # the curve follows the deployable model: the tail average once
        # it has started, the raw weights before that
        deployed = tail.value() if tail is not None and tail.count else params
        for j, (run, shown, run_loss) in enumerate(
                zip(_rows(params), _rows(deployed), epoch_loss)):
            if errors[j] is None:
                try:
                    _check_finite(protocol.kind, epoch, run, run_loss)
                    curves[j].append(evaluate(shown, test, k_spectrum, scratch))
                except FloatingPointError:  # features too large to square, or not finite
                    errors[j] = DivergenceError(protocol.kind, epoch, "features")
                except Exception as e:  # noqa: BLE001 - a seed fails alone
                    errors[j] = e
        return None in errors

    work = _stack(sources)
    epochs, n_phases = protocol.sgd.epochs, len(preset.phases)
    done = 0  # epochs (or rounds) finished; the source models are epoch 0
    with np.errstate(all="ignore"):  # divergence is reported by DivergenceError
        if not evaluated(done, work, [None] * len(seeds)):
            return errors
        for k, (label, mask) in enumerate(preset.phases):
            count = epochs * (k + 1) // n_phases - epochs * k // n_phases
            if preset.step == "lol":
                count = protocol.lol.rounds or count
            elif preset.step == "bn_stats":
                count = 1  # one exact recalibration: it trains nothing and draws nothing
            phase_rngs = [rng.derive(label) for rng in rngs if label is not None]
            state: dict = {}  # momentum and step buffers, kept across the phase
            for e in range(count):
                if preset.step == "bn_stats":
                    work = _stack([recompute_bn_stats(run, target_train) for run in _rows(work)])
                    epoch_loss = [None] * len(seeds)
                elif preset.step == "lol":
                    sink: list = []
                    work = lolsgd_round(work, target_train, loss, protocol.sgd, protocol.lol,
                                        mask, phase_rngs[0].derive(f"round-{e}"), sink, state)
                    epoch_loss = np.mean(sink, keepdims=True)
                else:  # a per-iteration tail folds each step once it has started
                    epoch_loss = train_sgd(
                        work, target_train, loss, protocol.sgd, mask, phase_rngs, e, state,
                        tail.fold if fold_per_step and done >= swa.start_epoch else None)
                done += 1
                if not evaluated(done, work, epoch_loss):
                    return errors
    finals = _rows(tail.value() if tail is not None else work)
    return [error if error is not None else TransferRun(final_params=final, curve=curve)
            for error, final, curve in zip(errors, finals, curves)]


def wise_merge(source_params: ModelParams, target_params: ModelParams,
               alpha: float) -> ModelParams:
    """Weight-space ensemble: alpha * source + (1 - alpha) * target."""
    _check("alpha", alpha, (lambda v: 0 <= v <= 1, "must be in [0, 1]"))
    return params_axpy(alpha, source_params, 1.0 - alpha, target_params)


def se_predict(source_params: ModelParams, target_params: ModelParams,
               X: np.ndarray, alpha: float) -> np.ndarray:
    """Prediction-space ensemble: convex mix of the two models' softmax
    outputs, rowwise."""
    if source_params.spec != target_params.spec:
        raise ValueError("parameter spec mismatch")
    _check("alpha", alpha, (lambda v: 0 <= v <= 1, "must be in [0, 1]"))
    ps = softmax(forward(source_params, X, mode="eval").logits, axis=1)
    pt = softmax(forward(target_params, X, mode="eval").logits, axis=1)
    return alpha * ps + (1.0 - alpha) * pt
