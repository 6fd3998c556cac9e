"""End-to-end adaptation protocols: source pre-training, every target
adaptation recipe, and post-hoc ensembles with the source model.

Protocols never see the source dataset: run_protocol receives only the
target splits and the frozen source parameters, which makes the
source-data-free constraint structural. Distillation targets always come
from the original source parameters, never from intermediate checkpoints.

Every protocol name maps to a preset (_PRESETS): training phases with
their freeze masks, the loss terms carried, the inner step and whether the
SWA tail average is deployed. One loop in run_protocol runs any preset.

Every run produces a per-epoch evaluation curve whose entry 0 is the
source model itself, so curves from different protocols share an x-axis.

Training that diverges fails loudly: params and the epoch (or round) loss
are checked for finite values at every epoch boundary of pretrain_source
and run_protocol (and the source params before run_protocol starts), and
the first failure raises DivergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .data import Dataset, HTScenario, ToxicityMap
from .losses import CompositeLoss, LossSpec
from .metrics import EvalReport, evaluate
from .model import (
    GROUPS,
    FreezeMask,
    MlpSpec,
    ModelParams,
    forward,
    group_of,
    init_model,
    params_axpy,
    recompute_bn_stats,
)
from .numkit import Rng, softmax
from .optim import LolConfig, RunningAverage, SgdConfig, SwaConfig, train_lolsgd, train_sgd


@dataclass(frozen=True)
class _Preset:
    """What a protocol name stands for.

    phases: (rng_label, FreezeMask) pairs run in order from the source
        model; the first of two phases gets epochs // 2, the second the rest.
    distill, rank: the loss terms the protocol carries.
    step: "sgd" (train_sgd), "lol" (train_lolsgd) or "bn_stats" (one exact
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

PROTOCOL_KINDS = tuple(_PRESETS)

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
        preset = _PRESETS.get(self.kind)
        if preset is None:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if preset.distill and self.loss.lambda_distill <= 0:
            raise ValueError(f"{self.kind} requires lambda_distill > 0")
        if preset.rank and self.loss.lambda_rank <= 0:
            raise ValueError(f"{self.kind} requires lambda_rank > 0")
        if preset.swa and self.swa.start_epoch >= self.sgd.epochs:
            raise ValueError("swa start_epoch must be below the epoch count")

    @property
    def local_sgd(self) -> bool:
        """Whether the protocol trains with leave-out local SGD ([lol])."""
        return _PRESETS[self.kind].step == "lol"

    def effective_loss(self) -> LossSpec:
        """The protocol's loss weights with terms the kind does not carry
        zeroed out, so one weight config can drive a whole grid."""
        preset = _PRESETS[self.kind]
        return LossSpec(
            lambda_distill=self.loss.lambda_distill if preset.distill else 0.0,
            lambda_rank=self.loss.lambda_rank if preset.rank else 0.0,
            rank_sign=self.loss.rank_sign,
        )


class DivergenceError(ArithmeticError):
    """Training produced a non-finite parameter or loss. `where` is the
    protocol kind or "pretrain"; `epoch` numbers epochs (or rounds) from 1
    as curves.csv does, 0 being the model training started from; `part` is
    the first non-finite parameter group, or "loss"."""

    def __init__(self, where: str, epoch: int, part: str):
        super().__init__(where, epoch, part)  # args rebuild it after pickling
        self.where, self.epoch, self.part = where, epoch, part

    def __str__(self):
        return f"{self.where} diverged at epoch {self.epoch}: non-finite {self.part}"


def _check_finite(where: str, epoch: int, params: ModelParams, loss=None):
    if not np.isfinite(params.flat).all():
        bad = next(k for k in params.keys() if not np.isfinite(params[k]).all())
        raise DivergenceError(where, epoch, group_of(bad, params.spec))
    if loss is not None and not np.isfinite(loss):
        raise DivergenceError(where, epoch, "loss")


@dataclass
class TransferRun:
    scenario_id: str
    protocol: Protocol
    seed: int
    final_params: ModelParams
    curve: list                  # EvalReport per epoch, entry 0 = source
    loss_curve: list


def pretrain_source(scenario: HTScenario, spec: MlpSpec, cfg: SgdConfig,
                    rng: Rng) -> ModelParams:
    """Train the source model from scratch on the source split. After this
    returns, nothing else ever reads the source data."""
    if not np.array_equal(scenario.source_train.classes_present(),
                          np.arange(scenario.num_classes)):
        raise ValueError("source training data must cover every class")
    params = init_model(spec, rng.derive("init"))

    def on_epoch(epoch, work, epoch_loss):
        _check_finite("pretrain", epoch + 1, work, epoch_loss)

    with np.errstate(all="ignore"):  # divergence is reported by DivergenceError alone
        trained, _ = train_sgd(params, scenario.source_train, CompositeLoss(LossSpec()),
                               cfg, FreezeMask.all_trainable(), rng.derive("pretrain"),
                               on_epoch=on_epoch)
    return trained


def _check_model(kind: str, params: ModelParams):
    """Reject a protocol with a phase that would change nothing, because the
    model has none of the groups the phase's mask trains."""
    present = {group_of(k, params.spec) for k in params.keys()}
    for _, mask in _PRESETS[kind].phases:
        trained = [g for g in GROUPS if mask.trainable(g)]
        if not present.intersection(trained):
            raise ValueError(f"{kind} requires a model with {_PART_NAMES[trained[0]]}")


def run_protocol(target_train: Dataset, target_test: Dataset, seen_mask,
                 source_params: ModelParams, protocol: Protocol, seed: int,
                 toxicity: Optional[ToxicityMap] = None, k_spectrum: int = 20,
                 scenario_id: str = "scenario") -> TransferRun:
    """Adapt the source model on the target training split with one
    protocol and evaluate after every epoch (or round)."""
    preset = _PRESETS[protocol.kind]
    _check_model(protocol.kind, source_params)
    seen_mask = np.asarray(seen_mask, dtype=bool)
    rng = Rng(seed).derive(f"protocol-{protocol.kind}")
    loss = CompositeLoss(protocol.effective_loss(), source_params, seen_mask)
    swa = protocol.swa
    tail = RunningAverage() if preset.swa else None
    fold_per_epoch = tail is not None and swa.cadence == "per_epoch"
    fold_per_step = tail is not None and swa.cadence == "per_iteration"

    scratch: dict = {}  # the evaluation forward's buffers, reused every epoch

    def report(params: ModelParams) -> EvalReport:
        return evaluate(params, target_test, seen_mask, toxicity, k_spectrum, scratch)

    _check_finite(protocol.kind, 0, source_params)
    curve = [report(source_params)]  # one entry per finished epoch after this
    loss_curve: list = []

    def on_epoch(_epoch, params, epoch_loss=None):
        _check_finite(protocol.kind, len(curve), params, epoch_loss)
        if fold_per_epoch and len(curve) - 1 >= swa.start_epoch:
            tail.fold(params)
        # the curve follows the deployable model: the tail average once it
        # has started, the raw weights before that
        curve.append(report(tail.value() if tail is not None and tail.count else params))

    def on_step(params):
        if len(curve) - 1 >= swa.start_epoch:
            tail.fold(params)

    work = source_params
    epochs, n_phases = protocol.sgd.epochs, len(preset.phases)
    with np.errstate(all="ignore"):  # divergence is reported by DivergenceError
        for i, (label, mask) in enumerate(preset.phases):
            cfg = replace(protocol.sgd,
                          epochs=epochs * (i + 1) // n_phases - epochs * i // n_phases)
            if preset.step == "bn_stats":
                work, phase_losses = recompute_bn_stats(work, target_train), []
                on_epoch(0, work)
            elif preset.step == "lol":
                work, phase_losses = train_lolsgd(work, target_train, loss, cfg, protocol.lol,
                                                  mask, rng.derive(label), on_round=on_epoch)
            else:
                work, phase_losses = train_sgd(work, target_train, loss, cfg, mask,
                                               rng.derive(label), on_epoch=on_epoch,
                                               on_step=on_step if fold_per_step else None)
            loss_curve += phase_losses

    if tail is not None:
        final = tail.value()
    else:
        final = source_params.clone() if work is source_params else work
    return TransferRun(
        scenario_id=scenario_id,
        protocol=protocol,
        seed=seed,
        final_params=final,
        curve=curve,
        loss_curve=loss_curve,
    )


def wise_merge(source_params: ModelParams, target_params: ModelParams,
               alpha: float) -> ModelParams:
    """Weight-space ensemble: alpha * source + (1 - alpha) * target."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must be in [0, 1]")
    return params_axpy(alpha, source_params, 1.0 - alpha, target_params)


def se_predict(source_params: ModelParams, target_params: ModelParams,
               X: np.ndarray, alpha: float) -> np.ndarray:
    """Prediction-space ensemble: convex mix of the two models' softmax
    outputs, rowwise."""
    if not source_params.same_spec(target_params):
        raise ValueError("parameter spec mismatch")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must be in [0, 1]")
    ps = softmax(forward(source_params, X, mode="eval").logits, axis=1)
    pt = softmax(forward(target_params, X, mode="eval").logits, axis=1)
    return alpha * ps + (1.0 - alpha) * pt
