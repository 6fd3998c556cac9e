import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from htlab.data import SyntheticSpec, gen_synthetic_scenario
from htlab.losses import CompositeLoss, LossSpec
from htlab.metrics import EvalSet, evaluate
from htlab.model import FreezeMask, MlpSpec, ModelParams, forward, init_model
from htlab.numkit import Rng, softmax
from htlab.optim import LolConfig, RunningAverage, SgdConfig, SwaConfig, train_sgd
from htlab.transfer import (
    _PRESETS,
    DivergenceError,
    Protocol,
    TransferRun,
    _check_model,
    pretrain_source,
    run_protocol,
    se_predict,
    wise_merge,
)

SPEC = MlpSpec((8, 24, 24, 6))
PRETRAIN = SgdConfig(lr=0.02, momentum=0.9, weight_decay=5e-4, batch_size=32, epochs=15)
ADAPT = SgdConfig(lr=0.01, momentum=0.9, weight_decay=5e-4, batch_size=32, epochs=4)
K_SPECTRUM = 20  # the spectrum size of every run_protocol call here


def _scenario(per_class=(100, 30, 20), seed=3):
    source, train, test = per_class
    return gen_synthetic_scenario(SyntheticSpec(
        classes=6, seen=4, dim=8, source_per_class=source, train_per_class=train,
        test_per_class=test, cluster_sep=6.0, style_angle=0.35, style_shift=1.0,
        style_noise=0.1, seed=seed))


@pytest.fixture(scope="module")
def scenario():
    return _scenario()


@pytest.fixture(scope="module")
def source(scenario):
    return pretrain_source(scenario, SPEC, PRETRAIN, Rng(3).derive("source"))


def _assert_same_report(a, b):
    scalars = lambda r: {k: v for k, v in vars(r).items() if k != "sv"}  # noqa: E731
    assert scalars(a) == scalars(b)
    assert np.array_equal(a.sv, b.sv)


def _one_row(params):
    """One model's params as the (1, P) stack the trainers take."""
    return ModelParams(params.spec, params.flat[None].copy())


def _row(params):
    """The model of a one-row stack, copied out."""
    return ModelParams(params.spec, params.flat[0].copy())


def _test(scenario):
    """The EvalSet of the scenario's test split."""
    return EvalSet(scenario.target_test, scenario.seen_mask)


def _run(scenario, source, kind, seed=3, **kw):
    """The run of one seed; its DivergenceError, if it failed, is raised."""
    proto = Protocol(kind=kind, **{"sgd": ADAPT, **kw})
    [run] = run_protocol(scenario.target_train, _test(scenario), K_SPECTRUM, [source], proto,
                         [seed])
    if isinstance(run, DivergenceError):
        raise run
    return run


# ------------------------------------------------------------ pretrain

def test_pretrain_deterministic(scenario):
    a = pretrain_source(scenario, SPEC, PRETRAIN, Rng(3).derive("source"))
    b = pretrain_source(scenario, SPEC, PRETRAIN, Rng(3).derive("source"))
    for k in a.keys():
        assert np.array_equal(a[k], b[k])


def test_pretrain_accuracy_on_held_out_source_data(scenario, source):
    # same seed with different per-class counts draws fresh samples from the
    # same class means, giving an honest held-out source-distribution set
    held_out = _scenario(per_class=(50, 1, 1)).source_train
    logits = forward(source, held_out.X, mode="eval").logits
    acc = float(np.mean(np.argmax(logits, axis=1) == held_out.y))
    assert acc >= 0.90


def test_pretrain_transfers_something_to_unseen(scenario, source):
    rep = evaluate(source, EvalSet(scenario.target_test, scenario.seen_mask))
    assert rep.unseen > 0.0


# ------------------------------------------------------------ run_protocol

def test_every_curve_starts_at_the_source_model(scenario, source):
    base = evaluate(source, EvalSet(scenario.target_test, scenario.seen_mask))
    for kind in ("naive_ft", "frozen_ft", "lolsgd", "swa"):
        kw = {}
        if kind == "swa":
            kw["swa"] = SwaConfig(start_epoch=2)
        if kind == "lolsgd":
            kw["lol"] = LolConfig(subsets=3, leave_k=1)
        run = _run(scenario, source, kind, **kw)
        head = run.curve[0]
        assert head.overall == base.overall
        assert head.seen_chopped == base.seen_chopped
        assert np.array_equal(head.sv, base.sv)
        assert len(run.curve) == ADAPT.epochs + 1


def test_frozen_ft_keeps_classifier_bitwise(scenario, source):
    run = _run(scenario, source, "frozen_ft")
    assert np.array_equal(run.final_params["layers.2.W"], source["layers.2.W"])
    assert np.array_equal(run.final_params["layers.2.b"], source["layers.2.b"])
    assert not np.array_equal(run.final_params["layers.0.W"], source["layers.0.W"])


def test_bn_stats_only_touches_only_stats(scenario):
    spec = MlpSpec((8, 24, 24, 6), use_batchnorm=True)
    src = pretrain_source(scenario, spec, PRETRAIN, Rng(4).derive("source"))
    run = _run(scenario, src, "bn_stats_only")
    for k in src.keys():
        if k.startswith("bn.") and (k.endswith(".mean") or k.endswith(".var")):
            continue
        assert np.array_equal(run.final_params[k], src[k]), k
    assert not np.array_equal(run.final_params["bn.0.mean"], src["bn.0.mean"])
    assert len(run.curve) == 2  # source model, then the recalibrated model


def test_bn_protocols_rejected_without_bn(scenario, source):
    needs = {"bn_affine_only": "batchnorm", "bn_stats_only": "batchnorm",
             "in_adapter_only": "adapter"}
    specs = {
        (): source.spec,
        ("batchnorm",): MlpSpec((8, 24, 24, 6), use_batchnorm=True),
        ("adapter",): MlpSpec((8, 24, 24, 6), use_in_adapter=True),
        ("batchnorm", "adapter"): MlpSpec((8, 24, 24, 6), use_batchnorm=True,
                                          use_in_adapter=True),
    }
    for kind in _PRESETS:
        need = needs.get(kind)
        for parts, spec in specs.items():
            if need is None or need in parts:
                _check_model(kind, spec)
            else:
                with pytest.raises(ValueError, match=need):
                    _check_model(kind, spec)
    for kind, need in needs.items():
        with pytest.raises(ValueError, match=need):
            _run(scenario, source, kind)


def test_bn_affine_only_trains_affine_keeps_weights(scenario):
    spec = MlpSpec((8, 24, 24, 6), use_batchnorm=True)
    src = pretrain_source(scenario, spec, PRETRAIN, Rng(4).derive("source"))
    run = _run(scenario, src, "bn_affine_only")
    for i in range(3):
        assert np.array_equal(run.final_params[f"layers.{i}.W"], src[f"layers.{i}.W"])
    assert not np.array_equal(run.final_params["bn.0.gamma"], src["bn.0.gamma"])


def test_in_adapter_only_trains_adapter_alone(scenario):
    spec = MlpSpec((8, 24, 24, 6), use_in_adapter=True)
    src = pretrain_source(scenario, spec, PRETRAIN, Rng(5).derive("source"))
    run = _run(scenario, src, "in_adapter_only")
    for k in src.keys():
        if k.startswith("in_adapter."):
            continue
        assert np.array_equal(run.final_params[k], src[k]), k
    assert not np.array_equal(run.final_params["in_adapter.scale"],
                              src["in_adapter.scale"])


def _report(scenario, params):
    return evaluate(params, EvalSet(scenario.target_test, scenario.seen_mask))


def test_lp_ft_two_phase_boundary(scenario, source):
    run = _run(scenario, source, "lp_ft")
    # replay both phases of the underlying trainer, collecting the raw
    # per-epoch params through its on_epoch hook
    rng = Rng(3).derive("protocol-lp_ft")
    half = replace(ADAPT, epochs=ADAPT.epochs // 2)
    seen = [source]
    keep = lambda e, p, loss: seen.append(_row(p))  # noqa: E731
    probe = train_sgd(_one_row(source), scenario.target_train, CompositeLoss(LossSpec()), half,
                      FreezeMask.only("classifier"), [rng.derive("probe")], on_epoch=keep)
    final = train_sgd(probe, scenario.target_train, CompositeLoss(LossSpec()), half,
                      FreezeMask.all_trainable(), [rng.derive("ft")], on_epoch=keep)
    for k in final.keys():
        assert np.array_equal(run.final_params[k], final[k][0])
    # epochs=4 -> phase 1 (classifier only) covers epochs 1..2
    for e in (1, 2):
        assert np.array_equal(seen[e]["layers.0.W"], source["layers.0.W"])
        assert not np.array_equal(seen[e]["layers.2.W"], source["layers.2.W"])
    assert not np.array_equal(seen[3]["layers.0.W"], source["layers.0.W"])
    assert len(run.curve) == ADAPT.epochs + 1
    for rep, params in zip(run.curve, seen):
        _assert_same_report(rep, _report(scenario, params))


def test_distill_and_rank_kinds_require_weights(scenario, source):
    assert {k for k, p in _PRESETS.items() if p.distill} == \
        {"sgd_distill", "lolsgd_distill", "lolsgd_distill_rank"}
    assert {k for k, p in _PRESETS.items() if p.rank} == \
        {"sgd_rank", "lolsgd_rank", "lolsgd_distill_rank"}
    both = LossSpec(lambda_distill=1.0, lambda_rank=0.5)
    for kind, preset in _PRESETS.items():
        if preset.distill:
            with pytest.raises(ValueError, match="lambda_distill"):
                Protocol(kind=kind, sgd=ADAPT, loss=LossSpec(lambda_rank=0.5))
        if preset.rank:
            with pytest.raises(ValueError, match="lambda_rank"):
                Protocol(kind=kind, sgd=ADAPT, loss=LossSpec(lambda_distill=1.0))
        # terms the kind does not carry are zeroed
        eff = Protocol(kind=kind, sgd=ADAPT, loss=both).effective_loss()
        assert eff.lambda_distill == (1.0 if preset.distill else 0.0), kind
        assert eff.lambda_rank == (0.5 if preset.rank else 0.0), kind
    run = _run(scenario, source, "sgd_distill", loss=both)
    # the kind only carries distillation; the rank weight is ignored
    distill_only = _run(scenario, source, "sgd_distill", loss=LossSpec(lambda_distill=1.0))
    assert run.final_params.flat.tobytes() == distill_only.final_params.flat.tobytes()


def test_swa_presets_reject_late_start():
    weights = LossSpec(lambda_distill=1.0, lambda_rank=0.5)
    late = SwaConfig(start_epoch=ADAPT.epochs)
    for kind, preset in _PRESETS.items():
        if preset.swa:
            with pytest.raises(ValueError, match=re.escape(
                    f"[swa] start_epoch = {ADAPT.epochs} must be below [sgd] epochs")):
                Protocol(kind=kind, loss=weights, sgd=ADAPT, swa=late)
        else:
            Protocol(kind=kind, loss=weights, sgd=ADAPT, swa=late)


def test_swa_final_is_average_of_tail_checkpoints(scenario, source):
    run = _run(scenario, source, "swa", swa=SwaConfig(start_epoch=2))
    # replay the underlying trainer to capture the raw per-epoch params
    raw = []
    train_sgd(_one_row(source), scenario.target_train, CompositeLoss(LossSpec()), ADAPT,
              FreezeMask.frozen_classifier(),
              [Rng(3).derive("protocol-swa").derive("train")],
              on_epoch=lambda e, p, loss: raw.append(_row(p)))
    tail = RunningAverage()
    for p in raw[2:]:  # tail = epochs 2..3
        tail.fold(p)
    want = tail.value()
    for k in want.keys():
        assert np.array_equal(run.final_params[k], want[k])
    # the curve follows the deployable model: raw before the tail starts,
    # the running average afterwards
    _assert_same_report(run.curve[1], _report(scenario, raw[0]))
    _assert_same_report(run.curve[3], _report(scenario, raw[2]))
    _assert_same_report(run.curve[4], _report(scenario, want))


def test_swad_lite_runs_and_differs_from_swa(scenario, source):
    a = _run(scenario, source, "swa", swa=SwaConfig(start_epoch=2))
    b = _run(scenario, source, "swad_lite",
             swa=SwaConfig(start_epoch=2, cadence="per_iteration"))
    assert not np.array_equal(a.final_params["layers.0.W"], b.final_params["layers.0.W"])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match=re.escape("[protocols] names = 'galaxy_brain' must be ")):
        Protocol(kind="galaxy_brain")


def test_every_protocol_kind_runs(scenario):
    spec = MlpSpec((8, 16, 16, 6), use_batchnorm=True, use_in_adapter=True)
    src = pretrain_source(scenario, spec, SgdConfig(lr=0.02, epochs=4), Rng(8).derive("source"))
    short = SgdConfig(lr=0.01, epochs=2, batch_size=32)
    for kind in _PRESETS:
        proto = Protocol(kind=kind, loss=LossSpec(lambda_distill=1.0, lambda_rank=1e-6),
                         sgd=short, lol=LolConfig(subsets=2, leave_k=1),
                         swa=SwaConfig(start_epoch=1))
        [run] = run_protocol(scenario.target_train, _test(scenario), K_SPECTRUM, [src], proto,
                             seeds=[1])
        assert run.curve, kind
        assert run.curve[0].overall == run.curve[0].overall  # finite


# ------------------------------------------------------------ stacked seeds

_STACK_SPECS = {
    "plain": MlpSpec((8, 24, 24, 6)),
    "bn-adapter": MlpSpec((8, 16, 16, 6), use_batchnorm=True, use_in_adapter=True),
}
_STACK_SEEDS = [3, 5, 8]


@pytest.fixture(scope="module")
def stack_sources(scenario):
    """Per model, one source model per seed of _STACK_SEEDS."""
    cfg = SgdConfig(lr=0.02, epochs=3)
    return {name: [pretrain_source(scenario, spec, cfg, Rng(seed).derive("source"))
                   for seed in _STACK_SEEDS]
            for name, spec in _STACK_SPECS.items()}


def _stack_cases():
    """(model, kind) for every preset each model has the parts for."""
    needs_parts = {"bn_affine_only", "bn_stats_only", "in_adapter_only"}
    return [(model, kind) for model in _STACK_SPECS for kind in _PRESETS
            if model == "bn-adapter" or kind not in needs_parts]


def _record_epoch_losses(monkeypatch) -> list:
    """A list that, from now on, gets each epoch loss run_protocol's
    train_sgd passes to on_epoch, as an (S,) array."""
    losses = []

    def recording(*args, on_epoch, **kwargs):
        def hook(epoch, params, epoch_loss):
            losses.append(epoch_loss)
            on_epoch(epoch, params, epoch_loss)
        return train_sgd(*args, on_epoch=hook, **kwargs)

    monkeypatch.setattr("htlab.transfer.train_sgd", recording)
    return losses


@pytest.mark.parametrize("model, kind", _stack_cases())
def test_seeds_run_together_match_one_seed_calls_bitwise(scenario, stack_sources, model,
                                                         kind, monkeypatch):
    # swad_lite folds per step, so the per-step tail of a stack is covered too
    cadence = "per_iteration" if kind == "swad_lite" else "per_epoch"
    proto = Protocol(kind=kind, loss=LossSpec(lambda_distill=1.0, lambda_rank=1e-6),
                     sgd=replace(ADAPT, epochs=3), lol=LolConfig(subsets=3, leave_k=1),
                     swa=SwaConfig(start_epoch=1, cadence=cadence))
    sources = stack_sources[model]
    args = (scenario.target_train, _test(scenario), K_SPECTRUM)
    losses = _record_epoch_losses(monkeypatch)
    # the seeds in one call per group, as the CLI groups them
    together = [run for group in proto.seed_groups(range(len(_STACK_SEEDS)))
                for run in run_protocol(*args, [sources[i] for i in group], proto,
                                        [_STACK_SEEDS[i] for i in group])]
    assert len(together) == len(_STACK_SEEDS)
    # an SGD preset's seeds train as one stack, passing (S,) losses to on_epoch
    stacked_losses = losses[:]
    trains_sgd = _PRESETS[kind].step == "sgd" and _PRESETS[kind].phases
    assert len(stacked_losses) == (3 if trains_sgd else 0)
    assert all(loss.shape == (len(_STACK_SEEDS),) for loss in stacked_losses)
    for j, (source, seed, run) in enumerate(zip(sources, _STACK_SEEDS, together)):
        losses.clear()
        [alone] = run_protocol(*args, [source], proto, [seed])
        assert isinstance(run, TransferRun) and isinstance(alone, TransferRun)
        assert [loss[j].tobytes() for loss in stacked_losses] == \
            [loss[0].tobytes() for loss in losses]
        assert len(run.curve) == len(alone.curve) == (1 if kind == "source_only" else
                                                      2 if kind == "bn_stats_only" else 4)
        for a, b in zip(run.curve, alone.curve):
            _assert_same_report(a, b)
        assert run.final_params.flat.tobytes() == alone.final_params.flat.tobytes()
        assert run.final_params.flat.ndim == 1
        assert not np.shares_memory(run.final_params.flat, source.flat)
    # the seeds differ, so a slice that leaked into another would show
    assert together[0].final_params.flat.tobytes() != together[1].final_params.flat.tobytes()


@pytest.mark.parametrize("kind", ["naive_ft", "sgd_distill"])
def test_non_finite_source_fails_alone_in_its_stack(scenario, stack_sources, kind):
    # the middle seed's source is not finite: it fails at epoch 0 while its
    # row stays in the stack, and its stack-mates finish as if it were absent
    proto = Protocol(kind=kind, loss=LossSpec(lambda_distill=1.0), sgd=replace(ADAPT, epochs=3))
    sources = [s.clone() for s in stack_sources["plain"]]
    sources[1]["layers.2.W"][0, 0] = np.nan
    args = (scenario.target_train, _test(scenario), K_SPECTRUM)
    runs = run_protocol(*args, sources, proto, _STACK_SEEDS)
    assert isinstance(runs[1], DivergenceError)
    assert str(runs[1]) == f"{kind} diverged at epoch 0: non-finite classifier"
    without = run_protocol(*args, [sources[0], sources[2]], proto,
                           [_STACK_SEEDS[0], _STACK_SEEDS[2]])
    for run, alone in zip([runs[0], runs[2]], without):
        assert len(run.curve) == len(alone.curve) == 4
        for a, b in zip(run.curve, alone.curve):
            _assert_same_report(a, b)
        assert run.final_params.flat.tobytes() == alone.final_params.flat.tobytes()


def test_leave_out_protocol_takes_one_seed_per_call(scenario, stack_sources):
    # run_protocol applies no grouping rule: a leave-out stack is train_lolsgd's error
    proto = Protocol(kind="lolsgd", sgd=ADAPT, lol=LolConfig(subsets=2, leave_k=1))
    with pytest.raises(ValueError, match=r"^train_lolsgd takes \(1, P\) params and one rng$"):
        run_protocol(scenario.target_train, _test(scenario), K_SPECTRUM,
                     stack_sources["plain"][:2], proto, _STACK_SEEDS[:2])


def test_frozen_classifier_preserves_prediction_on_unchanged_features(scenario, source):
    run = _run(scenario, source, "frozen_ft")
    z = Rng(6).standard_normal((5, 24))
    W, b = source["layers.2.W"], source["layers.2.b"]
    Wt, bt = run.final_params["layers.2.W"], run.final_params["layers.2.b"]
    assert np.array_equal(np.argmax(z @ W + b, axis=1), np.argmax(z @ Wt + bt, axis=1))


# ------------------------------------------------------------ ensembles

def test_wise_endpoints_bitwise(scenario, source):
    run = _run(scenario, source, "naive_ft")
    tgt = run.final_params
    a1 = wise_merge(source, tgt, 1.0)
    a0 = wise_merge(source, tgt, 0.0)
    for k in source.keys():
        assert np.array_equal(a1[k], source[k])
        assert np.array_equal(a0[k], tgt[k])


def test_se_identical_models_is_plain_softmax(scenario, source):
    X = scenario.target_test.X[:7]
    probs = se_predict(source, source, X, alpha=0.3)
    want = softmax(forward(source, X, mode="eval").logits, axis=1)
    assert np.max(np.abs(probs - want)) < 1e-15


def test_se_rows_sum_to_one(scenario, source):
    run = _run(scenario, source, "naive_ft")
    probs = se_predict(source, run.final_params, scenario.target_test.X, alpha=0.5)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12


def test_se_endpoints_reproduce_each_model_accuracy(scenario, source):
    run = _run(scenario, source, "naive_ft")
    tgt = run.final_params
    y = scenario.target_test.y
    for alpha, params in ((1.0, source), (0.0, tgt)):
        probs = se_predict(source, tgt, scenario.target_test.X, alpha)
        acc_se = float(np.mean(np.argmax(probs, axis=1) == y))
        logits = forward(params, scenario.target_test.X, mode="eval").logits
        acc_model = float(np.mean(np.argmax(logits, axis=1) == y))
        assert acc_se == acc_model


def test_ensemble_validation(scenario, source):
    run = _run(scenario, source, "naive_ft")
    with pytest.raises(ValueError):
        wise_merge(source, run.final_params, 1.5)
    bn_src = init_model(MlpSpec((8, 24, 24, 6), use_batchnorm=True), Rng(7))
    with pytest.raises(ValueError):
        se_predict(source, bn_src, scenario.target_test.X[:3], 0.5)


# ------------------------------------------------------------ divergence

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_divergence_raises_named_error(scenario):
    with pytest.raises(DivergenceError) as info:
        pretrain_source(scenario, SPEC, replace(PRETRAIN, lr=50.0), Rng(3).derive("source"))
    assert info.value.where == "pretrain"
    assert 1 <= info.value.epoch <= PRETRAIN.epochs
    assert str(info.value).startswith(f"pretrain diverged at epoch {info.value.epoch}: ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["naive_ft", "lolsgd"])
def test_diverged_protocol_raises_named_error(scenario, source, kind):
    with pytest.raises(DivergenceError) as info:
        _run(scenario, source, kind, sgd=replace(ADAPT, lr=1e4))
    err = info.value
    assert err.where == kind and 1 <= err.epoch <= ADAPT.epochs
    assert err.part in ("loss", "backbone", "classifier")
    # a worker process sends the error back pickled
    back = pickle.loads(pickle.dumps(err))
    assert (back.where, back.epoch, back.part, str(back)) == \
        (err.where, err.epoch, err.part, str(err))


def test_non_finite_source_fails_at_epoch_0_naming_the_group(scenario, source):
    bad = source.clone()
    bad["layers.2.W"][0, 0] = np.nan
    with pytest.raises(DivergenceError,
                       match="^frozen_ft diverged at epoch 0: non-finite classifier$"):
        _run(scenario, bad, "frozen_ft")
