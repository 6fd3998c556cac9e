import math
import re

import numpy as np
import pytest

from htlab.data import Dataset
from htlab.losses import CompositeLoss, LossSpec, cross_entropy
from htlab.model import (
    GROUPS,
    FreezeMask,
    MlpSpec,
    ModelParams,
    backward,
    forward,
    init_model,
    params_axpy,
)
from htlab.numkit import Rng
from htlab.transfer import _PRESETS
from htlab.optim import (
    LolConfig,
    RunningAverage,
    SgdConfig,
    SwaConfig,
    _round_step_allocation,
    _train_steps,
    lolsgd_round,
    sgd_step,
    train_lolsgd,
    train_sgd,
)

SPEC = MlpSpec((4, 8, 3))
PLAIN_LOSS = CompositeLoss(LossSpec())


def _toy_dataset(n_per=20, dim=4, classes=3, sep=6.0, seed=70):
    rng = Rng(seed)
    means = rng.derive("m").standard_normal((classes, dim))
    means *= sep / np.linalg.norm(means, axis=1, keepdims=True)
    X = np.concatenate([means[c] + rng.derive(f"c{c}").standard_normal((n_per, dim))
                        for c in range(classes)])
    y = np.repeat(np.arange(classes), n_per)
    return Dataset(X, y, classes)


def _one_row(params):
    """`params` as a stack of one run, (1, P), as the trainers take it."""
    return ModelParams(params.spec, params.flat[None].copy())


def _no_hook(epoch, params, epoch_loss):
    pass


def _grads_for(params, X, y, mask=None, update_stats=False):
    mask = mask or FreezeMask.all_trainable()
    trace = forward(params, X, mode="train", update_stats=update_stats)
    _, g = cross_entropy(trace.logits, y)
    return backward(params, trace, g, mask)


# ------------------------------------------------------------ sgd_step

def test_sgd_step_vanilla_is_plain_descent():
    params = init_model(SPEC, Rng(71))
    ds = _toy_dataset()
    grads = _grads_for(params, ds.X[:8], ds.y[:8])
    cfg = SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
    before = params.clone()
    sgd_step(params, grads, {}, cfg, FreezeMask.all_trainable())
    for k in params.keys():
        assert np.array_equal(params[k], before[k] - 0.1 * grads[k])


def test_sgd_step_zero_grad_is_noop():
    params = init_model(SPEC, Rng(72))
    zeros = ModelParams(params.spec, np.zeros_like(params.flat))
    before = params.clone()
    sgd_step(params, zeros, {}, SgdConfig(lr=0.5, momentum=0.9, weight_decay=0.0),
             FreezeMask.all_trainable())
    for k in params.keys():
        assert np.array_equal(params[k], before[k])


def test_sgd_step_momentum_matches_hand_recurrence():
    params = init_model(SPEC, Rng(73))
    ds = _toy_dataset()
    cfg = SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.0)
    mask = FreezeMask.all_trainable()
    g1 = _grads_for(params, ds.X[:8], ds.y[:8])
    hand = {k: params[k].copy() for k in params.keys()}
    state = {}
    sgd_step(params, g1, state, cfg, mask)
    g2 = _grads_for(params, ds.X[8:16], ds.y[8:16])
    sgd_step(params, g2, state, cfg, mask)
    # hand-unrolled: v1 = g1; p1 = p0 - lr v1; v2 = 0.9 v1 + g2; p2 = p1 - lr v2
    for k in hand:
        v1 = g1[k]
        p1 = hand[k] - 0.05 * v1
        v2 = 0.9 * v1 + g2[k]
        p2 = p1 - 0.05 * v2
        assert np.max(np.abs(params[k] - p2)) < 1e-15


def test_sgd_step_weight_decay_skips_biases_and_norm_affine():
    spec = MlpSpec((4, 8, 3), use_batchnorm=True, use_in_adapter=True)
    params = init_model(spec, Rng(74))
    params["layers.0.b"] += 1.0
    params["bn.0.gamma"] *= 2.0
    params["in_adapter.scale"] *= 3.0
    zeros = ModelParams(params.spec, np.zeros_like(params.flat))
    before = params.clone()
    sgd_step(params, zeros, {}, SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.1),
             FreezeMask.all_trainable())
    assert np.array_equal(params["layers.0.b"], before["layers.0.b"])
    assert np.array_equal(params["bn.0.gamma"], before["bn.0.gamma"])
    assert np.array_equal(params["in_adapter.scale"], before["in_adapter.scale"])
    assert not np.array_equal(params["layers.0.W"], before["layers.0.W"])


def _phase_masks() -> dict:
    """Each distinct phase mask of the protocol presets, named by its first preset."""
    masks = {}
    for name, preset in _PRESETS.items():
        for _, mask in preset.phases:
            masks.setdefault(mask, name)
    return masks


@pytest.mark.parametrize("mask", list(_phase_masks()), ids=list(_phase_masks().values()))
def test_sgd_step_frozen_group_untouched(mask):
    # sgd_step updates the whole buffer: a slice stays put because backward
    # leaves its gradient at exactly zero and its momentum starts at zero
    spec = MlpSpec((4, 8, 6, 3), use_batchnorm=True, use_in_adapter=True)
    params = _one_row(init_model(spec, Rng(75)))
    params.flat[:] += Rng(76).standard_normal(params.flat.shape) * 0.1  # no identity BN/adapter
    np.abs(params["bn.0.var"], out=params["bn.0.var"])
    np.abs(params["bn.1.var"], out=params["bn.1.var"])
    before = params.clone()
    ds = _toy_dataset()
    steps = [Rng(77).derive(s).choice(len(ds), 8)[None] for s in range(4)]
    state = {}
    _train_steps(params, ds, steps, PLAIN_LOSS,
                 SgdConfig(lr=0.1, momentum=0.9, weight_decay=1e-2), mask, state)
    velocity, layout = state["velocity"], params.layout
    for k in params.keys():
        group = layout.groups[k]
        moved = params[k].tobytes() != before[k].tobytes()
        if group == "bn_stats":
            assert moved == mask.bn_stats, k
        elif not mask.trainable(group):
            assert not moved, k
        if group == "bn_stats" or not mask.trainable(group):
            assert not velocity[:, layout.slices[k]].any(), k
    trained = {layout.groups[k] for k in params.keys()
               if params[k].tobytes() != before[k].tobytes()} - {"bn_stats"}
    assert trained == {g for g in GROUPS if g != "bn_stats" and mask.trainable(g)}


# ------------------------------------------------------------ train_sgd

def test_train_sgd_zero_epochs_returns_input():
    params = _one_row(init_model(SPEC, Rng(76)))
    ds = _toy_dataset()
    curve = []
    out = train_sgd(params, ds, PLAIN_LOSS, SgdConfig(epochs=0), FreezeMask.all_trainable(),
                    [Rng(1)], on_epoch=lambda e, p, loss: curve.append(loss))
    assert curve == []
    for k in params.keys():
        assert np.array_equal(out[k], params[k])


def test_train_sgd_deterministic():
    params = _one_row(init_model(SPEC, Rng(77)))
    ds = _toy_dataset()
    cfg = SgdConfig(lr=0.05, epochs=3, batch_size=16)
    ca, cb = [], []
    a = train_sgd(params, ds, PLAIN_LOSS, cfg, FreezeMask.all_trainable(), [Rng(5)],
                  on_epoch=lambda e, p, loss: ca.append(loss.tolist()))
    b = train_sgd(params, ds, PLAIN_LOSS, cfg, FreezeMask.all_trainable(), [Rng(5)],
                  on_epoch=lambda e, p, loss: cb.append(loss.tolist()))
    assert len(ca) == cfg.epochs and ca == cb
    for k in a.keys():
        assert np.array_equal(a[k], b[k])


def test_train_sgd_loss_decreases_on_separable_data():
    params = _one_row(init_model(SPEC, Rng(78)))
    ds = _toy_dataset(sep=8.0)
    cfg = SgdConfig(lr=0.01, momentum=0.0, weight_decay=0.0,
                    batch_size=len(ds), epochs=20)
    curve = []
    train_sgd(params, ds, PLAIN_LOSS, cfg, FreezeMask.all_trainable(), [Rng(6)],
              on_epoch=lambda e, p, loss: curve.append(loss.item()))
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    assert curve[-1] < curve[0]


def test_train_sgd_freeze_commutes_with_training():
    params = _one_row(init_model(SPEC, Rng(79)))
    ds = _toy_dataset()
    cfg = SgdConfig(lr=0.1, epochs=4, batch_size=8, weight_decay=1e-3)
    out = train_sgd(params, ds, PLAIN_LOSS, cfg, FreezeMask.frozen_classifier(), [Rng(7)],
                    on_epoch=_no_hook)
    assert np.array_equal(out["layers.1.W"], params["layers.1.W"])
    assert np.array_equal(out["layers.1.b"], params["layers.1.b"])
    assert not np.array_equal(out["layers.0.W"], params["layers.0.W"])


# ------------------------------------------------------------ lolsgd

def test_lolsgd_degenerates_to_single_sgd_step():
    # M=1, leave_k=0, one-minibatch budget covering the whole set, outer=1
    ds = _toy_dataset(n_per=8)  # 24 samples
    cfg = SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.0, batch_size=24, epochs=1)
    lol = LolConfig(subsets=1, leave_k=0, local_budget=1.0, outer_step=1.0)
    mask = FreezeMask.all_trainable()
    for spec in (SPEC, MlpSpec((4, 8, 3), use_batchnorm=True, use_in_adapter=True)):
        params = init_model(spec, Rng(80))
        out = lolsgd_round(params, ds, PLAIN_LOSS, cfg, lol, mask, Rng(8), [], {})

        # reference: one sgd_step on the same (full) batch, running BN stats
        # updated as the local run updates them
        sub_rng = Rng(8).derive("subset-0").derive("batches")
        pick = sub_rng.choice(24, size=24, replace=False)
        ref = params.clone()
        grads = _grads_for(ref, ds.X[pick], ds.y[pick], update_stats=mask.bn_stats)
        sgd_step(ref, grads, {}, cfg, mask)
        assert ref.keys() == out.keys()
        for k in ref.keys():
            assert np.max(np.abs(out[k] - ref[k])) <= 1e-12, (spec, k)


def test_lolsgd_default_recipe_accepted():
    params = init_model(SPEC, Rng(81))
    ds = _toy_dataset(n_per=12, classes=3)
    cfg = SgdConfig(lr=0.02, batch_size=8, epochs=1)
    lol = LolConfig(subsets=10, leave_k=2)  # < 3 classes present
    out = lolsgd_round(params, ds, PLAIN_LOSS, cfg, lol,
                       FreezeMask.frozen_classifier(), Rng(9), [], {})
    assert not np.array_equal(out["layers.0.W"], params["layers.0.W"])


def test_lolsgd_rejects_leaving_out_everything():
    params = init_model(SPEC, Rng(82))
    ds = _toy_dataset(classes=3)
    with pytest.raises(ValueError, match="leave_k"):
        lolsgd_round(params, ds, PLAIN_LOSS, SgdConfig(), LolConfig(leave_k=3),
                     FreezeMask.all_trainable(), Rng(10), [], {})


def test_lolsgd_frozen_groups_bitwise_invariant():
    params = init_model(SPEC, Rng(83))
    ds = _toy_dataset()
    cfg = SgdConfig(lr=0.1, batch_size=8, epochs=1)
    out = lolsgd_round(params, ds, PLAIN_LOSS, cfg, LolConfig(subsets=4, leave_k=1),
                       FreezeMask.frozen_classifier(), Rng(11), [], {})
    assert np.array_equal(out["layers.1.W"], params["layers.1.W"])
    assert np.array_equal(out["layers.1.b"], params["layers.1.b"])


def test_lolsgd_deterministic_per_seed():
    params = _one_row(init_model(SPEC, Rng(84)))
    ds = _toy_dataset()
    cfg = SgdConfig(lr=0.05, batch_size=16, epochs=2)
    lol = LolConfig(subsets=5, leave_k=1)
    ca, cb = [], []
    a = train_lolsgd(params, ds, PLAIN_LOSS, cfg, lol, FreezeMask.all_trainable(), [Rng(12)],
                     on_epoch=lambda r, p, loss: ca.append(loss.tolist()))
    b = train_lolsgd(params, ds, PLAIN_LOSS, cfg, lol, FreezeMask.all_trainable(), [Rng(12)],
                     on_epoch=lambda r, p, loss: cb.append(loss.tolist()))
    assert len(ca) == cfg.epochs and ca == cb
    for k in a.keys():
        assert np.array_equal(a[k], b[k])


def test_lolsgd_budget_matches_sgd():
    params = init_model(SPEC, Rng(85))
    ds = _toy_dataset(n_per=20)  # 60 samples
    cfg = SgdConfig(lr=0.02, batch_size=16, epochs=5)
    lol = LolConfig(subsets=10, leave_k=1)
    count = {"sgd": 0}
    train_sgd(_one_row(params), ds, PLAIN_LOSS, cfg, FreezeMask.all_trainable(), [Rng(13)],
              on_epoch=_no_hook,
              on_step=lambda p: count.__setitem__("sgd", count["sgd"] + 1))
    # the rounds train_lolsgd runs by default (one per sgd epoch); the sink
    # gets one loss per local minibatch
    sink: list = []
    work, scratch = params, {}
    for r in range(cfg.epochs):
        work = lolsgd_round(work, ds, PLAIN_LOSS, cfg, lol, FreezeMask.all_trainable(),
                            Rng(13).derive(f"round-{r}"), sink, scratch)
    assert count["sgd"] == cfg.epochs * math.ceil(60 / 16)
    assert abs(len(sink) - count["sgd"]) <= lol.subsets


def _sequential_round(params, ds, loss, cfg, lol, mask, rng):
    """A leave-out round with each local run trained alone as a one-row
    stack, one step at a time, in ascending m: the reference the stacked
    round must match bitwise.
    Returns (params, local minibatch losses in run order, the batch size of
    each run that trained)."""
    classes = ds.classes_present()
    steps = _round_step_allocation(len(ds), cfg, lol)
    deltas, sink, sizes = None, [], []
    for m in range(lol.subsets):
        sub_rng = rng.derive(f"subset-{m}")
        keep = np.arange(len(ds))
        if lol.leave_k > 0:
            drop = classes[sub_rng.derive("drop").choice(classes.size, size=lol.leave_k,
                                                         replace=False)]
            keep = np.flatnonzero(~np.isin(ds.y, drop))
        local, state = _one_row(params), {}
        batch_rng = sub_rng.derive("batches")
        size = min(cfg.batch_size, len(keep))
        sizes += [size] if steps[m] else []
        for _ in range(steps[m]):
            idx = keep[batch_rng.choice(len(keep), size=size, replace=False)]
            [step] = _train_steps(local, ds, [idx[None]], loss, cfg, mask, state)
            sink.append(step.total.item())
        delta = {k: params[k] - local[k][0] for k in params.keys()}
        deltas = delta if deltas is None else {k: deltas[k] + delta[k] for k in deltas}
    flat = np.concatenate([deltas[k].ravel() for k in params.keys()])
    out = params_axpy(1.0, params, -lol.outer_step / lol.subsets,
                      ModelParams(params.spec, flat))
    return out, sink, sizes


def _imbalanced_dataset(counts=(40, 5, 5, 5), dim=5, seed=71):
    rng = Rng(seed)
    X = np.concatenate([rng.derive(f"c{c}").standard_normal((n, dim)) + 3.0 * c
                        for c, n in enumerate(counts)])
    return Dataset(X, np.repeat(np.arange(len(counts)), counts), len(counts))


_BN_ADAPTER = MlpSpec((5, 7, 6, 4), use_batchnorm=True, use_in_adapter=True)
_TANH = MlpSpec((5, 9, 4), activation="tanh")
_TANH_BN = MlpSpec((5, 6, 4), activation="tanh", use_batchnorm=True)
_PLAIN = MlpSpec((5, 8, 6, 4))
# at these widths OpenBLAS rounds some rows of a gemm differently with the
# row count, so running every run's rows through one matmul would show here
_REFERENCE = MlpSpec((16, 64, 64, 10))
_CE, _DISTILL, _RANK = LossSpec(), LossSpec(lambda_distill=0.7), LossSpec(lambda_rank=0.05)
_BOTH = LossSpec(lambda_distill=1.3, lambda_rank=1e-4, rank_sign=-1)

# (id, spec, loss, SgdConfig, LolConfig, mask, dataset, what the case must exercise)
_STACK_CASES = [
    ("plain-ce-uneven", _PLAIN, _CE, SgdConfig(lr=0.05, batch_size=5),
     LolConfig(subsets=4, leave_k=1), FreezeMask.all_trainable(), None, "uneven"),
    ("bn-adapter-distill-zero-steps", _BN_ADAPTER, _DISTILL, SgdConfig(lr=0.05, batch_size=7),
     LolConfig(subsets=10, leave_k=1), FreezeMask.all_trainable(), None, "zero"),
    ("tanh-rank-even", _TANH, _RANK, SgdConfig(lr=0.05, batch_size=6, weight_decay=1e-3),
     LolConfig(subsets=3, leave_k=2, local_budget=0.5), FreezeMask.frozen_classifier(),
     None, "even"),
    ("plain-distill-rank-one-run-keep-all", _PLAIN, _BOTH,
     SgdConfig(lr=0.05, batch_size=13, momentum=0.0),
     LolConfig(subsets=1, leave_k=0, local_budget=1.0, outer_step=0.5),
     FreezeMask.all_trainable(), None, "single"),
    ("bn-adapter-ce-ragged", _BN_ADAPTER, _CE, SgdConfig(lr=0.05, batch_size=16),
     LolConfig(subsets=6, leave_k=1, local_budget=1.0), FreezeMask.all_trainable(),
     "imbalanced", "ragged"),
    ("tanh-bn-distill-rank-ragged-zero", _TANH_BN, _BOTH, SgdConfig(lr=0.03, batch_size=20),
     LolConfig(subsets=9, leave_k=1, local_budget=0.2), FreezeMask.frozen_classifier(),
     "imbalanced", "ragged+zero"),
    ("bn-adapter-rank-bn-only", _BN_ADAPTER, _RANK, SgdConfig(lr=0.05, batch_size=9),
     LolConfig(subsets=5, leave_k=0), FreezeMask.only("bn_affine", "bn_stats", "in_adapter"),
     None, "uneven"),
    ("reference-shapes-distill", _REFERENCE, _DISTILL, SgdConfig(lr=0.01, batch_size=7),
     LolConfig(subsets=4, leave_k=2, local_budget=0.6), FreezeMask.frozen_classifier(),
     None, "uneven"),
    ("tanh-ce-leave-none", _TANH, _CE, SgdConfig(lr=0.05, batch_size=10),
     LolConfig(subsets=4, leave_k=0, local_budget=0.55), FreezeMask.all_trainable(),
     None, "uneven"),
]


@pytest.mark.parametrize("case", _STACK_CASES, ids=[c[0] for c in _STACK_CASES])
def test_lolsgd_stacked_round_matches_sequential_runs_bitwise(case):
    _, spec, loss_spec, cfg, lol, mask, data, exercises = case
    ds = (_imbalanced_dataset(dim=spec.dim) if data == "imbalanced"
          else _toy_dataset(n_per=12, dim=spec.dim, classes=4))
    params = init_model(spec, Rng(90))
    params["layers.0.b"] += 0.1  # off the init values, so every group moves
    seen = np.arange(spec.layer_widths[-1]) < 2
    loss = CompositeLoss(loss_spec, [init_model(spec, Rng(91))], seen)
    steps = _round_step_allocation(len(ds), cfg, lol)
    # each case exercises what its id claims
    assert ("zero" in exercises) == (min(steps) == 0)
    assert ("uneven" in exercises) == (min(steps) < max(steps) and min(steps) > 0)
    sizes = set()
    for r in range(2):
        rng = Rng(92).derive(f"round-{r}")
        sink: list = []
        out = lolsgd_round(params, ds, loss, cfg, lol, mask, rng, sink, {})
        ref, ref_sink, ref_sizes = _sequential_round(params, ds, loss, cfg, lol, mask, rng)
        assert out.keys() == ref.keys()
        for k in ref.keys():
            assert np.isfinite(ref[k]).all(), (k, r)
            assert np.array_equal(out[k], ref[k]), (k, r)
        assert sink == ref_sink
        assert len(sink) == sum(steps)
        sizes.update(ref_sizes)
        params = out
    # runs of different batch sizes trained in the same round
    assert ("ragged" in exercises) == (len(sizes) > 1)


def test_train_steps_shrinking_prefix_matches_each_run_trained_alone():
    # three runs step as a stack of A = 3, 3, 2, 1 under distillation and
    # the rank term, with momentum and weight decay, so the velocity is
    # trimmed with the stack and the BN running statistics are updated
    spec, cfg = _TANH_BN, SgdConfig(lr=0.05, momentum=0.9, weight_decay=1e-3)
    ds = _toy_dataset(n_per=12, dim=spec.dim, classes=4)
    seen = np.arange(spec.layer_widths[-1]) < 2
    loss = CompositeLoss(_BOTH, [init_model(spec, Rng(91))], seen)
    mask = FreezeMask.all_trainable()
    rng = Rng(94)
    steps = [np.stack([rng.choice(len(ds), size=8, replace=False) for _ in range(a)])
             for a in (3, 3, 2, 1)]
    starts = [init_model(spec, Rng(95 + r)) for r in range(3)]
    work = ModelParams(spec, np.stack([start.flat for start in starts]))
    after: list = []  # the whole stack after each step
    got = _train_steps(work, ds, steps, loss, cfg, mask, {},
                       on_step=lambda w: after.append(w.flat.copy()))
    assert [len(step.total) for step in got] == [3, 3, 2, 1]
    for step in got:  # the terms sum to the total with the configured weights
        assert np.array_equal(step.total, step.ce + _BOTH.lambda_distill * step.distill
                              + _BOTH.rank_sign * _BOTH.lambda_rank * step.rank)
    for r, start in enumerate(starts):
        alone, alone_after = _one_row(start), []
        own = [idx[r:r + 1] for idx in steps if len(idx) > r]
        want = _train_steps(alone, ds, own, loss, cfg, mask, {},
                            on_step=lambda w: alone_after.append(w.flat[0].copy()))
        for j, (g, w) in enumerate(zip(got, want)):
            for term in ("ce", "distill", "rank", "total"):
                assert getattr(g, term)[r] == getattr(w, term)[0], (r, j, term)
        # after its last step the run's row stays as that step left it
        for j, stack in enumerate(after):
            assert np.array_equal(stack[r], alone_after[min(j, len(own) - 1)]), (r, j)
        assert np.array_equal(work.flat[r], alone.flat[0]), r


def test_lolsgd_zero_lr_local_runs_leave_params_fixed():
    # lr -> tiny makes every local displacement negligible; with exact-zero
    # displacement the round must return the snapshot bitwise, which we get
    # by freezing every gradient group
    params = init_model(MlpSpec((4, 8, 3), use_batchnorm=True), Rng(86))
    ds = _toy_dataset()
    cfg = SgdConfig(lr=0.1, batch_size=8, epochs=1)
    mask = FreezeMask(backbone=False, classifier=False, bn_affine=False,
                      bn_stats=False, in_adapter=False)
    out = lolsgd_round(params, ds, PLAIN_LOSS, cfg, LolConfig(subsets=3, leave_k=1),
                       mask, Rng(14), [], {})
    for k in params.keys():
        assert np.array_equal(out[k], params[k])


# ------------------------------------------------------------ swa

def _average(stream):
    avg = RunningAverage()
    for p in stream:
        avg.fold(p)
    return avg.value()


def test_swa_single_checkpoint_is_identity():
    p = init_model(SPEC, Rng(87))
    avg = _average([p])
    for k in p.keys():
        assert np.array_equal(avg[k], p[k])


def test_swa_two_checkpoints_is_midpoint():
    a = init_model(SPEC, Rng(88))
    b = init_model(SPEC, Rng(89))
    avg = _average([a, b])
    mid = params_axpy(0.5, a, 0.5, b)
    for k in a.keys():
        assert np.array_equal(avg[k], mid[k])


def test_swa_identical_checkpoints_idempotent():
    p = init_model(SPEC, Rng(90))
    avg = _average([p, p, p, p, p])
    for k in p.keys():
        scale = np.maximum(np.abs(p[k]), 1.0)
        assert np.max(np.abs(avg[k] - p[k]) / scale) < 1e-15


def test_swa_empty_stream_rejected():
    with pytest.raises(ValueError, match="empty"):
        _average([])


def test_swa_config_validation():
    with pytest.raises(ValueError):
        SwaConfig(cadence="weekly")


# ------------------------------------------------------------ config validation

def test_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(lr=0.0)
    with pytest.raises(ValueError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ValueError):
        LolConfig(subsets=0)
    with pytest.raises(ValueError):
        LolConfig(outer_step=0.0)
    with pytest.raises(ValueError, match="rounds"):
        LolConfig(rounds=-1)


_REJECTIONS = [
    (lambda: SgdConfig(lr=0.0), "lr = 0.0 must be positive and finite"),
    (lambda: SgdConfig(weight_decay=-1.0), "weight_decay = -1.0 must be nonnegative"),
    (lambda: SgdConfig(batch_size=0), "batch_size = 0 must be at least 1"),
    (lambda: SgdConfig(epochs=-1), "epochs = -1 must be at least 0"),
    (lambda: LolConfig(subsets=0), "subsets = 0 must be at least 1"),
    (lambda: LolConfig(leave_k=-1), "leave_k = -1 must be at least 0"),
    (lambda: LolConfig(outer_step=2.0), "outer_step = 2.0 must be in (0, 1]"),
    (lambda: SwaConfig(start_epoch=-2), "start_epoch = -2 must be at least 0"),
    (lambda: LossSpec(lambda_rank=-1.0), "lambda_rank = -1.0 must be nonnegative"),
    (lambda: LossSpec(rank_sign=0), "rank_sign = 0 must be +1 or -1"),
]


@pytest.mark.parametrize("make, message", _REJECTIONS,
                         ids=[message.split(" ")[0] for _, message in _REJECTIONS])
def test_config_rejection_names_the_key_and_value(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_trainers_take_a_run_stack_and_one_rng_per_run():
    params = init_model(SPEC, Rng(76))
    ds, cfg, mask = _toy_dataset(), SgdConfig(epochs=1), FreezeMask.all_trainable()
    for bad_params, rngs in ((params, [Rng(1)]), (_one_row(params), [Rng(1), Rng(2)])):
        with pytest.raises(ValueError, match="train_sgd takes"):
            train_sgd(bad_params, ds, PLAIN_LOSS, cfg, mask, rngs, _no_hook)
    two_runs = ModelParams(SPEC, np.stack([params.flat, params.flat]))
    with pytest.raises(ValueError, match="train_lolsgd takes"):
        train_lolsgd(two_runs, ds, PLAIN_LOSS, cfg, LolConfig(leave_k=1), mask,
                     [Rng(1), Rng(2)], _no_hook)
