"""The training step over the flat parameter buffer against a per-key
reference.

The reference below keeps the step as it was written before parameters
shared one buffer: every parameter its own array in a dict, forward and
backward looked up by name, frozen groups' gradients computed and then
zeroed, and the update done key by key. The flat step must reproduce it
bitwise: params, momentum buffers, BN running statistics and losses.
"""

import numpy as np
import pytest

from htlab.data import Dataset
from htlab.losses import CompositeLoss, LossSpec
from htlab.model import (
    FreezeMask,
    MlpSpec,
    ModelParams,
    forward,
    group_of,
    init_model,
    recompute_bn_stats,
)
from htlab.numkit import Rng
from htlab.optim import SgdConfig, _train_steps, train_sgd

_ROW = np.s_[..., None, :]


# ------------------------------------------------------------ the reference

def _ref_softmax(logits):
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _ref_batch_mean(per_sample):
    mean = np.mean(per_sample, axis=-1)
    return float(mean) if mean.ndim == 0 else mean


def _ref_forward(spec, p, X, mode, update_stats=True):
    t = {"X": X, "inputs": [], "pre": [], "xhat": [], "mb": [], "vb": [], "act_in": [],
         "act": []}
    a = X
    if spec.use_in_adapter:
        mu = a.mean(axis=-1, keepdims=True)
        var = a.var(axis=-1, keepdims=True)
        t["adapter_xhat"] = (a - mu) / np.sqrt(var + 1e-5)
        a = p["in_adapter.scale"][_ROW] * t["adapter_xhat"] + p["in_adapter.shift"][_ROW]
    for i in range(spec.n_hidden):
        t["inputs"].append(a)
        z = a @ p[f"layers.{i}.W"] + p[f"layers.{i}.b"][_ROW]
        t["pre"].append(z)
        y = z
        if spec.use_batchnorm:
            if mode == "train":
                mb = z.mean(axis=-2, keepdims=True)
                vb = z.var(axis=-2, keepdims=True)
                if update_stats:
                    m = spec.bn_momentum
                    p[f"bn.{i}.mean"] = (1 - m) * p[f"bn.{i}.mean"] + m * mb[..., 0, :]
                    p[f"bn.{i}.var"] = (1 - m) * p[f"bn.{i}.var"] + m * vb[..., 0, :]
            else:
                mb, vb = p[f"bn.{i}.mean"][_ROW], p[f"bn.{i}.var"][_ROW]
            xhat = (z - mb) / np.sqrt(vb + spec.bn_eps)
            y = p[f"bn.{i}.gamma"][_ROW] * xhat + p[f"bn.{i}.beta"][_ROW]
            t["xhat"].append(xhat)
            t["mb"].append(mb)
            t["vb"].append(vb)
        t["act_in"].append(y)
        a = np.maximum(y, 0.0) if spec.activation == "relu" else np.tanh(y)
        t["act"].append(a)
    t["inputs"].append(a)
    last = spec.n_linear - 1
    t["logits"] = a @ p[f"layers.{last}.W"] + p[f"layers.{last}.b"][_ROW]
    return t


def _ref_backward(spec, p, t, g, mask, gf=None):
    n = t["X"].shape[-2]
    grads = {}
    last = spec.n_linear - 1
    grads[f"layers.{last}.W"] = t["inputs"][last].swapaxes(-1, -2) @ g
    grads[f"layers.{last}.b"] = g.sum(axis=-2)
    da = g @ p[f"layers.{last}.W"].swapaxes(-1, -2)
    if gf is not None:
        da = da + gf
    for i in range(spec.n_hidden - 1, -1, -1):
        if spec.activation == "relu":
            dy = da * (t["act_in"][i] > 0).astype(np.float64)
        else:
            dy = da * (1.0 - t["act"][i] ** 2)
        if spec.use_batchnorm:
            xhat, vb, mb = t["xhat"][i], t["vb"][i], t["mb"][i]
            inv_std = 1.0 / np.sqrt(vb + spec.bn_eps)
            grads[f"bn.{i}.gamma"] = (dy * xhat).sum(axis=-2)
            grads[f"bn.{i}.beta"] = dy.sum(axis=-2)
            dxhat = dy * p[f"bn.{i}.gamma"][_ROW]
            zc = t["pre"][i] - mb
            dvar = np.sum(dxhat * zc, axis=-2, keepdims=True) * (-0.5) * inv_std**3
            dmean = -np.sum(dxhat, axis=-2, keepdims=True) * inv_std
            dz = dxhat * inv_std + dvar * 2.0 * zc / n + dmean / n
        else:
            dz = dy
        grads[f"layers.{i}.W"] = t["inputs"][i].swapaxes(-1, -2) @ dz
        grads[f"layers.{i}.b"] = dz.sum(axis=-2)
        da = dz @ p[f"layers.{i}.W"].swapaxes(-1, -2)
    if spec.use_in_adapter:
        grads["in_adapter.scale"] = (da * t["adapter_xhat"]).sum(axis=-2)
        grads["in_adapter.shift"] = da.sum(axis=-2)
    for k, v in p.items():
        if k not in grads:
            grads[k] = np.zeros_like(v)
        elif not mask.trainable(group_of(k, spec)):
            grads[k][...] = 0.0
    return grads


def _ref_loss(spec, loss_spec, src, seen, t, y):
    """(total loss, grad at logits, grad at features) as the losses were."""
    logits = t["logits"]
    n, c = logits.shape[-2:]
    p = _ref_softmax(logits)
    rows, cols = np.arange(y.size), y.ravel()
    total = -_ref_batch_mean(np.log(p.reshape(-1, c)[rows, cols]).reshape(y.shape))
    g = p.copy()
    g.reshape(-1, c)[rows, cols] -= 1.0
    g = (g / n).copy()
    gf = None
    if loss_spec.lambda_distill > 0:
        X = t["X"]
        src_logits = (_ref_forward(spec, dict(src), X, "eval")["logits"] if X.ndim == 2 else
                      np.stack([_ref_forward(spec, dict(src), x, "eval")["logits"] for x in X]))
        unseen = np.flatnonzero(~seen)
        ps, pt = _ref_softmax(src_logits[..., unseen]), _ref_softmax(logits[..., unseen])
        distill = _ref_batch_mean(np.sum(ps * (np.log(ps) - np.log(pt)), axis=-1))
        dgrad = np.zeros_like(logits)
        dgrad[..., unseen] = (pt - ps) / n
        g += loss_spec.lambda_distill * dgrad
        total = total + loss_spec.lambda_distill * distill
    if loss_spec.lambda_rank > 0:
        Z = t["act"][-1]
        Zc = Z - Z.mean(axis=-2, keepdims=True)
        C = (Zc.swapaxes(-1, -2) @ Zc) / n
        C = 0.5 * (C + C.swapaxes(-1, -2))
        s = np.sum(C * C, axis=-2)
        rank = np.sum(s * s, axis=-1)
        G = 4.0 * C * s[..., None, :]
        Zc = Z - Z.mean(axis=-2, keepdims=True)
        dZc = (Zc @ (G + G.swapaxes(-1, -2))) / n
        rgrad = dZc - dZc.mean(axis=-2, keepdims=True)
        gf = loss_spec.rank_sign * loss_spec.lambda_rank * rgrad
        total = total + loss_spec.rank_sign * loss_spec.lambda_rank * (
            float(rank) if rank.ndim == 0 else rank)
    return total, g, gf


def _ref_step(spec, p, X, y, loss_spec, src, seen, cfg, mask, state):
    t = _ref_forward(spec, p, X, "train", update_stats=mask.bn_stats)
    total, g, gf = _ref_loss(spec, loss_spec, src, seen, t, y)
    grads = _ref_backward(spec, p, t, g, mask, gf)
    for k in sorted(p):
        group = group_of(k, spec)
        if group == "bn_stats" or not mask.trainable(group):
            continue
        grad = grads[k]
        if cfg.weight_decay > 0 and k.endswith(".W"):
            grad = grad + cfg.weight_decay * p[k]
        v = state.setdefault(k, np.zeros_like(p[k]))
        v *= cfg.momentum
        v += grad
        p[k] = p[k] - cfg.lr * v
    return total


# ------------------------------------------------------------ the gate

_MODELS = {
    "plain": MlpSpec((6, 9, 7, 5)),
    "bn-adapter": MlpSpec((6, 9, 7, 5), use_batchnorm=True, use_in_adapter=True),
    "tanh": MlpSpec((6, 8, 5), activation="tanh"),
    "reference": MlpSpec((16, 64, 64, 10)),
}
_MASKS = {
    "all": FreezeMask.all_trainable(),
    "frozen-classifier": FreezeMask.frozen_classifier(),
    "classifier": FreezeMask.only("classifier"),
    "bn": FreezeMask.only("bn_affine", "bn_stats"),
    "adapter": FreezeMask.only("in_adapter"),
}
_LOSSES = {
    "ce": (LossSpec(), 0.0),
    "ce-decay": (LossSpec(), 0.02),
    "distill-rank-decay": (LossSpec(lambda_distill=1.3, lambda_rank=1e-3), 0.02),
}


def _data(spec, n=120, seed=5):
    rng = Rng(seed)
    X = rng.standard_normal((n, spec.dim)) * 1.5
    return X, rng.choice(spec.layer_widths[-1], n, replace=True)


def _compare(spec, work, ref, state, ref_state, mask, what):
    momentum = ModelParams(spec, state["velocity"]) if "velocity" in state else None
    for k in work.keys():
        assert np.array_equal(work[k], ref[k]), (what, k)
        group = group_of(k, spec)
        if group != "bn_stats" and mask.trainable(group):
            assert np.array_equal(momentum[k], ref_state[k]), (what, "momentum", k)
        elif momentum is not None:
            assert not momentum[k].any(), (what, "frozen momentum", k)


@pytest.mark.parametrize("runs", [1, 3], ids=["one-row", "stacked"])
@pytest.mark.parametrize("loss_name", list(_LOSSES))
@pytest.mark.parametrize("mask_name", list(_MASKS))
@pytest.mark.parametrize("model", ["plain", "bn-adapter", "tanh"])
def test_train_batch_matches_per_key_reference_bitwise(model, mask_name, loss_name, runs):
    spec, mask = _MODELS[model], _MASKS[mask_name]
    loss_spec, decay = _LOSSES[loss_name]
    cfg = SgdConfig(lr=0.05, momentum=0.9, weight_decay=decay)
    X, y = _data(spec)
    seen = np.arange(spec.layer_widths[-1]) < 3
    src = init_model(spec, Rng(1))
    loss = CompositeLoss(loss_spec, [src], seen)
    starts = [init_model(spec, Rng(2 + m)) for m in range(runs)]
    work = ModelParams(spec, np.stack([s.flat for s in starts]))
    ref = {k: work[k].copy() for k in work.keys()}
    state, ref_state = {}, {}
    rng, data = Rng(9), Dataset(X, y, spec.layer_widths[-1])
    for step in range(50):
        idx = np.stack([rng.choice(len(y), size=16) for _ in range(runs)])
        [got] = _train_steps(work, data, [idx], loss, cfg, mask, state)
        got = got.total
        want = _ref_step(spec, ref, X[idx], y[idx], loss_spec, src, seen, cfg, mask, ref_state)
        assert np.array_equal(got, want), step
    _compare(spec, work, ref, state, ref_state, mask, "after 50 steps")


@pytest.mark.parametrize("mask_name", ["frozen-classifier", "all"])
def test_train_sgd_matches_per_key_reference_bitwise(mask_name):
    spec, mask = _MODELS["reference"], _MASKS[mask_name]
    loss_spec, decay = _LOSSES["distill-rank-decay"]
    cfg = SgdConfig(lr=0.02, momentum=0.9, weight_decay=decay, batch_size=32, epochs=14)
    X, y = _data(spec, n=130)
    seen = np.arange(spec.layer_widths[-1]) < 6
    src = init_model(spec, Rng(1))
    epochs, curve = [], []

    def on_epoch(epoch, params, loss):
        epochs.append(params.clone())
        curve.append(loss.tolist())

    # a one-row stack, checked against the per-key reference of one model
    one_row = ModelParams(spec, src.flat[None].copy())
    out = train_sgd(one_row, Dataset(X, y, spec.layer_widths[-1]),
                    CompositeLoss(loss_spec, [src], seen), cfg, mask, [Rng(4)], on_epoch=on_epoch)
    ref, ref_state, ref_curve = {k: src[k].copy() for k in src.keys()}, {}, []
    for epoch in range(cfg.epochs):  # 5 batches an epoch, 70 steps in all
        order = Rng(4).derive(f"epoch-{epoch}").permutation(len(y))
        total = 0.0
        for lo in range(0, len(y), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            total += _ref_step(spec, ref, X[idx], y[idx], loss_spec, src, seen, cfg, mask,
                               ref_state) * len(idx)
        ref_curve.append([total / len(y)])
        for k in ref:
            assert np.array_equal(epochs[epoch][k][0], ref[k]), (epoch, k)
    assert curve == ref_curve
    for k in ref:
        assert np.array_equal(out[k][0], ref[k]), k


# ------------------------------------------------------------ views and buffer

def _assert_views(params):
    """Each values[k] views its own slice of the flat buffer, the arrays
    back to back in sorted-name order: a write to the slice shows in it."""
    lead, offset = params.flat.shape[:-1], 0
    for k in sorted(params.values):
        view = params.values[k]
        size = int(np.prod(view.shape[len(lead):]))
        chunk = params.flat[..., offset:offset + size]
        before = chunk.copy()
        chunk += 1.0
        assert np.array_equal(view.reshape(chunk.shape), before + 1.0), k
        chunk[...] = before
        offset += size
    assert offset == params.flat.shape[-1]


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stacked"])
def test_values_stay_views_of_the_buffer(stacked):
    spec = _MODELS["bn-adapter"]
    X, y = _data(spec)
    p = init_model(spec, Rng(3))
    if stacked:
        p = ModelParams(spec, np.stack([p.flat, 2 * p.flat]))
        idx = np.arange(32).reshape(2, 16)
    else:
        idx = np.arange(16)
    running = p["bn.0.mean"].copy()
    forward(p, X[idx], mode="train")  # a BN running-statistics update
    assert not np.array_equal(p["bn.0.mean"], running)
    _assert_views(p)
    # one training step on p as a stack: p itself, or a one-row view of its buffer
    stack = p if stacked else ModelParams(spec, p.flat[None])
    _train_steps(stack, Dataset(X, y, 5), [idx.reshape(len(stack.flat), -1)],
                 CompositeLoss(LossSpec()), SgdConfig(weight_decay=0.01),
                 FreezeMask.all_trainable(), {})
    _assert_views(p)
    if not stacked:
        _assert_views(recompute_bn_stats(p, Dataset(_data(spec)[0], _data(spec)[1], 5)))


def test_clone_is_independent_of_its_source():
    p = init_model(_MODELS["bn-adapter"], Rng(4))
    q = p.clone()
    _assert_views(q)
    assert not np.shares_memory(p.flat, q.flat)
    q["layers.0.W"] += 1.0
    q["bn.0.var"] = 7.0
    assert not np.array_equal(p["layers.0.W"], q["layers.0.W"])
    assert np.all(q["bn.0.var"] == 7.0) and np.all(p["bn.0.var"] == 1.0)
