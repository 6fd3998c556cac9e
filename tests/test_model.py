import os
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from htlab.data import Dataset
from htlab.model import (
    BN_EPS,
    BadCheckpoint,
    FreezeMask,
    MlpSpec,
    ModelParams,
    backward,
    forward,
    group_of,
    init_model,
    load_checkpoint,
    params_axpy,
    recompute_bn_stats,
    save_checkpoint,
)
from htlab.numkit import Rng, softmax


def _ce_loss_and_grad(logits, labels):
    n = logits.shape[0]
    p = softmax(logits, axis=1)
    loss = -np.mean(np.log(p[np.arange(n), labels]))
    onehot = np.zeros_like(p)
    onehot[np.arange(n), labels] = 1.0
    return loss, (p - onehot) / n


def _spec(bn=False, ina=False, act="relu", widths=(5, 6, 7, 4)):
    return MlpSpec(widths, activation=act, use_batchnorm=bn, use_in_adapter=ina)


# ------------------------------------------------------------ init

def test_init_deterministic():
    spec = _spec(bn=True, ina=True)
    a = init_model(spec, Rng(3))
    b = init_model(spec, Rng(3))
    for k in a.keys():
        assert np.array_equal(a[k], b[k])


def test_init_biases_zero_norms_identity():
    p = init_model(_spec(bn=True, ina=True), Rng(4))
    for i in range(3):
        assert np.all(p[f"layers.{i}.b"] == 0.0)
    assert np.all(p["bn.0.gamma"] == 1.0) and np.all(p["bn.0.beta"] == 0.0)
    assert np.all(p["bn.0.mean"] == 0.0) and np.all(p["bn.0.var"] == 1.0)
    assert np.all(p["in_adapter.scale"] == 1.0) and np.all(p["in_adapter.shift"] == 0.0)


def test_init_he_variance():
    # fan_in 64, >= 1e4 weight draws in one matrix
    p = init_model(MlpSpec((64, 157, 2)), Rng(5))
    v = p["layers.0.W"].var()
    assert abs(v - 2.0 / 64) < 0.2 * (2.0 / 64)


# ------------------------------------------------------------ forward

def test_zero_classifier_logits_equal_bias():
    p = init_model(_spec(), Rng(6))
    p["layers.2.W"] = np.zeros_like(p["layers.2.W"])
    p["layers.2.b"] = np.array([1.0, -2.0, 3.0, 0.5])
    t = forward(p, Rng(7).standard_normal((9, 5)), mode="eval")
    assert np.allclose(t.logits, p["layers.2.b"], atol=0)


def test_eval_forward_batch_composition_independent():
    for bn, ina in [(False, False), (True, True)]:
        p = init_model(_spec(bn=bn, ina=ina), Rng(8))
        rng = Rng(9)
        A = rng.standard_normal((4, 5))
        B = rng.standard_normal((3, 5))
        cat = forward(p, np.vstack([A, B]), mode="eval").logits
        fa = forward(p, A, mode="eval").logits
        fb = forward(p, B, mode="eval").logits
        assert np.array_equal(cat, np.vstack([fa, fb]))


def test_train_mode_bn_normalizes_batch():
    p = init_model(_spec(bn=True), Rng(10))
    # large input scale so batch variance dwarfs BN_EPS
    X = Rng(11).standard_normal((64, 5)) * 100.0
    t = forward(p, X, mode="train", update_stats=False)
    xhat = t.bn_xhat[0]
    assert np.max(np.abs(xhat.mean(axis=0))) < 1e-9
    vb = t.pre[0].var(axis=0)
    assert np.max(np.abs(xhat.var(axis=0) - vb / (vb + BN_EPS))) < 1e-12
    assert np.max(np.abs(xhat.var(axis=0) - 1.0)) < 1e-6


def test_train_mode_updates_running_stats_with_momentum():
    p = init_model(_spec(bn=True), Rng(12))
    X = Rng(13).standard_normal((32, 5))
    before = p["bn.0.mean"].copy()
    t = forward(p, X, mode="train", update_stats=True)
    mb = t.bn_batch_mean[0]
    assert np.allclose(p["bn.0.mean"], 0.9 * before + 0.1 * mb, atol=0)
    p2 = init_model(_spec(bn=True), Rng(12))
    forward(p2, X, mode="train", update_stats=False)
    assert np.array_equal(p2["bn.0.mean"], before)


def test_in_adapter_standardizes_each_sample():
    p = init_model(_spec(ina=True), Rng(14))
    X = Rng(15).standard_normal((6, 5)) * 30 + 4
    t = forward(p, X, mode="train", update_stats=False)
    xh = t.adapter_xhat
    assert np.max(np.abs(xh.mean(axis=1))) < 1e-12
    v = X.var(axis=1)
    assert np.allclose(xh.var(axis=1), v / (v + 1e-5), atol=1e-12)


def test_forward_rejects_empty_and_wrong_width():
    p = init_model(_spec(), Rng(16))
    with pytest.raises(ValueError):
        forward(p, np.zeros((0, 5)))
    with pytest.raises(ValueError):
        forward(p, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        forward(p, np.zeros((1, 2, 3, 5)))


# ------------------------------------------------------------ backward

def _total_loss(params, X, labels, feat_coeff=0.0):
    t = forward(params, X, mode="train", update_stats=False)
    loss, _ = _ce_loss_and_grad(t.logits, labels)
    if feat_coeff:
        loss += feat_coeff * 0.5 * np.sum(t.features**2)
    return loss


def _analytic_grads(params, X, labels, mask, feat_coeff=0.0):
    t = forward(params, X, mode="train", update_stats=False)
    _, g = _ce_loss_and_grad(t.logits, labels)
    gf = feat_coeff * t.features if feat_coeff else None
    return backward(params, t, g, mask, grad_at_features=gf)


def _fd_check(params, X, labels, mask, feat_coeff=0.0, eps=1e-5, tol=1e-4):
    grads = _analytic_grads(params, X, labels, mask, feat_coeff)
    worst = 0.0
    for k in params.keys():
        if not mask.trainable(group_of(k, params.spec)):
            assert np.all(grads[k] == 0.0), f"{k} should be exactly zero"
            continue
        if group_of(k, params.spec) == "bn_stats":
            continue  # not gradient-trained
        arr = params[k]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = _total_loss(params, X, labels, feat_coeff)
            arr[idx] = orig - eps
            lm = _total_loss(params, X, labels, feat_coeff)
            arr[idx] = orig
            num = (lp - lm) / (2 * eps)
            an = grads[k][idx]
            rel = abs(num - an) / max(abs(num) + abs(an), 1e-6)
            worst = max(worst, rel)
    assert worst < tol, f"max relative FD error {worst:.3e}"


@pytest.mark.parametrize("bn", [False, True])
@pytest.mark.parametrize("ina", [False, True])
@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_gradients_match_finite_differences(bn, ina, act):
    spec = _spec(bn=bn, ina=ina, act=act)
    # seed pair chosen so every relu input is well away from the kink,
    # where central differences are invalid
    params = init_model(spec, Rng(38))
    rng = Rng(39)
    X = rng.standard_normal((8, 5))
    labels = rng.choice(4, 8, replace=True)
    _fd_check(params, X, labels, FreezeMask.all_trainable())


def test_gradients_with_feature_injection_match_fd():
    params = init_model(_spec(bn=True, act="tanh"), Rng(19))
    rng = Rng(20)
    X = rng.standard_normal((6, 5))
    labels = rng.choice(4, 6, replace=True)
    _fd_check(params, X, labels, FreezeMask.all_trainable(), feat_coeff=0.3)


def test_frozen_classifier_grads_exact_zero():
    params = init_model(_spec(), Rng(21))
    rng = Rng(22)
    X = rng.standard_normal((8, 5))
    labels = rng.choice(4, 8, replace=True)
    grads = _analytic_grads(params, X, labels, FreezeMask.frozen_classifier())
    assert np.all(grads["layers.2.W"] == 0.0)
    assert np.all(grads["layers.2.b"] == 0.0)
    assert np.any(grads["layers.0.W"] != 0.0)


def test_duplicating_batch_preserves_gradients():
    params = init_model(_spec(), Rng(23))
    rng = Rng(24)
    X = rng.standard_normal((5, 5))
    labels = rng.choice(4, 5, replace=True)
    g1 = _analytic_grads(params, X, labels, FreezeMask.all_trainable())
    g2 = _analytic_grads(params, np.vstack([X, X]), np.concatenate([labels, labels]),
                         FreezeMask.all_trainable())
    for k in g1.keys():
        assert np.max(np.abs(g1[k] - g2[k])) < 1e-14


def _stack(models):
    return ModelParams(models[0].spec, np.stack([m.flat for m in models]))


def _slice(stacked, m):
    return ModelParams(stacked.spec, stacked.flat[m].copy())


@pytest.mark.parametrize("spec", [_spec(), _spec(bn=True, ina=True), _spec(bn=True, act="tanh")],
                         ids=["plain", "bn-adapter", "tanh-bn"])
@pytest.mark.parametrize("batch", [5, 7])
def test_stacked_forward_backward_equal_each_run_alone_bitwise(spec, batch):
    runs = [init_model(spec, Rng(60 + m)) for m in range(3)]
    stacked = _stack(runs)
    rng = Rng(63)
    X = rng.standard_normal((3, batch, 5))
    labels = rng.choice(4, (3, batch), replace=True)
    gf = rng.standard_normal((3, batch, 7))
    mask = FreezeMask.frozen_classifier()
    t = forward(stacked, X, mode="train", update_stats=True)
    g = rng.standard_normal(t.logits.shape)
    grads = backward(stacked, t, g, mask, grad_at_features=gf)
    ev = forward(stacked, X, mode="eval")
    for m, alone in enumerate(runs):
        tm = forward(alone, X[m], mode="train", update_stats=True)
        gm = backward(alone, tm, g[m], mask, grad_at_features=gf[m])
        assert np.array_equal(t.logits[m], tm.logits)
        assert np.array_equal(t.features[m], tm.features)
        for k in alone.keys():
            assert np.array_equal(stacked[k][m], alone[k]), k  # running stats too
            assert np.array_equal(grads[k][m], gm[k]), k
        assert np.array_equal(ev.logits[m], forward(alone, X[m], mode="eval").logits)


def test_forward_rejects_run_axis_mismatch():
    stacked = _stack([init_model(_spec(), Rng(64 + m)) for m in range(2)])
    with pytest.raises(ValueError, match="leading run axis"):
        forward(stacked, np.zeros((3, 4, 5)))
    with pytest.raises(ValueError, match="leading run axis"):
        forward(stacked, np.zeros((4, 5)))
    with pytest.raises(ValueError, match="leading run axis"):
        forward(init_model(_spec(), Rng(66)), np.zeros((2, 4, 5)))


def test_backward_rejects_eval_trace():
    params = init_model(_spec(), Rng(25))
    X = Rng(26).standard_normal((4, 5))
    t = forward(params, X, mode="eval")
    with pytest.raises(ValueError, match="train-mode"):
        backward(params, t, np.zeros_like(t.logits), FreezeMask.all_trainable())


# ------------------------------------------------------------ recompute_bn_stats

def _full_batch_stats_oracle(params, X):
    """Batch statistics a single full-batch train-mode pass would use."""
    stats = []
    t = forward(params.clone(), X, mode="train", update_stats=False)
    for i in range(params.spec.n_hidden):
        stats.append((t.bn_batch_mean[i], t.bn_batch_var[i]))
    return stats


def test_recompute_bn_matches_full_batch_oracle():
    spec = _spec(bn=True)
    params = init_model(spec, Rng(27))
    # make running stats wrong on purpose
    params["bn.0.mean"] += 3.0
    params["bn.1.var"] *= 5.0
    X = Rng(28).standard_normal((300, 5)) * 2 + 1
    ds = Dataset(X, np.zeros(300, dtype=int), 1)
    out = recompute_bn_stats(params, ds)  # 300 rows: two BN_STATS_BATCH chunks
    oracle = _full_batch_stats_oracle(params, X)
    # layer 0 sees raw inputs, so its stats match the oracle directly
    assert np.max(np.abs(out["bn.0.mean"] - oracle[0][0])) < 1e-10
    assert np.max(np.abs(out["bn.0.var"] - oracle[0][1])) < 1e-10
    # deeper layers match the oracle of the updated model (same normalization)
    oracle2 = _full_batch_stats_oracle(out, X)
    assert np.max(np.abs(out["bn.1.mean"] - oracle2[1][0])) < 1e-10
    assert np.max(np.abs(out["bn.1.var"] - oracle2[1][1])) < 1e-10


def test_recompute_bn_idempotent_and_weight_preserving():
    params = init_model(_spec(bn=True), Rng(29))
    X = Rng(30).standard_normal((128, 5))
    ds = Dataset(X, np.zeros(128, dtype=int), 1)
    once = recompute_bn_stats(params, ds)
    twice = recompute_bn_stats(once, ds)
    for i in range(2):
        assert np.max(np.abs(once[f"bn.{i}.mean"] - twice[f"bn.{i}.mean"])) < 1e-12
        assert np.max(np.abs(once[f"bn.{i}.var"] - twice[f"bn.{i}.var"])) < 1e-12
    for k in params.keys():
        if group_of(k, params.spec) != "bn_stats":
            assert np.array_equal(once[k], params[k])


@pytest.mark.parametrize("ina", [False, True], ids=["bn", "bn-adapter"])
def test_recompute_bn_of_a_stack_matches_one_run_calls_bitwise(ina):
    # without the adapter the broadcast chunk goes straight into the first matmul
    runs = [init_model(_spec(bn=True, ina=ina), Rng(seed)) for seed in (32, 33, 34)]
    for j, run in enumerate(runs):  # running stats that differ run by run
        run["bn.0.mean"] += j
        run["bn.1.var"] *= j + 2
    X = Rng(35).standard_normal((300, 5)) * 2 + 1
    ds = Dataset(X, np.zeros(300, dtype=int), 1)  # two BN_STATS_BATCH chunks
    stack = ModelParams(runs[0].spec, np.stack([run.flat for run in runs]))
    before = stack.flat.copy()
    out = recompute_bn_stats(stack, ds)
    assert out.flat.shape == stack.flat.shape
    assert np.array_equal(stack.flat, before)  # the stack itself is left as it was
    for row, run in zip(out.flat, runs):
        assert row.tobytes() == recompute_bn_stats(run, ds).flat.tobytes()
    assert out.flat[0].tobytes() != out.flat[1].tobytes()


def test_recompute_bn_requires_bn():
    params = init_model(_spec(bn=False), Rng(31))
    ds = Dataset(np.zeros((4, 5)), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError, match="no batchnorm"):
        recompute_bn_stats(params, ds)


# ------------------------------------------------------------ ModelParams

@pytest.mark.parametrize("runs", [None, 3], ids=["one", "stacked"])
def test_params_pickle_the_buffer_once_and_come_back_as_views(runs):
    spec = _spec(bn=True, ina=True, widths=(16, 64, 64, 10))
    models = [init_model(spec, Rng(30 + m)) for m in range(runs or 1)]
    params = models[0] if runs is None else _stack(models)
    raw = pickle.dumps(params)
    back = pickle.loads(raw)
    assert back.spec == spec
    assert back.flat.shape == params.flat.shape and np.array_equal(back.flat, params.flat)
    assert back.keys() == params.keys()
    for k in back.keys():
        assert np.shares_memory(back.values[k], back.flat), k
        assert np.array_equal(back[k], params[k]), k
    # each view pickled on its own would about double it
    assert len(raw) < 1.5 * params.flat.nbytes


def test_params_take_only_an_f64_buffer_of_the_spec_s_width():
    spec = _spec()
    width = init_model(spec, Rng(29)).flat.size
    for flat in (np.zeros(width, dtype=np.float32), np.zeros(width + 1), np.zeros((2, 3))):
        with pytest.raises(ValueError, match=f"f64 with {width} columns"):
            ModelParams(spec, flat)


# ------------------------------------------------------------ params_axpy

def test_axpy_endpoints_bitwise():
    spec = _spec(bn=True, ina=True)
    p1 = init_model(spec, Rng(35))
    p2 = init_model(spec, Rng(36))
    left = params_axpy(1.0, p1, 0.0, p2)
    for k in p1.keys():
        assert np.array_equal(left[k], p1[k])
    mid = params_axpy(0.5, p1, 0.5, p1)
    for k in p1.keys():
        assert np.array_equal(mid[k], p1[k])


def test_axpy_matches_scalar_loop_oracle():
    spec = _spec(bn=True)
    p1 = init_model(spec, Rng(37))
    p2 = init_model(spec, Rng(38))
    a, b = 0.3, -1.7
    got = params_axpy(a, p1, b, p2)
    for k in p1.keys():
        expect = np.empty_like(p1[k])
        flat1, flat2, out = p1[k].ravel(), p2[k].ravel(), expect.ravel()
        for i in range(flat1.size):
            out[i] = a * flat1[i] + b * flat2[i]
        if k.endswith(".var") and k.startswith("bn."):
            expect = np.maximum(expect, 0.0)
        assert np.max(np.abs(got[k] - expect)) < 1e-15


def test_axpy_floors_running_variance():
    spec = _spec(bn=True)
    p1 = init_model(spec, Rng(39))
    p2 = init_model(spec, Rng(40))
    out = params_axpy(-1.0, p1, 0.0, p2)
    assert np.all(out["bn.0.var"] >= 0.0)


def test_axpy_spec_mismatch_rejected():
    p1 = init_model(_spec(), Rng(41))
    p2 = init_model(_spec(bn=True), Rng(42))
    with pytest.raises(ValueError, match="mismatch"):
        params_axpy(0.5, p1, 0.5, p2)


# ------------------------------------------------------------ checkpoints

def test_checkpoint_round_trip_bitwise(tmp_path):
    spec = _spec(bn=True, ina=True, act="tanh")
    p = init_model(spec, Rng(43))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(p, path, "k")
    q = load_checkpoint(path, spec, "k")
    assert q.spec == spec
    for k in p.keys():
        assert np.array_equal(p[k], q[k])


def test_spec_holds_its_weights_and_biases_to_the_cap():
    # (1 + 1) * h + (h + 1) * 1 = 3h + 1 weights and biases; building a spec
    # allocates nothing, so the bound is checked at the cap itself
    assert MlpSpec((1, 44739242, 1)).layer_widths[1] == 44739242
    with pytest.raises(ValueError, match=r"^layer_widths = \(1, 44739243, 1\) must hold at "
                                         r"most 2\*\*27 weights and biases$"):
        MlpSpec((1, 44739243, 1))


def test_configurable_bn_settings_respected():
    spec = MlpSpec((5, 6, 4), use_batchnorm=True, bn_eps=1e-3, bn_momentum=0.5)
    p = init_model(spec, Rng(45))
    X = Rng(46).standard_normal((16, 5))
    before = p["bn.0.mean"].copy()
    t = forward(p, X, mode="train", update_stats=True)
    mb, vb = t.bn_batch_mean[0], t.bn_batch_var[0]
    assert np.allclose(p["bn.0.mean"], 0.5 * before + 0.5 * mb, atol=0)
    assert np.allclose(t.bn_xhat[0], (t.pre[0] - mb) / np.sqrt(vb + 1e-3), atol=0)


@pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw[:-1],
                                  lambda raw: raw + b"\x00"],
                         ids=["truncated-array", "truncated-byte", "trailing-byte"])
def test_checkpoint_rejects_wrong_payload_length(tmp_path, edit):
    path = str(tmp_path / "model.ckpt")
    spec = _spec(bn=True)
    save_checkpoint(init_model(spec, Rng(47)), path, "k")
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(edit(raw))
    with pytest.raises(BadCheckpoint, match="payload is .* bytes, its spec needs"):
        load_checkpoint(path, spec, "k")


class _CountedReads:
    """A file whose reads count the bytes they return."""

    def __init__(self, f):
        self._f, self.count = f, 0

    def read(self, *size):
        data = self._f.read(*size)
        self.count += len(data)
        return data

    def fileno(self):
        return self._f.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def test_checkpoint_longer_than_its_spec_is_refused_unread(tmp_path, monkeypatch):
    # a stray file of any length is refused after at most one byte past a
    # whole checkpoint; the message still states its whole payload
    path = str(tmp_path / "model.ckpt")
    spec = _spec(bn=True)
    save_checkpoint(init_model(spec, Rng(47)), path, "k")
    payload = 8 * init_model(spec, Rng(0)).flat.size
    whole = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(bytes(4096))
    files, real_open = [], open

    def counted_open(file, *args, **kwargs):
        files.append(_CountedReads(real_open(file, *args, **kwargs)))
        return files[-1]

    monkeypatch.setattr("builtins.open", counted_open)
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(path)}: payload is {payload + 4096} "
                                            f"bytes, its spec needs {payload}$"):
        load_checkpoint(path, spec, "k")
    assert len(files) == 1 and files[0].count <= whole + 1


_SPECS = st.builds(_spec, bn=st.booleans(), ina=st.booleans(),
                   act=st.sampled_from(["relu", "tanh"]),
                   widths=st.lists(st.integers(1, 6), min_size=3, max_size=5).map(tuple))
_KEYS = st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1,
                max_size=40)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_SPECS, seed=st.integers(0, 2**32), key=st.none() | _KEYS, data=st.data())
def test_checkpoint_round_trips_and_any_truncation_is_bad(tmp_path, spec, seed, key, data):
    p = init_model(spec, Rng(seed))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(p, path, key)
    assert os.listdir(tmp_path) == ["model.ckpt"]
    q = load_checkpoint(path, spec, key)
    assert q.spec == spec and q.flat.tobytes() == p.flat.tobytes()
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(BadCheckpoint, match=re.escape(path)):
        load_checkpoint(path, spec, key)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_SPECS, key=st.none() | _KEYS, data=st.data())
def test_checkpoint_header_byte_change_or_other_spec_never_loads(tmp_path, spec, key,
                                                                 data):
    path = str(tmp_path / "model.ckpt")
    params = init_model(spec, Rng(50))
    save_checkpoint(params, path, key)
    with open(path, "rb") as f:
        raw = f.read()
    # a spec of another parameter count: the payload length names both
    # sizes; under another key the header is refused first
    widths = spec.layer_widths
    other = replace(spec, layer_widths=(widths[0], widths[1] + 1, *widths[2:]))
    size, other_size = 8 * params.flat.size, 8 * init_model(other, Rng(0)).flat.size
    with pytest.raises(BadCheckpoint, match=f"payload is {size} bytes, "
                                            f"its spec needs {other_size}$"):
        load_checkpoint(path, other, key)
    with pytest.raises(BadCheckpoint, match="not a checkpoint of this configuration's"):
        load_checkpoint(path, other, f"{key}x")
    # any one byte of the header changed
    head_end = raw.index(b"\nend\n") + len(b"\nend\n")
    at = data.draw(st.integers(0, head_end - 1), label="at")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
    with open(path, "wb") as f:
        f.write(raw[:at] + bytes([byte]) + raw[at + 1:])
    with pytest.raises(BadCheckpoint, match=re.escape(path)):
        load_checkpoint(path, spec, key)


def test_checkpoint_rejects_negative_running_variance(tmp_path):
    spec = _spec(bn=True)
    p = init_model(spec, Rng(51))
    p["bn.1.var"] = -1.0
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(p, path, "k")
    with pytest.raises(BadCheckpoint, match="negative running variance"):
        load_checkpoint(path, spec, "k")


_NOT_OURS = "not a checkpoint of this configuration's cache key$"


@pytest.mark.parametrize("edit, reason", [
    (lambda raw: b"", _NOT_OURS),
    (lambda raw: raw.replace(b"\nend\n", b"\nen"), _NOT_OURS),
    (lambda raw: raw.replace(b"htlab-checkpoint v2", b"htlab-checkpoint v1"), _NOT_OURS),
    (lambda raw: raw.replace(b"key = ", b"key "), _NOT_OURS),
    (lambda raw: raw.replace(b"key = ", b"widths = 5,6,7,4\nkey = "), _NOT_OURS),
    (lambda raw: raw.replace(b"key = k", b"key = \xff"), _NOT_OURS),
    # the key asked for, after another one
    (lambda raw: raw.replace(b"key = k1\n", b"key = OTHER\nkey = k1\n"), _NOT_OURS),
    (lambda raw: raw[:-8], "payload is"),
], ids=["empty", "cut-end-line", "magic", "no-separator", "spec-line", "not-ascii",
        "second-key-line", "short-payload"])
def test_checkpoint_errors_name_the_file_and_the_fault(tmp_path, edit, reason):
    path = str(tmp_path / "model.ckpt")
    spec = _spec(bn=True)
    save_checkpoint(init_model(spec, Rng(47)), path, "k1")
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(edit(raw))
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(path)}: {reason}"):
        load_checkpoint(path, spec, "k1")


def test_checkpoint_is_pinned_header_then_little_endian_buffer(tmp_path):
    # the bytes every cached source checkpoint already on disk holds: a
    # change here makes each of them retrain
    p = init_model(_spec(bn=True, ina=True), Rng(52))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(p, path, "k")
    with open(path, "rb") as f:
        assert f.read() == (b"htlab-checkpoint v2\nkey = k\nend\n"
                            + p.flat.astype("<f8").tobytes())


def test_checkpoint_save_cut_short_keeps_the_old_file(tmp_path, monkeypatch):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_model(_spec(), Rng(48)), path, "k")
    with open(path, "rb") as f:
        before = f.read()
    other = init_model(_spec(), Rng(49))
    real_open = open

    class KilledAfterOneWrite:
        def __init__(self, f):
            self._f, self._writes = f, 0

        def write(self, data):
            if self._writes:
                raise KeyboardInterrupt
            self._writes += 1
            return self._f.write(data)

        def flush(self):
            return self._f.flush()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    # the header is written by now; the payload never is
    monkeypatch.setattr("builtins.open", lambda *a, **k: KilledAfterOneWrite(real_open(*a, **k)))
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(other, path, "k")
    monkeypatch.undo()
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]
