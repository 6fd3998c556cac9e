import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import htlab.model as model
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
    labels = rng.integers(0, 4, size=8)
    _fd_check(params, X, labels, FreezeMask.all_trainable())


def test_gradients_with_feature_injection_match_fd():
    params = init_model(_spec(bn=True, act="tanh"), Rng(19))
    rng = Rng(20)
    X = rng.standard_normal((6, 5))
    labels = rng.integers(0, 4, size=6)
    _fd_check(params, X, labels, FreezeMask.all_trainable(), feat_coeff=0.3)


def test_frozen_classifier_grads_exact_zero():
    params = init_model(_spec(), Rng(21))
    rng = Rng(22)
    X = rng.standard_normal((8, 5))
    labels = rng.integers(0, 4, size=8)
    grads = _analytic_grads(params, X, labels, FreezeMask.frozen_classifier())
    assert np.all(grads["layers.2.W"] == 0.0)
    assert np.all(grads["layers.2.b"] == 0.0)
    assert np.any(grads["layers.0.W"] != 0.0)


def test_duplicating_batch_preserves_gradients():
    params = init_model(_spec(), Rng(23))
    rng = Rng(24)
    X = rng.standard_normal((5, 5))
    labels = rng.integers(0, 4, size=5)
    g1 = _analytic_grads(params, X, labels, FreezeMask.all_trainable())
    g2 = _analytic_grads(params, np.vstack([X, X]), np.concatenate([labels, labels]),
                         FreezeMask.all_trainable())
    for k in g1.keys():
        assert np.max(np.abs(g1[k] - g2[k])) < 1e-14


def _stack(models):
    return ModelParams(models[0].spec,
                       {k: np.stack([m[k] for m in models]) for k in models[0].keys()})


def _slice(stacked, m):
    return ModelParams(stacked.spec, {k: v[m].copy() for k, v in stacked.values.items()})


@pytest.mark.parametrize("spec", [_spec(), _spec(bn=True, ina=True), _spec(bn=True, act="tanh")],
                         ids=["plain", "bn-adapter", "tanh-bn"])
@pytest.mark.parametrize("batch", [5, 7])
def test_stacked_forward_backward_equal_each_run_alone_bitwise(spec, batch):
    runs = [init_model(spec, Rng(60 + m)) for m in range(3)]
    stacked = _stack(runs)
    rng = Rng(63)
    X = rng.standard_normal((3, batch, 5))
    labels = rng.integers(0, 4, size=(3, batch))
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
    out = recompute_bn_stats(params, ds, batch_size=64)
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


def test_recompute_bn_requires_bn():
    params = init_model(_spec(bn=False), Rng(31))
    ds = Dataset(np.zeros((4, 5)), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError, match="no batchnorm"):
        recompute_bn_stats(params, ds)


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
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.spec == spec
    for k in p.keys():
        assert np.array_equal(p[k], q[k])


def test_configurable_bn_settings_respected(tmp_path):
    spec = MlpSpec((5, 6, 4), use_batchnorm=True, bn_eps=1e-3, bn_momentum=0.5)
    p = init_model(spec, Rng(45))
    X = Rng(46).standard_normal((16, 5))
    before = p["bn.0.mean"].copy()
    t = forward(p, X, mode="train", update_stats=True)
    mb, vb = t.bn_batch_mean[0], t.bn_batch_var[0]
    assert np.allclose(p["bn.0.mean"], 0.5 * before + 0.5 * mb, atol=0)
    assert np.allclose(t.bn_xhat[0], (t.pre[0] - mb) / np.sqrt(vb + 1e-3), atol=0)
    # settings survive the checkpoint round trip
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(p, path)
    assert load_checkpoint(path).spec == spec


@pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw[:-1],
                                  lambda raw: raw + b"\x00"],
                         ids=["truncated-array", "truncated-byte", "trailing-byte"])
def test_checkpoint_rejects_wrong_payload_length(tmp_path, edit):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_model(_spec(bn=True), Rng(47)), path)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(edit(raw))
    with pytest.raises(ValueError, match="payload is .* bytes, its header declares"):
        load_checkpoint(path)


def test_checkpoint_rejects_overlapping_offsets(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_model(_spec(bn=True), Rng(47)), path)
    with open(path, "rb") as f:
        raw = f.read()
    head_end = raw.index(b"end\n")
    lines = raw[:head_end].split(b"\n")
    arrays = [i for i, ln in enumerate(lines) if ln.startswith(b"array = ")]
    # the second array claims the first one's offset; sizes and therefore
    # the payload length are unchanged
    name, _, shape = lines[arrays[1]][len(b"array = "):].split(b" ")
    first_offset = lines[arrays[0]].split(b" ")[3]
    lines[arrays[1]] = b"array = " + b" ".join([name, first_offset, shape])
    with open(path, "wb") as f:
        f.write(b"\n".join(lines) + raw[head_end:])
    with pytest.raises(ValueError, match="declares offset 0, expected"):
        load_checkpoint(path)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bn=st.booleans(), ina=st.booleans(), seed=st.integers(0, 2**32),
       key=st.none() | st.text("0123456789abcdef", min_size=1, max_size=32),
       data=st.data())
def test_checkpoint_round_trips_and_any_truncation_is_bad(tmp_path, bn, ina, seed, key,
                                                          data):
    p = init_model(_spec(bn=bn, ina=ina), Rng(seed))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(p, path, key)
    assert os.listdir(tmp_path) == ["model.ckpt"]
    q = load_checkpoint(path, key)
    assert q.spec == p.spec and q.flat.tobytes() == p.flat.tobytes()
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(BadCheckpoint, match=re.escape(path)):
        load_checkpoint(path, key)


@pytest.mark.parametrize("edit, reason", [
    (lambda raw: b"", "no end line"),
    (lambda raw: raw.replace(b"\nend\n", b"\nen"), "no end line"),
    (lambda raw: raw.replace(b"htlab-checkpoint v1", b"htlab-checkpoint v0"),
     "not an htlab checkpoint"),
    (lambda raw: raw.replace(b"activation = ", b"activation "), "malformed header line"),
    (lambda raw: raw.replace(b" 52 5x6", b" 52 5by6"), "malformed header line"),
    (lambda raw: re.sub(rb"widths = [0-9,]*\n", b"", raw), "header lacks widths"),
    (lambda raw: raw.replace(b"batchnorm = 1", b"batchnorm = yes"), "bad spec in header"),
    (lambda raw: raw[:-8], "payload is"),
], ids=["empty", "cut-end-line", "magic", "no-separator", "bad-shape", "no-widths",
        "bad-flag", "short-payload"])
def test_checkpoint_errors_name_the_file_and_the_fault(tmp_path, edit, reason):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_model(_spec(bn=True), Rng(47)), path)
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(edit(raw))
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(path)}: {reason}"):
        load_checkpoint(path)


def test_checkpoint_save_cut_short_keeps_the_old_file(tmp_path, monkeypatch):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_model(_spec(), Rng(48)), path)
    with open(path, "rb") as f:
        before = f.read()
    other = init_model(_spec(), Rng(49))

    def killed(*args, **kwargs):
        raise KeyboardInterrupt

    # the header is written by now; the payload never is
    monkeypatch.setattr(model.np, "ascontiguousarray", killed)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(other, path)
    monkeypatch.undo()
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_checkpoint_rejects_corrupt_shapes(tmp_path):
    p = init_model(_spec(), Rng(44))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(p, path)
    with open(path, "rb") as f:
        raw = f.read()
    # declare a wrong width in the header
    bad = raw.replace(b"widths = 5,6,7,4", b"widths = 5,6,9,4", 1)
    bad_path = str(tmp_path / "bad.ckpt")
    with open(bad_path, "wb") as f:
        f.write(bad)
    with pytest.raises(ValueError):
        load_checkpoint(bad_path)
