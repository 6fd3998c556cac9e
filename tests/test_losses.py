import numpy as np
import pytest

from htlab.losses import (
    CompositeLoss,
    LossSpec,
    cross_entropy,
    rank_reg,
    selective_distill,
)
from htlab.model import MlpSpec, ModelParams, forward, init_model
from htlab.numkit import Rng, softmax
from oracles import covariance


def _fd(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        lp = f()
        x[i] = orig - eps
        lm = f()
        x[i] = orig
        g[i] = (lp - lm) / (2 * eps)
    return g


# ------------------------------------------------------------ cross-entropy

def test_ce_uniform_logits():
    logits = np.zeros((3, 4))
    loss, _ = cross_entropy(logits, np.array([0, 1, 2]))
    assert abs(loss - np.log(4.0)) < 1e-15


def test_ce_decreases_with_margin():
    losses = []
    for margin in [0.0, 1.0, 3.0, 10.0, 30.0]:
        logits = np.zeros((1, 3))
        logits[0, 1] = margin
        loss, _ = cross_entropy(logits, np.array([1]))
        losses.append(loss)
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-10


def test_ce_grad_matches_fd():
    rng = Rng(50)
    logits = rng.standard_normal((5, 3))
    labels = rng.choice(3, 5, replace=True)
    _, grad = cross_entropy(logits, labels)
    num = _fd(lambda: cross_entropy(logits, labels)[0], logits)
    assert np.max(np.abs(grad - num)) < 1e-6


def test_ce_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_ce_rejects_negative_labels():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, -1]))


# ------------------------------------------------------------ selective distill

SEEN = np.array([True, True, False, False, False])


def test_distill_identity_is_zero():
    L = Rng(51).standard_normal((6, 5))
    loss, grad = selective_distill(L, L.copy(), SEEN)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_distill_seen_columns_get_zero_grad():
    rng = Rng(52)
    s, t = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    _, grad = selective_distill(s, t, SEEN)
    assert np.all(grad[:, SEEN] == 0.0)
    assert np.any(grad[:, ~SEEN] != 0.0)


def test_distill_hand_value():
    # unseen columns: source [0, ln 3] -> [0.25, 0.75]; target [0, 0] -> [0.5, 0.5]
    seen = np.array([True, False, False])
    s = np.array([[7.0, 0.0, np.log(3.0)]])
    t = np.array([[2.0, 0.0, 0.0]])
    loss, _ = selective_distill(s, t, seen)
    want = 0.25 * np.log(0.25 / 0.5) + 0.75 * np.log(0.75 / 0.5)
    assert abs(loss - want) < 1e-12
    assert abs(loss - 0.13081) < 1e-5


def test_distill_grad_matches_fd():
    rng = Rng(53)
    s = rng.standard_normal((4, 5))
    t = rng.standard_normal((4, 5))
    _, grad = selective_distill(s, t, SEEN)
    num = _fd(lambda: selective_distill(s, t, SEEN)[0], t)
    assert np.max(np.abs(grad - num)) < 1e-6


def test_distill_nonnegative_zero_iff_match():
    rng = Rng(54)
    for _ in range(300):
        s = rng.standard_normal((2, 5)) * 2
        t = rng.standard_normal((2, 5)) * 2
        loss, _ = selective_distill(s, t, SEEN)
        assert loss >= 0.0
        ps = softmax(s[:, ~SEEN], axis=1)
        pt = softmax(t[:, ~SEEN], axis=1)
        if np.max(np.abs(ps - pt)) >= 1e-12:
            assert loss > 0.0


def test_distill_requires_unseen_classes():
    with pytest.raises(ValueError, match="no unseen"):
        selective_distill(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(3, bool))


# ------------------------------------------------------------ rank regularizer

def test_rank_constant_batch_is_zero():
    Z = np.tile([2.0, -1.0, 0.5, 3.0], (6, 1))
    loss, grad = rank_reg(Z)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_rank_matches_naive_oracle():
    Z = Rng(55).standard_normal((6, 4)) * 1.5
    loss, _ = rank_reg(Z)
    C = covariance(Z)
    CtC = C.T @ C
    want = float(sum(CtC[j, j] ** 2 for j in range(4)))
    assert abs(loss - want) < 1e-12 * max(want, 1.0)


def test_rank_grad_matches_fd():
    Z = Rng(56).standard_normal((6, 4))
    _, grad = rank_reg(Z)
    num = _fd(lambda: rank_reg(Z)[0], Z, eps=1e-6)
    denom = np.maximum(np.abs(num) + np.abs(grad), 1e-4)
    assert np.max(np.abs(grad - num) / denom) < 1e-5


def test_rank_translation_invariant():
    rng = Rng(57)
    Z = rng.standard_normal((8, 5))
    shift = rng.standard_normal(5) * 10
    l0, g0 = rank_reg(Z)
    l1, g1 = rank_reg(Z + shift)
    assert abs(l0 - l1) < 1e-10 * max(abs(l0), 1.0)
    assert np.max(np.abs(g0 - g1)) < 1e-10


def test_rank_needs_two_samples():
    with pytest.raises(ValueError):
        rank_reg(np.ones((1, 3)))


# ------------------------------------------------------------ weights

def _zero_weights_are_ce(run, ce, di, rk):
    bd, gl, gf = run(LossSpec(0.0, 0.0))
    assert np.array_equal(bd.total, ce[0])
    assert np.array_equal(gl, ce[1])
    assert gf is None


def _large_weights(run, ce, di, rk):
    bd, _, _ = run(LossSpec(lambda_distill=10.0, lambda_rank=100.0))
    assert np.array_equal(bd.total, ce[0] + 10.0 * di[0] + 100.0 * rk[0])


def _linear_in_each_weight(run, ce, di, rk):
    for lam in (0.5, 1.0, 2.0):
        bd, gl, _ = run(LossSpec(lambda_distill=lam))
        assert np.array_equal(bd.total, ce[0] + lam * di[0])
        assert np.array_equal(gl, ce[1] + lam * di[1])
        bd, _, gf = run(LossSpec(lambda_rank=lam))
        assert np.array_equal(bd.total, ce[0] + lam * rk[0])
        assert np.array_equal(gf, lam * rk[1])


def _doubling_rank_weight_doubles_contribution(run, ce, di, rk):
    bd1, _, gf1 = run(LossSpec(lambda_rank=0.5))
    bd2, _, gf2 = run(LossSpec(lambda_rank=1.0))
    # total - ce is rounded, so the contribution is checked as it is added
    assert np.array_equal(bd2.rank, bd1.rank)
    assert np.array_equal(bd2.total, bd2.ce + 2.0 * (0.5 * bd1.rank))
    assert np.array_equal(gf2, 2.0 * gf1)


def _rank_sign_flip(run, ce, di, rk):
    plus, _, gfp = run(LossSpec(lambda_rank=1.0, rank_sign=1))
    minus, _, gfm = run(LossSpec(lambda_rank=1.0, rank_sign=-1))
    assert np.array_equal(plus.total - ce[0], -(minus.total - ce[0]))
    assert np.array_equal(gfp, -gfm)


_WEIGHT_CASES = [_zero_weights_are_ce, _large_weights, _linear_in_each_weight,
                 _doubling_rank_weight_doubles_contribution, _rank_sign_flip]


@pytest.mark.parametrize("case", _WEIGHT_CASES, ids=lambda case: case.__name__[1:])
def test_composite_loss_weights_its_terms(case):
    # CompositeLoss on a train-mode trace of a two-run stack, distilling
    # from a source model, against each term computed alone on that trace
    model = MlpSpec((4, 6, 5))
    rng = Rng(58)
    X, labels = rng.standard_normal((2, 6, 4)), rng.choice(5, (2, 6), replace=True)
    source = init_model(model, Rng(59))
    runs = ModelParams(model, np.stack([init_model(model, Rng(60 + m)).flat for m in range(2)]))
    trace = forward(runs, X, mode="train")
    ce = cross_entropy(trace.logits, labels)
    di = selective_distill(np.stack([forward(source, x).logits for x in X]), trace.logits, SEEN)
    rk = rank_reg(trace.features)
    case(lambda spec: CompositeLoss(spec, [source], SEEN)(trace, labels), ce, di, rk)


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec(lambda_distill=-1.0)
    with pytest.raises(ValueError):
        LossSpec(rank_sign=0)


# ------------------------------------------------------------ CompositeLoss

def test_composite_loss_runs_all_terms():
    spec = MlpSpec((4, 6, 5))
    source = init_model(spec, Rng(59))
    params = init_model(spec, Rng(60))
    rng = Rng(61)
    X = rng.standard_normal((8, 4))
    labels = rng.choice(2, 8, replace=True)  # seen classes only
    loss = CompositeLoss(LossSpec(lambda_distill=1.0, lambda_rank=0.1),
                         source_params=[source], seen_mask=SEEN)
    trace = forward(params, X, mode="train", update_stats=False)
    bd, gl, gf = loss(trace, labels)
    assert bd.total == bd.ce + 1.0 * bd.distill + 0.1 * bd.rank
    assert gl.shape == trace.logits.shape
    assert gf.shape == trace.features.shape


@pytest.mark.parametrize("spec", [LossSpec(), LossSpec(lambda_distill=1.0),
                                  LossSpec(lambda_rank=0.1),
                                  LossSpec(lambda_distill=0.5, lambda_rank=0.2, rank_sign=-1)],
                         ids=["ce", "distill", "rank", "distill-rank"])
@pytest.mark.parametrize("batch", [5, 6])
def test_stacked_losses_equal_each_batch_alone_bitwise(spec, batch):
    model = MlpSpec((4, 6, 5))
    loss = CompositeLoss(spec, source_params=[init_model(model, Rng(62))], seen_mask=SEEN)
    runs = [init_model(model, Rng(63 + m)) for m in range(3)]
    stacked = ModelParams(model, np.stack([r.flat for r in runs]))
    rng = Rng(66)
    X = rng.standard_normal((3, batch, 4))
    labels = rng.choice(5, (3, batch), replace=True)
    bd, gl, gf = loss(forward(stacked, X, mode="train"), labels)
    assert bd.total.shape == (3,)
    for m, run in enumerate(runs):
        # the run alone, as a stack of one
        alone = ModelParams(model, run.flat[None])
        bdm, glm, gfm = loss(forward(alone, X[m:m + 1], mode="train"), labels[m:m + 1])
        assert bdm.total.shape == (1,)
        for term in ("ce", "distill", "rank", "total"):
            # a term that is off stays the scalar 0.0 for a stack
            assert np.broadcast_to(getattr(bd, term), (3,))[m] == \
                np.broadcast_to(getattr(bdm, term), (1,))[0], term
        assert np.array_equal(gl[m], glm[0])
        assert (gf is None and gfm is None) or np.array_equal(gf[m], gfm[0])


def test_composite_loss_requires_source_for_distill():
    with pytest.raises(ValueError, match="distillation needs"):
        CompositeLoss(LossSpec(lambda_distill=1.0))
