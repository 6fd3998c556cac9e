"""Acceptance gate: every criterion expressed as one test that prints a
PASS/FAIL line with the measured numbers.

The reference setup is frozen here: 10 classes (6 seen), 16 input
features, 200/60/40 samples per class, a rotation-plus-shift style
transform, a 2-hidden-layer width-64 relu MLP, and seeds 0..2. Qualitative
orderings from full-scale experiments are reproduced as orderings on this
desk-scale setup, never as absolute numbers.
"""

import math
import os
import time

import numpy as np
import pytest

from htlab.cli import main
from htlab.data import Dataset, StyleTransform, gen_paired_toxicity_scenario, gen_synthetic_scenario
from htlab.losses import CompositeLoss, LossSpec, cross_entropy, rank_reg, selective_distill
from htlab.metrics import EvalSet, evaluate, report_from_scores
from htlab.model import FreezeMask, MlpSpec, backward, forward, group_of, init_model
from htlab.numkit import Rng, covariance, kl_div, softmax, top_singular_values
from htlab.optim import LolConfig, SgdConfig, lolsgd_round, sgd_step
from htlab.transfer import Protocol, pretrain_source, run_protocol, se_predict, wise_merge

# ----------------------------------------------------------- reference setup

SEEDS = (0, 1, 2)
NUM_CLASSES, NUM_SEEN, DIM = 10, 6, 16
PER_CLASS = (200, 60, 40)
CLUSTER_SEP = 5.0
STYLE = dict(angle=0.8, shift=1.0, noise_sigma=0.2)
WIDTHS = (DIM, 64, 64, NUM_CLASSES)
PRETRAIN = SgdConfig(lr=0.02, momentum=0.9, weight_decay=1e-2, batch_size=32, epochs=20)
ADAPT = SgdConfig(lr=0.02, momentum=0.9, weight_decay=1e-2, batch_size=32, epochs=20)
LOSS = LossSpec(lambda_distill=4.0, lambda_rank=3e-5)
LOL = LolConfig(subsets=10, leave_k=3, outer_step=1.0)
K_SPECTRUM = 64

PROTOCOLS = ("naive_ft", "frozen_ft", "sgd_rank", "lolsgd", "lolsgd_distill_rank")


def _reference_scenario(seed, per_class=PER_CLASS, cluster_sep=CLUSTER_SEP):
    style = StyleTransform.rotation_shift(DIM, **STYLE)
    return gen_synthetic_scenario(NUM_CLASSES, NUM_SEEN, DIM, per_class,
                                  cluster_sep, style, seed=seed)


def _say(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _mean(reports, metric):
    return float(np.mean([getattr(r, metric) for r in reports]))


@pytest.fixture(scope="module")
def grid():
    """Reference-scenario runs shared by criteria 3..7."""
    t0 = time.time()
    out = {"source": [], "final": {p: [] for p in PROTOCOLS}, "runs": {}}
    for seed in SEEDS:
        scn = _reference_scenario(seed)
        src = pretrain_source(scn, MlpSpec(WIDTHS), PRETRAIN, Rng(seed).derive("source"))
        out["source"].append(evaluate(src, EvalSet(scn.target_test, scn.seen_mask),
                                      k_spectrum=K_SPECTRUM))
        for kind in PROTOCOLS:
            proto = Protocol(kind=kind, loss=LOSS, sgd=ADAPT, lol=LOL)
            [run] = run_protocol(scn.target_train, scn.target_test, scn.seen_mask,
                                 [src], proto, [seed], k_spectrum=K_SPECTRUM,
                                 scenario_id=scn.scenario_id)
            out["final"][kind].append(run.curve[-1])
            out["runs"][(kind, seed)] = (scn, src, run)
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def toxicity_grid():
    """Confusable-pair runs shared by criterion 8."""
    out = {"source": [], "naive_ft": [], "lolsgd_distill_rank": []}
    spec = MlpSpec((DIM, 64, 64, 12))
    for seed in SEEDS:
        scn, tox = gen_paired_toxicity_scenario(6, DIM, PER_CLASS, pair_overlap=0.6,
                                                seed=seed, cluster_sep=CLUSTER_SEP)
        src = pretrain_source(scn, spec, PRETRAIN, Rng(seed).derive("source"))
        out["source"].append(evaluate(src, EvalSet(scn.target_test, scn.seen_mask, tox)))
        for kind in ("naive_ft", "lolsgd_distill_rank"):
            proto = Protocol(kind=kind, loss=LOSS, sgd=ADAPT, lol=LOL)
            [run] = run_protocol(scn.target_train, scn.target_test, scn.seen_mask,
                                 [src], proto, [seed], toxicity=tox)
            out[kind].append(run.curve[-1])
    return out


# ------------------------------------------------- criterion 1: numerics

def test_criterion_1_numerical_correctness():
    t0 = time.time()
    rng = Rng(200)

    # finite-difference check of the full backward pass, all norm/activation
    # combinations, cross-entropy plus both regularizers driving it
    worst = 0.0
    for bn in (False, True):
        for ina in (False, True):
            for act in ("relu", "tanh"):
                spec = MlpSpec((5, 6, 7, 4), activation=act,
                               use_batchnorm=bn, use_in_adapter=ina)
                params = init_model(spec, Rng(38))
                drng = Rng(39)
                X = drng.standard_normal((8, 5))
                y = drng.integers(0, 4, size=8)
                seen = np.array([True, True, False, False])
                src = init_model(spec, Rng(40))
                lspec = LossSpec(lambda_distill=0.7, lambda_rank=0.05)
                loss_fn = CompositeLoss(lspec, source_params=src, seen_mask=seen)

                def total(p):
                    tr = forward(p, X, mode="train", update_stats=False)
                    bd, _, _ = loss_fn(tr, y)
                    return bd.total

                tr = forward(params, X, mode="train", update_stats=False)
                _, gl, gf = loss_fn(tr, y)
                grads = backward(params, tr, gl, FreezeMask.all_trainable(),
                                 grad_at_features=gf)
                eps = 1e-5
                for k in params.keys():
                    if group_of(k, spec) == "bn_stats":
                        continue
                    arr = params[k]
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        i = it.multi_index
                        orig = arr[i]
                        arr[i] = orig + eps
                        lp = total(params)
                        arr[i] = orig - eps
                        lm = total(params)
                        arr[i] = orig
                        num = (lp - lm) / (2 * eps)
                        rel = abs(num - grads[k][i]) / max(abs(num) + abs(grads[k][i]), 1e-6)
                        worst = max(worst, rel)
    assert worst < 1e-4, f"gradient check: max relative error {worst:.3e}"

    # standalone loss gradients vs finite differences
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    _, g = cross_entropy(logits, labels)
    for fn_grad, fn_loss, x in (
        (g, lambda: cross_entropy(logits, labels)[0], logits),
    ):
        it = np.nditer(x, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = x[i]
            x[i] = orig + 1e-6
            lp = fn_loss()
            x[i] = orig - 1e-6
            lm = fn_loss()
            x[i] = orig
            assert abs((lp - lm) / 2e-6 - fn_grad[i]) < 1e-4

    # KL / covariance / spectrum oracles
    assert abs(kl_div([1.0, 0.0], [0.5, 0.5]) - math.log(2)) < 1e-12
    Z = rng.standard_normal((8, 3))
    C = covariance(Z)
    zbar = Z.mean(axis=0)
    naive = sum(np.outer(r - zbar, r - zbar) for r in Z) / len(Z)
    assert np.max(np.abs(C - naive)) < 1e-12
    Z2 = rng.standard_normal((10, 4))
    got = top_singular_values(Z2, 4).values
    want = np.linalg.svd(Z2 - Z2.mean(axis=0), compute_uv=False)
    assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-8
    rl, rg = rank_reg(Z2)
    sl, sg = selective_distill(rng.standard_normal((4, 5)),
                               rng.standard_normal((4, 5)),
                               np.array([True, True, False, False, False]))
    assert rl >= 0 and sl >= 0

    elapsed = time.time() - t0
    _say("1 numerical-correctness",
         worst < 1e-4 and elapsed < 30.0,
         f"max FD rel err {worst:.2e}, oracles ok, {elapsed:.1f}s < 30s")


# ------------------------------------------------ criterion 2: degeneracy

def test_criterion_2_lolsgd_degenerates_to_sgd():
    t0 = time.time()
    scn = _reference_scenario(0, per_class=(2, 8, 1))
    params = init_model(MlpSpec(WIDTHS), Rng(201))
    ds = scn.target_train
    n = len(ds)
    cfg = SgdConfig(lr=0.05, momentum=0.9, weight_decay=0.0, batch_size=n, epochs=1)
    lol = LolConfig(subsets=1, leave_k=0, local_budget=1.0, outer_step=1.0)
    loss = CompositeLoss(LossSpec())
    out = lolsgd_round(params, ds, loss, cfg, lol, FreezeMask.all_trainable(), Rng(9))

    pick = Rng(9).derive("subset-0").derive("batches").choice(n, size=n, replace=False)
    ref = params.clone()
    tr = forward(ref, ds.X[pick], mode="train", update_stats=False)
    _, g = cross_entropy(tr.logits, ds.y[pick])
    grads = backward(ref, tr, g, FreezeMask.all_trainable())
    sgd_step(ref, grads, {}, cfg, FreezeMask.all_trainable())

    gap = max(np.max(np.abs(out[k] - ref[k])) for k in ref.keys())
    elapsed = time.time() - t0
    _say("2 lolsgd-degeneracy", gap <= 1e-12 and elapsed < 5.0,
         f"max elementwise gap {gap:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


# ------------------------------------------------ criteria 3..6: orderings

def test_criterion_3_naive_fine_tuning_forgets(grid):
    src_u = _mean(grid["source"], "unseen_acc")
    naive_u = _mean(grid["final"]["naive_ft"], "unseen_acc")
    ok = naive_u <= src_u - 0.20 and grid["elapsed"] < 180.0
    _say("3 forgetting-reproduction", ok,
         f"naive unseen {naive_u:.3f} <= source unseen {src_u:.3f} - 0.20, "
         f"grid took {grid['elapsed']:.0f}s < 180s")


def test_criterion_4_frozen_classifier_helps(grid):
    naive_u = _mean(grid["final"]["naive_ft"], "unseen_acc")
    frozen_u = _mean(grid["final"]["frozen_ft"], "unseen_acc")
    _say("4 frozen-classifier-effect", frozen_u >= naive_u + 0.10,
         f"frozen unseen {frozen_u:.3f} >= naive unseen {naive_u:.3f} + 0.10")


def test_criterion_5_method_ordering(grid):
    naive_u = _mean(grid["final"]["naive_ft"], "unseen_acc")
    frozen_u = _mean(grid["final"]["frozen_ft"], "unseen_acc")
    lol_u = _mean(grid["final"]["lolsgd"], "unseen_acc")
    ldr_u = _mean(grid["final"]["lolsgd_distill_rank"], "unseen_acc")
    ldr_o = _mean(grid["final"]["lolsgd_distill_rank"], "overall_acc")
    src_o = _mean(grid["source"], "overall_acc")
    order_ok = ldr_u >= lol_u >= frozen_u > naive_u
    win_ok = ldr_o >= src_o
    _say("5 method-ordering", order_ok and win_ok and grid["elapsed"] < 900.0,
         f"unseen {ldr_u:.3f} >= {lol_u:.3f} >= {frozen_u:.3f} > {naive_u:.3f}; "
         f"overall {ldr_o:.3f} >= source {src_o:.3f}; {grid['elapsed']:.0f}s < 900s")


def test_criterion_6_rank_collapse_diagnostic(grid):
    src_er = _mean(grid["source"], "effective_rank")
    naive_er = _mean(grid["final"]["naive_ft"], "effective_rank")
    rank_er = _mean(grid["final"]["sgd_rank"], "effective_rank")
    ok = naive_er <= src_er and rank_er >= naive_er
    _say("6 rank-collapse-diagnostic", ok,
         f"naive rank {naive_er:.1f} <= source {src_er:.1f}; "
         f"rank-regularized {rank_er:.1f} >= naive {naive_er:.1f}")


# ------------------------------------------------ criterion 7: ensembles

def test_criterion_7_ensemble_endpoints_and_rescue(grid):
    endpoint_ok = True
    rescue_ok = True
    details = []
    for seed in SEEDS:
        scn, src, run = grid["runs"][("naive_ft", seed)]
        tgt = run.final_params
        y = scn.target_test.y

        def acc_of(scores):
            return float(np.mean(np.argmax(scores, axis=1) == y))

        src_acc = acc_of(forward(src, scn.target_test.X, mode="eval").logits)
        tgt_acc = acc_of(forward(tgt, scn.target_test.X, mode="eval").logits)
        # prediction-space endpoints
        endpoint_ok &= acc_of(se_predict(src, tgt, scn.target_test.X, 1.0)) == src_acc
        endpoint_ok &= acc_of(se_predict(src, tgt, scn.target_test.X, 0.0)) == tgt_acc
        # weight-space endpoints
        w1 = wise_merge(src, tgt, 1.0)
        w0 = wise_merge(src, tgt, 0.0)
        endpoint_ok &= acc_of(forward(w1, scn.target_test.X, mode="eval").logits) == src_acc
        endpoint_ok &= acc_of(forward(w0, scn.target_test.X, mode="eval").logits) == tgt_acc
        # alpha = 0.5 prediction ensemble rescues unseen accuracy
        se_rep = report_from_scores(se_predict(src, tgt, scn.target_test.X, 0.5),
                                    EvalSet(scn.target_test, scn.seen_mask))
        naive_rep = run.curve[-1]
        rescue_ok &= se_rep.unseen_acc > naive_rep.unseen_acc
        details.append(f"seed{seed} SE@0.5 unseen {se_rep.unseen_acc:.3f} > "
                       f"naive {naive_rep.unseen_acc:.3f}")
    _say("7 ensemble-endpoints", endpoint_ok and rescue_ok,
         "endpoints exact; " + "; ".join(details))


# ------------------------------------------------ criterion 8: toxicity

def test_criterion_8_false_negative_case_study(toxicity_grid):
    src_f = _mean(toxicity_grid["source"], "false_negative_rate")
    naive_f = _mean(toxicity_grid["naive_ft"], "false_negative_rate")
    ldr_f = _mean(toxicity_grid["lolsgd_distill_rank"], "false_negative_rate")
    ok = naive_f >= src_f and ldr_f <= naive_f
    _say("8 false-negative-case-study", ok,
         f"naive FNR {naive_f:.3f} >= source FNR {src_f:.3f}; "
         f"regularized FNR {ldr_f:.3f} <= naive FNR {naive_f:.3f}")


# ------------------------------------------------ criterion 9: determinism

ACCEPT_CONFIG = """
[scenario]
kind = synthetic
classes = 10
seen = 6
dim = 16
source_per_class = 40
train_per_class = 20
test_per_class = 10
cluster_sep = 5.0
style_angle = 0.8
style_shift = 1.0
style_noise = 0.2
seed = 0

[model]
hidden = 24,24

[protocols]
names = source_only,naive_ft,frozen_ft

[pretrain]
lr = 0.02
epochs = 8

[sgd]
lr = 0.02
momentum = 0.9
weight_decay = 0.01
batch_size = 32
epochs = 3

[run]
seeds = 0,1,2
output_dir = {out}
k_spectrum = 8
"""


def test_criterion_9_runner_determinism(tmp_path):
    out = str(tmp_path / "results")
    cfg = str(tmp_path / "exp.ini")
    with open(cfg, "w") as f:
        f.write(ACCEPT_CONFIG.format(out=out))
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "summary.csv"), "rb") as f:
        first = f.read()
    assert main(["run", "--config", cfg]) == 0
    with open(os.path.join(out, "summary.csv"), "rb") as f:
        second = f.read()
    identical = first == second

    with open(os.path.join(out, "curves.csv")) as f:
        lines = [ln.split(",") for ln in f.read().splitlines() if ln]
    header = lines[0]
    rows = [dict(zip(header, ln)) for ln in lines[1:]]
    epoch0_ok = True
    for seed in ("0", "1", "2"):
        src = [r for r in rows if r["protocol"] == "source_only" and r["seed"] == seed][0]
        for proto in ("naive_ft", "frozen_ft"):
            head = [r for r in rows if r["protocol"] == proto
                    and r["seed"] == seed and r["epoch"] == "0"][0]
            epoch0_ok &= all(src[c] == head[c] for c in header[4:])
    _say("9 determinism-and-bookkeeping", identical and epoch0_ok,
         f"rerun byte-identical: {identical}; epoch-0 rows equal source rows: {epoch0_ok}")


# ------------------------------------- module invariant: bias cancellation

def test_diagnostic_concept_shift_cancellation():
    """Leave-out averaging keeps seen-class accuracy at or below a
    full-data oracle's while naive fine-tuning overshoots it.

    Exercised at cluster separation 3.5: at the reference separation the
    seen-class ceiling (~99%) quantizes the naive-vs-oracle comparison to
    single test samples, so the harder variant is used for resolution.
    """
    curves = {"naive_ft": [], "lolsgd": [], "oracle": []}
    for seed in SEEDS:
        scn = _reference_scenario(seed, cluster_sep=3.5)
        src = pretrain_source(scn, MlpSpec(WIDTHS), PRETRAIN, Rng(seed).derive("source"))
        for kind in ("naive_ft", "lolsgd"):
            proto = Protocol(kind=kind, sgd=ADAPT, lol=LOL)
            [run] = run_protocol(scn.target_train, scn.target_test, scn.seen_mask,
                                 [src], proto, [seed])
            curves[kind].append([r.seen_acc for r in run.curve])
        # fresh full-class target-style data of the same per-class size
        full = _reference_scenario(seed, per_class=(1, 1, 60), cluster_sep=3.5).target_test
        [run] = run_protocol(full, scn.target_test, scn.seen_mask, [src],
                             Protocol(kind="naive_ft", sgd=ADAPT), [seed])
        curves["oracle"].append([r.seen_acc for r in run.curve])
    naive = np.mean(curves["naive_ft"], axis=0)[-5:]
    lol = np.mean(curves["lolsgd"], axis=0)[-5:]
    oracle = np.mean(curves["oracle"], axis=0)[-5:]
    assert np.all(naive >= oracle), f"naive {naive} should exceed oracle {oracle}"
    assert np.all(lol <= oracle), f"leave-out {lol} should stay below oracle {oracle}"
