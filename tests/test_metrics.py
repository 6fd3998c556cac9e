import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from htlab.data import Dataset, ToxicityMap
from htlab.metrics import (
    EvalSet,
    accuracy_views,
    aggregate_seeds,
    effective_rank,
    evaluate,
    report_from_scores,
)
from htlab.model import MlpSpec, ModelParams, init_model
from htlab.numkit import Rng, Spectrum


def nearest_mean_model(means: np.ndarray) -> ModelParams:
    """Hand-built net whose logits are mu_c . x - |mu_c|^2 / 2, i.e. an
    exact nearest-mean classifier (relu trick: hidden = [x+, x-])."""
    C, d = means.shape
    spec = MlpSpec((d, 2 * d, C))
    p = init_model(spec, Rng(0))
    p["layers.0.W"] = np.hstack([np.eye(d), -np.eye(d)])
    p["layers.0.b"] = np.zeros(2 * d)
    p["layers.1.W"] = np.vstack([means.T, -means.T])
    p["layers.1.b"] = -0.5 * np.sum(means**2, axis=1)
    return p


def constant_model(d: int, C: int, c: int) -> ModelParams:
    p = init_model(MlpSpec((d, 2, C)), Rng(0))
    p["layers.0.W"] = np.zeros((d, 2))
    p["layers.1.W"] = np.zeros((2, C))
    b = np.zeros(C)
    b[c] = 10.0
    p["layers.1.b"] = b
    return p


def _grid_dataset(means, n_per, sigma, seed=100):
    C, d = means.shape
    rng = Rng(seed)
    X = np.concatenate([means[c] + sigma * rng.standard_normal((n_per, d))
                        for c in range(C)])
    y = np.repeat(np.arange(C), n_per)
    return Dataset(X, y, C)


SEEN = np.array([True, True, False, False])
TOX = ToxicityMap([(2, 0), (3, 1)])  # toxic 2,3; non-toxic (seen) 0,1


def _means(scale=20.0):
    return scale * np.eye(4)[:, :4].repeat(2, axis=1)[:, :8]  # 4 well-separated means in R^8


def test_perfect_model_scores_ones():
    means = _means()
    ds = _grid_dataset(means, 25, sigma=0.5)
    rep = evaluate(nearest_mean_model(means), EvalSet(ds, SEEN, TOX))
    assert rep.overall_acc == 1.0
    assert rep.seen_acc == 1.0 and rep.unseen_acc == 1.0
    assert rep.seen_chopped_acc == 1.0
    assert rep.false_negative_rate == 0.0


def test_constant_predictor_collapse():
    means = _means()
    ds = _grid_dataset(means, 10, sigma=0.5)
    rep = evaluate(constant_model(8, 4, c=0), EvalSet(ds, SEEN, TOX))
    assert rep.unseen_acc == 0.0
    assert rep.seen_acc == 0.5  # only class 0 is right
    assert rep.false_negative_rate == 1.0  # toxic -> class 0, a non-toxic class


def test_accuracy_decomposition_identity_random_model():
    means = _means()
    ds = _grid_dataset(means, 13, sigma=4.0)
    rng = Rng(101)
    for trial in range(5):
        p = init_model(MlpSpec((8, 6, 4)), rng.derive(trial))
        rep = evaluate(p, EvalSet(ds, SEEN))
        recomposed = (rep.n_seen * rep.seen_acc + rep.n_unseen * rep.unseen_acc) \
            / (rep.n_seen + rep.n_unseen)
        assert abs(rep.overall_acc - recomposed) < 1e-12


def test_chopped_never_below_seen_accuracy():
    means = _means()
    ds = _grid_dataset(means, 17, sigma=6.0)
    rng = Rng(102)
    for trial in range(10):
        p = init_model(MlpSpec((8, 6, 4)), rng.derive(trial))
        rep = evaluate(p, EvalSet(ds, SEEN))
        assert rep.seen_chopped_acc >= rep.seen_acc


def test_fnr_counts_only_toxic_denominator():
    means = _means()
    ds = _grid_dataset(means, 10, sigma=0.5)
    # constant predictor on class 2 (toxic): toxic samples stay in the toxic
    # set, so FNR is 0 even though everything else is wrong
    rep = evaluate(constant_model(8, 4, c=2), EvalSet(ds, SEEN, TOX))
    assert rep.false_negative_rate == 0.0
    assert rep.false_negative_rate is not None


def _reference_views(scores, y, seen_mask, toxicity):
    """The accuracy views as bool.mean() over freshly built masks."""
    preds = np.argmax(scores, axis=1)
    is_seen = seen_mask[y]
    correct = preds == y
    cols = np.flatnonzero(seen_mask)
    chop_preds = cols[np.argmax(scores[is_seen][:, cols], axis=1)]
    out = {"overall_acc": float(correct.mean()),
           "seen_acc": float(correct[is_seen].mean()),
           "unseen_acc": float(correct[~is_seen].mean()),
           "seen_chopped_acc": float((chop_preds == y[is_seen]).mean()),
           "n_seen": int(is_seen.sum()), "n_unseen": int((~is_seen).sum()),
           "false_negative_rate": None}
    if toxicity is not None:
        toxic = np.isin(y, toxicity.toxic_classes())
        out["false_negative_rate"] = float(
            np.isin(preds[toxic], toxicity.non_toxic_classes()).mean())
    return out


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2**32), toxic=st.booleans())
def test_accuracy_views_equal_bool_means(n, seed, toxic):
    rng = Rng(seed)
    y = np.concatenate([[0, 2], rng.integers(0, 4, size=n - 2)])  # seen and unseen rows
    # ties in small integer scores check that the lowest class still wins
    scores = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
    tox = TOX if toxic else None
    want = _reference_views(scores, y, SEEN, tox)
    assert accuracy_views(scores, EvalSet(Dataset(np.zeros((n, 1)), y, 4), SEEN, tox)) == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), mask_bits=st.integers(1, 2**5 - 2))
def test_seen_chopped_keeps_a_seen_argmax(seed, mask_bits):
    # a seen row whose argmax over all classes is a seen class keeps that
    # prediction when the unseen columns are dropped: row 0 below, labelled
    # with its own argmax, is right in the seen and in the chopped view
    seen = np.array([bool(mask_bits >> c & 1) for c in range(5)])
    rng = Rng(seed)
    scores = rng.standard_normal((2, 5))
    full = int(np.argmax(scores[0]))
    assume(seen[full])
    y = np.array([full, np.flatnonzero(~seen)[0]])
    views = accuracy_views(scores, EvalSet(Dataset(np.zeros((2, 1)), y, 5), seen))
    assert views["seen_acc"] == views["seen_chopped_acc"] == 1.0


def test_eval_set_requires_both_sides():
    ds = _grid_dataset(_means(), 5, sigma=0.5)
    seen_rows, no_rows = np.flatnonzero(SEEN[ds.y]), np.array([], dtype=int)
    with pytest.raises(ValueError, match="both seen and unseen"):
        EvalSet(Dataset(ds.X[seen_rows], ds.y[seen_rows], ds.num_classes), SEEN)
    with pytest.raises(ValueError, match="empty"):
        EvalSet(Dataset(ds.X[no_rows], ds.y[no_rows], ds.num_classes), SEEN)


def test_effective_rank_threshold():
    assert effective_rank(Spectrum([10.0, 5.0, 0.2, 0.05])) == 3
    assert effective_rank(Spectrum([10.0, 0.09999])) == 1
    assert effective_rank(Spectrum([])) == 0
    assert effective_rank(Spectrum([0.0, 0.0])) == 0


def test_report_from_scores_matches_evaluate_views():
    means = _means()
    ds = _grid_dataset(means, 9, sigma=2.0)
    p = nearest_mean_model(means)
    from htlab.model import forward
    logits = forward(p, ds.X, mode="eval").logits
    test = EvalSet(ds, SEEN, TOX)
    a = evaluate(p, test)
    b = report_from_scores(logits, test)
    assert a.overall_acc == b.overall_acc
    assert a.seen_chopped_acc == b.seen_chopped_acc
    assert a.false_negative_rate == b.false_negative_rate
    assert b.spectrum.values.size == 0 and np.isnan(b.effective_rank)


# ------------------------------------------------------------ aggregation

def _rows(*overall, protocol="naive_ft", fnr=None):
    return [(protocol, seed, {"overall": v, "fnr": fnr[seed] if fnr else None})
            for seed, v in enumerate(overall)]


def test_aggregate_identical_reports_zero_variance():
    agg = aggregate_seeds(_rows(0.4, 0.4, 0.4))["naive_ft"]
    assert abs(agg["overall"]["mean"] - 0.4) < 1e-15
    assert 0.0 <= agg["overall"]["variance"] < 1e-30


def test_aggregate_hand_variance():
    agg = aggregate_seeds(_rows(0.4, 0.6))["naive_ft"]
    assert abs(agg["overall"]["mean"] - 0.5) < 1e-15
    assert abs(agg["overall"]["variance"] - 0.01) < 1e-15


def test_aggregate_order_invariant():
    rows = _rows(0.1, 0.5, 0.9)
    assert aggregate_seeds(rows) == aggregate_seeds(rows[::-1])


def test_aggregate_single_seed_has_no_variance():
    agg = aggregate_seeds(_rows(0.4))["naive_ft"]
    assert agg["seeds"] == [0]
    assert agg["overall"] == {"mean": 0.4}


def test_aggregate_groups_by_protocol():
    rows = _rows(0.4, 0.6) + _rows(0.1, 0.2, 0.3, protocol="frozen_ft") + _rows(0.8)
    table = aggregate_seeds(rows)
    assert list(table) == ["naive_ft", "frozen_ft"]  # first-seen order
    assert table["naive_ft"]["seeds"] == [0, 0, 1]
    assert table["frozen_ft"]["seeds"] == [0, 1, 2]
    assert abs(table["frozen_ft"]["overall"]["mean"] - 0.2) < 1e-15


def test_aggregate_skips_fnr_when_absent():
    agg = aggregate_seeds(_rows(0.4, 0.5))["naive_ft"]
    assert "fnr" not in agg
    agg2 = aggregate_seeds(_rows(0.4, 0.5, fnr=[0.2, 0.4]))["naive_ft"]
    assert abs(agg2["fnr"]["mean"] - 0.3) < 1e-15
