import numpy as np
import pytest

from htlab.data import Dataset, ToxicityMap
from htlab.metrics import aggregate_seeds, effective_rank, evaluate, report_from_scores
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
    rep = evaluate(nearest_mean_model(means), ds, SEEN, toxicity=TOX)
    assert rep.overall_acc == 1.0
    assert rep.seen_acc == 1.0 and rep.unseen_acc == 1.0
    assert rep.seen_chopped_acc == 1.0
    assert rep.false_negative_rate == 0.0


def test_constant_predictor_collapse():
    means = _means()
    ds = _grid_dataset(means, 10, sigma=0.5)
    rep = evaluate(constant_model(8, 4, c=0), ds, SEEN, toxicity=TOX)
    assert rep.unseen_acc == 0.0
    assert rep.seen_acc == 0.5  # only class 0 is right
    assert rep.false_negative_rate == 1.0  # toxic -> class 0, a non-toxic class


def test_accuracy_decomposition_identity_random_model():
    means = _means()
    ds = _grid_dataset(means, 13, sigma=4.0)
    rng = Rng(101)
    for trial in range(5):
        p = init_model(MlpSpec((8, 6, 4)), rng.derive(trial))
        rep = evaluate(p, ds, SEEN)
        recomposed = (rep.n_seen * rep.seen_acc + rep.n_unseen * rep.unseen_acc) \
            / (rep.n_seen + rep.n_unseen)
        assert abs(rep.overall_acc - recomposed) < 1e-12


def test_chopped_never_below_seen_accuracy():
    means = _means()
    ds = _grid_dataset(means, 17, sigma=6.0)
    rng = Rng(102)
    for trial in range(10):
        p = init_model(MlpSpec((8, 6, 4)), rng.derive(trial))
        rep = evaluate(p, ds, SEEN)
        assert rep.seen_chopped_acc >= rep.seen_acc


def test_fnr_counts_only_toxic_denominator():
    means = _means()
    ds = _grid_dataset(means, 10, sigma=0.5)
    # constant predictor on class 2 (toxic): toxic samples stay in the toxic
    # set, so FNR is 0 even though everything else is wrong
    rep = evaluate(constant_model(8, 4, c=2), ds, SEEN, toxicity=TOX)
    assert rep.false_negative_rate == 0.0
    assert rep.false_negative_rate is not None


def test_evaluate_requires_both_sides():
    means = _means()
    ds = _grid_dataset(means, 5, sigma=0.5)
    only_seen = ds.subset(np.flatnonzero(SEEN[ds.y]))
    with pytest.raises(ValueError, match="both seen and unseen"):
        evaluate(nearest_mean_model(means), only_seen, SEEN)
    with pytest.raises(ValueError, match="empty"):
        evaluate(nearest_mean_model(means), ds.subset(np.array([], dtype=int)), SEEN)


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
    a = evaluate(p, ds, SEEN, toxicity=TOX)
    b = report_from_scores(logits, ds, SEEN, toxicity=TOX)
    assert a.overall_acc == b.overall_acc
    assert a.seen_chopped_acc == b.seen_chopped_acc
    assert a.false_negative_rate == b.false_negative_rate
    assert len(b.spectrum) == 0 and np.isnan(b.effective_rank)


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
