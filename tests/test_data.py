import os

import numpy as np
import pytest
from scipy import stats

from htlab.data import (
    Dataset,
    HTScenario,
    StyleTransform,
    ToxicityMap,
    gen_paired_toxicity_scenario,
    gen_synthetic_scenario,
    load_idx,
    load_scenario,
    make_ht_split,
    save_scenario,
    write_idx_images,
    write_idx_labels,
)
from htlab.numkit import Rng


def ref_scenario(seed=7, per_class=(50, 20, 10)):
    style = StyleTransform.rotation_shift(8, angle=0.4, shift=1.0, noise_sigma=0.1)
    return gen_synthetic_scenario(num_classes=6, num_seen=4, dim=8,
                                  per_class=per_class, cluster_sep=5.0,
                                  style=style, seed=seed)


# ------------------------------------------------------------ generator

def test_generator_deterministic_byte_identical():
    a, b = ref_scenario(), ref_scenario()
    for part in ("source_train", "target_train", "target_test"):
        assert np.array_equal(getattr(a, part).X, getattr(b, part).X)
        assert np.array_equal(getattr(a, part).y, getattr(b, part).y)
    assert np.array_equal(a.seen_mask, b.seen_mask)


def test_generator_invariants_hold():
    s = ref_scenario()
    s.validate()
    seen = np.flatnonzero(s.seen_mask)
    assert set(np.unique(s.target_train.y)) <= set(seen)
    assert set(np.unique(s.target_test.y)) == set(range(6))
    assert set(np.unique(s.source_train.y)) == set(range(6))
    # unseen classes carry zero training mass, positive test mass
    hist_train = np.bincount(s.target_train.y, minlength=6)
    hist_test = np.bincount(s.target_test.y, minlength=6)
    assert np.all(hist_train[~s.seen_mask] == 0)
    assert np.all(hist_test > 0)


def test_generator_seen_count_30_of_65():
    style = StyleTransform.identity(4)
    s = gen_synthetic_scenario(65, 30, 4, (2, 2, 1), 8.0, style, seed=3)
    assert int(s.seen_mask.sum()) == 30


def test_generator_min_cluster_separation():
    s = ref_scenario()
    # recover class means from source samples (50 per class, sigma 1)
    means = np.stack([s.source_train.X[s.source_train.y == c].mean(axis=0)
                      for c in range(6)])
    d = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    d = d[np.triu_indices(6, 1)]
    assert d.min() > 5.0 - 1.5  # sample means wander by ~sigma/sqrt(50)


def test_identity_style_is_noop():
    style = StyleTransform.identity(8)
    X = Rng(1).standard_normal((5, 8))
    assert np.array_equal(style.apply(X), X)
    s = gen_synthetic_scenario(4, 2, 8, (30, 30, 30), 6.0, style, seed=1)
    # same class-conditional distribution: compare per-class sample means
    for c in np.flatnonzero(s.seen_mask):
        mu_src = s.source_train.X[s.source_train.y == c].mean(axis=0)
        mu_tgt = s.target_train.X[s.target_train.y == c].mean(axis=0)
        assert np.linalg.norm(mu_src - mu_tgt) < 1.2  # ~ 2 * sigma/sqrt(30) * sqrt(d)


def test_generator_rejects_degenerate_seen_counts():
    style = StyleTransform.identity(4)
    with pytest.raises(ValueError, match="no unseen classes"):
        gen_synthetic_scenario(5, 5, 4, (1, 1, 1), 4.0, style, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic_scenario(5, 0, 4, (1, 1, 1), 4.0, style, seed=0)


def test_seen_mask_sampling_is_uniform():
    # chi-square over 200 seeds: each class should be seen ~ num_seen/C of the time
    style = StyleTransform.identity(4)
    counts = np.zeros(6)
    for seed in range(200):
        s = gen_synthetic_scenario(6, 3, 4, (1, 1, 1), 4.0, style, seed=seed)
        counts += s.seen_mask
    expected = 200 * 3 / 6
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = stats.chi2.sf(chi2, df=5)
    assert p > 0.001


def test_style_transform_rejects_singular_matrix():
    A = np.zeros((3, 3))
    with pytest.raises(ValueError, match="singular"):
        StyleTransform(A, np.zeros(3))


# ------------------------------------------------------------ IDX format

def test_idx_round_trip(tmp_path):
    rng = Rng(5)
    n = 10_000
    images = rng.integers(0, 256, size=(n, 2, 2)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    ds = load_idx(ip, lp)
    assert len(ds) == n
    assert ds.dim == 4
    assert np.array_equal(ds.y, labels.astype(np.int64))
    assert np.array_equal(ds.X, images.reshape(n, 4) / 255.0)


def test_idx_wrong_magic_rejected(tmp_path):
    p = str(tmp_path / "bad.idx")
    with open(p, "wb") as f:
        f.write(b"\x00\x00\x09\x99" + b"\x00" * 12)
    lp = str(tmp_path / "lab.idx")
    write_idx_labels(lp, np.zeros(0, dtype=np.uint8))
    with pytest.raises(ValueError, match="not IDX"):
        load_idx(p, lp)


def test_idx_count_mismatch_rejected(tmp_path):
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, np.zeros((4, 2, 2), dtype=np.uint8))
    write_idx_labels(lp, np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx(ip, lp)


def test_idx_truncated_rejected(tmp_path):
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, np.zeros((4, 2, 2), dtype=np.uint8))
    write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
    with open(ip, "rb") as f:
        raw = f.read()
    with open(ip, "wb") as f:
        f.write(raw[:-3])
    with pytest.raises(ValueError, match="truncated"):
        load_idx(ip, lp)



@pytest.mark.parametrize("edit, message", [(lambda raw: raw[:-1], "truncated"),
                                           (lambda raw: raw + b"\x00", "trailing bytes")],
                         ids=["truncated", "trailing-byte"])
def test_scenario_label_file_length_checked(tmp_path, edit, message):
    out = str(tmp_path / "scn")
    save_scenario(ref_scenario(), out)
    path = os.path.join(out, "target_train_y.idx")
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(edit(raw))
    with pytest.raises(ValueError, match=message):
        load_scenario(out)


# ------------------------------------------------------------ splits

def _tagged_dataset():
    # feature value encodes the sample id so partitions are checkable
    n_per = [10, 10, 10, 1]
    X, y = [], []
    sid = 0
    for c, n in enumerate(n_per):
        for _ in range(n):
            X.append([float(sid), float(c)])
            y.append(c)
            sid += 1
    return Dataset(np.array(X), np.array(y), 4)


def test_split_ratio_seven_three():
    full = _tagged_dataset()
    res = make_ht_split(full, seen_classes=[0, 1], train_ratio=0.7, seed=3)
    train_c0 = np.sum(res.target_train.y == 0)
    assert train_c0 == 7
    test_c0 = np.sum(res.target_test.y == 0)
    assert test_c0 == 3


def test_split_partition_property():
    full = _tagged_dataset()
    res = make_ht_split(full, seen_classes=[0, 1], train_ratio=0.7, seed=3)
    # train ids (before the seen filter) + test ids must partition the input;
    # check via the per-class counts and id-disjointness of what is emitted
    train_ids = set(res.target_train.X[:, 0].astype(int))
    test_ids = set(res.target_test.X[:, 0].astype(int))
    assert not (train_ids & test_ids)
    all_ids = set(range(len(full)))
    unseen_train_ids = all_ids - train_ids - test_ids
    # ids missing from both sides are exactly the train-side samples of
    # unseen classes, which the seen filter drops
    for sid in unseen_train_ids:
        assert int(full.X[sid, 1]) not in (0, 1)


def test_split_small_class_goes_to_test_with_warning():
    full = _tagged_dataset()  # class 3 has a single sample
    res = make_ht_split(full, seen_classes=[0, 1], train_ratio=0.7, seed=3)
    assert any("class 3" in w for w in res.warnings)
    assert np.sum(res.target_test.y == 3) == 1


def test_split_rejects_all_seen():
    full = _tagged_dataset()
    with pytest.raises(ValueError, match="no unseen classes"):
        make_ht_split(full, seen_classes=[0, 1, 2, 3], train_ratio=0.7, seed=3)


def test_split_filters_train_to_seen():
    full = _tagged_dataset()
    res = make_ht_split(full, seen_classes=[0, 2], train_ratio=0.5, seed=9)
    assert set(np.unique(res.target_train.y)) <= {0, 2}
    assert set(np.unique(res.target_test.y)) == {0, 1, 2, 3}


# ------------------------------------------------------------ paired toxicity

def test_paired_scenario_shape():
    s, tox = gen_paired_toxicity_scenario(6, dim=8, per_class=(20, 10, 8),
                                          pair_overlap=0.6, seed=2)
    assert s.num_classes == 12
    assert int(s.seen_mask.sum()) == 6
    assert np.array_equal(np.flatnonzero(s.seen_mask), np.sort(tox.non_toxic_classes()))
    s.validate()


def test_paired_scenario_overlap_zero_is_unconfusable():
    s, tox = gen_paired_toxicity_scenario(4, dim=10, per_class=(30, 5, 5),
                                          pair_overlap=0.0, seed=11, cluster_sep=6.0)
    means = np.stack([s.source_train.X[s.source_train.y == c].mean(axis=0)
                      for c in range(8)])
    for t, n in tox.pairs:
        within = np.linalg.norm(means[t] - means[n])
        assert within > 6.0 - 1.5  # pair distance ~ cluster_sep


def test_paired_scenario_overlap_brings_pairs_close():
    sep, ovl = 6.0, 0.6
    s, tox = gen_paired_toxicity_scenario(4, dim=10, per_class=(40, 5, 5),
                                          pair_overlap=ovl, seed=11, cluster_sep=sep)
    means = np.stack([s.source_train.X[s.source_train.y == c].mean(axis=0)
                      for c in range(8)])
    for t, n in tox.pairs:
        within = np.linalg.norm(means[t] - means[n])
        assert abs(within - (1 - ovl) * sep) < 1.0


def test_toxicity_map_rejects_duplicates():
    with pytest.raises(ValueError):
        ToxicityMap([(0, 1), (1, 2)])


# ------------------------------------------------------------ scenario I/O

def test_scenario_round_trip_exact(tmp_path):
    s = ref_scenario()
    out = str(tmp_path / "scn")
    save_scenario(s, out)
    loaded = load_scenario(out)
    for part in ("source_train", "target_train", "target_test"):
        assert np.array_equal(getattr(s, part).X, getattr(loaded, part).X)
        assert np.array_equal(getattr(s, part).y, getattr(loaded, part).y)
    assert np.array_equal(s.seen_mask, loaded.seen_mask)
    assert loaded.seed == s.seed
    assert loaded.scenario_id == s.scenario_id


def test_scenario_round_trip_with_toxicity(tmp_path):
    s, tox = gen_paired_toxicity_scenario(3, dim=6, per_class=(5, 4, 3),
                                          pair_overlap=0.5, seed=4)
    out = str(tmp_path / "scn")
    save_scenario(s, out)
    loaded = load_scenario(out)
    assert loaded.toxicity is not None
    assert loaded.toxicity.pairs == tox.pairs


def test_scenario_quantized_round_trip(tmp_path):
    # real-data path: features live in [0, 1] and survive u8 quantization
    rng = Rng(8)
    def mk(n, c):
        X = rng.uniform((n, 4))
        y = np.arange(n) % c
        return Dataset(np.rint(X * 255) / 255.0, y, c)
    s = HTScenario(source_train=mk(12, 3), target_train=Dataset(
        np.rint(rng.uniform((6, 4)) * 255) / 255.0, np.zeros(6, dtype=int), 3),
        target_test=mk(9, 3), seen_mask=[True, False, False], seed=1,
        scenario_id="quant")
    out = str(tmp_path / "scn")
    save_scenario(s, out, quantize=True)
    loaded = load_scenario(out)
    assert np.array_equal(loaded.source_train.X, s.source_train.X)
    assert np.array_equal(loaded.target_test.y, s.target_test.y)


def test_save_refuses_nonempty_dir(tmp_path):
    s = ref_scenario()
    out = str(tmp_path / "scn")
    save_scenario(s, out)
    with pytest.raises(FileExistsError):
        save_scenario(s, out)
    save_scenario(s, out, force=True)  # force overwrites


def test_scenario_validation_catches_leaks():
    s = ref_scenario()
    bad_train = Dataset(s.target_test.X, s.target_test.y, 6)  # has unseen labels
    with pytest.raises(ValueError, match="unseen-class"):
        HTScenario(source_train=s.source_train, target_train=bad_train,
                   target_test=s.target_test, seen_mask=s.seen_mask, seed=0)
