import os
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
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
    read_f64,
    save_scenario,
    write_f64,
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
    style = StyleTransform(np.eye(4), np.zeros(4))
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
    style = StyleTransform(np.eye(8), np.zeros(8))
    X = Rng(1).standard_normal((5, 8))
    assert np.array_equal(style.apply(X, Rng(2)), X)
    s = gen_synthetic_scenario(4, 2, 8, (30, 30, 30), 6.0, style, seed=1)
    # same class-conditional distribution: compare per-class sample means
    for c in np.flatnonzero(s.seen_mask):
        mu_src = s.source_train.X[s.source_train.y == c].mean(axis=0)
        mu_tgt = s.target_train.X[s.target_train.y == c].mean(axis=0)
        assert np.linalg.norm(mu_src - mu_tgt) < 1.2  # ~ 2 * sigma/sqrt(30) * sqrt(d)


def test_generator_rejects_degenerate_seen_counts():
    style = StyleTransform(np.eye(4), np.zeros(4))
    with pytest.raises(ValueError, match="no unseen classes"):
        gen_synthetic_scenario(5, 5, 4, (1, 1, 1), 4.0, style, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic_scenario(5, 0, 4, (1, 1, 1), 4.0, style, seed=0)


def test_seen_mask_sampling_is_uniform():
    # chi-square over 200 seeds: each class should be seen ~ num_seen/C of the time
    style = StyleTransform(np.eye(4), np.zeros(4))
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

def write_idx_images(path, images):
    """Write u8 images of shape (N, rows, cols) in IDX format, the form in
    which real image data reaches htlab; htlab itself writes none."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, *images.shape))
        f.write(images.tobytes())


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



@pytest.mark.parametrize("count, rows, cols, field", [
    (4, -2, -2, "rows"),  # with 16 pixel bytes this used to load as a 4 x 4 dataset
    (-1, 2, 2, "count"),  # this used to fail as a truncated file
    (4, 2, -2, "cols"),
])
def test_idx_negative_header_size_rejected(tmp_path, count, rows, cols, field):
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    with open(ip, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, count, rows, cols) + bytes(16))
    write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match=f"^{re.escape(ip)}: negative {field} "):
        load_idx(ip, lp)


def test_idx_negative_label_count_rejected(tmp_path):
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, np.zeros((4, 2, 2), dtype=np.uint8))
    with open(lp, "wb") as f:
        f.write(struct.pack(">ii", 0x801, -1) + bytes(4))
    with pytest.raises(ValueError, match=f"^{re.escape(lp)}: negative count "):
        load_idx(ip, lp)


# Round trips, and a reader that rejects, naming the file, any cut of a file
# and any flipped bit of its header (whose sizes then disagree with the file)

_READER_PROPERTIES = settings(max_examples=60, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


def _write(path, raw):
    with open(path, "wb") as f:
        f.write(raw)


def _assert_cut_and_flip_rejected(data, path, header_bytes, read):
    raw = _bytes(path)
    _write(path, raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ValueError, match=re.escape(path)):
        read()
    bit = data.draw(st.integers(0, 8 * header_bytes - 1), label="header bit")
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _write(path, bytes(flipped))
    with pytest.raises(ValueError, match=re.escape(path)):
        read()
    _write(path, raw)


@_READER_PROPERTIES
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2**32),
       data=st.data())
def test_f64_round_trips_and_any_cut_or_header_flip_is_rejected(tmp_path, rows, cols,
                                                                seed, data):
    X = Rng(seed).standard_normal((rows, cols))
    path = str(tmp_path / "x.f64")
    write_f64(path, X)
    assert read_f64(path).tobytes() == X.tobytes()
    _assert_cut_and_flip_rejected(data, path, 12, lambda: read_f64(path))


@_READER_PROPERTIES
@given(n=st.integers(1, 6), rows=st.integers(1, 4), cols=st.integers(1, 4),
       seed=st.integers(0, 2**32), data=st.data())
def test_idx_round_trips_and_any_cut_or_header_flip_is_rejected(tmp_path, n, rows, cols,
                                                                seed, data):
    rng = Rng(seed)
    images = rng.integers(0, 256, size=(n, rows, cols)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    ds = load_idx(ip, lp)
    assert np.array_equal(ds.X, images.reshape(n, rows * cols) / 255.0)
    assert np.array_equal(ds.y, labels)
    for path, header_bytes in ((ip, 16), (lp, 8)):
        _assert_cut_and_flip_rejected(data, path, header_bytes, lambda: load_idx(ip, lp))


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


@pytest.mark.parametrize("key, line", [
    ("num_classes", "num_classes = 0"),
    ("seed", None),
    ("seen", "seen = 0,x"),
    ("toxic_pairs", "toxic_pairs = 0:1,2"),
    ("toxic_pairs", "toxic_pairs = 0:1,2:7"),
])
def test_scenario_meta_key_rejected_naming_it(tmp_path, key, line):
    s, _ = gen_paired_toxicity_scenario(3, dim=6, per_class=(5, 4, 3),
                                        pair_overlap=0.5, seed=4)
    out = str(tmp_path / "scn")
    save_scenario(s, out)
    meta = os.path.join(out, "meta")
    with open(meta) as f:
        lines = [ln for ln in f.read().splitlines() if not ln.startswith(f"{key} = ")]
    with open(meta, "w") as f:
        f.write("\n".join(lines + ([line] if line else [])) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(meta)}: {key} "):
        load_scenario(out)


def test_scenario_quantized_round_trip(tmp_path):
    # real-data path: a format = idx directory of u8 images, read scaled to
    # [0, 1]; features that are multiples of 1/255 come back exactly
    rng = Rng(8)

    def mk(y):
        return Dataset(rng.integers(0, 256, size=(len(y), 4)) / 255.0, y, 3)

    s = HTScenario(source_train=mk(np.arange(12) % 3), target_train=mk(np.zeros(6, int)),
                   target_test=mk(np.arange(9) % 3), seen_mask=[True, False, False],
                   seed=1, scenario_id="quant")
    out = tmp_path / "scn"
    out.mkdir()
    meta = ["format = idx", "scenario_id = quant", "num_classes = 3", "dim = 4", "seed = 1",
            "seen = 0"]
    for name in ("source_train", "target_train", "target_test"):
        ds = getattr(s, name)
        meta.append(f"count_{name} = {len(ds)}")
        write_idx_images(out / f"{name}_x.idx", np.rint(ds.X * 255).reshape(len(ds), 4, 1))
        write_idx_labels(out / f"{name}_y.idx", ds.y)
    (out / "meta").write_text("\n".join(meta) + "\n")
    loaded = load_scenario(str(out))
    for name in ("source_train", "target_train", "target_test"):
        assert np.array_equal(getattr(loaded, name).X, getattr(s, name).X)
        assert np.array_equal(getattr(loaded, name).y, getattr(s, name).y)
    assert np.array_equal(loaded.seen_mask, s.seen_mask)
    assert (loaded.seed, loaded.scenario_id) == (1, "quant")


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
