import hashlib
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
    PairedSpec,
    SyntheticSpec,
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


def _counts(source, train, test):
    """The spec fields of the rows per class of each split."""
    return dict(source_per_class=source, train_per_class=train, test_per_class=test)


def ref_scenario(seed=7, per_class=(50, 20, 10)):
    return gen_synthetic_scenario(SyntheticSpec(
        classes=6, seen=4, dim=8, **_counts(*per_class), cluster_sep=5.0,
        style_angle=0.4, style_shift=1.0, style_noise=0.1, seed=seed))


# ------------------------------------------------------------ generator

def test_generator_deterministic_byte_identical():
    a, b = ref_scenario(), ref_scenario()
    for part in ("source_train", "target_train", "target_test"):
        assert np.array_equal(getattr(a, part).X, getattr(b, part).X)
        assert np.array_equal(getattr(a, part).y, getattr(b, part).y)
    assert np.array_equal(a.seen_mask, b.seen_mask)


def test_generators_draw_pinned_bytes():
    # every split, the seen mask and the id of both generators over a grid
    # that reaches one pair (no center draw), style noise off and on, and
    # two count triples; the digest changes with any draw either one makes
    h = hashlib.sha256()

    def add(s):
        for part in ("source_train", "target_train", "target_test"):
            h.update(getattr(s, part).X.astype("<f8").tobytes())
            h.update(getattr(s, part).y.astype("<i8").tobytes())
        h.update(s.seen_mask.tobytes())
        h.update(s.scenario_id.encode())

    for counts in ((5, 4, 3), (2, 1, 3)):
        for noise in (0.0, 0.3):
            add(gen_synthetic_scenario(SyntheticSpec(
                classes=5, seen=2, dim=4, **_counts(*counts), cluster_sep=3.0,
                style_angle=0.4, style_shift=1.0, style_noise=noise, seed=7)))
        for pairs in (1, 3):
            s = gen_paired_toxicity_scenario(PairedSpec(pairs=pairs, dim=4, **_counts(*counts),
                                                        overlap=0.5, seed=7))
            add(s)
            h.update(repr(s.toxicity.pairs).encode())
    assert h.hexdigest() == "312ce40c6235acb6d2fd0b6f60dc8ab37aec164ce2b535c5cd16aeee3042fb0b"


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
    s = gen_synthetic_scenario(SyntheticSpec(classes=65, seen=30, dim=4, **_counts(2, 2, 1),
                                             cluster_sep=8.0, seed=3))
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
    spec = SyntheticSpec(classes=4, seen=2, dim=8, **_counts(30, 30, 30), seed=1)
    X = Rng(1).standard_normal((5, 8))
    assert np.array_equal(spec.restyle(X, Rng(2)), X)
    s = gen_synthetic_scenario(spec)
    # same class-conditional distribution: compare per-class sample means
    for c in np.flatnonzero(s.seen_mask):
        mu_src = s.source_train.X[s.source_train.y == c].mean(axis=0)
        mu_tgt = s.target_train.X[s.target_train.y == c].mean(axis=0)
        assert np.linalg.norm(mu_src - mu_tgt) < 1.2  # ~ 2 * sigma/sqrt(30) * sqrt(d)


@pytest.mark.parametrize("spec, key, fits, past", [
    # the synthetic style rotation is dim x dim: 11585**2 <= 2**27 < 11586**2
    (SyntheticSpec, "dim", 11585, 11586),
    # source_train is classes * source_per_class rows of dim: 10 * 838860 * 16 <= 2**27
    (SyntheticSpec, "source_per_class", 838860, 838861),
    # _class_means' pairwise differences are classes**2 x dim
    (SyntheticSpec, "classes", 2896, 2897),
    # a paired source_train is 2 * pairs * source_per_class rows of dim
    (PairedSpec, "dim", 2**27 // 2400, 2**27 // 2400 + 1),
], ids=["synthetic-dim", "synthetic-source", "synthetic-classes", "paired-dim"])
def test_a_generated_size_is_held_to_the_cap_exactly(spec, key, fits, past):
    # building a spec allocates nothing, so the bound is checked at the cap itself
    assert getattr(spec(**{key: fits}), key) == fits
    with pytest.raises(ValueError, match=rf"^{key} = {past} must keep the scenario's largest "
                                         r"array within 2\*\*27 float64 values$"):
        spec(**{key: past})


def test_generator_rejects_degenerate_seen_counts():
    with pytest.raises(ValueError, match=r"^classes = 5 must be above seen \(5\)$"):
        SyntheticSpec(classes=5, seen=5)
    with pytest.raises(ValueError, match="^seen = 0 must be at least 1$"):
        SyntheticSpec(classes=5, seen=0)


def test_seen_mask_sampling_is_uniform():
    # chi-square over 200 seeds: each class should be seen ~ num_seen/C of the time
    counts = np.zeros(6)
    for seed in range(200):
        s = gen_synthetic_scenario(SyntheticSpec(classes=6, seen=3, dim=4, **_counts(1, 1, 1),
                                                 cluster_sep=4.0, seed=seed))
        counts += s.seen_mask
    expected = 200 * 3 / 6
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    p = stats.chi2.sf(chi2, df=5)
    assert p > 0.001


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
    images = rng.choice(256, (n, 2, 2), replace=True).astype(np.uint8)
    labels = rng.choice(10, n, replace=True).astype(np.uint8)
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
    images = rng.choice(256, (n, rows, cols), replace=True).astype(np.uint8)
    labels = rng.choice(10, n, replace=True).astype(np.uint8)
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
    s = gen_paired_toxicity_scenario(PairedSpec(pairs=6, dim=8, **_counts(20, 10, 8),
                                                overlap=0.6, seed=2))
    assert s.num_classes == 12
    assert int(s.seen_mask.sum()) == 6
    assert np.array_equal(np.flatnonzero(s.seen_mask), np.sort(s.toxicity.non_toxic_classes()))
    s.validate()


def test_paired_scenario_overlap_zero_is_unconfusable():
    s = gen_paired_toxicity_scenario(PairedSpec(pairs=4, dim=10, **_counts(30, 5, 5),
                                                overlap=0.0, seed=11, cluster_sep=6.0))
    means = np.stack([s.source_train.X[s.source_train.y == c].mean(axis=0)
                      for c in range(8)])
    for t, n in s.toxicity.pairs:
        within = np.linalg.norm(means[t] - means[n])
        assert within > 6.0 - 1.5  # pair distance ~ cluster_sep


def test_paired_scenario_overlap_brings_pairs_close():
    sep, ovl = 6.0, 0.6
    s = gen_paired_toxicity_scenario(PairedSpec(pairs=4, dim=10, **_counts(40, 5, 5),
                                                overlap=ovl, seed=11, cluster_sep=sep))
    means = np.stack([s.source_train.X[s.source_train.y == c].mean(axis=0)
                      for c in range(8)])
    for t, n in s.toxicity.pairs:
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
    s = gen_paired_toxicity_scenario(PairedSpec(pairs=3, dim=6, **_counts(5, 4, 3),
                                                overlap=0.5, seed=4))
    out = str(tmp_path / "scn")
    save_scenario(s, out)
    loaded = load_scenario(out)
    assert loaded.toxicity is not None
    assert loaded.toxicity.pairs == s.toxicity.pairs


@pytest.mark.parametrize("key, line", [
    ("num_classes", "num_classes = 0"),
    # IDX labels are u8: a count above 256 is refused before the seen mask is allocated
    ("num_classes", "num_classes = 999999999999"),
    ("seed", None),
    # held to [0, 2**64) and spelled in ASCII digits, as [scenario] seed is
    ("seed", "seed = -1"),
    ("seed", "seed = \u0663"),
    ("seen", "seen = 0,x"),
    ("toxic_pairs", "toxic_pairs = 0:1,2"),
    ("toxic_pairs", "toxic_pairs = 0:1,2:7"),
    ("toxic_pairs", "toxic_pairs = "),
    # the seen classes are 1,3,5: non-toxic classes that are not those, and
    # a class listed twice
    ("toxic_pairs", "toxic_pairs = 1:0,3:2,5:4"),
    ("toxic_pairs", "toxic_pairs = 0:1"),
    ("toxic_pairs", "toxic_pairs = 0:1,0:3,4:5"),
    # a key it does not know, one listed twice, and a line without `=`
    ("toxic_pair", "toxic_pair = 0:1,2:3,4:5"),
    ("seen", "seen = 1,3,5\nseen = 1"),
    ("dim", "dim = 6\ndim 6"),
    # an id the CSVs' cells cannot hold
    ("scenario_id", "scenario_id = syn,x"),
    ("scenario_id", "scenario_id = two words"),
])
def test_scenario_meta_key_rejected_naming_it(tmp_path, key, line):
    s = gen_paired_toxicity_scenario(PairedSpec(pairs=3, dim=6, **_counts(5, 4, 3),
                                                overlap=0.5, seed=4))
    out = str(tmp_path / "scn")
    save_scenario(s, out)
    meta = os.path.join(out, "meta")
    with open(meta) as f:
        lines = [ln for ln in f.read().splitlines() if not ln.startswith(f"{key} = ")]
    with open(meta, "w") as f:
        f.write("\n".join(lines + ([line] if line else [])) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(meta)}: {key} "):
        load_scenario(out)


def test_scenario_id_from_the_directory_name_is_held_to_the_same_characters(tmp_path):
    # without a meta scenario_id the directory's name stands in, comma or not
    for name, ok in (("scn-1.a+b_c", True), ("scn,1", False)):
        out = str(tmp_path / name)
        save_scenario(ref_scenario(), out)
        meta = os.path.join(out, "meta")
        with open(meta) as f:
            lines = [ln for ln in f.read().splitlines() if not ln.startswith("scenario_id = ")]
        with open(meta, "w") as f:
            f.write("\n".join(lines) + "\n")
        if ok:
            assert load_scenario(out).scenario_id == name
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(meta)}: scenario_id = scn,1 "):
                load_scenario(out)


def test_scenario_non_finite_feature_rejected_naming_its_file(tmp_path):
    out = str(tmp_path / "scn")
    save_scenario(ref_scenario(), out)
    path = os.path.join(out, "target_test_x.f64")
    X = read_f64(path)
    X[3, 1] = np.nan
    write_f64(path, X)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: non-finite features$"):
        load_scenario(out)


def test_scenario_quantized_round_trip(tmp_path):
    # real-data path: a format = idx directory of u8 images, read scaled to
    # [0, 1]; features that are multiples of 1/255 come back exactly
    rng = Rng(8)

    def mk(y):
        return Dataset(rng.choice(256, (len(y), 4), replace=True) / 255.0, y, 3)

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


@given(data=st.data(), num_classes=st.integers(1, 12))
def test_classes_present_is_np_unique_of_the_labels(data, num_classes):
    # the labels may skip classes and repeat, or be none at all
    y = np.array(data.draw(st.lists(st.integers(0, num_classes - 1), max_size=40)),
                 dtype=np.int64)
    got = Dataset(np.zeros((len(y), 2)), y, num_classes).classes_present()
    want = np.unique(y)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("y, want", [([], []), ([4, 0, 4, 4, 2], [0, 2, 4]), ([1], [1])])
def test_classes_present_lists_each_label_once_ascending(y, want):
    got = Dataset(np.zeros((len(y), 2)), y, 6).classes_present()
    assert got.dtype == np.int64 and got.tolist() == want
