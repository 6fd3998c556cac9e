"""Scenario construction: style-shifted synthetic class clusters, IDX file
ingestion, seen/unseen splits, and the paired confusable-class case study.

A scenario bundles three datasets: a source training set covering every
class, a target training set restricted to the seen classes, and a target
test set covering every class again. The only source-to-target discrepancy
in synthetic scenarios is an affine style transform, so generalization of
the style shift to unseen classes is directly measurable.

On-disk layout of an exported scenario directory:

    meta                    key = value lines (counts, seed, seen indices)
    <split>_x.f64 / .idx    features (f64 container for synthetic data,
                            IDX u8 images for real data)
    <split>_y.idx           labels (IDX u8)

The f64 container is 16 bytes of header -- magic ``HTF8``, u32 rows, u32
cols, little endian -- followed by rows*cols float64 values, little endian,
row major.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numkit import Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
F64_MAGIC = b"HTF8"

_SPLITS = ("source_train", "target_train", "target_test")


@dataclass
class Dataset:
    """Feature rows X (N x d, float64) with integer labels y in [0, C)."""

    X: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.y.ndim != 1 or len(self.X) != len(self.y):
            raise ValueError("X must be N x d and y length N")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("non-finite features")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range")

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self):
        return len(self.y)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.num_classes)

    def classes_present(self) -> np.ndarray:
        return np.unique(self.y)


@dataclass
class StyleTransform:
    """Affine covariate shift x -> A x + b + eps, eps ~ N(0, noise_sigma^2 I)."""

    A: np.ndarray
    b: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        d = self.A.shape[0]
        if self.A.shape != (d, d) or self.b.shape != (d,):
            raise ValueError("A must be d x d and b length d")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if abs(np.linalg.det(self.A)) <= 1e-9:
            raise ValueError("style matrix is numerically singular")

    @classmethod
    def identity(cls, dim: int) -> "StyleTransform":
        return cls(np.eye(dim), np.zeros(dim), 0.0)

    @classmethod
    def rotation_shift(cls, dim: int, angle: float, shift: float = 0.0,
                       noise_sigma: float = 0.0) -> "StyleTransform":
        """Plane rotations by `angle` on axes (0,1), (2,3), ... plus a
        uniform shift of total length `shift`."""
        A = np.eye(dim)
        c, s = np.cos(angle), np.sin(angle)
        for i in range(0, dim - 1, 2):
            A[i, i], A[i, i + 1] = c, -s
            A[i + 1, i], A[i + 1, i + 1] = s, c
        b = np.full(dim, shift / np.sqrt(dim))
        return cls(A, b, noise_sigma)

    def apply(self, X: np.ndarray, rng: Optional[Rng] = None) -> np.ndarray:
        out = X @ self.A.T + self.b
        if self.noise_sigma > 0:
            if rng is None:
                raise ValueError("noise_sigma > 0 requires an rng")
            out = out + self.noise_sigma * rng.standard_normal(out.shape)
        return out


@dataclass
class ToxicityMap:
    """Index pairs (toxic_class, non_toxic_class); non-toxic = seen."""

    pairs: list

    def __post_init__(self):
        flat = [i for p in self.pairs for i in p]
        if len(set(flat)) != len(flat):
            raise ValueError("toxicity pair indices must be distinct")

    def toxic_classes(self) -> np.ndarray:
        return np.array([t for t, _ in self.pairs], dtype=np.int64)

    def non_toxic_classes(self) -> np.ndarray:
        return np.array([n for _, n in self.pairs], dtype=np.int64)


@dataclass
class HTScenario:
    source_train: Dataset
    target_train: Dataset
    target_test: Dataset
    seen_mask: np.ndarray
    seed: int
    scenario_id: str = "scenario"
    toxicity: Optional[ToxicityMap] = None

    def __post_init__(self):
        self.seen_mask = np.asarray(self.seen_mask, dtype=bool)
        self.validate()

    @property
    def num_classes(self) -> int:
        return int(self.seen_mask.size)

    @property
    def dim(self) -> int:
        return self.target_test.dim

    def validate(self):
        C = self.num_classes
        if not (0 < self.seen_mask.sum() < C):
            raise ValueError("seen mask must be a proper nonempty subset")
        seen = np.flatnonzero(self.seen_mask)
        if not np.all(np.isin(self.target_train.y, seen)):
            raise ValueError("target_train contains unseen-class labels")
        if not np.array_equal(self.target_test.classes_present(), np.arange(C)):
            raise ValueError("target_test must cover every class")
        if not np.array_equal(self.source_train.classes_present(), np.arange(C)):
            raise ValueError("source_train must cover every class")
        if self.toxicity is not None:
            non_toxic = np.sort(self.toxicity.non_toxic_classes())
            if not np.array_equal(non_toxic, seen):
                raise ValueError("non-toxic classes must equal the seen classes")


def _class_means(num_classes: int, dim: int, cluster_sep: float, rng: Rng) -> np.ndarray:
    """Gaussian directions rescaled so the minimum pairwise distance is
    exactly cluster_sep."""
    G = rng.standard_normal((num_classes, dim))
    dists = np.linalg.norm(G[:, None, :] - G[None, :, :], axis=-1)
    min_dist = dists[np.triu_indices(num_classes, 1)].min()
    if min_dist <= 0:
        raise ValueError("degenerate class means; change the seed")
    return G * (cluster_sep / min_dist)


def _sample_classes(means: np.ndarray, classes: np.ndarray, per_class: int,
                    rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    dim = means.shape[1]
    X = np.empty((len(classes) * per_class, dim))
    y = np.empty(len(classes) * per_class, dtype=np.int64)
    for i, c in enumerate(classes):
        lo = i * per_class
        X[lo:lo + per_class] = means[c] + rng.standard_normal((per_class, dim))
        y[lo:lo + per_class] = c
    return X, y


def gen_synthetic_scenario(num_classes: int, num_seen: int, dim: int,
                           per_class: tuple[int, int, int], cluster_sep: float,
                           style: StyleTransform, seed: int) -> HTScenario:
    """Build a scenario from unit-variance Gaussian class clusters.

    Source samples come straight from the class clusters; target samples are
    drawn from the same clusters and then pushed through `style`. Seen
    classes are chosen uniformly without replacement. Deterministic in all
    arguments; sampling streams are tagged by split name and count, so
    changing one count leaves the class means, the seen mask, and the other
    splits' draws untouched.
    """
    if num_seen >= num_classes:
        raise ValueError("no unseen classes")
    if num_seen <= 0:
        raise ValueError("need at least one seen class")
    if dim < 2:
        raise ValueError("dim must be >= 2")
    n_src, n_tt, n_te = per_class
    if min(n_src, n_tt, n_te) < 1:
        raise ValueError("per-class counts must be >= 1")
    if style.A.shape[0] != dim:
        raise ValueError("style dimension mismatch")

    rng = Rng(seed)
    means = _class_means(num_classes, dim, cluster_sep, rng.derive("means"))
    seen = np.sort(rng.derive("seen").choice(num_classes, size=num_seen, replace=False))
    seen_mask = np.zeros(num_classes, dtype=bool)
    seen_mask[seen] = True
    all_classes = np.arange(num_classes)

    Xs, ys = _sample_classes(means, all_classes, n_src,
                             rng.derive(f"source-{n_src}"))

    Xtt, ytt = _sample_classes(means, seen, n_tt,
                               rng.derive(f"target_train-{n_tt}"))
    Xtt = style.apply(Xtt, rng.derive(f"target_train-noise-{n_tt}"))

    Xte, yte = _sample_classes(means, all_classes, n_te,
                               rng.derive(f"target_test-{n_te}"))
    Xte = style.apply(Xte, rng.derive(f"target_test-noise-{n_te}"))

    return HTScenario(
        source_train=Dataset(Xs, ys, num_classes),
        target_train=Dataset(Xtt, ytt, num_classes),
        target_test=Dataset(Xte, yte, num_classes),
        seen_mask=seen_mask,
        seed=seed,
        scenario_id=f"syn-c{num_classes}-s{num_seen}-d{dim}-seed{seed}",
    )


def gen_paired_toxicity_scenario(num_pairs: int, dim: int,
                                 per_class: tuple[int, int, int],
                                 pair_overlap: float, seed: int,
                                 cluster_sep: float = 6.0):
    """Scenario of visually-confusable class pairs; only the harmless member
    of each pair appears in target training.

    Pair centers are spread like unrelated classes; the two members of a
    pair sit at distance (1 - pair_overlap) * cluster_sep from each other,
    so pair_overlap = 0 makes paired classes no more confusable than any
    other pair, and values near 1 make them nearly coincide. There is no
    style shift here; the studied failure mode is label confusion alone.

    Returns (scenario, toxicity_map). Class 2p is the toxic member of pair
    p, class 2p+1 the non-toxic (seen) member.
    """
    if num_pairs < 1:
        raise ValueError("need at least one pair")
    if not (0.0 <= pair_overlap < 1.0):
        raise ValueError("pair_overlap must be in [0, 1)")
    num_classes = 2 * num_pairs
    n_src, n_tt, n_te = per_class
    if min(n_src, n_tt, n_te) < 1:
        raise ValueError("per-class counts must be >= 1")

    rng = Rng(seed)
    centers = _class_means(num_pairs, dim, cluster_sep, rng.derive("pair-centers")) \
        if num_pairs > 1 else np.zeros((1, dim))
    dirs = rng.derive("pair-dirs").standard_normal((num_pairs, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    delta = (1.0 - pair_overlap) * cluster_sep
    means = np.empty((num_classes, dim))
    pairs = []
    for p in range(num_pairs):
        means[2 * p] = centers[p] - 0.5 * delta * dirs[p]      # toxic
        means[2 * p + 1] = centers[p] + 0.5 * delta * dirs[p]  # non-toxic
        pairs.append((2 * p, 2 * p + 1))
    toxicity = ToxicityMap(pairs)

    seen_mask = np.zeros(num_classes, dtype=bool)
    seen_mask[toxicity.non_toxic_classes()] = True
    all_classes = np.arange(num_classes)
    seen = np.flatnonzero(seen_mask)

    Xs, ys = _sample_classes(means, all_classes, n_src, rng.derive(f"source-{n_src}"))
    Xtt, ytt = _sample_classes(means, seen, n_tt, rng.derive(f"target_train-{n_tt}"))
    Xte, yte = _sample_classes(means, all_classes, n_te, rng.derive(f"target_test-{n_te}"))

    scenario = HTScenario(
        source_train=Dataset(Xs, ys, num_classes),
        target_train=Dataset(Xtt, ytt, num_classes),
        target_test=Dataset(Xte, yte, num_classes),
        seen_mask=seen_mask,
        seed=seed,
        scenario_id=f"tox-p{num_pairs}-o{pair_overlap:g}-d{dim}-seed{seed}",
        toxicity=toxicity,
    )
    return scenario, toxicity


@dataclass
class SplitResult:
    target_train: Dataset
    target_test: Dataset
    seen_mask: np.ndarray
    warnings: list


def make_ht_split(full: Dataset, seen_classes, train_ratio: float,
                  seed: int) -> SplitResult:
    """Per-class stratified split of `full`, then the train side is filtered
    to the seen classes. Classes with fewer than two samples go entirely to
    test (recorded as a warning)."""
    if not (0.0 < train_ratio < 1.0):
        raise ValueError("train_ratio must be in (0, 1)")
    seen_classes = np.unique(np.asarray(list(seen_classes), dtype=np.int64))
    present = full.classes_present()
    if seen_classes.size == 0:
        raise ValueError("seen_classes must be nonempty")
    if not np.all(np.isin(seen_classes, present)):
        raise ValueError("seen_classes not present in the dataset")
    if seen_classes.size >= present.size:
        raise ValueError("no unseen classes")

    rng = Rng(seed).derive("ht-split")
    warnings = []
    train_idx, test_idx = [], []
    for c in present:
        idx = np.flatnonzero(full.y == c)
        if len(idx) < 2:
            warnings.append(f"class {c} has {len(idx)} sample(s); all sent to test")
            test_idx.append(idx)
            continue
        perm = idx[rng.derive(int(c)).permutation(len(idx))]
        n_train = int(round(train_ratio * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.concatenate(train_idx) if train_idx else np.empty(0, dtype=np.int64)
    test_idx = np.concatenate(test_idx)

    seen_mask = np.zeros(full.num_classes, dtype=bool)
    seen_mask[seen_classes] = True
    train = full.subset(np.sort(train_idx))
    keep = np.isin(train.y, seen_classes)
    return SplitResult(
        target_train=train.subset(np.flatnonzero(keep)),
        target_test=full.subset(np.sort(test_idx)),
        seen_mask=seen_mask,
        warnings=warnings,
    )


# ------------------------------------------------------------------ IDX I/O

def _read_exact(f, n: int, path: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated file: {path}")
    return buf


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair into a flattened float Dataset.

    Pixels are scaled to [0, 1]; each image becomes one feature row.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"not IDX image data: magic 0x{magic:08x}")
        raw = _read_exact(f, count * rows * cols, images_path)
        if f.read(1):
            raise ValueError(f"trailing bytes in {images_path}")
    y = _read_idx_labels(labels_path)
    if count != len(y):
        raise ValueError(f"count mismatch: {count} images vs {len(y)} labels")
    X = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    X = X.reshape(count, rows * cols)
    return Dataset(X, y, int(y.max()) + 1 if count else 1)


def _read_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic, count = struct.unpack(">ii", _read_exact(f, 8, path))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"not IDX label data: magic 0x{magic:08x}")
        labels = np.frombuffer(_read_exact(f, count, path), dtype=np.uint8)
        if f.read(1):
            raise ValueError(f"trailing bytes in {path}")
    return labels.astype(np.int64)


def write_idx_images(path: str, images: np.ndarray):
    """Write u8 images of shape (N, rows, cols) in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path: str, labels: np.ndarray):
    labels = np.asarray(labels)
    if labels.size and labels.max() > 255:
        raise ValueError("IDX labels must fit in u8")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, len(labels)))
        f.write(labels.astype(np.uint8).tobytes())


# -------------------------------------------------------- f64 container I/O

def write_f64(path: str, X: np.ndarray):
    X = np.ascontiguousarray(X, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(F64_MAGIC)
        f.write(struct.pack("<II", X.shape[0], X.shape[1]))
        f.write(X.astype("<f8").tobytes())


def read_f64(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, path)
        if magic != F64_MAGIC:
            raise ValueError(f"not an f64 container: {path}")
        rows, cols = struct.unpack("<II", _read_exact(f, 8, path))
        raw = _read_exact(f, rows * cols * 8, path)
        if f.read(1):
            raise ValueError(f"trailing bytes in {path}")
    return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()


# ------------------------------------------------------- scenario directory

def save_scenario(scenario: HTScenario, out_dir: str, quantize: bool = False,
                  force: bool = False):
    """Materialize a scenario as a directory.

    Synthetic scenarios keep exact float features (f64 container);
    `quantize` switches to IDX u8 features for real-image data.
    """
    os.makedirs(out_dir, exist_ok=True)
    existing = [p for p in os.listdir(out_dir) if not p.startswith(".")]
    if existing and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty")

    splits = {
        "source_train": scenario.source_train,
        "target_train": scenario.target_train,
        "target_test": scenario.target_test,
    }
    lines = [
        f"format = {'idx' if quantize else 'synthetic'}",
        f"scenario_id = {scenario.scenario_id}",
        f"num_classes = {scenario.num_classes}",
        f"dim = {scenario.dim}",
        f"seed = {scenario.seed}",
        "seen = " + ",".join(str(i) for i in np.flatnonzero(scenario.seen_mask)),
    ]
    for name, ds in splits.items():
        lines.append(f"count_{name} = {len(ds)}")
        write_idx_labels(os.path.join(out_dir, f"{name}_y.idx"), ds.y)
        if quantize:
            img = np.clip(np.rint(ds.X * 255.0), 0, 255).astype(np.uint8)
            write_idx_images(os.path.join(out_dir, f"{name}_x.idx"),
                             img.reshape(len(ds), ds.dim, 1))
        else:
            write_f64(os.path.join(out_dir, f"{name}_x.f64"), ds.X)
    if scenario.toxicity is not None:
        lines.append("toxic_pairs = " + ",".join(
            f"{t}:{n}" for t, n in scenario.toxicity.pairs))
    with open(os.path.join(out_dir, "meta"), "w") as f:
        f.write("\n".join(lines) + "\n")


def load_scenario(in_dir: str) -> HTScenario:
    meta = {}
    with open(os.path.join(in_dir, "meta")) as f:
        for line in f:
            line = line.strip()
            if not line or "=" not in line:
                continue
            k, v = line.split("=", 1)
            meta[k.strip()] = v.strip()
    fmt = meta["format"]
    num_classes = int(meta["num_classes"])
    seen = np.zeros(num_classes, dtype=bool)
    seen[[int(i) for i in meta["seen"].split(",") if i]] = True

    datasets = {}
    for name in _SPLITS:
        if fmt == "idx":
            ds = load_idx(os.path.join(in_dir, f"{name}_x.idx"),
                          os.path.join(in_dir, f"{name}_y.idx"))
            datasets[name] = Dataset(ds.X, ds.y, num_classes)
        else:
            datasets[name] = Dataset(read_f64(os.path.join(in_dir, f"{name}_x.f64")),
                                     _read_idx_labels(os.path.join(in_dir, f"{name}_y.idx")),
                                     num_classes)

    toxicity = None
    if "toxic_pairs" in meta and meta["toxic_pairs"]:
        pairs = [tuple(int(x) for x in p.split(":")) for p in meta["toxic_pairs"].split(",")]
        toxicity = ToxicityMap(pairs)

    return HTScenario(
        source_train=datasets["source_train"],
        target_train=datasets["target_train"],
        target_test=datasets["target_test"],
        seen_mask=seen,
        seed=int(meta["seed"]),
        scenario_id=meta.get("scenario_id", os.path.basename(os.path.normpath(in_dir))),
        toxicity=toxicity,
    )
