"""Scenario construction: style-shifted synthetic class clusters, IDX file
ingestion, seen/unseen splits, and the paired confusable-class case study.

A scenario bundles three datasets: a source training set covering every
class, a target training set restricted to the seen classes, and a target
test set covering every class again. The only source-to-target discrepancy
in synthetic scenarios is an affine style transform, so generalization of
the style shift to unseen classes is directly measurable.

Each generator takes a frozen spec whose fields are the [scenario] keys of
its kind, each with its default and bound: SyntheticSpec or PairedSpec, on a
shared base of the keys both read. The generators differ only in their
class means, seen mask and id; one sampler, _draw_scenario, draws the splits
of either, and the spec restyles the target splits (a synthetic scenario's
rotation, shift and noise; none for a paired one). Each split draws from
a stream of Rng(seed) tagged by the split and its per-class count n
(`source-{n}`, `target_train-{n}`, `target_test-{n}`, and the style noise
from `target_train-noise-{n}` and `target_test-noise-{n}`), so changing one
count redraws only that split.

On-disk layout of a scenario directory:

    meta                    key = value lines: format, scenario_id (of
                            [A-Za-z0-9._+-]), num_classes, dim, seed, seen
                            (class indices), count_<split> and, for paired
                            scenarios, toxic_pairs (toxic:non_toxic indices)
    <split>_x.f64 / .idx    features: the f64 container (format =
                            synthetic, what save_scenario writes) or IDX u8
                            images scaled to [0, 1] (format = idx, for real
                            image data prepared elsewhere)
    <split>_y.idx           labels (IDX u8)

A meta number is spelled in ASCII digits with `-` its only sign
(numkit.parse_number); num_classes is at most 256, the u8 labels' range,
and seed is in [0, 2**64). load_scenario checks every meta key it reads
against the data files. The f64 container is 12 bytes of header -- magic
``HTF8``, u32 rows, u32 cols, little endian -- followed by rows*cols
float64 values, little endian, row major. One reader, _read_sized, reads
both formats and checks the sizes a header declares against the file
before reading. Another, read_text, reads each text input: the meta here,
and the config and summary.csv of the cli.

write_file is the package's one file writer. Each file it writes -- a
scenario directory's, and the checkpoints, CSVs and report of the other
modules -- goes to a temporary beside its name and is renamed over it.
save_scenario removes an earlier meta before its first write and writes
meta last, so a save cut partway leaves no meta, never a mix of two
scenarios that loads.
"""

from __future__ import annotations

import math
import os
import re
import struct
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numkit import (_FINITE, _MAX_VALUES, _NONNEGATIVE, _POSITIVE, _SEED, Rng, _at_least,
                     _bounded, _check_fields, parse_number)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
F64_MAGIC = b"HTF8"

_SPLITS = ("source_train", "target_train", "target_test")
_META_KEYS = ("format", "scenario_id", "num_classes", "dim", "seed", "seen",
              *(f"count_{name}" for name in _SPLITS), "toxic_pairs")


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
            raise ValueError(f"num_classes = {self.num_classes}, but the labels span "
                             f"{self.y.min()}..{self.y.max()}")

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def __len__(self):
        return len(self.y)

    def classes_present(self) -> np.ndarray:
        """The labels that occur in y, ascending, as int64 (np.unique(y),
        without the numpy.ma import np.unique makes on first use)."""
        return np.flatnonzero(np.bincount(self.y, minlength=self.num_classes))


@dataclass
class ToxicityMap:
    """Index pairs (toxic_class, non_toxic_class); non-toxic = seen."""

    pairs: list

    def __post_init__(self):
        flat = [i for p in self.pairs for i in p]
        if len(set(flat)) != len(flat):
            raise ValueError(f"toxic_pairs = {self} lists a class twice")

    def __str__(self):  # the meta value
        return ",".join(f"{t}:{n}" for t, n in self.pairs)

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
        """Each message starts with the meta key the scenario contradicts."""
        C = self.num_classes
        seen = np.flatnonzero(self.seen_mask)
        listed = ",".join(map(str, seen))
        if not 0 < seen.size < C:
            raise ValueError(f"seen = {listed} is not a proper nonempty subset of the "
                             f"{C} classes")
        # isin's table method: its sort method imports numpy.ma
        trained = self.target_train.classes_present()
        leaked = trained[~np.isin(trained, seen, kind="table")]
        if leaked.size:
            raise ValueError(f"seen = {listed}, but target_train has unseen-class label "
                             f"{leaked[0]}")
        for name in ("target_test", "source_train"):
            present = getattr(self, name).classes_present()
            if not np.array_equal(present, np.arange(C)):
                raise ValueError(f"num_classes = {C}, but {name} has the labels "
                                 + ",".join(map(str, present)))
        if self.toxicity is not None and not np.array_equal(
                np.sort(self.toxicity.non_toxic_classes()), seen):
            raise ValueError(f"toxic_pairs = {self.toxicity}, but its non-toxic classes are "
                             f"not the seen classes {listed}")


_SIZES: dict = {}  # each size key's default, in the order the specs check them


def _size(default: int, key: str, bound):
    """The field of a size key `key`: `bound`, then the cap, the largest
    array that generating the scenario allocates (a split's rows x dim,
    _class_means' pairwise differences or a synthetic scenario's dim x dim
    style rotation) within _MAX_VALUES, with each size key checked after
    `key` at most its default: the first key to pass the cap is named."""
    _SIZES[key] = default

    def made(s):
        ok, words = bound(s) if callable(bound) else bound
        if not ok(s[key]):
            return ok, words
        later = list(_SIZES)[list(_SIZES).index(key) + 1:]
        s = {**s, **{k: min(s[k], _SIZES[k]) for k in later if k in s}}
        pairs = s.get("pairs")
        classes, seen = (2 * pairs, pairs) if "pairs" in s else (s["classes"], s["seen"])
        rows = max(classes * s["source_per_class"], seen * s["train_per_class"],
                   classes * s["test_per_class"])
        means = classes if pairs is None else pairs  # _class_means' rows
        largest = s["dim"] * max(rows, means * means, 0 if "pairs" in s else s["dim"])
        return (lambda v: largest <= _MAX_VALUES,
                "must keep the scenario's largest array within 2**27 float64 values")
    return _bounded(default, made)


@dataclass(frozen=True)
class _ScenarioSpec:
    """The [scenario] keys both generated kinds read: the seed, the feature
    width, the rows per class of each split and the least distance between
    class means (each field states its default and bound once)."""

    seed: int = _bounded(0, _SEED)
    dim: int = _size(16, "dim", _at_least(2))
    source_per_class: int = _size(200, "source_per_class", _at_least(1))
    train_per_class: int = _size(60, "train_per_class", _at_least(1))
    test_per_class: int = _size(40, "test_per_class", _at_least(1))
    cluster_sep: float = _bounded(6.0, _POSITIVE)

    __post_init__ = _check_fields

    def restyle(self, X: np.ndarray, rng: Rng) -> np.ndarray:
        """The target rows X as drawn: a paired scenario has no style shift."""
        return X


@dataclass(frozen=True)
class SyntheticSpec(_ScenarioSpec):
    """A [scenario] of kind synthetic: `classes` class clusters, `seen` of
    them in target training, and the style shift of the target splits."""

    classes: int = _size(10, "classes", lambda s: (lambda v: v > s["seen"],
                                                   f"must be above seen ({s['seen']})"))
    seen: int = _size(6, "seen", _at_least(1))
    style_angle: float = _bounded(0.0, _FINITE)
    style_shift: float = _bounded(0.0, _FINITE)
    style_noise: float = _bounded(0.0, _NONNEGATIVE)

    def restyle(self, X: np.ndarray, rng: Rng) -> np.ndarray:
        """X @ A.T + b + eps: A rotates the planes of axes (0, 1), (2, 3), ...
        by style_angle, b is a uniform shift of total length style_shift,
        and eps ~ N(0, style_noise^2 I) is drawn from `rng`."""
        A = np.eye(self.dim)
        c, s = np.cos(self.style_angle), np.sin(self.style_angle)
        for i in range(0, self.dim - 1, 2):
            A[i, i], A[i, i + 1] = c, -s
            A[i + 1, i], A[i + 1, i + 1] = s, c
        out = X @ A.T + np.full(self.dim, self.style_shift / np.sqrt(self.dim))
        if self.style_noise > 0:
            out = out + self.style_noise * rng.standard_normal(out.shape)
        return out


@dataclass(frozen=True)
class PairedSpec(_ScenarioSpec):
    """A [scenario] of kind paired: `pairs` confusable class pairs whose
    members sit (1 - overlap) * cluster_sep apart."""

    pairs: int = _size(6, "pairs", _at_least(1))
    overlap: float = _bounded(0.6, (lambda v: 0 <= v < 1, "must be in [0, 1)"))


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


def _draw_scenario(spec: _ScenarioSpec, means: np.ndarray, seen_mask: np.ndarray,
                   scenario_id: str, toxicity: Optional[ToxicityMap] = None) -> HTScenario:
    """The scenario whose three splits are drawn from unit-variance clusters
    around `means`, the spec's rows per class each: source training and
    target test from every class, target training from the seen ones. The
    target splits are then restyled by the spec."""
    rng = Rng(spec.seed)
    every = np.arange(seen_mask.size)
    splits = []
    for tag, classes, n in zip(("source", "target_train", "target_test"),
                               (every, np.flatnonzero(seen_mask), every),
                               (spec.source_per_class, spec.train_per_class,
                                spec.test_per_class)):
        X, y = _sample_classes(means, classes, n, rng.derive(f"{tag}-{n}"))
        if tag != "source":
            X = spec.restyle(X, rng.derive(f"{tag}-noise-{n}"))
        splits.append(Dataset(X, y, seen_mask.size))
    return HTScenario(*splits, seen_mask=seen_mask, seed=spec.seed, scenario_id=scenario_id,
                      toxicity=toxicity)


def gen_synthetic_scenario(spec: SyntheticSpec) -> HTScenario:
    """Build a scenario from unit-variance Gaussian class clusters.

    Source samples come straight from the class clusters; target samples are
    drawn from the same clusters and then restyled. Seen classes are chosen
    uniformly without replacement. Deterministic in the spec; a count
    changes only its own split's draws.
    """
    rng = Rng(spec.seed)
    means = _class_means(spec.classes, spec.dim, spec.cluster_sep, rng.derive("means"))
    seen_mask = np.zeros(spec.classes, dtype=bool)
    seen_mask[rng.derive("seen").choice(spec.classes, size=spec.seen, replace=False)] = True
    return _draw_scenario(spec, means, seen_mask,
                          f"syn-c{spec.classes}-s{spec.seen}-d{spec.dim}-seed{spec.seed}")


def gen_paired_toxicity_scenario(spec: PairedSpec) -> HTScenario:
    """Scenario of visually-confusable class pairs; only the harmless member
    of each pair appears in target training.

    Pair centers are spread like unrelated classes; the two members of a
    pair sit at distance (1 - overlap) * cluster_sep from each other, so
    overlap = 0 makes paired classes no more confusable than any other
    pair, and values near 1 make them nearly coincide. There is no style
    shift here; the studied failure mode is label confusion alone.

    Class 2p is the toxic member of pair p, class 2p+1 the non-toxic (seen)
    member; scenario.toxicity maps them.
    """
    rng = Rng(spec.seed)
    centers = _class_means(spec.pairs, spec.dim, spec.cluster_sep,
                           rng.derive("pair-centers")) \
        if spec.pairs > 1 else np.zeros((1, spec.dim))
    dirs = rng.derive("pair-dirs").standard_normal((spec.pairs, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    half = 0.5 * (1.0 - spec.overlap) * spec.cluster_sep * dirs
    # rows 2p (toxic) and 2p+1 (non-toxic, seen) straddle center p
    means = np.stack([centers - half, centers + half], axis=1).reshape(2 * spec.pairs, spec.dim)
    return _draw_scenario(
        spec, means, np.arange(2 * spec.pairs) % 2 == 1,
        f"tox-p{spec.pairs}-o{spec.overlap:g}-d{spec.dim}-seed{spec.seed}",
        toxicity=ToxicityMap([(2 * p, 2 * p + 1) for p in range(spec.pairs)]))


# ------------------------------------------------------- file and IDX I/O

def write_file(path: str, *chunks: bytes):
    """The `chunks`, in order and one write each, written beside `path` and
    renamed over it: a cut write leaves `path` as it was. The chunks are
    never joined, so no copy of the whole file is made."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_sized(path: str, fmt: str, magic, what: str, sizes: tuple, itemsize: int = 1):
    """The header sizes and payload of `path`, a file of `what`: a header
    `fmt` of `magic` and the sizes `sizes` names, then their product times
    `itemsize` bytes. Anything else raises naming it; a huge size raises
    before any read, and a negative one too, as IDX sizes are signed."""
    with _open_input(path) as f:
        head = f.read(struct.calcsize(fmt))
        if len(head) < struct.calcsize(fmt):
            raise ValueError(f"truncated file: {path}")
        found, *values = struct.unpack(fmt, head)
        if found != magic:
            raise ValueError(f"not {what}: {path}: magic {found!r}")
        for name, value in zip(sizes, values):
            if value < 0:
                raise ValueError(f"{path}: negative {name} {value} in the header")
        n, left = math.prod(values) * itemsize, os.fstat(f.fileno()).st_size - len(head)
        if n > left:
            raise ValueError(f"truncated file: {path}")
        if n < left:
            raise ValueError(f"trailing bytes in {path}")
        return values, f.read(n)


def _open_input(path: str):
    """`path` opened to read bytes. An OSError other than FileNotFoundError
    (a directory, say) raises a ValueError that names the file."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise
    except OSError as e:
        raise ValueError(f"{path!r} cannot be read: {e.strerror or e}") from None


def read_text(path: str) -> str:
    """The text of `path`, a UTF-8 file. One that is missing, that cannot
    be read (see _open_input) or that is not UTF-8 raises a ValueError
    naming it."""
    try:
        with _open_input(path) as f:
            return f.read().decode()
    except FileNotFoundError:
        raise ValueError(f"{path!r} is missing") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path!r} is not UTF-8 at byte {e.start}") from None


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair into a flattened float Dataset.

    Pixels are scaled to [0, 1]; each image becomes one feature row.
    """
    (count, rows, cols), raw = _read_sized(images_path, ">iiii", IDX_IMAGES_MAGIC,
                                           "IDX image data", ("count", "rows", "cols"))
    y = _read_idx_labels(labels_path)
    if count != len(y):
        raise ValueError(f"count mismatch: {count} images in {images_path} vs "
                         f"{len(y)} labels in {labels_path}")
    X = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    X = X.reshape(count, rows * cols)
    return Dataset(X, y, int(y.max()) + 1 if count else 1)


def _read_idx_labels(path: str) -> np.ndarray:
    _, raw = _read_sized(path, ">ii", IDX_LABELS_MAGIC, "IDX label data", ("count",))
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def write_idx_labels(path: str, labels: np.ndarray):
    labels = np.asarray(labels)
    if labels.size and labels.max() > 255:
        raise ValueError("IDX labels must fit in u8")
    write_file(path, struct.pack(">ii", IDX_LABELS_MAGIC, len(labels)),
               labels.astype(np.uint8).tobytes())


# -------------------------------------------------------- f64 container I/O

def write_f64(path: str, X: np.ndarray):
    X = np.ascontiguousarray(X, dtype=np.float64)
    write_file(path, F64_MAGIC + struct.pack("<II", *X.shape), X.astype("<f8").tobytes())


def read_f64(path: str) -> np.ndarray:
    """The features an f64 container holds; a non-finite one raises,
    naming the file."""
    (rows, cols), raw = _read_sized(path, "<4sII", F64_MAGIC, "an f64 container",
                                    ("rows", "cols"), 8)
    X = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()
    if not np.isfinite(X).all():
        raise ValueError(f"{path}: non-finite features")
    return X


# ------------------------------------------------------- scenario directory

def save_scenario(scenario: HTScenario, out_dir: str, force: bool = False):
    """Materialize a scenario as a directory, features in the exact f64
    container, an earlier `meta` removed first and the new one written last."""
    os.makedirs(out_dir, exist_ok=True)
    existing = [p for p in os.listdir(out_dir) if not p.startswith(".")]
    if existing and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty")
    meta = os.path.join(out_dir, "meta")
    with suppress(FileNotFoundError):
        os.unlink(meta)

    lines = [
        "format = synthetic",
        f"scenario_id = {scenario.scenario_id}",
        f"num_classes = {scenario.num_classes}",
        f"dim = {scenario.dim}",
        f"seed = {scenario.seed}",
        "seen = " + ",".join(str(i) for i in np.flatnonzero(scenario.seen_mask)),
    ]
    for name in _SPLITS:
        ds = getattr(scenario, name)
        lines.append(f"count_{name} = {len(ds)}")
        write_idx_labels(os.path.join(out_dir, f"{name}_y.idx"), ds.y)
        write_f64(os.path.join(out_dir, f"{name}_x.f64"), ds.X)
    if scenario.toxicity is not None:
        lines.append(f"toxic_pairs = {scenario.toxicity}")
    write_file(meta, ("\n".join(lines) + "\n").encode())


def load_scenario(in_dir: str) -> HTScenario:
    """The scenario a directory holds. Its `meta` file must declare the
    format, the class count, the feature width, the seed, the seen classes
    and each split's row count, and the data files must agree with it; a
    key that is missing, malformed or out of range, or that the data
    contradicts, raises a ValueError naming the file and the key; so does a
    key it does not know or one listed twice, and a line without `=`. The
    labels, seen classes and toxic pairs are checked by Dataset, ToxicityMap
    and HTScenario. A non-finite feature raises naming its file."""
    path = os.path.join(in_dir, "meta")

    def bad(key, why):
        return ValueError(f"{path}: {key} {why}")

    meta = {}
    for line in filter(str.strip, read_text(path).splitlines()):
        k, sep, v = (part.strip() for part in line.partition("="))
        if not sep:
            raise bad(k, "is not a key = value line")
        if k not in _META_KEYS:
            raise bad(k, "is not a meta key")
        if k in meta:
            raise bad(k, "is listed twice")
        meta[k] = v

    def field(key, parse=parse_number, ok=lambda value: True):
        if key not in meta:
            raise bad(key, "is missing")
        try:
            value = parse(meta[key])
            if ok(value):
                return value
        except ValueError:
            pass
        raise bad(key, f"= {meta[key]} is malformed or out of range")

    def class_ids(text, sep=","):
        return tuple(parse_number(i.strip()) for i in text.split(sep) if i.strip())

    def in_range(ids):
        return all(0 <= i < num_classes for i in ids)

    meta.setdefault("scenario_id", os.path.basename(os.path.normpath(in_dir)))
    fmt = field("format", str, lambda f: f in ("synthetic", "idx"))
    # IDX labels are u8; bounded before the seen mask is allocated
    num_classes, dim = field("num_classes", ok=lambda n: 0 < n <= 256), field("dim")
    seen = np.zeros(num_classes, dtype=bool)
    seen[list(field("seen", class_ids, in_range))] = True
    pairs = field("toxic_pairs", lambda text: [class_ids(p, ":") for p in text.split(",")],
                  lambda pairs: all(len(p) == 2 and in_range(p) for p in pairs)) \
        if "toxic_pairs" in meta else None
    seed = field("seed", ok=_SEED[0])
    scenario_id = field("scenario_id", str, lambda v: re.fullmatch(r"[A-Za-z0-9._+-]+", v))

    splits = []
    for name in _SPLITS:
        labels = os.path.join(in_dir, f"{name}_y.idx")
        if fmt == "idx":
            ds = load_idx(os.path.join(in_dir, f"{name}_x.idx"), labels)
            X, y = ds.X, ds.y
        else:
            X, y = read_f64(os.path.join(in_dir, f"{name}_x.f64")), _read_idx_labels(labels)
        count = field(f"count_{name}")
        if count != len(y):
            raise bad(f"count_{name}", f"= {count}, but {name} has {len(y)} rows")
        if dim != X.shape[1]:
            raise bad("dim", f"= {dim}, but {name} has {X.shape[1]} features")
        splits.append((X, y))
    try:
        return HTScenario(*(Dataset(X, y, num_classes) for X, y in splits), seen_mask=seen,
                          seed=seed, scenario_id=scenario_id,
                          toxicity=None if pairs is None else ToxicityMap(pairs))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
