"""Deterministic numerical primitives shared by the rest of the package.

Matrices are plain 2-D float64 numpy arrays (row major);
`_centred_covariance` also takes a stack of them on leading axes, and
`top_singular_values` returns a plain 1-D array. Every public operation
returns finite values or raises; nothing here mutates its inputs.

Randomness is provided by :class:`Rng`, a thin wrapper around the Philox
counter-based bit generator keyed by an explicit ``(seed, stream)`` pair of
64-bit integers. Philox4x64-10 has a fixed output function, so the same
``(seed, stream)`` yields the same draws on any platform. Child streams are
derived by hashing ``(seed, stream, tag)`` with BLAKE2b into a fresh stream
id, which makes derivation order-independent and collision-resistant.
The Philox generator itself is built on an Rng's first draw, because many
derived Rngs only ever derive; its key is handed over as a seed sequence
(:class:`_PhiloxKey`), since ``Philox(key=...)`` first draws OS entropy for
a default seed sequence it then discards.

Test vectors for the pinned generator (``Rng(seed=3, stream=7)``), its
first draws of ``integers(0, 2**64, dtype=np.uint64)``:

    2968336852963847644, 15180843502545175880
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import field, fields

import numpy as np

_U64 = np.uint64
_U64_MAX = 2**64


def _check(key: str, value, bound):
    """Raise ValueError("<key> = <value!r> <words>") unless ok(value), bound = (ok, words)."""
    ok, words = bound
    if not ok(value):
        raise ValueError(f"{key} = {value!r} {words}")


def _bounded(default, bound):
    """A dataclass field of `default` whose value _check_fields holds to `bound`."""
    return field(default=default, metadata={"bound": bound})


def _check_fields(config):
    """_check each bounded field of the dataclass `config`: its __post_init__.
    A callable bound is made from the dict of the field values."""
    for f in fields(config):
        bound = f.metadata.get("bound")
        if callable(bound):
            bound = bound(vars(config))
        if bound is not None:
            _check(f.name, getattr(config, f.name), bound)


def _at_least(low):
    return (lambda v: v >= low, f"must be at least {low}")


def _one_of(*choices):
    return (lambda v: v in choices, "must be " + " or ".join(map(str, choices)))


_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be nonnegative and finite")
_FINITE = (math.isfinite, "must be finite")
_FRACTION = (lambda v: 0 < v <= 1, "must be in (0, 1]")
_SEED = (lambda v: 0 <= v < _U64_MAX, "must be in [0, 2**64)")  # Rng reduces mod 2**64
_MAX_VALUES = 2**27  # float64s (1 GiB): the cap on the largest array a size key implies

_SPELLINGS = {int: re.compile(r"0|-?[1-9][0-9]*"),
              float: re.compile(r"-?(?:(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?|inf)|nan")}


def parse_number(text: str, kind=int):
    """The `kind` (int or float) that `text` spells in ASCII as %d, repr or
    the CSVs' 17-digit format writes one, nan and inf included; else ValueError."""
    if not _SPELLINGS[kind].fullmatch(text):
        raise ValueError(f"not a spelling of {kind.__name__}: {text!r}")
    return kind(text)


def _tag_to_bytes(tag) -> bytes:
    if isinstance(tag, (int, np.integer)):
        return b"i" + int(tag).to_bytes(8, "little", signed=False)
    if isinstance(tag, str):
        return b"s" + tag.encode("utf-8")
    raise TypeError(f"rng tag must be int or str, got {type(tag).__name__}")


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Seed sequence whose state is the Philox key (seed, stream) itself:
    Philox(_PhiloxKey(s, t)) draws what Philox(key=[s, t]) draws."""

    def __init__(self, seed: int, stream: int):
        self.key = np.array([seed, stream], dtype=_U64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != _U64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


class Rng:
    """Counter-based RNG keyed by (seed, stream), splittable via derive()."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) % _U64_MAX
        self.stream = int(stream) % _U64_MAX
        self._generator = None

    @property
    def _gen(self) -> np.random.Generator:
        if self._generator is None:
            self._generator = np.random.Generator(
                np.random.Philox(_PhiloxKey(self.seed, self.stream)))
        return self._generator

    def derive(self, tag) -> "Rng":
        """New independent Rng whose stream id hashes (seed, stream, tag)."""
        h = hashlib.blake2b(digest_size=8)
        h.update(self.seed.to_bytes(8, "little"))
        h.update(self.stream.to_bytes(8, "little"))
        h.update(_tag_to_bytes(tag))
        return Rng(self.seed, int.from_bytes(h.digest(), "little"))

    # Draw helpers; each consumes from this Rng's exclusive stream.
    def standard_normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-subtraction) along `axis`."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("empty logits")
    e = logits - logits.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _centred_covariance(Z: np.ndarray) -> tuple:
    """(Z - zbar, C) for the batch covariance
    C = (1/N) sum_n (z_n - zbar)(z_n - zbar)^T of an N x d matrix, or of
    each matrix in a (..., N, d) stack."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim < 2:
        raise ValueError("Z must be at least 2-D")
    n = Z.shape[-2]
    if n == 0:
        raise ValueError("empty batch")
    Zc = Z - Z.sum(axis=-2, keepdims=True) / n
    C = Zc.swapaxes(-1, -2) @ Zc
    C /= n
    C = C + C.swapaxes(-1, -2)  # exact symmetry regardless of BLAS blocking
    C *= 0.5
    return Zc, C


def top_singular_values(Z: np.ndarray, k: int) -> np.ndarray:
    """Top-k singular values of the mean-centered Z, as a 1-D array.

    Computed from the d x d Gram of the centered matrix: the singular
    values are the square roots of its eigenvalues, taken in descending
    order and floored at zero, so the array is descending and nonnegative
    by construction. Cheap for the small feature widths used here. A Gram
    that is not finite (rows that overflow when squared, or are not finite
    themselves) raises FloatingPointError.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("Z must be 2-D")
    _check("k", k, (lambda v: 0 <= v <= min(Z.shape),
                    f"is negative or exceeds min(rows, cols) = {min(Z.shape)}"))
    Zc = Z - Z.mean(axis=0, keepdims=True)
    G = Zc.T @ Zc
    G = 0.5 * (G + G.T)
    if not np.isfinite(G).all():
        raise FloatingPointError("non-finite Gram matrix")
    eig = np.linalg.eigvalsh(G)  # ascending
    return np.sqrt(np.maximum(eig[::-1], 0.0))[:k]
