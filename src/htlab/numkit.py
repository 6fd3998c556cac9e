"""Deterministic numerical primitives shared by the rest of the package.

Matrices are plain 2-D float64 numpy arrays (row major); `covariance` also
takes a stack of them on leading axes. Every public operation returns
finite values or raises; nothing here mutates its inputs.

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

Test vectors for the pinned generator (``Rng(seed=3, stream=7)``):

    first u64 draws: 2968336852963847644, 15180843502545175880
"""

from __future__ import annotations

import hashlib

import numpy as np

KL_FLOOR = 1e-12  # q is clamped here before the log so kl_div never returns inf

_U64 = np.uint64
_U64_MAX = 2**64


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
    def u64(self, n: int) -> np.ndarray:
        return self._gen.integers(0, _U64_MAX, size=n, dtype=_U64)

    def standard_normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


class Spectrum:
    """Nonnegative singular values in descending order."""

    def __init__(self, values):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("spectrum must be 1-D")
        if values.size and (np.any(values < 0) or np.any(np.diff(values) > 0)):
            raise ValueError("spectrum must be nonnegative and descending")
        self.values = values

    def __repr__(self):
        return f"Spectrum({np.array2string(self.values, precision=4)})"


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-subtraction) along `axis`."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("empty logits")
    e = logits - logits.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def kl_div(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) = sum p_i ln(p_i / q_i), with 0 ln(0/.) = 0.

    q is clamped at KL_FLOOR before the log. Both inputs must be
    probability vectors of the same length.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    for name, v in (("p", p), ("q", q)):
        if abs(v.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} does not sum to 1 (got {v.sum():.12g})")
    qc = np.maximum(q, KL_FLOOR)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(qc[mask]))))


def covariance(Z: np.ndarray) -> np.ndarray:
    """Batch covariance C = (1/N) sum_n (z_n - zbar)(z_n - zbar)^T of an
    N x d matrix, or of each matrix in a (..., N, d) stack."""
    return _centred_covariance(Z)[1]


def _centred_covariance(Z: np.ndarray) -> tuple:
    """(Z - zbar, covariance(Z))."""
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


def top_singular_values(Z: np.ndarray, k: int) -> Spectrum:
    """Top-k singular values of the mean-centered Z, descending.

    Computed from the d x d Gram of the centered matrix: the singular
    values are the square roots of the eigenvalues of Zc^T Zc. Cheap for
    the small feature widths used here. A Gram that is not finite (rows
    that overflow when squared, or are not finite themselves) raises
    FloatingPointError.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("Z must be 2-D")
    if k > min(Z.shape):
        raise ValueError(f"k={k} exceeds min(rows, cols)={min(Z.shape)}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    Zc = Z - Z.mean(axis=0, keepdims=True)
    G = Zc.T @ Zc
    G = 0.5 * (G + G.T)
    if not np.isfinite(G).all():
        raise FloatingPointError("non-finite Gram matrix")
    eig = np.linalg.eigvalsh(G)  # ascending
    vals = np.sqrt(np.maximum(eig[::-1], 0.0))
    return Spectrum(vals[:k])
