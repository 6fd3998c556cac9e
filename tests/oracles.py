"""Oracles the tests hold the package to, kept apart from the code they
check: KL divergence for the distillation loss, the batch covariance of
the rank regularizer, and the raw u64 draws an Rng's test vectors pin."""

import numpy as np

from htlab.numkit import _centred_covariance

KL_FLOOR = 1e-12  # q is clamped here before the log so kl_div never returns inf


def kl_div(p, q) -> float:
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


def covariance(Z) -> np.ndarray:
    """Batch covariance C = (1/N) sum_n (z_n - zbar)(z_n - zbar)^T of an
    N x d matrix, or of each matrix in a (..., N, d) stack, as rank_reg
    computes it (numkit._centred_covariance)."""
    return _centred_covariance(Z)[1]


def u64(rng, n: int) -> np.ndarray:
    """The next n uniform 64-bit draws of `rng`'s stream, as the numkit
    docstring's test vectors draw them."""
    return rng._gen.integers(0, 2**64, size=n, dtype=np.uint64)
