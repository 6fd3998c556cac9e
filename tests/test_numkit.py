import numpy as np
import pytest

from htlab.numkit import Rng, Spectrum, covariance, kl_div, softmax, top_singular_values


# ---------------------------------------------------------------- softmax

def test_softmax_uniform_on_equal_logits():
    assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)


def test_softmax_shift_invariance():
    rng = Rng(11)
    for _ in range(50):
        x = rng.standard_normal(7) * 10
        c = float(rng.standard_normal(1)[0]) * 100
        assert np.allclose(softmax(x), softmax(x + c), atol=1e-12)


def test_softmax_hand_value():
    # e^0 / (e^0 + 3) = 1/4
    assert np.allclose(softmax([0.0, np.log(3.0)]), [0.25, 0.75], atol=1e-15)


def test_softmax_sums_to_one_and_positive():
    rng = Rng(12)
    x = rng.standard_normal((40, 9)) * 50
    p = softmax(x, axis=1)
    assert np.all(p > 0) and np.all(p <= 1)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_softmax_preserves_argmax_including_ties():
    rng = Rng(13)
    for _ in range(200):
        x = rng.standard_normal(6)
        assert np.argmax(softmax(x)) == np.argmax(x)
    # exact ties: lowest index wins on both sides
    x = np.array([2.0, 5.0, 5.0, 1.0])
    assert np.argmax(x) == 1
    assert np.argmax(softmax(x)) == 1


def test_softmax_empty_rejected():
    with pytest.raises(ValueError, match="empty logits"):
        softmax(np.array([]))


# ---------------------------------------------------------------- kl_div

def test_kl_identity_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_div(p, p) == 0.0


def test_kl_hand_value():
    assert abs(kl_div([1.0, 0.0], [0.5, 0.5]) - np.log(2.0)) < 1e-15


def test_kl_nonnegative_on_random_simplex_pairs():
    rng = Rng(14)
    for _ in range(1000):
        p = softmax(rng.standard_normal(5) * 3)
        q = softmax(rng.standard_normal(5) * 3)
        v = kl_div(p, q)
        assert v >= 0.0
        if np.max(np.abs(p - q)) >= 1e-12:
            assert v > 0.0


def test_kl_zero_mass_terms_ignored():
    # 0 * ln(0/q) contributes nothing even when q is tiny
    assert kl_div([0.0, 1.0], [0.0, 1.0]) == 0.0


def test_kl_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        kl_div([0.5, 0.5], [0.3, 0.3, 0.4])


# ---------------------------------------------------------------- covariance

def _covariance_oracle(Z):
    n, d = Z.shape
    zbar = Z.mean(axis=0)
    C = np.zeros((d, d))
    for r in range(n):
        dz = Z[r] - zbar
        for i in range(d):
            for j in range(d):
                C[i, j] += dz[i] * dz[j]
    return C / n


def test_covariance_constant_batch_is_zero():
    Z = np.tile([1.5, -2.0, 0.25], (6, 1))
    assert np.max(np.abs(covariance(Z))) == 0.0


def test_covariance_two_point_hand_case():
    a = np.array([1.0, -2.0, 3.0])
    Z = np.stack([a, -a])
    assert np.allclose(covariance(Z), np.outer(a, a), atol=1e-15)


def test_covariance_matches_double_loop_oracle():
    Z = Rng(15).standard_normal((8, 3)) * 2.0
    assert np.max(np.abs(covariance(Z) - _covariance_oracle(Z))) < 1e-12


def test_covariance_row_permutation_invariant():
    rng = Rng(16)
    Z = rng.standard_normal((12, 4))
    C = covariance(Z)
    for _ in range(5):
        perm = rng.permutation(12)
        assert np.max(np.abs(covariance(Z[perm]) - C)) < 1e-12


def test_covariance_symmetric_and_psd():
    Z = Rng(17).standard_normal((20, 6))
    C = covariance(Z)
    assert np.max(np.abs(C - C.T)) == 0.0
    assert np.min(np.linalg.eigvalsh(C)) > -1e-10


def test_covariance_of_a_stack_is_each_covariance_bitwise():
    Z = Rng(18).standard_normal((4, 9, 3))
    C = covariance(Z)
    assert C.shape == (4, 3, 3)
    for m in range(4):
        assert np.array_equal(C[m], covariance(Z[m]))


def test_covariance_empty_rejected():
    with pytest.raises(ValueError):
        covariance(np.zeros((0, 3)))


# ------------------------------------------------------- top_singular_values

def _jacobi_svd_oracle(Z, sweeps=60, tol=1e-14):
    """One-sided cyclic Jacobi: orthogonalize column pairs of centered Z."""
    A = (Z - Z.mean(axis=0, keepdims=True)).copy()
    d = A.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[:, p] @ A[:, q]
                app = A[:, p] @ A[:, p]
                aqq = A[:, q] @ A[:, q]
                off = max(off, abs(apq))
                if abs(apq) < tol * np.sqrt(app * aqq + 1e-300):
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                Ap = c * A[:, p] - s * A[:, q]
                Aq = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = Ap, Aq
        if off < tol:
            break
    return np.sort(np.linalg.norm(A, axis=0))[::-1]


def test_spectrum_identity_gram():
    # columns orthonormal and orthogonal to the all-ones vector, so the
    # centered matrix satisfies Zc^T Zc = I
    rng = Rng(18)
    M = np.column_stack([np.ones(6), rng.standard_normal((6, 3))])
    Q, _ = np.linalg.qr(M)
    Zc = Q[:, 1:4]
    s = top_singular_values(Zc, 3)
    assert np.allclose(s.values, [1.0, 1.0, 1.0], atol=1e-10)


def test_spectrum_rank_one_input():
    rng = Rng(19)
    u = rng.standard_normal(10)
    v = rng.standard_normal(4)
    s = top_singular_values(np.outer(u, v), 4).values
    # centering a rank-1 matrix leaves rank <= 2; trailing values are
    # eigen-noise of the Gram route, sqrt(machine eps) relative at worst
    assert s[2] < 1e-7 * s[0] and s[3] < 1e-7 * s[0]


def test_spectrum_matches_jacobi_oracle():
    Z = Rng(20).standard_normal((10, 4)) * 3.0
    got = top_singular_values(Z, 4).values
    want = _jacobi_svd_oracle(Z)
    assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-8


def test_spectrum_orthogonal_right_multiplication_invariant():
    rng = Rng(21)
    Z = rng.standard_normal((15, 5))
    base = top_singular_values(Z, 5).values
    for _ in range(3):
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        Zc = Z - Z.mean(axis=0, keepdims=True)
        rotated = top_singular_values(Zc @ Q, 5).values
        assert np.max(np.abs(rotated - base)) < 1e-8 * max(base[0], 1.0)


def test_spectrum_k_too_large_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        top_singular_values(np.zeros((3, 5)), 4)


@pytest.mark.parametrize("big", [1e200, np.inf, np.nan])
def test_spectrum_of_a_non_finite_gram_raises(big):
    # 1e200 is finite, but its square overflows the Gram
    Z = Rng(22).standard_normal((6, 3))
    Z[0, 1] = big
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        top_singular_values(Z, 3)


def test_spectrum_type_validates_order():
    with pytest.raises(ValueError):
        Spectrum([1.0, 2.0])
    with pytest.raises(ValueError):
        Spectrum([1.0, -0.5])


# ---------------------------------------------------------------- Rng

def test_rng_equal_keys_equal_streams():
    a = Rng(123456789, 42)
    b = Rng(123456789, 42)
    assert np.array_equal(a.u64(10_000), b.u64(10_000))


def test_rng_pinned_test_vectors():
    # frozen output of the pinned Philox4x64-10 generator, key (3, 7)
    assert list(Rng(3, 7).u64(4)) == [
        2968336852963847644,
        15180843502545175880,
        13513479289003329555,
        13579605240752081687,
    ]


@pytest.mark.parametrize("seed, stream", [
    (0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (3, 7),
    (123456789, 2**63),
])
def test_rng_streams_equal_philox_keyed_directly(seed, stream):
    # Rng hands Philox its key as a seed sequence; every draw helper must
    # see the stream Philox(key=[seed, stream]) gives
    def draws(gen):
        return [gen.integers(0, 2**64, size=5, dtype=np.uint64),
                gen.standard_normal(7), gen.integers(-4, 9, size=6),
                gen.choice(50, size=10, replace=False), gen.permutation(23)]

    want = draws(np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))))
    rng = Rng(seed, stream)
    got = [rng.u64(5), rng.standard_normal(7), rng.integers(-4, 9, size=6),
           rng.choice(50, 10), rng.permutation(23)]
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_rng_derive_is_deterministic_and_tag_sensitive():
    root = Rng(7)
    a1 = root.derive("alpha")
    a2 = root.derive("alpha")
    b = root.derive("beta")
    i = root.derive(5)
    assert a1.stream == a2.stream
    assert np.array_equal(a1.u64(100), a2.u64(100))
    assert a1.stream != b.stream and a1.stream != i.stream
    assert not np.array_equal(Rng(7).derive("alpha").u64(8), b.u64(8))


def test_rng_derive_children_differ_from_parent():
    root = Rng(99, 1)
    child = root.derive("x")
    assert not np.array_equal(Rng(99, 1).u64(16), child.u64(16))


def test_rng_bad_tag_type_rejected():
    with pytest.raises(TypeError):
        Rng(0).derive(3.5)
