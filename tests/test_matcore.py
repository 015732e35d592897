import math

import numpy as np
import pytest

from nclp.matcore import (
    _as_matrix,
    _diagonal_blocks,
    dual_element,
    schatten_norm,
)
from nclp.selfcheck import _ginibre, _random_unitary

RNG = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# schatten_norm


def test_schatten_norm_diagonal():
    x = np.diag([3.0, 4.0]).astype(complex)
    assert schatten_norm(x, 1.0) == pytest.approx(7.0, abs=1e-12)
    assert schatten_norm(x, 2.0) == pytest.approx(5.0, abs=1e-12)
    assert schatten_norm(x, math.inf) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 3.7, math.inf])
def test_schatten_norm_antidiagonal(p):
    a, b = 0.7, 1.9
    y = np.array([[0.0, a], [b, 0.0]], dtype=complex)
    if math.isinf(p):
        expected = max(a, b)
    else:
        expected = (a**p + b**p) ** (1.0 / p)
    assert schatten_norm(y, p) == pytest.approx(expected, rel=1e-12)


def test_schatten_norm_rejects_bad_input():
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        schatten_norm(x, 0.5)
    with pytest.raises(ValueError):
        schatten_norm(np.array([[np.nan, 0], [0, 1]]), 2.0)
    with pytest.raises(ValueError):
        schatten_norm(np.array([[np.inf, 0], [0, 1]]), 2.0)


def test_as_matrix_narrows_only_exactly_real_input():
    assert _as_matrix(np.array([[1.0 + 5e-324j]])).dtype == np.complex128
    assert _as_matrix(np.array([[complex(1.0, -0.0)]])).dtype == np.float64
    assert _as_matrix([[1, 2], [3, 4]]).dtype == np.float64


def _permuted(rng, x):
    perm = rng.permutation(x.shape[0])
    return x[np.ix_(perm, perm)]


def _permuted_direct_sum(rng, sizes, dtype):
    """A random direct sum with the given block sizes plus a zero row and
    column, in a random permutation."""
    n = sum(sizes) + 1
    m = np.zeros((n, n), dtype=dtype)
    start = 0
    for s in sizes:
        block = rng.standard_normal((s, s))
        if dtype is complex:
            block = block + 1j * rng.standard_normal((s, s))
        m[start : start + s, start : start + s] = block
        start += s
    return _permuted(rng, m)


def _bidiagonal(rng, n):
    return np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)


@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_norm_of_a_permuted_direct_sum(dtype):
    rng = np.random.default_rng([20240811, dtype is complex])
    x = _permuted_direct_sum(rng, (3, 5, 1), dtype)
    sizes = sorted(b.shape for b in _diagonal_blocks(_as_matrix(x)))
    # the 1x1 block and the zero row and column make two blocks of size 1
    assert sizes == [(1, 3, 3), (1, 5, 5), (2, 1, 1)]
    full = np.linalg.svd(x, compute_uv=False)[0]
    assert schatten_norm(x, math.inf) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _bidiagonal(rng, 256),
        lambda rng: _permuted(rng, _bidiagonal(rng, 256)),
        lambda rng: _ginibre(rng, 12),
    ],
    ids=["bidiagonal-256", "permuted-bidiagonal-256", "dense-12"],
)
def test_spectral_norm_of_one_block_is_the_full_svd(make):
    # a bidiagonal pattern is one block found by the longest search; permuted,
    # the search leaves its root in both directions along the chain
    x = make(np.random.default_rng(20240819))
    assert len(_diagonal_blocks(_as_matrix(x))) == 1
    assert schatten_norm(x, math.inf) == np.linalg.svd(x, compute_uv=False)[0]


def test_schatten_norm_large_p_no_overflow():
    x = np.diag([2.0, 1.0]).astype(complex)
    assert schatten_norm(x, 800.0) == pytest.approx(2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# dual_element


def test_dual_element_p2_is_normalized_matrix():
    x = np.diag([3.0, 4.0]).astype(complex)
    z = dual_element(x, 2.0)
    assert np.abs(z - np.diag([0.6, 0.8])).max() < 1e-14


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_dual_element_unitary_input(p):
    n = 3
    u = _random_unitary(RNG, n)
    q = p / (p - 1.0)
    z = dual_element(u, p)
    assert np.abs(z - u / n ** (1.0 / q)).max() < 1e-12


def test_dual_element_p3_diagonal():
    # oracle: certificate identities <Z, X> = ||X||_3 and ||Z||_{3/2} = 1
    x = np.diag([1.0, 2.0]).astype(complex)
    z = dual_element(x, 3.0)
    expected = np.diag([1.0, 4.0]) / 9.0 ** (2.0 / 3.0)
    assert np.abs(z - expected).max() < 1e-12
    assert np.abs(np.diag(z) - [0.23112042478354494, 0.9244816991341798]).max() < 1e-12
    assert np.trace(z.conj().T @ x).real == pytest.approx(schatten_norm(x, 3.0), rel=1e-12)
    assert schatten_norm(z, 1.5) == pytest.approx(1.0, abs=1e-12)


def test_dual_element_p1_polar_on_support():
    # rank-one input: dual element is the polar factor of the support only
    x = np.zeros((2, 2), dtype=complex)
    x[0, 1] = 2.0
    z = dual_element(x, 1.0)
    assert np.abs(z - np.array([[0, 1], [0, 0]])).max() < 1e-14


def test_dual_element_rejects_zero():
    with pytest.raises(ValueError):
        dual_element(np.zeros((2, 2)), 2.0)


# ---------------------------------------------------------------------------
# kron


def test_kron_identity_and_diagonal():
    x = _ginibre(RNG, 3)
    assert np.abs(np.kron(x, np.eye(1)) - x).max() == 0.0
    out = np.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.abs(out - np.diag([3.0, 4.0, 6.0, 8.0])).max() < 1e-14


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_kron_norm_multiplicative(p):
    x, y = _ginibre(RNG, 2), _ginibre(RNG, 2)
    lhs = schatten_norm(np.kron(x, y), p)
    rhs = schatten_norm(x, p) * schatten_norm(y, p)
    assert lhs == pytest.approx(rhs, rel=1e-12)

