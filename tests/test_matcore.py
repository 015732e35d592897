import math

import numpy as np
import pytest

from nclp.matcore import PositiveMatrix, _as_matrix, dual_element, schatten_norm
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
# PositiveMatrix.power


def test_frac_power_examples():
    half = PositiveMatrix.from_matrix(np.diag([0.36, 0.64])).power(0.5).matrix
    assert np.abs(half - np.diag([0.6, 0.8])).max() < 1e-12

    g = _ginibre(RNG, 3)
    pm = PositiveMatrix.from_matrix(g @ g.conj().T)
    assert np.abs(pm.power(0.0).matrix - np.eye(3)).max() < 1e-12

    c = 0.6
    inv = PositiveMatrix.from_matrix(np.diag([1 - c, c])).power(-1.0).matrix
    assert np.abs(inv - np.diag([2.5, 5.0 / 3.0])).max() < 1e-12


def test_frac_power_negative_power_of_singular_raises():
    singular = np.diag([1.0, 0.0]).astype(complex)
    pm = PositiveMatrix.from_matrix(singular)
    with pytest.raises(np.linalg.LinAlgError):
        pm.power(-0.5)
    # non-negative powers of singular matrices are fine
    assert np.abs(pm.power(0.5).matrix - singular).max() < 1e-12


def test_positive_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        PositiveMatrix.from_matrix(np.array([[1.0, 1e-3], [0.0, 1.0]]))


def test_positive_matrix_repairs_tiny_asymmetry():
    h = np.array([[1.0, 1e-14], [0.0, 1.0]])
    pm = PositiveMatrix.from_matrix(h)
    assert np.abs(pm.matrix - pm.matrix.conj().T).max() == 0.0


def test_positive_matrix_rejects_negative_spectrum():
    with pytest.raises(ValueError):
        PositiveMatrix.from_matrix(np.diag([1.0, -0.5]))


def test_positive_matrix_clips_roundoff_negatives():
    u = _random_unitary(RNG, 3)
    w = np.array([1.0, 0.5, -1e-14])
    pm = PositiveMatrix.from_matrix((u * w) @ u.conj().T)
    assert pm.eigenvalues.min() >= 0.0
    assert np.all(np.diff(pm.eigenvalues) <= 0)


def test_positive_matrix_reconstruction():
    g = _ginibre(RNG, 4)
    pm = PositiveMatrix.from_matrix(g @ g.conj().T)
    rebuilt = (pm.eigenvectors * pm.eigenvalues) @ pm.eigenvectors.conj().T
    err = np.linalg.norm(rebuilt - pm.matrix) / np.linalg.norm(pm.matrix)
    assert err < 1e-10


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

