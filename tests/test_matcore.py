import math

import numpy as np
import pytest

from nclp.cpmap import SuperOperator
from nclp.embed import EmbeddedMap, exact_norm_p2
from nclp.matcore import (
    _as_matrix,
    _block_indices,
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
    with pytest.raises(ValueError, match="p >= 1"):
        dual_element(x, 0.5)
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        schatten_norm(np.ones(2), 2.0)
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


def _p2_norm(x):
    """exact_norm_p2 of the map whose action matrix is x."""
    return exact_norm_p2(EmbeddedMap(2.0, SuperOperator(x)))


@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_norm_of_a_permuted_direct_sum(dtype):
    # exact_norm_p2 reads sigma_max per diagonal block; it must equal the
    # full SVD's (this replaces the schatten_norm assertion, which now takes
    # one SVD and equals the full SVD by construction)
    rng = np.random.default_rng([20240811, dtype is complex])
    x = _permuted_direct_sum(rng, (3, 5, 1, 6), dtype)
    sizes = sorted(idx.shape for idx in _block_indices(x != 0))
    # the 1x1 block and the zero row and column make two blocks of size 1
    assert sizes == [(1, 3), (1, 5), (1, 6), (2, 1)]
    full = np.linalg.svd(x, compute_uv=False)[0]
    assert _p2_norm(x) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: _bidiagonal(rng, 256),
        lambda rng: _permuted(rng, _bidiagonal(rng, 256)),
        lambda rng: _ginibre(rng, 16),
    ],
    ids=["bidiagonal-256", "permuted-bidiagonal-256", "dense-16"],
)
def test_spectral_norm_of_one_block_is_the_full_svd(make):
    # a bidiagonal pattern is one block joined by the longest chain; permuted,
    # the chain's labels arrive from both directions.  exact_norm_p2 factors
    # the one block, a gathered copy of the whole matrix, so it equals the
    # full SVD bit for bit (this replaces the schatten_norm assertion, equal
    # to the full SVD by construction)
    x = make(np.random.default_rng(20240819))
    (stack,) = _block_indices(x != 0)
    assert np.array_equal(stack, np.arange(x.shape[0])[None])
    assert _p2_norm(x) == np.linalg.svd(x, compute_uv=False)[0]


def _components(m):
    """The blocks of m as sorted index lists, by a plain union-find that
    joins i and j for every entry m[i, j] != 0."""
    parent = list(range(m.shape[0]))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(m)):
        parent[find(int(i))] = find(int(j))
    groups = {}
    for i in range(m.shape[0]):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _random_pattern(rng):
    """A matrix of size 1..40 whose entries are nonzero only inside the
    parts of a random partition, with random density, single entries
    without a mirror, and zero rows (some with their columns), in a random
    permutation."""
    n = int(rng.integers(1, 41))
    part = rng.integers(0, rng.integers(1, n + 1), n)
    keep = (part[:, None] == part[None, :]) & (rng.random((n, n)) < rng.uniform(0.02, 1.0))
    dtype = complex if rng.random() < 0.5 else float
    m = np.where(keep, rng.standard_normal((n, n)), 0.0).astype(dtype)
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.integers(0, n, 2)
        m[i, j], m[j, i] = 1.0, 0.0
    for i in rng.choice(n, int(rng.integers(0, n // 4 + 1)), replace=False):
        m[i] = 0.0
        if rng.random() < 0.5:
            m[:, i] = 0.0
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def test_diagonal_blocks_match_an_independent_labelling():
    rng = np.random.default_rng(20261019)
    # a dense mask, the bidiagonal one block and n = 1, then random patterns
    one = np.random.default_rng([20261019, 1])
    fixed = [_ginibre(one, 7), _bidiagonal(one, 12), np.zeros((1, 1))]
    for m in fixed + [_random_pattern(rng) for _ in range(200)]:
        n = m.shape[0]
        stacks = _block_indices(m != 0)
        sizes = [st.shape[-1] for st in stacks]
        assert len(set(sizes)) == len(sizes)  # one stack per size
        blocks = [idx for st in stacks for idx in st]
        assert all((np.diff(b) > 0).all() for b in blocks)  # ascending
        assert sorted(b.tolist() for b in blocks) == _components(m)
        # the diagonal links nothing, so filling it keeps the blocks
        tagged = m.copy()
        np.fill_diagonal(tagged, np.arange(1.0, n + 1.0))
        again = _block_indices(tagged != 0)
        assert all(np.array_equal(a, b) for a, b in zip(again, stacks, strict=True))
        inside = np.zeros((n, n), dtype=bool)
        for idx in blocks:
            inside[np.ix_(idx, idx)] = True
        assert not m[~inside].any() and not m.T[~inside].any()


def _reachable(m, start):
    """Indices joined to ``start`` by a chain of entries nonzero on either
    side of the diagonal, by a breadth-first search."""
    seen, queue = {start}, [start]
    for i in queue:
        for j in np.flatnonzero((m[i] != 0) | (m[:, i] != 0)):
            if int(j) not in seen:
                seen.add(int(j))
                queue.append(int(j))
    return sorted(seen)


def test_diagonal_blocks_link_one_sided_entries():
    # every entry is one-sided (m[i, j] != 0 and m[j, i] == 0): chains that
    # run up, down and both ways through a random permutation
    rng = np.random.default_rng(20261020)
    for n in (2, 5, 17, 40):
        m = np.zeros((n, n))
        for lo in range(0, n, 4):  # blocks of 4 indices, each joined by one path
            for i in range(lo, min(lo + 4, n) - 1):
                if rng.random() < 0.5:
                    m[i, i + 1] = 1.0
                else:
                    m[i + 1, i] = 1.0
        perm = rng.permutation(n)
        m = m[np.ix_(perm, perm)]
        assert not (m.astype(bool) & m.T.astype(bool)).any()
        blocks = {tuple(_reachable(m, i)) for i in range(n)}
        found = [tuple(idx) for st in _block_indices(m != 0) for idx in st]
        assert sorted(found) == sorted(blocks)


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

