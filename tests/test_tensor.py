import math

import numpy as np
import pytest

from nclp.cpmap import State, SuperOperator
from nclp.embed import build_embedded
from nclp.qubitfamily import qubit_map, qubit_state
from nclp.selfcheck import _ginibre
from nclp.tensor import kron_state, kron_superop, steps_to_exceed

RNG = np.random.default_rng(20240815)


def unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


# ---------------------------------------------------------------------------
# kron_superop


def test_kron_of_identities_is_identity():
    t = kron_superop(SuperOperator.identity(2), SuperOperator.identity(3))
    assert np.abs(t.action_matrix - np.eye(36)).max() == 0.0


def test_kron_defining_property_on_units():
    for n1, n2 in ((2, 2), (2, 3), (3, 2), (8, 2), (2, 8)):
        s1 = SuperOperator(_ginibre(RNG, n1 * n1))
        s2 = SuperOperator(_ginibre(RNG, n2 * n2))
        big = kron_superop(s1, s2)
        for i1, j1 in np.ndindex(n1, n1):
            for i2, j2 in np.ndindex(n2, n2):
                x = np.kron(unit(n1, i1, j1), unit(n2, i2, j2))
                expected = np.kron(s1(unit(n1, i1, j1)), s2(unit(n2, i2, j2)))
                assert np.array_equal(big(x), expected)


def test_kron_on_product_matrices():
    s1 = SuperOperator(_ginibre(RNG, 4))
    s2 = SuperOperator(_ginibre(RNG, 9))
    big = kron_superop(s1, s2)
    x, y = _ginibre(RNG, 2), _ginibre(RNG, 3)
    assert np.abs(big(np.kron(x, y)) - np.kron(s1(x), s2(y))).max() <= 1e-10


def test_kron_dimension_guard():
    s = SuperOperator.identity(5)
    with pytest.raises(ValueError):
        kron_superop(s, s)
    assert kron_superop(SuperOperator.identity(4), SuperOperator.identity(4)).dim == 16


def test_embedding_factorizes_over_kron():
    # embedded map of a product equals the product of embedded maps
    rng = np.random.default_rng(1)
    for p, theta in ((1.0, 0.2), (1.5, 0.7), (2.0, 0.0)):
        c1v, c2v = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))
        t1, t2 = qubit_map(c1v), qubit_map(c2v)
        s1, s2 = qubit_state(c1v), qubit_state(c2v)
        e1 = build_embedded(t1, s1, p, theta)
        e2 = build_embedded(t2, s2, p, theta)
        lhs = build_embedded(kron_superop(t1, t2), kron_state(s1, s2), p, theta)
        rhs = kron_superop(e1.u_action, e2.u_action)
        for col in range(16):
            x = np.zeros(16, dtype=complex)
            x[col] = 1.0
            diff = (lhs.u_action.action_matrix - rhs.action_matrix) @ x
            assert np.abs(diff).max() <= 1e-10


def test_choi_factorizes_after_shuffle():
    for n1, n2 in ((2, 2), (2, 3), (3, 2), (8, 2), (2, 8)):
        s1 = SuperOperator(_ginibre(RNG, n1 * n1))
        s2 = SuperOperator(_ginibre(RNG, n2 * n2))
        big = kron_superop(s1, s2)
        # Choi index (i1, i2, k1, k2) of the product is (i1, k1, i2, k2) of the factors
        perm = np.arange((n1 * n2) ** 2).reshape(n1, n2, n1, n2).transpose(0, 2, 1, 3).ravel()
        lhs = big.choi[np.ix_(perm, perm)]
        rhs = np.kron(s1.choi, s2.choi)
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_kron_state_is_product_state():
    s1, s2 = qubit_state(0.3), qubit_state(0.8)
    prod = kron_state(s1, s2)
    assert prod.dim == 4
    expected = np.kron(s1.gamma.matrix, s2.gamma.matrix)
    assert np.abs(prod.gamma.matrix - expected).max() < 1e-14


def test_powers_of_an_accepted_state_stay_accepted():
    # trace 1 + 4e-13 passes TRACE_TOL, but its cube's trace 1 + 1.2e-12 would not
    base = State.from_matrix(np.diag([0.7 + 4e-13, 0.3]))
    power = base
    for k in (2, 3, 4):
        power = kron_state(power, base)
        assert power.dim == 2**k
        assert abs(np.trace(power.gamma.matrix) - 1.0) <= 1e-15 * 2**k


def test_real_family_stays_float64():
    t = kron_superop(qubit_map(0.3), qubit_map(0.6))
    s = kron_state(qubit_state(0.3), qubit_state(0.6))
    assert t.action_matrix.dtype == np.float64
    assert t.choi.dtype == np.float64
    assert build_embedded(t, s, 2.0, 0.3).u_action.action_matrix.dtype == np.float64


# ---------------------------------------------------------------------------
# lower bounds and divergence


def test_divergence_table_flat_at_one():
    # powers of a factor at or below 1 never pass a threshold above it
    for per_factor in (0.0, 0.5, 1.0):
        assert steps_to_exceed(per_factor, 10.0) is None
        assert steps_to_exceed(per_factor, 1.0) is None


def test_divergence_table_examples():
    assert steps_to_exceed(math.sqrt(1.5), 10.0) == 12
    assert steps_to_exceed(3.0, 10.0) == 3


def test_divergence_table_strictly_increasing_above_one():
    # each count is the first power past the threshold, and larger
    # thresholds need strictly more factors
    counts = [steps_to_exceed(1.2247449, 10.0**k) for k in range(1, 8)]
    assert all(hi > lo for lo, hi in zip(counts, counts[1:]))
    for k, n in enumerate(counts, start=1):
        assert 1.2247449 ** (n - 1) <= 10.0**k < 1.2247449**n


def test_divergence_table_validation():
    with pytest.raises(ValueError):
        steps_to_exceed(-1.0, 10.0)


def test_steps_to_exceed():
    assert steps_to_exceed(1.0, 10.0) is None
    assert steps_to_exceed(2.0, math.inf) is None
    assert steps_to_exceed(2.0, math.nan) is None
    # thresholds below the factor are passed by the first power
    assert steps_to_exceed(0.5, 0.1) == 1
    assert steps_to_exceed(2.0, -1.0) == 1
    # overflow-safe for values that leave the float range quickly
    assert steps_to_exceed(1e200, 10.0) == 1
    assert steps_to_exceed(1e200, 1e300) == 2
    # closed form far past any loop budget, confirmed at n - 1 and n
    per_factor = 1.0000001
    n = steps_to_exceed(per_factor, 1e9)
    assert n == math.ceil(math.log(1e9) / math.log(per_factor))
    assert per_factor ** (n - 1) <= 1e9 < per_factor**n
