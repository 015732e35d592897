import math

import numpy as np
import pytest

from nclp.cpmap import State, SuperOperator, compatibility
from nclp.embed import (
    Source,
    Status,
    _classify_row,
    build_embedded,
    classify_region,
    exact_norm_p2,
    theta_thresholds,
    upper_bound,
)
from nclp.qubitfamily import qubit_map, qubit_state
from nclp.selfcheck import _ginibre, _random_state
from nclp.tensor import kron_state, kron_superop

RNG = np.random.default_rng(20240813)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T.copy()


# ---------------------------------------------------------------------------
# build_embedded


def test_identity_embeds_to_identity():
    emap = build_embedded(SuperOperator.identity(3), _random_state(RNG, 3), 1.7, 0.3)
    assert np.abs(emap.u_action.action_matrix - np.eye(9)).max() <= 1e-12


@pytest.mark.parametrize("p,theta", [(1.0, 0.0), (1.5, 0.25), (1.5, 0.8), (3.0, 1.0)])
def test_qubit_antidiagonal_action(p, theta):
    c = 0.6
    emap = build_embedded(qubit_map(c), qubit_state(c), p, theta)
    d = ((1 - c) / c) ** ((2 * theta - 1) / p)
    s = math.sqrt(c * (1 - c))
    assert np.abs(emap.u_action(E12) - s * (E12 + d * E21)).max() < 1e-12
    assert np.abs(emap.u_action(E21) - s * (E12 / d + E21)).max() < 1e-12


def _assert_sandwich_on_units(t, state, p, theta, units):
    """build_embedded's action on each matrix unit E_ij, (i, j) in ``units``,
    against the direct A T(Ai E_ij Bi) B."""
    n = t.dim
    emap = build_embedded(t, state, p, theta)
    a = state.power((1 - theta) / p)
    b = state.power(theta / p)
    ai = state.power(-(1 - theta) / p)
    bi = state.power(-theta / p)
    for i, j in units:
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = 1.0
        direct = a @ t(ai @ e @ bi) @ b
        assert np.abs(emap.u_action(e) - direct).max() <= 1e-10


@pytest.mark.parametrize("p", [1.0, 1.4, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_embedded_action_matches_direct_sandwich_on_units(n, theta, p):
    rng = np.random.default_rng([20240813, n])
    t = SuperOperator(_ginibre(rng, n * n))
    state = _random_state(rng, n)
    _assert_sandwich_on_units(t, state, p, theta, np.ndindex(n, n))


# one family member per tensor factor, so the product is no plain power
FACTOR_C = (0.3, 0.6, 0.45, 0.8)


def _family_product(k):
    t, state = qubit_map(FACTOR_C[0]), qubit_state(FACTOR_C[0])
    for c in FACTOR_C[1:k]:
        t, state = kron_superop(t, qubit_map(c)), kron_state(state, qubit_state(c))
    return t, state


@pytest.mark.parametrize("p,theta", [(1.0, 0.0), (1.3, 0.9), (2.0, 0.7)])
@pytest.mark.parametrize("k", [2, 3])
def test_embedded_action_matches_direct_sandwich_on_family_powers(k, p, theta):
    # the shapes tensor-power runs: real maps with diagonal product states,
    # n = 4 and 8 on every unit
    t, state = _family_product(k)
    assert t.action_matrix.dtype == float and state.matrix.dtype == float
    _assert_sandwich_on_units(t, state, p, theta, np.ndindex(t.dim, t.dim))


def test_embedded_action_matches_direct_sandwich_at_n16():
    t, state = _family_product(4)
    units = [(0, 0), (0, 15), (15, 0), (5, 10), (6, 9), (15, 15)]
    _assert_sandwich_on_units(t, state, 1.2, 0.05, units)


def test_embedded_action_is_a_fresh_read_only_array():
    rng = np.random.default_rng([20240813, 7])
    t = SuperOperator(_ginibre(rng, 9))
    state = _random_state(rng, 3)
    u = build_embedded(t, state, 1.5, 0.3).u_action.action_matrix
    assert not u.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0
    for held in (t.action_matrix, state.matrix, state.eigenvalues, state.eigenvectors):
        assert not np.shares_memory(u, held)


P_RANGE = r"p must lie in \[1, inf\), got"
THETA_RANGE = r"theta must lie in \[0, 1\], got"
# (p, theta) pairs refused by the one check, with the message each one gets
BAD_P_THETA = [
    (math.inf, 0.5, P_RANGE),
    (-math.inf, 0.5, P_RANGE),
    (math.nan, 0.5, P_RANGE),
    (0.9, 0.5, P_RANGE),
    (2.0, 1.2, THETA_RANGE),
    (2.0, -0.1, THETA_RANGE),
    (1.5, math.nan, THETA_RANGE),
    (1.5, math.inf, THETA_RANGE),
    (1.5, -math.inf, THETA_RANGE),
]


def test_build_embedded_validates_arguments():
    t = SuperOperator.identity(2)
    s = qubit_state(0.5)
    for p, theta, message in BAD_P_THETA:
        with pytest.raises(ValueError, match=message):
            build_embedded(t, s, p, theta)
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_embedded(SuperOperator.identity(3), s, 2.0, 0.5)


# ---------------------------------------------------------------------------
# exact_norm_p2


def test_exact_norm_p2_identity():
    emap = build_embedded(SuperOperator.identity(2), _random_state(RNG, 2), 2.0, 0.4)
    assert exact_norm_p2(emap) == pytest.approx(1.0, abs=1e-12)


def test_exact_norm_p2_qubit_family_is_one():
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = float(rng.uniform(0.1, 0.9))
        theta = float(rng.uniform(0.0, 1.0))
        emap = build_embedded(qubit_map(c), qubit_state(c), 2.0, theta)
        assert exact_norm_p2(emap) == pytest.approx(1.0, abs=1e-10)


def test_exact_norm_p2_scales_homogeneously():
    t = SuperOperator(_ginibre(RNG, 4))
    state = _random_state(RNG, 2)
    base = exact_norm_p2(build_embedded(t, state, 2.0, 0.6))
    scaled = exact_norm_p2(build_embedded(SuperOperator(3.0 * t.action_matrix), state, 2.0, 0.6))
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_exact_norm_p2_requires_p2():
    emap = build_embedded(SuperOperator.identity(2), qubit_state(0.5), 1.5, 0.5)
    with pytest.raises(ValueError):
        exact_norm_p2(emap)


# ---------------------------------------------------------------------------
# upper_bound


def bound_at(rep, p, theta):
    return upper_bound(rep, p, classify_region(p, theta))


def test_upper_bound_for_state_preserving_unital_cp():
    rep = compatibility(qubit_map(0.3), qubit_state(0.3))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert bound_at(rep, p, 0.5) == pytest.approx(1.0, abs=1e-10)


def test_upper_bound_scaled_identity():
    rep = compatibility(SuperOperator(2.0 * np.eye(4)), _random_state(RNG, 2))
    assert bound_at(rep, 2.0, 0.3) == pytest.approx(2.0, abs=1e-10)


def test_upper_bound_interpolates_constants():
    # state preparation with mismatched target: c_inf = 1, c1 = 4
    gamma = np.diag([0.2, 0.8]).astype(complex)
    sigma = np.diag([0.8, 0.2]).astype(complex)
    t = SuperOperator.from_map(lambda e: np.trace(sigma @ e) * np.eye(2), 2)
    state = State.from_matrix(gamma)
    rep = compatibility(t, state)
    assert rep.c_inf == pytest.approx(1.0, abs=1e-10)
    assert rep.c1 == pytest.approx(4.0, abs=1e-10)
    assert bound_at(rep, 2.0, 0.0) == pytest.approx(2.0, abs=1e-9)


def test_upper_bound_source():
    # only the two theorems with an explicit constant give a bound
    rep = compatibility(qubit_map(0.3), qubit_state(0.3))
    for source in Source:
        bound = upper_bound(rep, 1.5, source)
        assert (bound is not None) == (source in (Source.THM41, Source.HJX_HALF)), source
    for p, theta in ((2.0, 0.0), (3.0, 1.0), (2.0, 0.5), (4.0, 0.5)):
        assert classify_region(p, theta) is Source.THM41
        assert bound_at(rep, p, theta) is not None
    for p in (1.0, 1.5, 1.99):
        assert classify_region(p, 0.5) is Source.HJX_HALF
        assert bound_at(rep, p, 0.5) is not None


def test_upper_bound_none_without_theorem():
    # p < 2 off theta = 1/2 has no explicit constant, even where bounded
    rep = compatibility(qubit_map(0.3), qubit_state(0.3))
    for p, theta in ((1.0, 0.0), (1.5, 0.4), (1.5, 0.6), (1.99, 1.0)):
        assert bound_at(rep, p, theta) is None
    # a map that is not CP gets no bound at any (p, theta)
    transpose = SuperOperator.from_map(lambda e: e.T.copy(), 2)
    rep = compatibility(transpose, qubit_state(0.3))
    for p, theta in ((2.0, 0.0), (3.0, 0.5), (1.5, 0.5), (1.0, 0.0)):
        assert bound_at(rep, p, theta) is None


def test_upper_bound_rejects_bad_p():
    rep = compatibility(qubit_map(0.3), qubit_state(0.3))
    for p in (0.5, math.inf):
        with pytest.raises(ValueError):
            upper_bound(rep, p, Source.HJX_HALF)


# ---------------------------------------------------------------------------
# classify_region


@pytest.mark.parametrize(
    "p,theta,status,source",
    [
        (3.0, 0.9, Status.BOUNDED, Source.THM41),
        (2.0, 0.0, Status.BOUNDED, Source.THM41),
        (1.5, 0.4, Status.BOUNDED, Source.THM43),
        (1.5, 0.25, Status.BOUNDED, Source.THM43),  # closed interval endpoint
        (1.5, 0.5, Status.BOUNDED, Source.HJX_HALF),
        (1.0, 0.5, Status.BOUNDED, Source.HJX_HALF),
        (1.5, 0.1, Status.UNBOUNDED, Source.THM61),
        (1.5, 0.9, Status.UNBOUNDED, Source.THM61),
        (1.0, 0.0, Status.UNBOUNDED, Source.THM61),
        (1.0, 1.0, Status.UNBOUNDED, Source.THM61),
        (1.5, 0.2, Status.UNKNOWN, Source.NONE),
        (1.5, 0.8, Status.UNKNOWN, Source.NONE),
    ],
)
def test_classify_region_table(p, theta, status, source):
    assert classify_region(p, theta) is source
    assert source.status is status


def test_classify_region_threshold_value():
    # theta0(1.5) = (1 - sqrt(0.5)) / 2
    theta0 = 0.5 * (1.0 - math.sqrt(0.5))
    assert theta0 == pytest.approx(0.14644660940672627, abs=1e-15)
    assert classify_region(1.5, 0.14).status is Status.UNBOUNDED
    assert classify_region(1.5, 0.15).status is Status.UNKNOWN
    # points exactly on the curve stay unknown
    assert classify_region(1.5, theta0).status is Status.UNKNOWN


def test_classify_region_validates_input():
    for p, theta, message in BAD_P_THETA + [(0.5, 0.5, P_RANGE)]:
        with pytest.raises(ValueError, match=message):
            classify_region(p, theta)


def _per_cell_rule(p, theta):
    """``classify_region`` as it was written cell by cell, kept as the oracle
    of the row classifier."""
    if p >= 2.0:
        return Source.THM41
    if theta == 0.5:
        return Source.HJX_HALF
    if 1.0 - p / 2.0 <= theta <= p / 2.0:
        return Source.THM43
    th = theta_thresholds(p)
    if theta < th.theta0 or theta > th.theta1:
        return Source.THM61
    return Source.NONE


def test_row_classifier_is_the_per_cell_rule():
    ps = [1.0 + k * 0.03 for k in range(40)] + [math.nextafter(2.0, 1.0), 2.0, 2.5]
    for p in ps:
        thetas = [k / 200 for k in range(201)] + [
            0.5, 1.0 - p / 2.0, p / 2.0, theta_thresholds(min(p, 2.0)).theta0,
            theta_thresholds(min(p, 2.0)).theta1,
        ]
        thetas = [t for t in thetas if 0.0 <= t <= 1.0]
        want = [_per_cell_rule(p, t) for t in thetas]
        assert _classify_row(p, thetas) == want, p
        assert [classify_region(p, t) for t in thetas] == want, p


@pytest.mark.parametrize(
    "p,theta,source",
    # cells on or next to a theta curve, decided by how sqrt(p - 1) rounds:
    # pinned to what the rule gives today, which only an exact test of the
    # curves should change
    [(1.64, 0.1, Source.THM61), (1.81, 0.05, Source.NONE), (1.25, 0.25, Source.NONE),
     (1.01, 0.55, Source.NONE)],
)
def test_row_classifier_on_curve_cells(p, theta, source):
    assert _classify_row(p, [0.5, theta]) == [Source.HJX_HALF, source]
    assert classify_region(p, theta) is source


def test_row_classifier_refuses_what_classify_region_refuses():
    for p, theta, message in BAD_P_THETA + [(0.5, 0.5, P_RANGE), (1.5, 1.5, THETA_RANGE)]:
        with pytest.raises(ValueError, match=message):
            _classify_row(p, [0.0, 0.5, theta])


# ---------------------------------------------------------------------------
# theta_thresholds


def test_thresholds_table():
    t1 = theta_thresholds(1.0)
    assert (t1.theta0, t1.theta1) == (0.5, 0.5)
    t2 = theta_thresholds(2.0)
    assert (t2.theta0, t2.theta1) == (0.0, 1.0)
    t125 = theta_thresholds(1.25)
    assert t125.theta0 == pytest.approx(0.25, abs=1e-15)
    assert t125.theta1 == pytest.approx(0.75, abs=1e-15)


def test_thresholds_structure():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = float(rng.uniform(1.0, 2.0))
        th = theta_thresholds(p)
        assert th.theta0 + th.theta1 == pytest.approx(1.0, abs=1e-15)
        assert th.theta0 <= 0.5 <= th.theta1
    with pytest.raises(ValueError):
        theta_thresholds(2.5)

