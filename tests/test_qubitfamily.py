import math
from dataclasses import astuple

import numpy as np
import pytest

from nclp.cpmap import is_completely_positive
from nclp.qubitfamily import (
    QubitWitness,
    alpha,
    alpha1,
    delta,
    family_max,
    family_maxima,
    _log_m_pow_p,
    family_value,
    family_witness,
    find_counterexample,
    optimal_ab,
    qubit_map,
    qubit_state,
    theta_thresholds,
)


# ---------------------------------------------------------------------------
# state and map


def test_qubit_state_values():
    assert np.abs(qubit_state(0.5).gamma.matrix - np.diag([0.5, 0.5])).max() < 1e-15
    assert np.abs(qubit_state(0.6).gamma.matrix - np.diag([0.4, 0.6])).max() < 1e-15


def test_qubit_state_spectrum():
    for c in (0.1, 0.37, 0.93):
        s = qubit_state(c)
        assert np.trace(s.gamma.matrix).real == pytest.approx(1.0, abs=1e-15)
        assert s.gamma.eigenvalues.min() == pytest.approx(min(c, 1 - c), abs=1e-15)


@pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7])
def test_qubit_state_rejects_endpoint(c):
    with pytest.raises(ValueError):
        qubit_state(c)


def test_qubit_map_unital_cp_state_preserving():
    for c in (0.1, 0.5, 0.9):
        t = qubit_map(c)
        assert is_completely_positive(t)
        assert np.abs(t(np.eye(2)) - np.eye(2)).max() < 1e-14
        gamma = qubit_state(c).gamma.matrix
        assert np.abs(t.adjoint()(gamma) - gamma).max() < 1e-14


# ---------------------------------------------------------------------------
# closed-form scalars


def test_delta_values():
    for p, theta in ((1.0, 0.0), (1.5, 0.3), (2.0, 1.0)):
        assert delta(0.5, p, theta) == pytest.approx(1.0, abs=1e-15)
    for c, p in ((0.2, 1.0), (0.7, 1.5), (0.9, 3.0)):
        assert delta(c, p, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert delta(0.6, 1.0, 0.0) == pytest.approx(1.5, rel=1e-14)


def test_optimal_ab_balanced():
    for p in (1.5, 2.0, 3.0):
        a, b = optimal_ab(1.0, p)
        assert a == pytest.approx(2.0 ** (-1.0 / p), rel=1e-14)
        assert b == pytest.approx(a, rel=1e-14)


def test_optimal_ab_constraint():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = float(rng.uniform(0.05, 20.0))
        p = float(rng.uniform(1.01, 4.0))
        a, b = optimal_ab(d, p)
        assert a**p + b**p == pytest.approx(1.0, abs=1e-12)


def test_optimal_ab_frozen_example():
    a, b = optimal_ab(1.5, 2.0)
    assert a == pytest.approx(0.8320502943378437, abs=1e-15)
    assert b == pytest.approx(0.5547001962252291, abs=1e-15)


def test_optimal_ab_rejects_p1():
    with pytest.raises(ValueError):
        optimal_ab(1.5, 1.0)


def test_family_value_balanced_baseline():
    for p in (1.5, 2.0, 3.0):
        a = b = 2.0 ** (-1.0 / p)
        assert family_value(0.5, p, 0.3, a, b) == pytest.approx(1.0, rel=1e-14)


def test_family_value_p1_endpoint_witnesses():
    assert family_value(0.6, 1.0, 0.0, 1.0, 0.0) == pytest.approx(
        math.sqrt(0.24) * 2.5, rel=1e-12
    )
    assert family_value(0.9, 1.0, 0.0, 1.0, 0.0) == pytest.approx(3.0, abs=1e-12)


def test_family_value_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        family_value(0.5, 1.5, 0.5, -0.1, 1.0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (delta, (0.3, math.inf, 0.2)),
        (delta, (0.3, math.nan, 0.2)),
        (delta, (0.3, 1.5, math.nan)),
        (optimal_ab, (1.5, math.inf)),
        (optimal_ab, (1.5, math.nan)),
        (optimal_ab, (math.inf, 1.5)),
        (optimal_ab, (math.nan, 1.5)),
        (alpha, (math.inf, 0.2)),
        (alpha, (math.nan, 0.2)),
        (alpha, (1.5, math.nan)),
        (alpha, (1.5, 1.5)),
        (alpha1, (math.nan,)),
        (alpha1, (1.5,)),
        (family_value, (0.3, 1.5, 0.2, math.nan, 0.5)),
        (family_value, (0.3, 1.5, 0.2, 0.5, math.nan)),
        (family_value, (0.3, 1.5, 0.2, math.inf, 0.5)),
        (family_value, (0.3, 1.5, 0.2, 0.5, math.inf)),
        (family_witness, (0.3, math.inf, 0.2)),
        (family_witness, (0.3, math.nan, 0.2)),
        (family_witness, (0.3, 1.5, math.nan)),
        (family_witness, (0.3, 1.5, -0.1)),
        (family_witness, (0.3, 0.9, 0.2)),
        (family_witness, (math.nan, 1.5, 0.2)),
    ],
)
def test_family_functions_refuse_non_finite_or_out_of_range(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


# ---------------------------------------------------------------------------
# family_witness


def test_family_witness_specific_values():
    w06, w09 = family_witness(0.6, 1.0, 0.0), family_witness(0.9, 1.0, 0.0)
    assert (w06.a, w06.b) == (w09.a, w09.b) == (1.0, 0.0)
    assert w06.m_value == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert w09.m_value == pytest.approx(3.0, abs=1e-10)


def test_search_objective_matches_family_witness():
    # the scan maximizes a log form; the witness it returns prints the direct form
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = float(rng.uniform(0.02, 0.98))
        p = float(rng.uniform(1.001, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        for q in (p, 1.0):
            objective = math.exp(_log_m_pow_p(c, q, (2.0 * theta - 1.0) / q) / q)
            direct = family_witness(c, q, theta).m_value
            assert abs(objective - direct) <= 1e-12 * direct, (c, q, theta)


def test_family_witness_exceeds_one_near_threshold():
    w = family_witness(0.51, 1.5, 0.0)
    assert w.m_value > 1.0
    assert (w.a, w.b) == optimal_ab(delta(0.51, 1.5, 0.0), 1.5)


# ---------------------------------------------------------------------------
# alpha and thresholds


def test_alpha_at_half_theta():
    for p in (1.2, 1.5, 1.9):
        assert alpha(p, 0.5) == pytest.approx(-2.0 * p, rel=1e-14)


def test_alpha_example_and_factored_form():
    assert alpha(1.5, 0.0) == pytest.approx(3.0, abs=1e-13)
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = float(rng.uniform(1.001, 1.999))
        theta = float(rng.uniform(0.0, 1.0))
        q = p / (p - 1.0)
        th = theta_thresholds(p)
        factored = 8.0 * q * (theta - th.theta0) * (theta - th.theta1)
        assert abs(alpha(p, theta) - factored) <= 1e-12 * max(1.0, abs(factored))


def test_alpha_vanishes_on_boundary_at_p2():
    assert alpha(2.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert alpha(2.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_alpha_rejects_p1_and_alpha1_covers_it():
    with pytest.raises(ValueError):
        alpha(1.0, 0.3)
    assert alpha1(0.0) == 2.0
    assert alpha1(0.5) == 0.0
    assert alpha1(1.0) == -2.0


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


# ---------------------------------------------------------------------------
# counterexample scan


def test_witness_invariants():
    p, theta = 1.5, 0.05
    w = family_max(p, theta)
    assert isinstance(w, QubitWitness)
    assert w.a**p + w.b**p == pytest.approx(1.0, abs=1e-12)
    assert w.m_value == pytest.approx(family_value(w.c, p, theta, w.a, w.b), abs=1e-12)


# (c, a, b, m_value) as float.hex, recorded (numpy 2.4.6, x86-64) from the
# one-theta scan before it ran as a stack: p = 1, argmax at the scan's edge
# (c = 0.999 or 0.001), interior optima, theta = 1/2 and p = 1.99.
FAMILY_MAX_BITS = {
    (1.0, 0.0): ("0x1.ff7ced916872bp-1", "0x1.0000000000000p+0", "0x0.0p+0",
                 "0x1.f9b61d0237251p+4"),
    (1.0, 0.3): ("0x1.7bac1b8b06fc5p-1", "0x1.0000000000000p+0", "0x0.0p+0",
                 "0x1.1aeb03e8a570bp+0"),
    (1.2, 0.9): ("0x1.0624dd2f1aa00p-10", "0x1.fffffffffe285p-1", "0x1.b9461af1b9bfep-34",
                 "0x1.95a429c9bafa2p+1"),
    (1.5, 0.14): ("0x1.15a65d8497654p-2", "0x1.57383d99c1accp-2", "0x1.bb6a0569e0b80p-1",
                  "0x1.0083feea49639p+0"),
    (1.5, 0.5): ("0x1.ffffff72d01a0p-2", "0x1.428a2f98d728bp-1", "0x1.428a2f98d728bp-1",
                 "0x1.0000000000000p+0"),
    (1.5, 0.95): ("0x1.ff7ced916872bp-1", "0x1.07b4c2d7478c4p-12", "0x1.ffffa6c8e2805p-1",
                  "0x1.fee7b2912379ep+0"),
    (1.99, 0.0): ("0x1.0624dd2f1aa00p-10", "0x1.ebaae1e48ba15p-6", "0x1.ffc28e048eaa4p-1",
                  "0x1.0478fa9f72ba3p+0"),
    (1.99, 0.7): ("0x1.ffffff72e45f6p-2", "0x1.6968a0d4fa914p-1", "0x1.6968a0ac883e7p-1",
                  "0x1.fffffffffffffp-1"),
}


def _bits(w):
    return tuple(float(x).hex() for x in astuple(w))


def test_family_max_bits_alone_and_stacked():
    for (p, theta), want in FAMILY_MAX_BITS.items():
        assert _bits(family_max(p, theta)) == want, (p, theta)
    for p in sorted({p for p, _ in FAMILY_MAX_BITS}):
        thetas = [theta for q, theta in FAMILY_MAX_BITS if q == p]
        got = [_bits(w) for w in family_maxima(p, thetas)]
        assert got == [FAMILY_MAX_BITS[p, theta] for theta in thetas], p


def test_counterexample_p1_theta0():
    w = find_counterexample(1.0, 0.0, 1e-6)
    assert w is not None
    assert w.m_value > 1.0 + 1e-6
    # the scan is capped at c = 0.5 + (0.5 - margin); value grows toward the cap
    assert w.m_value == pytest.approx(math.sqrt(w.c / (1.0 - w.c)), rel=1e-12)
    assert (w.a, w.b) == (1.0, 0.0)


def test_counterexample_value_at_specific_c():
    # the c = 0.9 family member certifies exactly 3.0
    assert family_value(0.9, 1.0, 0.0, 1.0, 0.0) == pytest.approx(3.0, abs=1e-12)


def test_counterexample_inside_unbounded_strip():
    w = find_counterexample(1.5, 0.1, 1e-6)
    assert w is not None and w.m_value > 1.0 + 1e-6


def test_no_counterexample_at_half_theta():
    assert find_counterexample(1.5, 0.5, 1e-6) is None


def test_no_counterexample_in_thm43_interval():
    assert find_counterexample(1.5, 0.3, 1e-6) is None


def test_counterexample_above_theta1():
    th1 = theta_thresholds(1.1).theta1
    assert th1 == pytest.approx(0.6581138830084190, abs=1e-12)
    w = find_counterexample(1.1, 0.95, 1e-6)
    assert w is not None and w.m_value > 1.0 + 1e-6


def test_find_counterexample_validates_input():
    with pytest.raises(ValueError):
        find_counterexample(2.0, 0.5, 1e-6)
    with pytest.raises(ValueError):
        find_counterexample(1.5, 0.5, 0.0)
    with pytest.raises(ValueError):
        find_counterexample(1.5, 1.5, 1e-6)


@pytest.mark.parametrize(
    "p, thetas",
    [(2.0, [0.5]), (0.9, [0.5]), (math.nan, [0.5]), (1.5, [0.5, 1.5]), (1.5, [-0.1]),
     (1.5, [0.2, math.nan])],
)
def test_family_maxima_validates_input(p, thetas):
    with pytest.raises(ValueError):
        family_maxima(p, thetas)
