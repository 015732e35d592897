import math
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from nclp.cpmap import is_completely_positive
from nclp.embed import theta_thresholds
from nclp.qubitfamily import (
    QubitWitness,
    alpha,
    alpha1,
    _GRID_LOG_CC,
    _GRID_LOG_RATIO,
    _HALF_ABS_LOG_RATIO,
    _HALF_LOG_CC,
    _HALF_POINTS,
    _SCREEN_WINDOW,
    _delta,
    _family_row,
    _float_log_m_pow_p,
    _grid_argmax,
    _log_m_pow_p,
    _log_pow_p,
    _logaddexp0,
    _optimal_ab,
    _screen_log_pow_p,
    family_max,
    family_witness,
    qubit_map,
    qubit_state,
)


# ---------------------------------------------------------------------------
# state and map


def test_qubit_state_values():
    assert np.abs(qubit_state(0.5).matrix - np.diag([0.5, 0.5])).max() < 1e-15
    assert np.abs(qubit_state(0.6).matrix - np.diag([0.4, 0.6])).max() < 1e-15


def test_qubit_state_spectrum():
    for c in (0.1, 0.37, 0.93):
        s = qubit_state(c)
        assert np.trace(s.matrix).real == pytest.approx(1.0, abs=1e-15)
        assert s.eigenvalues.min() == pytest.approx(min(c, 1 - c), abs=1e-15)


@pytest.mark.parametrize("c", [0.0, 1.0, -0.2, 1.7])
def test_qubit_state_rejects_endpoint(c):
    with pytest.raises(ValueError):
        qubit_state(c)


# (1-c)/c overflows at these c: the smallest subnormal, a c below the edge,
# and the c one ulp below the smallest c whose ratio is finite.
C_RATIO_OVERFLOWS = [5e-324, 5.5e-309, math.nextafter(5.56268464626801e-309, 0.0)]


@pytest.mark.parametrize("c", C_RATIO_OVERFLOWS)
def test_family_refuses_c_whose_ratio_overflows(c):
    calls = [(qubit_state, (c,)), (qubit_map, (c,))]
    calls += [(family_witness, (c, p, theta)) for p in (1.0, 1.5, 3.0) for theta in (0.0, 0.5, 1.0)]
    for fn, args in calls:
        with pytest.raises(ValueError, match="family parameter must lie in"):
            fn(*args)


@pytest.mark.parametrize("c", [5.56268464626801e-309, 1.0 - 2.0**-53])
def test_family_witness_is_defined_at_the_c_edges(c):
    # the smallest c whose (1-c)/c is finite, and the largest c below 1
    for p in (1.0, math.nextafter(1.0, 2.0), 1.5):
        for theta in (0.0, 0.5, 1.0):
            assert 0.0 < _delta(c, p, theta) < math.inf, (p, theta)
            w = family_witness(c, p, theta)
            assert w.c == c and math.isfinite(w.m_value), (p, theta)


@pytest.mark.parametrize(
    "c, p, theta",
    [
        # (a + b/d)^p or (a d + b)^p exceeds the float range, m does not;
        # the ids are the theta of each
        pytest.param(5.56268464626801e-309, math.nextafter(1.0, 2.0), 0.0, id="0.0"),
        pytest.param(5.56268464626801e-309, math.nextafter(1.0, 2.0), 1.0, id="1.0"),
        # m^p underflows to 0 (m = 2e-150 and 2.33e-136) or is subnormal
        (1e-300, 3.0, 0.5),
        (5.56268464626801e-309, 10.0, 0.2),
        (1e-206, 3.0, 0.5),
    ],
)
def test_family_value_is_finite_where_its_pth_power_overflows(c, p, theta):
    # The oracle takes the kernel's own d: exp(+-709.78 / p) carries the
    # rounding of its argument, about 1e-13 relative, into d.
    mpmath = pytest.importorskip("mpmath")
    w = family_witness(c, p, theta)
    with mpmath.workdps(40):
        c_, p_, d, a, b = (mpmath.mpf(x) for x in (c, p, _delta(c, p, theta), w.a, w.b))
        m = mpmath.sqrt(c_ * (1 - c_)) * ((a + b / d) ** p_ + (a * d + b) ** p_) ** (1 / p_)
        assert abs(w.m_value - m) <= 1e-14 * m, (w.m_value, m)


def test_qubit_map_unital_cp_state_preserving():
    for c in (0.1, 0.5, 0.9):
        t = qubit_map(c)
        assert is_completely_positive(t)
        assert np.abs(t(np.eye(2)) - np.eye(2)).max() < 1e-14
        gamma = qubit_state(c).matrix
        assert np.abs(t.adjoint()(gamma) - gamma).max() < 1e-14


# ---------------------------------------------------------------------------
# closed-form scalars


def test_delta_values():
    for p, theta in ((1.0, 0.0), (1.5, 0.3), (2.0, 1.0)):
        assert _delta(0.5, p, theta) == pytest.approx(1.0, abs=1e-15)
    for c, p in ((0.2, 1.0), (0.7, 1.5), (0.9, 3.0)):
        assert _delta(c, p, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert _delta(0.6, 1.0, 0.0) == pytest.approx(1.5, rel=1e-14)


def test_optimal_ab_balanced():
    # d = 1 at c = 1/2
    for p in (1.5, 2.0, 3.0):
        w = family_witness(0.5, p, 0.3)
        assert w.a == pytest.approx(2.0 ** (-1.0 / p), rel=1e-14)
        assert w.b == pytest.approx(w.a, rel=1e-14)


def test_optimal_ab_constraint():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = float(rng.uniform(0.05, 20.0))
        p = float(rng.uniform(1.01, 4.0))
        a, b = _optimal_ab(d, p)
        assert a**p + b**p == pytest.approx(1.0, abs=1e-12)


def test_optimal_ab_frozen_example():
    a, b = _optimal_ab(1.5, 2.0)
    assert a == pytest.approx(0.8320502943378437, abs=1e-15)
    assert b == pytest.approx(0.5547001962252291, abs=1e-15)


def test_family_value_balanced_baseline():
    for p in (1.5, 2.0, 3.0):
        assert family_witness(0.5, p, 0.3).m_value == pytest.approx(1.0, rel=1e-14)


def test_family_value_p1_endpoint_witnesses():
    assert family_witness(0.6, 1.0, 0.0).m_value == pytest.approx(
        math.sqrt(0.24) * 2.5, rel=1e-12
    )
    assert family_witness(0.9, 1.0, 0.0).m_value == pytest.approx(3.0, abs=1e-12)


P_RANGE = r"p must lie in \[1, inf\), got"
THETA_RANGE = r"theta must lie in \[0, 1\], got"
# family_max and _family_row share this p check.
FAMILY_P_RANGE = r"the family certifies norms for p in \[1, 2\), got"
# Each case with the one message it must raise, keyed by its id; a new case
# takes the next number, and a removed case's number is not reused.  The
# "delta" and "family_value" rows are the refusals of the checked delta and
# m-value, which family_witness now makes before it computes either.
REFUSED = {
    "delta-args0": (family_witness, (0.3, math.inf, 0.2), P_RANGE),
    "delta-args1": (family_witness, (0.3, math.nan, 0.2), P_RANGE),
    "delta-args2": (family_witness, (0.3, 1.5, math.nan), THETA_RANGE),
    "alpha-args7": (alpha, (math.inf, 0.2), P_RANGE),
    "alpha-args8": (alpha, (math.nan, 0.2), P_RANGE),
    "alpha-args9": (alpha, (1.5, math.nan), THETA_RANGE),
    "alpha-args10": (alpha, (1.5, 1.5), THETA_RANGE),
    "alpha1-args11": (alpha1, (math.nan,), THETA_RANGE),
    "alpha1-args12": (alpha1, (1.5,), THETA_RANGE),
    "family_witness-args17": (family_witness, (0.3, math.inf, 0.2), P_RANGE),
    "family_witness-args18": (family_witness, (0.3, math.nan, 0.2), P_RANGE),
    "family_witness-args19": (family_witness, (0.3, 1.5, math.nan), THETA_RANGE),
    "family_witness-args20": (family_witness, (0.3, 1.5, -0.1), THETA_RANGE),
    "family_witness-args21": (family_witness, (0.3, 0.9, 0.2), P_RANGE),
    "family_witness-args22": (
        family_witness, (math.nan, 1.5, 0.2), "family parameter must lie in"
    ),
    "delta-args23": (family_witness, (0.3, -math.inf, 0.2), P_RANGE),
    "delta-args24": (family_witness, (0.3, 1.5, math.inf), THETA_RANGE),
    "alpha-args25": (alpha, (0.5, 0.2), P_RANGE),
    "alpha-args26": (alpha, (1.5, -math.inf), THETA_RANGE),
    "alpha1-args27": (alpha1, (-0.1,), THETA_RANGE),
    "family_value-args28": (family_witness, (0.3, 0.9, 0.2), P_RANGE),
    "family_max-args29": (family_max, (2.0, 0.2), FAMILY_P_RANGE),
    "family_max-args30": (family_max, (0.9, 0.2), FAMILY_P_RANGE),
    "family_max-args31": (family_max, (math.nan, 0.2), FAMILY_P_RANGE),
    "family_max-args32": (family_max, (math.inf, 0.2), FAMILY_P_RANGE),
    "family_max-args33": (family_max, (1.5, math.nan), THETA_RANGE),
    "family_max-args34": (family_max, (1.5, -0.1), THETA_RANGE),
    "family_max-args35": (family_max, (1.5, 1.5), THETA_RANGE),
}


@pytest.mark.parametrize("fn, args, message", REFUSED.values(), ids=list(REFUSED))
def test_family_functions_refuse_non_finite_or_out_of_range(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


# ---------------------------------------------------------------------------
# the scalar kernel against the numpy forms it replaced


def _hex_or_error(fn, *args):
    """The float.hex of each number ``fn`` returns, or its error's type and text."""
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, QubitWitness):
        out = astuple(out)
    return tuple(float(x).hex() for x in out)


def test_logaddexp0_is_numpy_logaddexp_bitwise():
    rng = np.random.default_rng(23)
    draws = rng.uniform(-800.0, 800.0, 100_000).tolist()
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 700.0, -700.0,
             745.0, -745.0, 800.0, -800.0]
    differ = [x for x in draws + edges
              if _logaddexp0(x).hex() != float(np.logaddexp(x, 0.0)).hex()]
    assert not differ, differ[:5]


def _numpy_optimal_ab(d, p):
    """The maximizing pair as it was written with ``np.logaddexp``, kept as the
    oracle of ``_optimal_ab`` (finite p > 1 and d > 0 only)."""
    q = p / (p - 1.0)
    log_denom = np.logaddexp(q * math.log(d), 0.0)
    a = math.exp((q * math.log(d) - log_denom) / p)
    b = math.exp(-log_denom / p)
    return a, b


def _numpy_family_witness(c, p, theta):
    """``family_witness`` written out on ``_numpy_optimal_ab``: its checks and
    messages, d = ((1-c)/c)^((2 theta - 1)/p), the pair and the value."""
    if not (0.0 < c < 1.0 and (1.0 - c) / c < math.inf):
        raise ValueError(f"family parameter must lie in (0, 1) with (1-c)/c finite, got {c}")
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    d = math.exp((2.0 * theta - 1.0) / p * math.log((1.0 - c) / c))
    a, b = _numpy_optimal_ab(d, p) if p > 1.0 else (1.0, 0.0)
    u, v = a + b / d, a * d + b
    try:
        m_pow_p = (c * (1.0 - c)) ** (p / 2.0) * (u**p + v**p)
    except OverflowError:
        m_pow_p = 0.0
    if m_pow_p >= sys.float_info.min:
        m = m_pow_p ** (1.0 / p)
    else:
        # a p-th power overflows, or m^p is subnormal or 0, though m is a
        # normal float: factor out max(u, v)
        top = max(u, v)
        m = math.sqrt(c * (1.0 - c)) * top * ((u / top) ** p + (v / top) ** p) ** (1.0 / p)
    return c, a, b, m


def test_optimal_ab_and_family_witness_keep_their_bits_and_errors():
    rng = np.random.default_rng(24)
    # Below 5.56268464626801e-309, (1-c)/c overflows and c is refused.
    edge_c = [5e-324, 5.5e-309, math.nextafter(5.56268464626801e-309, 0.0),
              5.56268464626801e-309, 1e-300, 1e-12, 0.5, 1.0 - 1e-16, 1.0 - 2.0**-53,
              0.0, 1.0, -0.2, math.nan]
    edge_p = [1.0, math.nextafter(1.0, 2.0), 1.999999, 2.0, 3.0, 0.9, math.inf, math.nan]
    edge_theta = [0.0, 0.5, 1.0, -0.1, 1.1, math.nan]
    cells = [(float(c), float(p), float(t)) for c, p, t in zip(
        rng.uniform(0.0, 1.0, 3000), rng.uniform(1.0, 3.0, 3000), rng.uniform(0.0, 1.0, 3000)
    )]
    cells += [(c, p, t) for c in edge_c for p in edge_p for t in edge_theta]
    for c, p, theta in cells:
        assert _hex_or_error(family_witness, c, p, theta) == _hex_or_error(
            _numpy_family_witness, c, p, theta
        ), (c, p, theta)
    deltas = np.exp(rng.uniform(-700.0, 700.0, 3000)).tolist()
    deltas += [5e-324, 1e-300, 1.0, 1e300]
    pair_p = [p for p in edge_p if 1.0 < p < math.inf]
    for d, p in zip(deltas, rng.uniform(1.0, 3.0, len(deltas)).tolist()):
        for q in (p, *pair_p):
            assert _hex_or_error(_optimal_ab, d, q) == _hex_or_error(
                _numpy_optimal_ab, d, q
            ), (d, q)


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
    assert (w.a, w.b) == _optimal_ab(_delta(0.51, 1.5, 0.0), 1.5)


# ---------------------------------------------------------------------------
# alpha and thresholds


def test_alpha_at_half_theta():
    for p in (1.2, 1.5, 1.9):
        assert alpha(p, 0.5) == pytest.approx(-2.0 * p, rel=1e-14)


def test_alpha_example_and_factored_form():
    # the factored form 8 q (theta - theta0)(theta - theta1) is checked by
    # selfcheck.check_taylor_alpha
    assert alpha(1.5, 0.0) == pytest.approx(3.0, abs=1e-13)


def test_alpha_vanishes_on_boundary_at_p2():
    assert alpha(2.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert alpha(2.0, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_alpha_rejects_p1_and_alpha1_covers_it():
    with pytest.raises(ValueError):
        alpha(1.0, 0.3)
    assert alpha1(0.0) == 2.0
    assert alpha1(0.5) == 0.0
    assert alpha1(1.0) == -2.0


# ---------------------------------------------------------------------------
# counterexample scan


def test_float_objective_is_the_numpy_objective_bitwise():
    # the one-theta refinement's objective against the stacked loop's, on
    # whole arrays of c as the stack evaluates them
    rng = np.random.default_rng(25)
    cs = 0.5 + rng.uniform(-0.5 + 1e-3, 0.5 - 1e-3, 20_000)
    cs = np.concatenate((cs, [1e-3, 0.5, 1.0 - 1e-3, 1e-12, 1.0 - 2.0**-53]))
    for p in (1.0, math.nextafter(1.0, 2.0), 1.37, 1.999999):
        for slope in (-1.0 / p, -0.3, 0.0, 0.7 / p, 1.0 / p):
            want = _log_m_pow_p(cs, p, slope).tolist()
            got = [_float_log_m_pow_p(c, p, slope) for c in cs.tolist()]
            differ = [c for c, x, y in zip(cs.tolist(), got, want) if x.hex() != y.hex()]
            assert not differ, (p, slope, differ[:5])


def test_witness_invariants():
    p, theta = 1.5, 0.05
    w = family_max(p, theta)
    assert isinstance(w, QubitWitness)
    assert w.a**p + w.b**p == pytest.approx(1.0, abs=1e-12)
    assert astuple(w) == astuple(family_witness(w.c, p, theta))


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
        got = [_bits(QubitWitness(c, *w)) for c, w in zip(*_family_row(p, thetas))]
        assert got == [FAMILY_MAX_BITS[p, theta] for theta in thetas], p
    # family_max's float refinement against the stacked loop on every cell
    # of the argmax cases, the 100 benchmark rows among them
    for p, thetas in _argmax_cases():
        stacked = [_bits(QubitWitness(c, *w)) for c, w in zip(*_family_row(p, thetas))]
        alone = [_bits(family_max(p, theta)) for theta in thetas]
        assert alone == stacked, (p, thetas)


def _full_scan(p, slope):
    """The per-theta grid scan that ``_grid_argmax`` replaced, kept as its oracle."""
    best_i = np.empty(slope.size, dtype=np.intp)
    best_f = np.empty(slope.size)
    for k, s in enumerate(slope):
        values = _log_pow_p(_GRID_LOG_RATIO, _GRID_LOG_CC, p, s)
        best_i[k] = np.argmax(values)
        best_f[k] = values[best_i[k]]
    return best_i, best_f


def _argmax_cases():
    """(p, thetas): the benchmark rows, the ends of p and theta, random cells,
    and theta lists that probe the fold onto |slope| and the half grid."""
    benchmark_thetas = [k * 0.005 for k in range(201)]
    yield from ((1.0 + k / 100, benchmark_thetas) for k in range(100))
    yield from ((p, [0.0, 0.5, 1.0]) for p in (1.0, math.nextafter(1.0, 2.0), 1.999999))
    rng = np.random.default_rng(20)
    for _ in range(40):
        yield float(rng.uniform(1.0, 2.0)), rng.uniform(0.0, 1.0, 37).tolist()
    # Not mirror-symmetric: no theta has its 1 - theta in the list.
    yield from ((p, [0.05, 0.2, 0.61, 0.77, 0.9]) for p in (1.0, 1.3))
    # Repeats, of one theta and of a mirror pair.
    yield from ((p, [0.3, 0.3, 0.7, 0.3, 0.95, 0.95, 0.05, 0.7]) for p in (1.0, 1.5))
    # Exactly mirrored: the thetas are dyadic, so theta and 1 - theta give
    # slopes of exactly opposite sign.
    mirrored = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]
    yield from ((p, mirrored) for p in (1.0, 1.25, 1.75))
    yield from ((p, [0.1]) for p in (1.0, 1.6))
    # At p = 1 the side of each mirror pair where log d >= 0 dominates, and
    # the argmax sits at one end of the grid.
    yield 1.0, [0.0, 0.1, 0.2, 0.35]
    yield 1.0, [0.65, 0.8, 0.9, 1.0]


def test_grid_argmax_is_the_full_scan_bitwise():
    worst = 0.0
    for p, thetas in _argmax_cases():
        slope = (2.0 * np.array(thetas) - 1.0) / p
        got_i, got_f = _grid_argmax(p, slope)
        want_i, want_f = _full_scan(p, slope)
        assert np.array_equal(got_i, want_i), (p, thetas)
        assert got_f.tobytes() == want_f.tobytes(), (p, thetas)
        # The folded screen against the larger exact value of each mirror
        # pair h, GRID_POINTS - 1 - h.
        exact = _log_pow_p(_GRID_LOG_RATIO, _GRID_LOG_CC, p, slope[:, None])
        envelope = np.maximum(exact[:, :_HALF_POINTS], exact[:, ::-1][:, :_HALF_POINTS])
        a = np.abs(slope)[:, None] * _HALF_ABS_LOG_RATIO
        screen = _screen_log_pow_p(a, _HALF_LOG_CC, p)
        worst = max(worst, float(np.abs(screen - envelope).max()))
    # The screen is exact only while it stays far inside its window; a numpy
    # whose exp or log1p is much less accurate must fail here, not silently.
    assert worst < _SCREEN_WINDOW / 1e3, worst


def test_grid_argmax_temporaries_do_not_grow_with_the_thetas():
    # 8192 distinct thetas: one (thetas x half grid) bool mask alone is 4 MB.
    thetas = np.linspace(0.0, 1.0, 8192)
    slope = (2.0 * thetas - 1.0) / 1.5
    tracemalloc.start()
    try:
        _grid_argmax(1.5, slope)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_counterexample_p1_theta0():
    w = family_max(1.0, 0.0)
    # the scan is capped at c = 0.5 + (0.5 - margin); value grows toward the cap
    assert w.m_value == pytest.approx(math.sqrt(w.c / (1.0 - w.c)), rel=1e-12)
    assert (w.a, w.b) == (1.0, 0.0)


def test_counterexample_value_at_specific_c():
    # the c = 0.9 family member certifies exactly 3.0
    assert family_witness(0.9, 1.0, 0.0).m_value == pytest.approx(3.0, abs=1e-12)


def test_no_counterexample_at_half_theta():
    # the counterexample command's "none" cell: no member exceeds 1 + tol
    assert family_max(1.5, 0.5).m_value <= 1.0 + 1e-6


def test_counterexample_above_theta1():
    # the counterexample command's witness cell (1.1, 0.95) lies above this theta1
    _, th1 = theta_thresholds(1.1)
    assert th1 == pytest.approx(0.6581138830084190, abs=1e-12)


@pytest.mark.parametrize(
    "p, thetas",
    [(2.0, [0.5]), (0.9, [0.5]), (math.nan, [0.5]), (1.5, [0.5, 1.5]), (1.5, [-0.1]),
     (1.5, [0.2, math.nan])],
)
def test_family_maxima_validates_input(p, thetas):
    with pytest.raises(ValueError):
        _family_row(p, thetas)
