"""The 2x2 counterexample engine.

For c in (0, 1) the family pairs the state diag(1-c, c) with the unital
completely positive map

    T(E_11) = (1-c) I,  T(E_22) = c I,
    T(E_12) = T(E_21) = sqrt(c(1-c)) (E_12 + E_21),

which preserves the state.  On anti-diagonal witnesses the embedded action
has a closed form, and maximizing it over the family parameter certifies
induced norms strictly above 1 for p < 2 and theta outside the interval
[theta0, theta1] = [(1 - sqrt(p-1))/2, (1 + sqrt(p-1))/2].

Scale convention: the ``m_value`` of ``family_witness`` and ``family_max`` is
a norm-scale value (the p-th root of the closed-form p-th power); the
quadratic-coefficient checks against ``alpha`` apply the p-th power first.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cpmap import State, SuperOperator
from .embed import _check_p_theta, _check_theta

# Golden-section step 1/phi.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# The t-scan stays this far away from the degenerate endpoints c in {0, 1}.
T_MARGIN = 1e-3
# Coarse scan size and golden-section stopping width in t.
GRID_POINTS = 1000
REFINE_TOL = 1e-12
# The coarse grid in t = c - 1/2 and its theta-independent terms
# log((1-c)/c) and log(c(1-c)).
_TS = np.linspace(-0.5 + T_MARGIN, 0.5 - T_MARGIN, GRID_POINTS)
_GRID_C = 0.5 + _TS
_GRID_LOG_RATIO = np.log((1.0 - _GRID_C) / _GRID_C)
_GRID_LOG_CC = np.log(_GRID_C * (1.0 - _GRID_C))
# The screen folds the grid onto its first half, c < 1/2: half index h also
# stands for its mirror GRID_POINTS - 1 - h, which is c <-> 1 - c up to the
# grid's rounding.
_HALF_POINTS = (GRID_POINTS + 1) // 2
_HALF_ABS_LOG_RATIO = np.abs(_GRID_LOG_RATIO[:_HALF_POINTS])
_HALF_LOG_CC = _GRID_LOG_CC[:_HALF_POINTS]
# The grid argmax screens |slope| values this many rows at a time, so its
# temporaries stay at most 2 _SCREEN_ROWS x GRID_POINTS whatever the number of
# thetas.
_SCREEN_ROWS = 16
# The screen keeps every grid point within _SCREEN_WINDOW of its row's screened
# maximum, and only those are evaluated exactly.  If |screen - exact| <= E at
# every point and _SCREEN_WINDOW >= 2E, the exact argmax and every point tied
# with it survive: screen <= max exact + E everywhere, while the argmax screens
# at >= max exact - E.  Every term of both forms is bounded over the admissible
# inputs (|log(c(1-c))|, |log((1-c)/c)| <= 6.91, |slope| <= 1, p < 2, and every
# exp argument of the screen for p > 1 is <= 0), so E is a few ulps of 30 plus
# the grid's mirror rounding; the largest |folded screen - mirror envelope|
# measured over the 100 benchmark rows is 2.75e-14, 3e4 times below this.
_SCREEN_WINDOW = 1e-9


def _check_c(c: float):
    # (1-c)/c overflows for c below about 5.6e-309, where d would reach 0 or
    # inf; with the ratio finite, d is positive and finite for every valid
    # (p, theta).
    if not (0.0 < c < 1.0 and (1.0 - c) / c < math.inf):
        raise ValueError(f"family parameter must lie in (0, 1) with (1-c)/c finite, got {c}")


def _check_family_p(p: float):
    # The p rule of both family scans, _family_row and family_max.
    if not (1.0 <= p < 2.0):
        raise ValueError(f"the family certifies norms for p in [1, 2), got {p}")


def qubit_state(c: float) -> State:
    """diag(1-c, c) as a faithful state on M_2."""
    _check_c(c)
    return State.from_matrix(np.diag([1.0 - c, c]))


def qubit_map(c: float) -> SuperOperator:
    """The unital, state-preserving, completely positive family member."""
    _check_c(c)
    s = math.sqrt(c * (1.0 - c))
    flip = np.array([[0.0, s], [s, 0.0]])
    eye2 = np.eye(2)

    def act(e):
        return e[0, 0] * (1.0 - c) * eye2 + e[1, 1] * c * eye2 + (e[0, 1] + e[1, 0]) * flip

    return SuperOperator.from_map(act, 2)


def _delta(c: float, p: float, theta: float) -> float:
    """Anti-diagonal weight d = ((1-c)/c)^((2 theta - 1)/p), with no checks."""
    return math.exp((2.0 * theta - 1.0) / p * math.log((1.0 - c) / c))


# The smallest normal float: below it m^p has lost digits or is 0.
_FLOAT_MIN = sys.float_info.min

# np.logaddexp(0.0, 0.0): numpy returns x + its LOGE2 when x equals the other argument.
_LOG2 = math.log(2.0)


def _logaddexp0(x: float) -> float:
    """``np.logaddexp(x, 0.0)`` for one float, as the libm calls numpy makes:
    x + log1p(e^-x) for x > 0, 0 + log1p(e^x) for x < 0 and x + log 2 at
    x = 0 of either sign.  A numpy ufunc call on one float costs several
    times these two calls.
    """
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    if x < 0.0:
        return 0.0 + math.log1p(math.exp(x))
    return x + _LOG2


def _optimal_ab(d: float, p: float) -> tuple[float, float]:
    """Maximizing pair a = (d^q/(1+d^q))^(1/p), b = (1/(1+d^q))^(1/p), q the
    conjugate of p > 1, with no checks; at p = 1 ``_witness`` uses the
    endpoint pair (1, 0)."""
    q = p / (p - 1.0)
    log_dq = q * math.log(d)
    # log(1 + d^q) computed stably for extreme q * log(d).
    log_denom = _logaddexp0(log_dq)
    return math.exp((log_dq - log_denom) / p), math.exp(-log_denom / p)


def _family_value(c: float, p: float, d: float, a: float, b: float) -> float:
    """Norm of the embedded action on the witness a E_12 + b E_21, with no
    checks: ((c(1-c))^(p/2) ((a + b/d)^p + (a d + b)^p))^(1/p) with
    d = ``_delta(c, p, theta)``; a certified lower bound for the induced norm
    when a^p + b^p = 1.

    Where a p-th power overflows though m is finite (c near its smallest
    accepted value, p just above 1), or where the p-th power of m is 0 or
    subnormal (c tiny and p large), the larger of a + b/d and a d + b is
    factored out; every other cell takes the direct form.  No family scan
    reaches the subnormal case: at c >= T_MARGIN and p < 2 the product is
    about 1e-3 or more, since u^p + v^p >= a^p + b^p = 1.
    """
    u, v = a + b / d, a * d + b
    try:
        base = (c * (1.0 - c)) ** (p / 2.0) * (u**p + v**p)
        if base >= _FLOAT_MIN:
            return float(base ** (1.0 / p))
    except OverflowError:
        pass
    top = max(u, v)
    return math.sqrt(c * (1.0 - c)) * top * ((u / top) ** p + (v / top) ** p) ** (1.0 / p)


def _log_pow_p(log_ratio, log_cc, p: float, slope):
    """log of the p-th power of ``family_witness(c, p, theta).m_value``, the
    objective of the family scan, from log((1-c)/c), log(c(1-c)) and
    slope = (2 theta - 1)/p, the exponent of d = ((1-c)/c)^slope;
    broadcasts over all three."""
    log_d = slope * log_ratio
    if p == 1.0:
        return 0.5 * log_cc + np.log1p(np.exp(log_d))
    q = p / (p - 1.0)
    return (
        (p / 2.0) * log_cc
        + np.logaddexp(-p * log_d, 0.0)
        + (p - 1.0) * np.logaddexp(q * log_d, 0.0)
    )


def _screen_log_pow_p(a, log_cc, p: float):
    """The larger of ``_log_pow_p`` at log d = a and at log d = -a, from
    a = |log d| >= 0 and log(c(1-c)), in a form with no ``logaddexp``;
    broadcasts over both.

    For p > 1 ``_log_pow_p`` is even in log d (both of its log terms move by
    p log d, in opposite directions), and the form is (p/2) log_cc + p a +
    log1p(e^(-p a)) + (p-1) log1p(e^(-q a)), which agrees with it to a few
    ulps, not bitwise.  At p = 1 the form is ``_log_pow_p`` itself at
    log d = a, since log1p(e^(log d)) rises with log d.
    """
    if p == 1.0:
        return _log_pow_p(a, log_cc, p, 1.0)
    q = p / (p - 1.0)
    return (
        (p / 2.0) * log_cc
        + p * a
        + np.log1p(np.exp(-p * a))
        + (p - 1.0) * np.log1p(np.exp(-q * a))
    )


def _grid_argmax(p: float, slope) -> tuple[np.ndarray, np.ndarray]:
    """First index of each slope's maximum of ``_log_pow_p`` over the grid,
    and that maximum, bitwise as a full scan with ``np.argmax`` gives them.

    log d = slope log((1-c)/c) changes sign under c <-> 1 - c and under
    theta <-> 1 - theta, which negates the slope.  So one row of
    ``_screen_log_pow_p`` at |slope| |log((1-c)/c)| over the half grid serves
    every slope of one |slope|, and its value at half index h is, up to a few
    ulps and the grid's mirror rounding, the larger exact value of the pair
    h, GRID_POINTS - 1 - h: the value of both for p > 1, the upper envelope
    at p = 1.  The row maximum is the largest pair value, so the pair holding
    the exact argmax, and every pair tied with it, screens within 2E of the
    screened maximum and is kept (see _SCREEN_WINDOW).  Each kept half index
    and its mirror are evaluated with ``_log_pow_p`` for every distinct signed
    slope of the _SCREEN_ROWS |slope| values screened at a time; that alone
    decides the result.  The signed ``np.unique`` keeps that step at most
    2 _SCREEN_ROWS rows, which grouping by |slope| alone would not when a
    theta repeats.

    One row per |slope| saves work only where theta and 1 - theta give slopes
    of exactly opposite sign in floating point.  On the perfbench phase-sweep
    rows (theta = k/200, p = 1.00..1.99) that holds for 57 to 63 of the 100
    mirror pairs, so a row screens 138 to 144 |slope| values, not 201.
    """
    distinct, row_of = np.unique(slope, return_inverse=True)
    mags, mag_of = np.unique(np.abs(distinct), return_inverse=True)
    by_mag = np.argsort(mag_of, kind="stable")
    best_i = np.empty(distinct.size, dtype=np.intp)
    best_f = np.empty(distinct.size)
    for start in range(0, mags.size, _SCREEN_ROWS):
        a = mags[start : start + _SCREEN_ROWS, None] * _HALF_ABS_LOG_RATIO
        screen = _screen_log_pow_p(a, _HALF_LOG_CC, p)
        keep = screen >= screen.max(axis=1, keepdims=True) - _SCREEN_WINDOW
        lo, hi = np.searchsorted(mag_of, [start, start + _SCREEN_ROWS], sorter=by_mag)
        rows = by_mag[lo:hi]
        # On a 2-D mask np.nonzero costs several times np.flatnonzero.
        k, h = np.divmod(np.flatnonzero(keep[mag_of[rows] - start]), _HALF_POINTS)
        k, j = np.concatenate((k, k)), np.concatenate((h, GRID_POINTS - 1 - h))
        exact = np.full((rows.size, GRID_POINTS), -np.inf)
        exact[k, j] = _log_pow_p(_GRID_LOG_RATIO[j], _GRID_LOG_CC[j], p, distinct[rows][k])
        i = exact.argmax(axis=1)
        best_i[rows] = i
        best_f[rows] = exact[np.arange(rows.size), i]
    return best_i[row_of], best_f[row_of]


def _log_m_pow_p(c, p: float, slope):
    """``_log_pow_p`` at the family parameter ``c``; broadcasts over ``c``."""
    c = np.asarray(c, dtype=float)
    one_minus_c = 1.0 - c
    return _log_pow_p(np.log(one_minus_c / c), np.log(c * one_minus_c), p, slope)


def _float_log_m_pow_p(c: float, p: float, slope: float) -> float:
    """``_log_m_pow_p(c, p, slope)`` for one float c, bitwise: its operations
    in the same order on Python floats, with numpy's own ``np.log`` (whose
    SIMD rounding ``math.log`` does not always share), ``_logaddexp0`` for
    ``np.logaddexp(x, 0.0)`` and numpy's ``np.log1p(np.exp(.))`` at p = 1.
    A numpy call on a 1-element array costs several times these float steps.
    """
    one_minus_c = 1.0 - c
    log_d = slope * float(np.log(one_minus_c / c))
    log_cc = float(np.log(c * one_minus_c))
    if p == 1.0:
        return 0.5 * log_cc + float(np.log1p(np.exp(log_d)))
    q = p / (p - 1.0)
    return (p / 2.0) * log_cc + _logaddexp0(-p * log_d) + (p - 1.0) * _logaddexp0(q * log_d)


def alpha(p: float, theta: float) -> float:
    """Quadratic coefficient 2((2 theta - 1)^2 q - p) of t -> m^p at c = 1/2 + t."""
    _check_p_theta(p, theta)
    if p == 1.0:
        raise ValueError(
            f"quadratic coefficient requires p > 1, got {p}; "
            "use alpha1 for the first-order p = 1 coefficient"
        )
    q = p / (p - 1.0)
    lam = 2.0 * theta - 1.0
    return 2.0 * (lam * lam * q - p)


def alpha1(theta: float) -> float:
    """First-order coefficient -2(2 theta - 1) of t -> m at p = 1."""
    _check_theta(theta)
    return -2.0 * (2.0 * theta - 1.0)


@dataclass(frozen=True)
class QubitWitness:
    """Family member and witness certifying m_value as a norm lower bound."""

    c: float
    a: float
    b: float
    m_value: float


def family_witness(c: float, p: float, theta: float) -> QubitWitness:
    """Family member c with its best anti-diagonal witness a E_12 + b E_21.

    (a, b) is ``_optimal_ab`` for p > 1 and the endpoint pair (1, 0) at
    p = 1; m_value is ``_family_value`` there, which for p > 1 equals
    (gamma (1 + d^-p)(d^q + 1)^(p-1))^(1/p) with gamma = (c(1-c))^(p/2),
    and for p = 1 equals sqrt(c(1-c))(1 + d).  c, p and theta are checked
    once, and ``_witness`` computes d once and all three values from it.
    """
    _check_c(c)
    _check_p_theta(p, theta)
    return QubitWitness(c, *_witness(c, p, theta))


def _witness(c: float, p: float, theta: float) -> tuple[float, float, float]:
    """(a, b, m_value) of ``family_witness`` with no checks: the one place
    that picks the pair (a, b) for a family member."""
    d = _delta(c, p, theta)
    a, b = _optimal_ab(d, p) if p > 1.0 else (1.0, 0.0)
    return a, b, _family_value(c, p, d, a, b)


def _family_row(
    p: float, thetas: Sequence[float]
) -> tuple[list[float], list[tuple[float, float, float]]]:
    """Maximize ``family_witness(c, p, theta).m_value`` over c, for each theta
    at one p: each theta's maximizing c and its (a, b, m_value) from
    ``_witness``, as floats, bitwise what ``family_witness`` gives at the same
    c.  ``family_max`` wraps one theta's in a ``QubitWitness``; the
    phase-diagram CSV reads a whole row's directly.

    Coarse scan of t = c - 1/2 over ``GRID_POINTS`` values in
    (-1/2 + margin, 1/2 - margin): ``_grid_argmax`` gives each theta's first
    best grid cell, bitwise as a full scan of ``_log_pow_p`` would.  Then
    golden-section refinement around that cell down to ``REFINE_TOL`` in t.
    All thetas advance through the refinement as one stack; each one stops at
    its own width, so its witness is bitwise the one it gets alone.
    ``family_max`` runs the same refinement on floats for one theta, and the
    tests hold the two equal bit for bit on every benchmark row.
    """
    _check_family_p(p)
    for theta in thetas:
        _check_theta(theta)
    slope = (2.0 * np.array(thetas, dtype=float) - 1.0) / p
    best_i, best_f = _grid_argmax(p, slope)
    lo = _TS[np.maximum(best_i - 1, 0)]
    hi = _TS[np.minimum(best_i + 1, GRID_POINTS - 1)]

    # Golden-section maximization on each [lo, hi]; a cell whose bracket is
    # down to REFINE_TOL keeps its state while the others advance.  lo and hi
    # are copies of _TS entries, not views, so the steps update in place.
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = _log_m_pow_p(0.5 + x1, p, slope), _log_m_pow_p(0.5 + x2, p, slope)
    live = hi - lo > REFINE_TOL
    while live.any():
        # A left step keeps [lo, x2], moves x1 to x2 and probes below it; a
        # right step keeps [x1, hi], moves x2 to x1 and probes above it.
        left = live & (f1 >= f2)
        right = live ^ left
        np.copyto(hi, x2, where=left)
        np.copyto(lo, x1, where=right)
        np.copyto(x2, x1, where=left)
        np.copyto(f2, f1, where=left)
        np.copyto(x1, x2, where=right)
        np.copyto(f1, f2, where=right)
        width = hi - lo
        step = _INV_PHI * width
        probe = np.where(left, hi - step, lo + step)
        f_probe = _log_m_pow_p(0.5 + probe, p, slope)
        np.copyto(x1, probe, where=left)
        np.copyto(f1, f_probe, where=left)
        np.copyto(x2, probe, where=right)
        np.copyto(f2, f_probe, where=right)
        live = width > REFINE_TOL
    first = f1 >= f2
    t_best = np.where(first, x1, x2)
    grid_wins = best_f > np.where(first, f1, f2)
    t_best = np.where(grid_wins, _TS[best_i], t_best)
    cs = (0.5 + t_best).tolist()
    return cs, [_witness(c, p, theta) for c, theta in zip(cs, thetas)]


def family_max(p: float, theta: float) -> QubitWitness:
    """The maximizing family member at one (p, theta), bitwise what
    ``_family_row(p, [theta])`` gives, which the tests check on every
    benchmark cell.

    The same grid argmax, then the same golden-section refinement on Python
    floats: the stacked loop's brackets, its stop rule (width > REFINE_TOL
    after each move) and its grid-wins rule, with ``_float_log_m_pow_p`` as
    the objective.  One theta through the stacked loop would make some 30
    numpy calls on 1-element arrays per step.
    """
    _check_family_p(p)
    _check_theta(theta)
    slope = (2.0 * theta - 1.0) / p
    (i,), (f_grid,) = _grid_argmax(p, np.array([slope]))
    lo, hi = float(_TS[max(i - 1, 0)]), float(_TS[min(i + 1, GRID_POINTS - 1)])
    width = hi - lo
    x1, x2 = hi - _INV_PHI * width, lo + _INV_PHI * width
    f1, f2 = _float_log_m_pow_p(0.5 + x1, p, slope), _float_log_m_pow_p(0.5 + x2, p, slope)
    while width > REFINE_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            width = hi - lo
            x1 = hi - _INV_PHI * width
            f1 = _float_log_m_pow_p(0.5 + x1, p, slope)
        else:
            lo, x1, f1 = x1, x2, f2
            width = hi - lo
            x2 = lo + _INV_PHI * width
            f2 = _float_log_m_pow_p(0.5 + x2, p, slope)
    t_best, f_best = (x1, f1) if f1 >= f2 else (x2, f2)
    if f_grid > f_best:
        t_best = float(_TS[i])
    c = 0.5 + t_best
    return QubitWitness(c, *_witness(c, p, theta))


def find_counterexample(p: float, theta: float, tol: float) -> QubitWitness | None:
    """Witness with m_value > 1 + tol if the family certifies one, else None.

    A None return means the family maximum over the scan stayed at or below
    1 + tol; it is not evidence that the induced norms are bounded.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    best = family_max(p, theta)
    return best if best.m_value > 1.0 + tol else None
