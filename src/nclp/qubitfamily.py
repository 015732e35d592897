"""The 2x2 counterexample engine.

For c in (0, 1) the family pairs the state diag(1-c, c) with the unital
completely positive map

    T(E_11) = (1-c) I,  T(E_22) = c I,
    T(E_12) = T(E_21) = sqrt(c(1-c)) (E_12 + E_21),

which preserves the state.  On anti-diagonal witnesses the embedded action
has a closed form, and maximizing it over the family parameter certifies
induced norms strictly above 1 for p < 2 and theta outside the interval
[theta0, theta1] = [(1 - sqrt(p-1))/2, (1 + sqrt(p-1))/2].

Scale convention: ``family_value`` and the ``m_value`` of ``family_witness``
are norm-scale values (the p-th root of the closed-form p-th power); the
quadratic-coefficient checks against ``alpha`` apply the p-th power first.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cpmap import State, SuperOperator

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


def _check_c(c: float):
    if not (0.0 < c < 1.0):
        raise ValueError(f"family parameter must lie in (0, 1), got {c}")


def _check_p_theta(p: float, theta: float):
    if not (1.0 <= p < math.inf and 0.0 <= theta <= 1.0):
        raise ValueError(f"need finite p >= 1 and theta in [0, 1], got ({p}, {theta})")


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


def delta(c: float, p: float, theta: float) -> float:
    """Anti-diagonal weight ((1-c)/c)^((2 theta - 1)/p)."""
    _check_c(c)
    _check_p_theta(p, theta)
    return float(math.exp((2.0 * theta - 1.0) / p * math.log((1.0 - c) / c)))


def optimal_ab(delta_value: float, p: float) -> tuple[float, float]:
    """Maximizing pair a = (d^q/(1+d^q))^(1/p), b = (1/(1+d^q))^(1/p), q conjugate.

    Only defined for finite p > 1; at p = 1 ``family_witness`` uses the
    endpoint pair (1, 0).
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"optimal pair requires finite p > 1, got {p}")
    if not 0.0 < delta_value < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta_value}")
    q = p / (p - 1.0)
    # log(1 + d^q) computed stably for extreme q * log(d).
    log_denom = np.logaddexp(q * math.log(delta_value), 0.0)
    a = math.exp((q * math.log(delta_value) - log_denom) / p)
    b = math.exp(-log_denom / p)
    return a, b


def family_value(c: float, p: float, theta: float, a: float, b: float) -> float:
    """Norm of the embedded action on the witness a E_12 + b E_21.

    Returns ((c(1-c))^(p/2) ((a + b/d)^p + (a d + b)^p))^(1/p) with
    d = delta(c, p, theta); a certified lower bound for the induced norm
    when a^p + b^p = 1.
    """
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise ValueError(f"witness coefficients must be finite and >= 0, got ({a}, {b})")
    d = delta(c, p, theta)
    base = (c * (1.0 - c)) ** (p / 2.0) * ((a + b / d) ** p + (a * d + b) ** p)
    return float(base ** (1.0 / p))


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


def _log_m_pow_p(c, p: float, slope):
    """``_log_pow_p`` at the family parameter ``c``; broadcasts over ``c``."""
    c = np.asarray(c, dtype=float)
    return _log_pow_p(np.log((1.0 - c) / c), np.log(c * (1.0 - c)), p, slope)


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
    _check_p_theta(1.0, theta)
    return -2.0 * (2.0 * theta - 1.0)


@dataclass(frozen=True)
class Thresholds:
    """theta0 = (1 - sqrt(p-1))/2 and its mirror theta1 = 1 - theta0."""

    theta0: float
    theta1: float


def theta_thresholds(p: float) -> Thresholds:
    if not (1.0 <= p <= 2.0):
        raise ValueError(f"thresholds are defined for p in [1, 2], got {p}")
    half_width = 0.5 * math.sqrt(p - 1.0)
    return Thresholds(theta0=0.5 - half_width, theta1=0.5 + half_width)


@dataclass(frozen=True)
class QubitWitness:
    """Family member and witness certifying m_value as a norm lower bound."""

    c: float
    a: float
    b: float
    m_value: float


def family_witness(c: float, p: float, theta: float) -> QubitWitness:
    """Family member c with its best anti-diagonal witness a E_12 + b E_21.

    (a, b) is ``optimal_ab`` for p > 1 and the endpoint pair (1, 0) at
    p = 1; m_value is ``family_value`` there, which for p > 1 equals
    (gamma (1 + d^-p)(d^q + 1)^(p-1))^(1/p) with gamma = (c(1-c))^(p/2),
    and for p = 1 equals sqrt(c(1-c))(1 + d).
    """
    d = delta(c, p, theta)
    a, b = optimal_ab(d, p) if p > 1.0 else (1.0, 0.0)
    return QubitWitness(c=c, a=a, b=b, m_value=family_value(c, p, theta, a, b))


def family_maxima(p: float, thetas: Sequence[float]) -> list[QubitWitness]:
    """Maximize ``family_witness(c, p, theta).m_value`` over c, for each theta at one p.

    Coarse scan of t = c - 1/2 over ``GRID_POINTS`` values in
    (-1/2 + margin, 1/2 - margin), one theta at a time, then golden-section
    refinement around each theta's best grid cell down to ``REFINE_TOL`` in
    t.  All thetas advance through the refinement as one stack; each one
    stops at its own width, so its witness is bitwise the one it gets alone.
    """
    if not (1.0 <= p < 2.0):
        raise ValueError(f"the family certifies norms for p in [1, 2), got {p}")
    for theta in thetas:
        _check_p_theta(p, theta)
    slope = (2.0 * np.array(thetas, dtype=float) - 1.0) / p
    best_i = np.empty(slope.size, dtype=np.intp)
    best_f = np.empty(slope.size)
    for k, s in enumerate(slope):
        values = _log_pow_p(_GRID_LOG_RATIO, _GRID_LOG_CC, p, s)
        best_i[k] = np.argmax(values)
        best_f[k] = values[best_i[k]]
    lo = _TS[np.maximum(best_i - 1, 0)]
    hi = _TS[np.minimum(best_i + 1, GRID_POINTS - 1)]

    # Golden-section maximization on each [lo, hi]; a cell whose bracket is
    # down to REFINE_TOL keeps its state while the others advance.
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = _log_m_pow_p(0.5 + x1, p, slope), _log_m_pow_p(0.5 + x2, p, slope)
    live = hi - lo > REFINE_TOL
    while live.any():
        # A left step keeps [lo, x2] and probes below x1; a right step keeps
        # [x1, hi] and probes above x2.
        left = live & (f1 >= f2)
        right = live & ~left
        hi = np.where(left, x2, hi)
        lo = np.where(right, x1, lo)
        step = _INV_PHI * (hi - lo)
        probe = np.where(left, hi - step, lo + step)
        f_probe = _log_m_pow_p(0.5 + probe, p, slope)
        x1, x2 = (
            np.where(left, probe, np.where(right, x2, x1)),
            np.where(right, probe, np.where(left, x1, x2)),
        )
        f1, f2 = (
            np.where(left, f_probe, np.where(right, f2, f1)),
            np.where(right, f_probe, np.where(left, f1, f2)),
        )
        live = hi - lo > REFINE_TOL
    t_best = np.where(f1 >= f2, x1, x2)
    grid_wins = best_f > np.where(f1 >= f2, f1, f2)
    t_best = np.where(grid_wins, _TS[best_i], t_best)
    return [family_witness(0.5 + t, p, theta) for t, theta in zip(t_best.tolist(), thetas)]


def family_max(p: float, theta: float) -> QubitWitness:
    """``family_maxima`` at a single theta."""
    return family_maxima(p, [theta])[0]


def find_counterexample(p: float, theta: float, tol: float) -> QubitWitness | None:
    """Witness with m_value > 1 + tol if the family certifies one, else None.

    A None return means the family maximum over the scan stayed at or below
    1 + tol; it is not evidence that the induced norms are bounded.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    best = family_max(p, theta)
    return best if best.m_value > 1.0 + tol else None
