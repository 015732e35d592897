"""Kronecker products of superoperators and tensor-power divergence counts.

Index convention: the composite algebra M_(n1*n2) uses lexicographic row
indices i = i1 * n2 + i2 (the standard Kronecker layout), matching
``numpy.kron`` for both matrices and states.  Induced norms multiply across
factors on product witnesses, so certified lower bounds for the factors
multiply into a certified lower bound for the product; powers of a factor
bound exceeding 1 therefore diverge.
"""

from __future__ import annotations

import math

import numpy as np

from .cpmap import State, SuperOperator

# Building an n^2 x n^2 action matrix grows as dim^4; largest composite allowed.
MAX_KRON_DIM = 16


def kron_superop(s1: SuperOperator, s2: SuperOperator) -> SuperOperator:
    """The map with (S1 kron S2)(X kron Y) = S1(X) kron S2(Y), extended linearly.

    Under column stacking an action-matrix index of M_n reads (col, row) in
    C order, so K1 carries the axes (l1, k1) on each side and the composite
    needs (l1, l2, k1, k2): broadcast multiplies write every product
    K1 * K2 straight into that layout, K1's entry always first (numpy's
    complex multiply is not bitwise commutative).  One multiply runs its
    inner loop along i2, the last axis, which is short when S2 is the
    smaller factor: for 1 < n2 <= n1 / 2 one multiply per i2 runs it along
    i1 instead.  At n2 = 1 numpy drops the axis, and closer to n1 the extra
    passes cost more than they save.
    """
    n1, n2 = s1.dim, s2.dim
    n = n1 * n2
    if n > MAX_KRON_DIM:
        raise ValueError(f"composite dimension {n} exceeds MAX_KRON_DIM = {MAX_KRON_DIM}")
    k1 = s1.action_matrix.reshape((n1,) * 4)[:, None, :, None, :, None, :, None]
    k2 = s2.action_matrix.reshape((n2,) * 4)[None, :, None, :, None, :, None, :]
    if 1 < n2 <= n1 // 2:
        action = np.empty((n1, n2) * 4, dtype=np.result_type(k1, k2))
        for i in range(n2):
            np.multiply(k1[..., 0], k2[..., i], out=action[..., i])
    else:
        action = k1 * k2
    return SuperOperator._adopt(action.reshape(n * n, n * n))


def kron_state(s1: State, s2: State) -> State:
    """Product state with density gamma1 kron gamma2, divided by its trace.

    Each factor's trace is within TRACE_TOL of 1, but their product's need
    not be; the division keeps the trace at 1.  The product is accepted only
    while lambda_min / lambda_max, the product of the factors' ratios, stays
    above FAITHFUL_RTOL, so high enough powers of a state are refused.
    """
    g = np.kron(s1.matrix, s2.matrix)
    return State.from_matrix(g / np.trace(g).real)


def _power(base: float, n: int) -> float:
    try:
        return float(base) ** n
    except OverflowError:
        return math.inf


def steps_to_exceed(per_factor: float, threshold: float) -> int | None:
    """Smallest n >= 1 with per_factor^n > threshold, or None if no power exceeds it.

    For per_factor > 1 the count is ceil(ln threshold / ln per_factor),
    confirmed against the float powers at n - 1 and n.
    """
    if not per_factor >= 0:
        raise ValueError(f"per_factor must be a non-negative number, got {per_factor}")
    if math.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")
    if _power(per_factor, 1) > threshold:
        return 1
    if per_factor <= 1.0 or not threshold < math.inf:
        return None
    n = max(1, math.ceil(math.log(threshold) / math.log(per_factor)))
    while _power(per_factor, n) <= threshold:
        n += 1
    while n > 1 and _power(per_factor, n - 1) > threshold:
        n -= 1
    return n
