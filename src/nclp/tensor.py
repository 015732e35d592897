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
    C order, so ``np.kron(K1, K2)`` carries the axes (l1, k1, l2, k2) on each
    side and the composite needs (l1, l2, k1, k2): one axis swap per side.
    """
    n1, n2 = s1.dim, s2.dim
    n = n1 * n2
    if n > MAX_KRON_DIM:
        raise ValueError(f"composite dimension {n} exceeds MAX_KRON_DIM = {MAX_KRON_DIM}")
    action = (
        np.kron(s1.action_matrix, s2.action_matrix)
        .reshape((n1, n1, n2, n2) * 2)
        .transpose(0, 2, 1, 3, 4, 6, 5, 7)
        .reshape(n * n, n * n)
    )
    return SuperOperator(action)


def kron_state(s1: State, s2: State) -> State:
    """Product state with density gamma1 kron gamma2."""
    return State.from_matrix(np.kron(s1.gamma.matrix, s2.gamma.matrix))


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
    if per_factor < 0:
        raise ValueError(f"per-factor bound must be non-negative, got {per_factor}")
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
