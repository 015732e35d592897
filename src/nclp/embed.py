"""Density-weighted embedding of a superoperator into the Schatten class.

For a map T, a faithful state with density Gamma, p in [1, inf) and theta in
[0, 1], the embedded action is

    U(Y) = Gamma^((1-theta)/p) T(Gamma^(-(1-theta)/p) Y Gamma^(-theta/p)) Gamma^(theta/p)

and its S^p -> S^p induced norm is the quantity the rest of the package
estimates and bounds.  This module also holds the (p, theta) rules: the pair
check, the threshold curves and the bounded / unbounded / unknown regions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cpmap import CompatibilityReport, State, SuperOperator
from .matcore import _block_indices


class Status(Enum):
    BOUNDED = "bounded"
    UNBOUNDED = "unbounded"
    UNKNOWN = "unknown"


class Source(Enum):
    """Which result classifies a (p, theta) pair; it fixes the pair's status."""

    THM41 = "Thm41"  # p >= 2, 2-positive
    THM43 = "Thm43"  # p < 2, theta in [1 - p/2, p/2]
    HJX_HALF = "HJXHalf"  # theta = 1/2, any p
    THM61 = "Thm61"  # p < 2, theta strictly outside [theta0, theta1]
    NONE = "None"

    @property
    def status(self) -> Status:
        if self is Source.THM61:
            return Status.UNBOUNDED
        if self is Source.NONE:
            return Status.UNKNOWN
        return Status.BOUNDED


def _check_p_theta(p: float, theta: float) -> None:
    """Refuse all but finite p >= 1 and theta in [0, 1]; NaN fails both tests."""
    _check_p(p)
    _check_theta(theta)


def _check_p(p: float) -> None:
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")


def _check_theta(theta: float) -> None:
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


@dataclass(frozen=True)
class EmbeddedMap:
    """The embedded action of a map, with the exponent p it was built for."""

    p: float
    u_action: SuperOperator


def build_embedded(
    base: SuperOperator, state: State, p: float, theta: float
) -> EmbeddedMap:
    """Construct the embedded action U for (T, Gamma, p, theta).

    U(Y) = A T(Ai Y Bi) B with A, B, Ai, Bi the powers of Gamma.  Under
    column stacking a vec index i + n*j reads (j, i) in C order, so the
    action matrix K of T, reshaped to (n, n, n^2), takes A and B on its row
    side and Ai, Bi on its column side as four n-point contractions: O(n^5)
    work, where the product (B^T kron A) K (Bi^T kron Ai) costs O(n^6).

    Each contraction is one batched product of n x n factors over a
    contiguous (., n, n) stack, written into one of two buffers, the last of
    which becomes the result without a copy.  A single n x n^3 product would
    be one large BLAS call, which OpenBLAS threads and which faults in fresh
    pages for its result; the batched form is faster at the family's n = 16.
    """
    _check_p_theta(p, theta)
    if base.dim != state.dim:
        raise ValueError(f"dimension mismatch: map {base.dim}, state {state.dim}")
    a = state.power((1.0 - theta) / p)
    b = state.power(theta / p)
    ai = state.power(-(1.0 - theta) / p)
    bi = state.power(-theta / p)
    n = base.dim
    x = np.matmul(a, base.action_matrix.reshape(n, n, n * n))  # axes (l, k, c); A on k, per l
    y = np.empty_like(x)
    np.matmul(b.T, x.transpose(1, 0, 2), out=y.transpose(1, 0, 2))  # B^T on l, per k
    x, y = x.reshape(n * n, n, n), y.reshape(n * n, n, n)  # each row's (j, i) slab
    np.matmul(y, ai, out=x)  # Ai on i
    np.matmul(bi, x, out=y)  # Bi on j
    return EmbeddedMap(p=p, u_action=SuperOperator._adopt(y.reshape(n * n, n * n)))


def exact_norm_p2(emap: EmbeddedMap) -> float:
    """Induced norm at p = 2: S^2 is a Hilbert space, so this is the largest
    singular value of the n^2 x n^2 action matrix, read per diagonal block
    (one values-only SVD per block size): the family's k-th tensor power
    splits into 2^k blocks of size 2^k."""
    if emap.p != 2.0:
        raise ValueError(f"exact norm only available at p = 2, got p = {emap.p}")
    m = emap.u_action.action_matrix
    stacks = _block_indices(m != 0)
    blocks = [m[None]] if stacks is None else [m[i[:, :, None], i[:, None, :]] for i in stacks]
    return max(float(np.linalg.svd(b, compute_uv=False)[:, 0].max()) for b in blocks)


def upper_bound(rep: CompatibilityReport, p: float, source: Source) -> float | None:
    """Upper bound C_inf^(1 - 1/p) * C_1^(1/p), where ``source`` is the
    :func:`classify_region` result of the pair (p, theta); the caller already
    holds it, so the pair is classified once.

    Both results are applied only to maps certified completely positive (the
    Choi test certifies nothing weaker, and CP implies the 2-positivity that
    Thm 4.1 asks for): Thm 4.1 covers p >= 2 at any theta, the
    Haagerup-Junge-Xu bound covers theta = 1/2 at any p.  These are the two
    sources :func:`classify_region` assigns them.  Returns None when
    ``source`` is neither, or the map is not certified CP.
    """
    _check_p(p)
    if not rep.completely_positive or source not in (Source.THM41, Source.HJX_HALF):
        return None
    return rep.c_inf ** (1.0 - 1.0 / p) * rep.c1 ** (1.0 / p)


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


def classify_region(p: float, theta: float) -> Source:
    """The result that classifies (p, theta); its ``status`` is bounded /
    unbounded / unknown.

    Boundary conventions: the interval [1 - p/2, p/2] is closed (bounded on
    its endpoints); the curves theta = (1 -+ sqrt(p-1))/2 are excluded from
    the unbounded region (points exactly on them are unknown).
    """
    return _classify_row(p, (theta,))[0]


def _classify_row(p: float, thetas: Sequence[float]) -> list[Source]:
    """``classify_region`` of (p, theta) for each theta at one p: the one home
    of the rule.  p is checked once and each theta once, and the thresholds
    are computed once per row."""
    _check_p(p)
    for theta in thetas:
        _check_theta(theta)
    if p >= 2.0:
        return [Source.THM41] * len(thetas)
    lo, hi = 1.0 - p / 2.0, p / 2.0
    th = theta_thresholds(p)
    return [
        Source.HJX_HALF if theta == 0.5
        else Source.THM43 if lo <= theta <= hi
        else Source.THM61 if theta < th.theta0 or theta > th.theta1
        else Source.NONE
        for theta in thetas
    ]
