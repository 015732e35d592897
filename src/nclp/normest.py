"""Certified lower bounds for induced Schatten norms via dual power iteration.

The estimator alternates between the norming element of U(Y) in the dual
space and the norming element of the back-propagated direction U^+(Z); the
objective ||U(Y)||_p is non-decreasing along the iteration, so every reported
value is achieved by its witness and is therefore a sound lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpmap import SuperOperator
from .matcore import dual_element, schatten_norm

DEFAULT_SEED = 0xC0FFEE
# Number of anti-diagonal probe witnesses used for 2x2 maps.
ANTIDIAG_PROBES = 17
# An ascent stops once one step changes the objective by at most this, relatively.
REL_TOL = 1e-10
_TINY = 1e-300


@dataclass(frozen=True)
class EstimatorConfig:
    """Random-restart budget and stopping rule for the dual ascent."""

    restarts: int = 32
    max_iters: int = 500
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class NormEstimate:
    """Witness-certified lower bound: ||witness||_p = 1, ||U(witness)||_p = value."""

    value: float
    witness: np.ndarray
    iterations: int
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class AscentResult:
    value: float
    witness: np.ndarray
    iterations: int
    converged: bool
    objectives: tuple[float, ...]


def dual_ascent(
    u: SuperOperator,
    p: float,
    y0: np.ndarray,
    *,
    max_iters: int = 500,
) -> AscentResult:
    """Run one monotone ascent from the unit-norm start ``y0``.

    For p = 1 the dual steps use the fixed polar-factor / top-dyad
    subgradients, which keeps the objective non-decreasing but need not
    converge; the best iterate is returned either way.
    """
    q = math.inf if p == 1.0 else p / (p - 1.0)
    uadj = u.adjoint()
    y = y0
    value = schatten_norm(u(y), p)
    objectives = [value]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        uy = u(y)
        if schatten_norm(uy, 2.0) < _TINY:
            break
        z = dual_element(uy, p)
        w = uadj(z)
        if schatten_norm(w, 2.0) < _TINY:
            break
        y_next = dual_element(w, q)
        value_next = schatten_norm(u(y_next), p)
        iterations += 1
        objectives.append(value_next)
        if value_next >= value:
            y, value = y_next, value_next
        if abs(objectives[-1] - objectives[-2]) <= REL_TOL * max(value, 1e-30):
            converged = True
            break
    return AscentResult(
        value=value,
        witness=y,
        iterations=iterations,
        converged=converged,
        objectives=tuple(objectives),
    )


def _normalize(y: np.ndarray, p: float) -> np.ndarray:
    norm = schatten_norm(y, p)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    return y / norm


def _matrix_units(n: int) -> list[np.ndarray]:
    units = []
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return units


def _antidiagonal_probes(p: float) -> list[np.ndarray]:
    """Anti-diagonal witnesses a E_12 + b E_21 with a^p + b^p = 1.

    Counterexample families on 2x2 maps live on this plane, so it is always
    probed when the map acts on M_2.
    """
    probes = []
    for frac in np.linspace(0.0, 1.0, ANTIDIAG_PROBES):
        a = float(frac) ** (1.0 / p)
        b = float(1.0 - frac) ** (1.0 / p)
        probes.append(np.array([[0.0, a], [b, 0.0]], dtype=complex))
    return probes


def _ginibre(n: int, seed: int, index: int) -> np.ndarray:
    """Counter-based draw: identical for a given (seed, index) regardless of
    how many other restarts run or in what order."""
    rng = np.random.Generator(np.random.Philox(counter=index, key=seed))
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def estimate_norm(
    u: SuperOperator,
    p: float,
    cfg: EstimatorConfig | None = None,
    *,
    starts=(),
) -> NormEstimate:
    """Best witness value of the dual ascent over deterministic and random starts.

    Starts are, in order: caller-supplied ``starts`` (normalized), all matrix
    units, anti-diagonal probes when the map acts on M_2, then ``cfg.restarts``
    Ginibre draws keyed by (cfg.seed, restart index).  Results are merged by
    maximum value with the earliest start winning ties.
    """
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if cfg is None:
        cfg = EstimatorConfig()
    n = u.dim
    candidates: list[np.ndarray] = [_normalize(np.asarray(s, dtype=complex), p) for s in starts]
    candidates.extend(_matrix_units(n))
    if n == 2:
        candidates.extend(_antidiagonal_probes(p))
    candidates.extend(
        _normalize(_ginibre(n, cfg.seed, k), p) for k in range(cfg.restarts)
    )

    results = [dual_ascent(u, p, y0, max_iters=cfg.max_iters) for y0 in candidates]

    best = results[0]
    for res in results[1:]:
        if res.value > best.value:
            best = res
    witness = _normalize(best.witness, p)
    value = schatten_norm(u(witness), p)
    return NormEstimate(
        value=value,
        witness=witness,
        iterations=best.iterations,
        restarts_used=len(candidates),
        converged=best.converged,
    )
