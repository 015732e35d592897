"""Certified lower bounds for induced Schatten norms via dual power iteration.

The estimator alternates between the norming element of U(Y) in the dual
space and the norming element of the back-propagated direction U^+(Z); the
objective ||U(Y)||_p is non-decreasing along the iteration, so every reported
value is achieved by its witness and is therefore a sound lower bound.  The
estimate runs in two phases.  The screen ascends every start to the coarse
REL_TOL: the deterministic starts with the first WAVE Ginibre draws, and each
later wave of WAVE draws only while the one before it raised the best value.
The polish then takes the earliest best start on alone to the fine
POLISH_TOL, and its iterate is the witness.  A wave advances as one (k, n, n)
stack at two batched SVDs per iteration, and every step is taken matrix by
matrix, so a start's result does not depend on the batch it runs in.  At
p = 2 no ascent runs: S^2 is a Hilbert space, so the norm is sigma_max of the
action matrix, attained at its top right singular vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .cpmap import SuperOperator, _apply, _matrix_units, unvec
from .embed import _check_p
from .matcore import _as_matrix, _norm_and_dual, _norms, schatten_norm

DEFAULT_SEED = 0xC0FFEE
# Cap on the Ginibre restarts per estimate unless the caller asks for another.
RESTARTS = 32
# Largest cap accepted.  Only the waves that run are drawn, but a map on which
# every wave improves draws them all, so time and memory grow linearly with it.
MAX_RESTARTS = 1024
# Ginibre starts per wave; the first wave ascends with the deterministic starts.
WAVE = 8
# A screened start stops once one step changes the objective by at most this,
# relatively; the same bound decides whether a wave raised the best value.
REL_TOL = 1e-7
# The polish of the winning start stops at this relative step instead.
POLISH_TOL = 1e-13
# An ascent that has not converged stops after this many steps.
MAX_ITERS = 500
_TINY = 1e-300


@dataclass(frozen=True)
class NormEstimate:
    """Witness-certified lower bound: ||witness||_p = 1, ||U(witness)||_p = value.

    ``iterations`` counts the winning start's steps, screen and polish
    together, and ``converged`` is whether its polish reached POLISH_TOL.
    ``restarts_used`` counts the starts that were screened: the deterministic
    ones plus the Ginibre draws of every wave that ran.  At p = 2 the value
    is the exact norm and no start ascends: they read 0, True and 0.
    """

    value: float
    witness: np.ndarray
    iterations: int
    restarts_used: int
    converged: bool


@dataclass(frozen=True)
class _Batch:
    """Per-start results of :func:`_ascend`, indexed like its starts.

    ``max_drop`` is the largest fall of the objective over one step, rejected
    steps included (-inf for a start that never stepped).
    """

    values: np.ndarray
    witnesses: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    max_drop: np.ndarray


def _image(action: np.ndarray, ys: np.ndarray, p: float) -> tuple[np.ndarray, ...]:
    """sigma_max, Schatten p-norm and dual element of each matrix of the image stack.

    One batched SVD of the map with n^2 x n^2 ``action`` applied to ``ys``.
    """
    u, s, vh = np.linalg.svd(_apply(action, ys))
    return (s[:, 0], *_norm_and_dual(u, s, vh, p))


def _ascend(action: np.ndarray, p: float, ys: np.ndarray, tol: float = REL_TOL) -> _Batch:
    """Monotone dual ascent from every unit-norm start of the (k, n, n) stack at once.

    Each iteration takes the dual element Z of U(Y), steps to the q-dual
    element of U^+(Z), and keeps the step when ||U(Y)||_p does not drop.
    That costs one batched SVD of U^+(Z) and one of U(Y_next); the latter
    also gives the next dual element.  A start retires when two consecutive
    objectives differ by at most ``tol`` relative (converged), when U(Y)
    or U^+(Z) is numerically zero (not converged), or after MAX_ITERS steps.
    For p = 1 the dual steps use the fixed polar-factor / top-dyad
    subgradients, which keeps the objective non-decreasing but need not
    converge; the best iterate is kept either way.
    """
    q = math.inf if p == 1.0 else p / (p - 1.0)
    # one complex cast here, so an exactly real action or start gives the
    # same bits as its complex copy, whichever caller passes it
    action = action.astype(complex, copy=False)
    adjoint = action.conj().T
    k = ys.shape[0]
    ys = ys.astype(complex)
    tops, values, duals = _image(action, ys, p)
    last = values.copy()
    max_drop = np.full(k, -math.inf)
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)
    for _ in range(MAX_ITERS):
        active &= tops >= _TINY
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        # a slice while every start is live: gathering through ``rows`` gives
        # the same bits, but its copies slow the small-n estimates
        idx = slice(None) if rows.size == k else rows
        w_tops, _, y_next = _image(adjoint, duals[idx], q)
        live = w_tops >= _TINY
        if not live.all():
            active[rows[~live]] = False
            idx = rows = rows[live]
            y_next = y_next[live]
            if rows.size == 0:
                break
        tops_next, value_next, dual_next = _image(action, y_next, p)
        iterations[idx] += 1
        # a copy: with a slice ``idx`` this is a view, which the next line overwrites
        previous = last[idx].copy()
        last[idx] = value_next
        max_drop[idx] = np.maximum(max_drop[idx], previous - value_next)
        accept = value_next >= values[idx]
        take, kept = (idx, slice(None)) if accept.all() else (rows[accept], accept)
        ys[take] = y_next[kept]
        values[take] = value_next[kept]
        duals[take] = dual_next[kept]
        tops[take] = tops_next[kept]
        done = np.abs(value_next - previous) <= tol * np.maximum(values[idx], 1e-30)
        converged[idx] |= done
        active[idx] &= ~done
    return _Batch(
        values=values,
        witnesses=ys,
        iterations=iterations,
        converged=converged,
        max_drop=max_drop,
    )


def _normalize(ys: np.ndarray, p: float) -> np.ndarray:
    """Each matrix of a (k, n, n) stack scaled to unit p-norm, with one batched SVD."""
    # the full SVD on purpose: the values-only LAPACK path can round the
    # singular values differently, which would move every start
    norms = _norms(np.linalg.svd(ys)[1], p)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize the zero matrix")
    return ys / norms[:, None, None]


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer (a bool is not), got {value!r}")


def _check_seed(seed: int) -> None:
    """Refuse a non-integer seed or one outside [0, 2**128), the Ginibre key range."""
    _check_integer("seed", seed)
    if not (0 <= seed < 2**128):
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")


def _ginibre(n: int, seed: int, index: int) -> np.ndarray:
    """Counter-based draw: identical for a given (seed, index) regardless of
    how many other restarts run or in what order."""
    rng = np.random.Generator(np.random.Philox(counter=index, key=seed))
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _user_starts(n: int, p: float, starts) -> np.ndarray:
    """The (k, n, n) stack of caller-supplied starts, each checked to be a nonzero
    n x n matrix, at unit p-norm; empty when there are none."""
    user = [_as_matrix(s) for s in starts]
    if any(s.shape != (n, n) for s in user):
        raise ValueError(f"every start must be {n}x{n}")
    return _normalize(np.stack(user), p) if user else np.empty((0, n, n), dtype=complex)


def _draws(n: int, p: float, seed: int, lo: int, hi: int) -> np.ndarray:
    """Ginibre draws lo..hi-1 keyed by ``seed``, each at unit p-norm."""
    return _normalize(np.stack([_ginibre(n, seed, k) for k in range(lo, hi)]), p)


def _start_stack(n: int, p: float, restarts: int, seed: int, starts) -> np.ndarray:
    """The (k, n, n) stack of unit-norm starts, in the order of :func:`estimate_norm`."""
    return np.concatenate(
        [_user_starts(n, p, starts), _matrix_units(n), _draws(n, p, seed, 0, restarts)]
    )


def _waves(
    u: SuperOperator, p: float, restarts: int, seed: int, starts
) -> tuple[np.ndarray, _Batch]:
    """The starts that ran, in order, and their :class:`_Batch` of results.

    The first batch is :func:`_start_stack` with at most WAVE draws.  Each
    later wave ascends the next WAVE draws, up to ``restarts`` in all, and
    runs only while the wave before it raised the best value by more than
    REL_TOL relative.
    """
    first = min(restarts, WAVE)
    ys = [_start_stack(u.dim, p, first, seed, starts)]
    runs = [_ascend(u.action_matrix, p, ys[0])]
    before, best = runs[0].values[: len(ys[0]) - first].max(), runs[0].values.max()
    for lo in range(WAVE, restarts, WAVE):
        if best - before <= REL_TOL * max(before, 1e-30):
            break
        ys.append(_draws(u.dim, p, seed, lo, min(lo + WAVE, restarts)))
        runs.append(_ascend(u.action_matrix, p, ys[-1]))
        before, best = best, max(best, runs[-1].values.max())
    joined = (np.concatenate([getattr(r, f.name) for r in runs]) for f in fields(_Batch))
    return np.concatenate(ys), _Batch(*joined)


def _polish(action: np.ndarray, p: float, run: _Batch) -> tuple[int, _Batch]:
    """The earliest best start of a screened ``run``, and its ascent continued
    alone from its screened iterate until one step moves at most POLISH_TOL
    relative, or for at most MAX_ITERS more steps."""
    best = int(np.argmax(run.values))
    return best, _ascend(action, p, run.witnesses[best:best + 1], POLISH_TOL)


def estimate_norm(
    u: SuperOperator,
    p: float,
    *,
    restarts: int = RESTARTS,
    seed: int = DEFAULT_SEED,
    starts=(),
) -> NormEstimate:
    """Best witness value of the dual ascent over deterministic and random starts.

    Starts are, in order and the same at every n: caller-supplied ``starts``
    (normalized), the n^2 matrix units, then at most ``restarts`` Ginibre
    draws keyed by (``seed``, restart index), with ``restarts`` an integer in
    [1, MAX_RESTARTS] and ``seed`` one in [0, 2**128).  The screen ascends
    the deterministic starts in one batch with draws 0..WAVE-1, each to
    REL_TOL; each later wave ascends the next WAVE draws, and runs only while
    the wave before it raised the best value by more than REL_TOL relative.
    So ``restarts`` is a cap, and ``restarts_used`` counts the starts that
    ran.  A start's result does not depend on its wave.  The earliest start
    with the maximum screened value wins, and the polish ascends it alone to
    POLISH_TOL; its normalized iterate is the witness.

    At p = 2 the value is exact: one SVD of the action matrix gives the
    witness, its top right singular vector.  ``starts`` are still checked,
    but they, ``restarts`` and ``seed`` do not change the result.
    """
    _check_p(p)
    _check_integer("restarts", restarts)
    if not (1 <= restarts <= MAX_RESTARTS):
        raise ValueError(f"restarts must lie in [1, {MAX_RESTARTS}], got {restarts}")
    _check_seed(seed)
    if p == 2.0:
        _user_starts(u.dim, p, starts)
        top = np.linalg.svd(u.action_matrix)[2][0].conj()
        witness = _normalize(unvec(top, u.dim)[None], p)[0]
        iterations, restarts_used, converged = 0, 0, True
    else:
        ys, run = _waves(u, p, restarts, seed, starts)
        best, polish = _polish(u.action_matrix, p, run)
        witness = _normalize(polish.witnesses, p)[0]
        iterations = int(run.iterations[best] + polish.iterations[0])
        restarts_used, converged = len(ys), bool(polish.converged[0])
    return NormEstimate(
        value=schatten_norm(u(witness), p),
        witness=witness,
        iterations=iterations,
        restarts_used=restarts_used,
        converged=converged,
    )
