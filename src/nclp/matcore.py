"""Dense matrix kernel: Schatten norms and dual elements.

Everything here is a pure function of immutable inputs; matrices are plain
numpy arrays, float64 when exactly real and complex128 otherwise (see
:func:`_as_matrix`).
"""

from __future__ import annotations

import math

import numpy as np

# Singular values <= SUPPORT_RTOL * sigma_max count as numerically zero.
SUPPORT_RTOL = 1e-12


def _as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D array: float64 when ``x`` is real-typed or every
    imaginary part is exactly zero, complex128 otherwise.

    This is the package's one dtype rule, so exactly real data runs in real
    LAPACK/BLAS.  Narrowing returns a view of the real parts, and real input
    is never cast to complex.
    """
    m = np.asarray(x)
    if m.dtype.kind in "biuf":
        m = m.astype(float, copy=False)
    else:
        m = m.astype(complex, copy=False)
        if not m.imag.any():
            m = m.real
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^*) / 2 of a matrix or a stack, halved before the sum so entries
    near the float limit cannot overflow; halving is exact, so a finite
    result keeps its bits."""
    return m / 2.0 + m.conj().swapaxes(-1, -2) / 2.0


def _diagonal_blocks(m: np.ndarray) -> list[np.ndarray]:
    """The diagonal blocks of a square matrix under the permutation that
    makes it block diagonal, as one (k, s, s) stack per block size s.

    Indices i and j share a block when a chain of entries with
    ``m[i, j] != 0`` or ``m[j, i] != 0`` joins them, so only exact zeros
    split and every entry outside the blocks is zero, as is its mirror.
    Each block keeps its indices in ascending order, so a matrix that does
    not split comes back whole.  A breadth-first search finds the blocks;
    each vectorized frontier step adds at least one index, so there are at
    most N steps.
    """
    n = m.shape[0]
    linked = m != 0
    if linked.all():  # the common dense case needs no search
        return [m[None]]
    linked |= linked.T
    np.fill_diagonal(linked, False)
    # an index linked to no other is a 1x1 block; they are set aside at once
    seen = ~linked.any(axis=0)
    blocks = {1: [np.flatnonzero(seen)]} if seen.any() else {}
    while not seen.all():
        frontier = seen.argmin(keepdims=True)
        members = []
        while frontier.size:
            seen[frontier] = True
            members.append(frontier)
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & ~seen)
        block = np.sort(np.concatenate(members))
        blocks.setdefault(block.size, []).append(block)
    stacks = []
    for size, group in blocks.items():
        idx = np.concatenate(group).reshape(-1, size)
        stacks.append(m[idx[:, :, None], idx[:, None, :]])
    return stacks


def schatten_norm(x, p: float) -> float:
    """p-Schatten norm (sum sigma_i^p)^(1/p); p = inf gives the spectral norm.

    Parameters
    ----------
    x : array_like
        Real or complex matrix with finite entries.
    p : float
        Exponent in [1, inf].

    The spectral norm of a square matrix is the largest over its
    :func:`_diagonal_blocks`, with one values-only SVD per block size.
    """
    if not (p >= 1.0):
        raise ValueError(f"Schatten exponent must satisfy p >= 1, got {p}")
    m = _as_matrix(x)
    if math.isinf(p) and m.shape[0] == m.shape[1]:
        return max(
            float(np.linalg.svd(b, compute_uv=False)[:, 0].max())
            for b in _diagonal_blocks(m)
        )
    return float(_norms(np.linalg.svd(m, compute_uv=False), p))


def dual_element(x, p: float) -> np.ndarray:
    """Norming element Z with ||Z||_q = 1 and <Z, X> = ||X||_p (1/p + 1/q = 1).

    Built from the SVD of ``x`` as U diag(sigma^(p-1)) V^* / ||x||_p^(p-1).
    At the nonsmooth endpoints a fixed subgradient is selected: for p = 1 the
    polar factor restricted to the numerical support, for p = inf the first
    (descending order) singular dyad.  For 1 < p < inf, Z is also the
    Euclidean gradient of Y -> ||Y||_p under the pairing df = Re tr(Z^* dY).
    """
    if not (p >= 1.0):
        raise ValueError(f"dual element requires p >= 1, got {p}")
    u, s, vh = np.linalg.svd(_as_matrix(x))
    if s[0] == 0.0:
        raise ValueError("dual element of the zero matrix is undefined")
    return _norm_and_dual(u, s, vh, p)[1]


def _norms(s, p: float) -> np.ndarray:
    """Schatten p-norms of a stack, read from its singular values.

    ``s`` holds the descending singular values of each matrix, shape (..., n);
    the norms have shape (...), and a matrix's norm does not depend on the
    rest of the stack.  A zero matrix gets norm 0.
    """
    top = s[..., 0]
    if math.isinf(p):
        return top
    # Scale by sigma_max so sigma^p cannot overflow for large p.
    ratio = s / np.where(top == 0.0, 1.0, top)[..., None]
    return top * np.sum(ratio**p, axis=-1) ** (1.0 / p)


def _norm_and_dual(u, s, vh, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Schatten p-norms and dual elements of a stack, read from its SVD.

    ``u, s, vh`` is ``np.linalg.svd`` of a stack of shape (..., n, n).  The
    norms are :func:`_norms`, the dual elements (..., n, n) follow the
    formula of :func:`dual_element` matrix by matrix, so a matrix's result
    does not depend on the rest of the stack.  A zero matrix gets a zero
    dual element for p < inf.
    """
    top = s[..., 0]
    norms = _norms(s, p)
    if math.isinf(p):
        weights = np.zeros_like(s)
        weights[..., 0] = 1.0
        return norms, (u * weights[..., None, :]) @ vh
    if p == 1.0:
        weights = (s > SUPPORT_RTOL * top[..., None]).astype(float)
    else:
        # (sigma/sigma_max)^(p-1) * (sigma_max/||x||_p)^(p-1): both ratios <= 1.
        ratio = s / np.where(top == 0.0, 1.0, top)[..., None]
        scale = (top / np.where(norms == 0.0, 1.0, norms)) ** (p - 1.0)
        weights = ratio ** (p - 1.0) * scale[..., None]
    return norms, (u * weights[..., None, :]) @ vh
