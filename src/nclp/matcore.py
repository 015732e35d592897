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


def _block_indices(linked: np.ndarray) -> list[np.ndarray]:
    """The blocks of a square matrix whose entries are nonzero where the bool
    mask ``linked`` is set, under the permutation that makes the matrix block
    diagonal: one (k, s) stack of index rows per block size s.  A matrix that
    does not split is the one block ``[np.arange(n)[None]]``.  Only
    ``embed.exact_norm_p2`` and the CP test factor per block, each gathering
    its blocks from its own array.

    Indices i and j share a block when a chain of entries with
    ``linked[i, j]`` or ``linked[j, i]`` joins them, so only exact zeros
    split and every entry outside the blocks is zero, as is its mirror.
    Each row lists a block's indices in ascending order.  Each index starts
    labelled by itself; each round hooks every label onto the least label
    linked to it and follows labels to their fixed point, and a round that
    changes nothing leaves each block labelled by its least index.
    """
    n = linked.shape[0]
    if linked.all():  # the common dense case needs no labelling
        return [np.arange(n)[None]]
    # On a 2-D mask np.nonzero costs several times np.flatnonzero.  Each
    # entry links both ways, so the edges are (i, j) and (j, i): cheaper
    # than reading the mask again through a strided transpose.
    i, j = np.divmod(np.flatnonzero(linked), n)
    i, j = np.concatenate((i, j)), np.concatenate((j, i))
    # labels are compared by their bytes: for index arrays of one length
    # that is np.array_equal without its call overhead, several times the
    # cost of a round's other steps on small matrices
    label = np.arange(n)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[i], label[j])
        jumped = hooked[hooked]
        while jumped.tobytes() != hooked.tobytes():
            hooked, jumped = jumped, jumped[jumped]
        if hooked.tobytes() == label.tobytes():
            break
        label = hooked
    order = np.argsort(label, kind="stable")
    size = np.bincount(label)[label[order]]
    return [order[size == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(size))]


def schatten_norm(x, p: float) -> float:
    """p-Schatten norm (sum sigma_i^p)^(1/p); p = inf gives the spectral norm.

    Parameters
    ----------
    x : array_like
        Real or complex matrix with finite entries.
    p : float
        Exponent in [1, inf].

    One values-only SVD of the whole matrix, for every p and shape.
    """
    if not (p >= 1.0):
        raise ValueError(f"Schatten exponent must satisfy p >= 1, got {p}")
    return float(_norms(np.linalg.svd(_as_matrix(x), compute_uv=False), p))


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


def _ratios(s) -> np.ndarray:
    """Singular values over each matrix's sigma_max, 0 for a zero matrix; the
    scaling keeps sigma^p from overflowing for large p."""
    top = s[..., 0]
    return s / np.where(top == 0.0, 1.0, top)[..., None]


def _norms(s, p: float, ratio=None) -> np.ndarray:
    """Schatten p-norms of a stack, read from its singular values.

    ``s`` holds the descending singular values of each matrix, shape (..., n);
    the norms have shape (...), and a matrix's norm does not depend on the
    rest of the stack.  A zero matrix gets norm 0.  ``ratio`` is
    :func:`_ratios` of ``s`` when the caller has it already.
    """
    top = s[..., 0]
    if math.isinf(p):
        return top
    if ratio is None:
        ratio = _ratios(s)
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
    if math.isinf(p):
        weights = np.zeros_like(s)
        weights[..., 0] = 1.0
        return top, (u * weights[..., None, :]) @ vh
    ratio = _ratios(s)
    norms = _norms(s, p, ratio)
    if p == 1.0:
        weights = (s > SUPPORT_RTOL * top[..., None]).astype(float)
    else:
        # (sigma/sigma_max)^(p-1) * (sigma_max/||x||_p)^(p-1): both ratios <= 1.
        scale = (top / np.where(norms == 0.0, 1.0, norms)) ** (p - 1.0)
        weights = ratio ** (p - 1.0) * scale[..., None]
    return norms, (u * weights[..., None, :]) @ vh
