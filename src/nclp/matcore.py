"""Dense matrix kernel: Schatten norms, dual elements, fractional powers.

Everything here is a pure function of immutable inputs; matrices are plain
numpy arrays, float64 when exactly real and complex128 otherwise (see
:func:`_as_matrix`), and positive matrices carry a cached eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting / silently repairing Hermitian asymmetry.
HERMITICITY_RTOL = 1e-12
# Eigenvalues in [-EIG_CLIP_RTOL * lambda_max, 0) are clipped to 0.
EIG_CLIP_RTOL = 1e-12
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
    """(m + m^*) / 2, halved before the sum so entries near the float limit
    cannot overflow; halving is exact, so a finite result keeps its bits."""
    return m / 2.0 + m.conj().T / 2.0


def schatten_norm(x, p: float) -> float:
    """p-Schatten norm (sum sigma_i^p)^(1/p); p = inf gives the spectral norm.

    Parameters
    ----------
    x : array_like
        Real or complex matrix with finite entries.
    p : float
        Exponent in [1, inf].
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


@dataclass(frozen=True)
class PositiveMatrix:
    """Hermitian positive-semidefinite matrix with cached eigendecomposition.

    ``eigenvalues`` are real, clipped at zero and sorted descending;
    ``eigenvectors`` holds the matching orthonormal columns.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, h) -> "PositiveMatrix":
        m = _as_matrix(h)
        n, nc = m.shape
        if n != nc:
            raise ValueError(f"positive matrix must be square, got {m.shape}")
        scale = np.abs(m).max()
        asym = np.abs(m - m.conj().T).max()
        if scale > 0 and asym > HERMITICITY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
                f"{HERMITICITY_RTOL:g} * max|entry| = {HERMITICITY_RTOL * scale:.3e}"
            )
        herm = _hermitian_part(m)
        w, v = np.linalg.eigh(herm)
        w, v = w[::-1].copy(), v[:, ::-1].copy()  # descending
        lam_max = max(w[0], 0.0)
        if w[-1] < -EIG_CLIP_RTOL * lam_max:
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue {w[-1]:.3e}"
            )
        np.clip(w, 0.0, None, out=w)
        w.setflags(write=False)
        v.setflags(write=False)
        herm.setflags(write=False)
        return cls(matrix=herm, eigenvalues=w, eigenvectors=v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def power(self, s: float) -> "PositiveMatrix":
        """Fractional power via the cached spectral decomposition."""
        w = self.eigenvalues
        if s < 0 and w[-1] <= SUPPORT_RTOL * w[0]:
            raise np.linalg.LinAlgError(
                f"negative power {s} of a numerically singular matrix "
                f"(min/max eigenvalue ratio {w[-1] / w[0] if w[0] else 0.0:.3e})"
            )
        ws = w**s
        v = self.eigenvectors
        if s < 0:  # powers of a descending spectrum come out ascending
            ws, v = ws[::-1].copy(), v[:, ::-1].copy()
        mat = (v * ws) @ v.conj().T
        mat = _hermitian_part(mat)
        ws.setflags(write=False)
        v = v.copy()
        v.setflags(write=False)
        mat.setflags(write=False)
        return PositiveMatrix(matrix=mat, eigenvalues=ws, eigenvectors=v)

