"""Superoperators on M_n: Choi matrices, positivity tests, faithful states
with their fractional powers, and state compatibility.

Vectorization convention (used everywhere in the package): column stacking,
``vec(X)[i + n*j] = X[i, j]``, so ``vec(A X B) = (B^T kron A) vec(X)``.
The Choi matrix is the block matrix whose (i, j) block is T(E_ij).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import _as_matrix, _block_indices, _hermitian_part, schatten_norm

CP_TOL = 1e-10
UNITAL_TOL = 1e-10
# Relative tolerance for accepting / silently repairing Hermitian asymmetry.
HERMITICITY_RTOL = 1e-12
# An eigenvalue below -EIG_CLIP_RTOL * lambda_max refuses a density as not PSD.
EIG_CLIP_RTOL = 1e-12
# lambda_min / lambda_max above this ratio counts as faithful (invertible).
FAITHFUL_RTOL = 1e-12
TRACE_TOL = 1e-12


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return x.reshape(-1, order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return v.reshape((n, n), order="F")


def _apply(action: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The map with n^2 x n^2 ``action`` applied to each matrix of a (k, n, n)
    stack, one matrix-vector product each, so no image depends on the others."""
    k, n, _ = ys.shape
    vecs = ys.transpose(0, 2, 1).reshape(k, n * n, 1)
    return (action @ vecs).reshape(k, n, n).transpose(0, 2, 1)


def _matrix_units(n: int) -> np.ndarray:
    """The (n^2, n, n) stack of matrix units in vec order: entry i + n*j is E_ij."""
    return np.eye(n * n, dtype=complex).reshape(n * n, n, n).transpose(0, 2, 1)


@dataclass(frozen=True)
class State:
    """Faithful state on M_n, represented by its density matrix.

    ``matrix`` is Hermitian with unit trace; ``eigenvalues`` are its spectrum,
    positive and sorted descending, and ``eigenvectors`` holds the matching
    orthonormal columns.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, g) -> "State":
        m = _as_matrix(g)
        if m.shape[0] != m.shape[1]:
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
        if w[-1] < -EIG_CLIP_RTOL * max(w[0], 0.0):
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue {w[-1]:.3e}"
            )
        tr = float(np.trace(herm).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix must have unit trace, got {tr!r}")
        if w[-1] <= FAITHFUL_RTOL * w[0]:
            raise ValueError(
                "state is not faithful: smallest eigenvalue "
                f"{w[-1]:.3e} <= {FAITHFUL_RTOL:g} * {w[0]:.3e}"
            )
        for a in (herm, w, v):
            a.setflags(write=False)
        return cls(matrix=herm, eigenvalues=w, eigenvectors=v)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def power(self, s: float) -> np.ndarray:
        """Matrix of gamma**s, from the cached spectral decomposition."""
        ws = self.eigenvalues**s
        v = self.eigenvectors
        if s < 0:  # powers of a descending spectrum come out ascending
            ws, v = ws[::-1], v[:, ::-1].copy()
        return _hermitian_part((v * ws) @ v.conj().T)


class SuperOperator:
    """Linear map M_n -> M_n stored as its n^2 x n^2 action on vec(X)."""

    __slots__ = ("dim", "action_matrix")

    def __init__(self, action_matrix):
        self._hold(action_matrix, copy=True)

    @classmethod
    def _adopt(cls, action_matrix: np.ndarray) -> "SuperOperator":
        """Wrap an array the package has just built and holds nowhere else,
        with every check of the constructor but without its copy."""
        op = cls.__new__(cls)
        op._hold(action_matrix, copy=False)
        return op

    def _hold(self, action_matrix, copy: bool) -> None:
        m = _as_matrix(action_matrix)
        n2 = m.shape[0]
        n = math.isqrt(n2)
        if m.shape != (n2, n2) or n * n != n2:
            raise ValueError(f"action matrix must be n^2 x n^2, got {m.shape}")
        if copy or not m.flags.c_contiguous:  # narrowed complex input is a strided view
            m = m.copy()
        m.setflags(write=False)
        self.dim = n
        self.action_matrix = m

    @classmethod
    def identity(cls, dim: int) -> "SuperOperator":
        return cls(np.eye(dim * dim))

    @classmethod
    def from_map(cls, fn, dim: int) -> "SuperOperator":
        """Build the action matrix by evaluating ``fn`` on all matrix units."""
        columns = [vec(_as_matrix(fn(e.copy()))) for e in _matrix_units(dim)]
        return cls(np.stack(columns, axis=1))

    @classmethod
    def from_kraus(cls, ops) -> "SuperOperator":
        """Map X -> sum_i A_i X A_i^*."""
        mats = [_as_matrix(a) for a in ops]
        if not mats:
            raise ValueError("from_kraus needs at least one Kraus operator")
        n = mats[0].shape[0]
        if any(a.shape != (n, n) for a in mats):
            shapes = [a.shape for a in mats]
            raise ValueError(f"Kraus operators must be square and of one size, got {shapes}")
        return cls(sum(np.kron(a.conj(), a) for a in mats))

    @classmethod
    def from_choi(cls, choi) -> "SuperOperator":
        c = _as_matrix(choi)
        n2 = c.shape[0]
        n = math.isqrt(n2)
        if c.shape != (n2, n2) or n * n != n2:
            raise ValueError(f"Choi matrix must be n^2 x n^2, got {c.shape}")
        return cls(_reshuffle(c, n))

    @property
    def choi(self) -> np.ndarray:
        """Block matrix with (i, j) block equal to T(E_ij)."""
        return _reshuffle(self.action_matrix, self.dim)

    def __call__(self, x) -> np.ndarray:
        m = _as_matrix(x)
        if m.shape != (self.dim, self.dim):
            raise ValueError(
                f"dimension mismatch: map acts on {self.dim}x{self.dim}, "
                f"got {m.shape}"
            )
        return _apply(self.action_matrix, m[None])[0]

    def adjoint(self) -> "SuperOperator":
        """Adjoint under the trace pairing <Y, T(X)> = tr(Y^* T(X))."""
        return SuperOperator(self.action_matrix.conj().T)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SuperOperator(dim={self.dim})"


def _reshuffle(m: np.ndarray, n: int) -> np.ndarray:
    """Involutive action <-> Choi index shuffle.

    With column stacking, K[k + n*l, i + n*j] = T(E_ij)[k, l] while
    C[i*n + k, j*n + l] = T(E_ij)[k, l]; the two are related by swapping
    the first and last axes of the (n, n, n, n) reshape.
    """
    return np.transpose(m.reshape(n, n, n, n), (3, 1, 2, 0)).reshape(n * n, n * n)


def is_completely_positive(t: SuperOperator) -> bool:
    """Choi positivity test, with scale = max(1, max |C_ij|) for the Choi
    matrix C: C is Hermitian to CP_TOL * scale, and H / scale + CP_TOL * I
    has a Cholesky factor, where H is the Hermitian part of C.

    A factor exists when lambda_min(H) >= -CP_TOL * scale, up to rounding far
    below CP_TOL.  For Hermitian H, max |H_ij| <= max(1, lambda_max) whenever
    the test can pass, so it certifies no map that the eigenvalue rule
    lambda_min >= -CP_TOL * max(1, lambda_max) refuses.

    Both tests run on each of C's diagonal blocks (``_block_indices`` of
    C's support), with the scale of the whole C: entries between blocks are
    zero in both C and C^*, so this is the same test as on the whole matrix,
    and the largest |C_ij| lies in a block.  The blocks, all of C when it
    does not split, are gathered straight from the action matrix K, since
    C[i*n + k, j*n + l] = K[k + n*l, i + n*j].
    """
    n = t.dim
    # C[i*n + k, j*n + l] is entry r[i*n + k] + n * r[j*n + l] of K's
    # flat buffer, where r[i*n + k] = k*n^2 + i
    r = (np.arange(n) * (n * n) + np.arange(n)[:, None]).reshape(-1)
    flat = t.action_matrix.reshape(-1)
    stacks = _block_indices(_reshuffle(t.action_matrix != 0, n))
    blocks = [flat[r[idx][:, :, None] + n * r[idx][:, None, :]] for idx in stacks]
    scale = max(1.0, *(np.abs(b).max() for b in blocks))
    for b in blocks:
        if np.abs(b - b.conj().swapaxes(-1, -2)).max() > CP_TOL * scale:
            return False
        h = _hermitian_part(b) / scale
        d = np.arange(h.shape[-1])
        h[..., d, d] += CP_TOL
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return False
    return True


@dataclass(frozen=True)
class CompatibilityReport:
    """Constants relating a map to a state.

    ``c1`` is the least C with tr(Gamma T(X)) <= C tr(Gamma X) on positive X;
    ``c_inf`` is the operator norm ||T(I)|| for maps certified completely
    positive, and None otherwise: without positivity ||T(I)|| need not be
    the operator norm, and no other exact value is at hand.
    """

    c1: float
    c_inf: float | None
    unital: bool
    completely_positive: bool


def compatibility(t: SuperOperator, state: State) -> CompatibilityReport:
    """Compute C1, C_inf, unitality, and the Choi positivity flag."""
    if t.dim != state.dim:
        raise ValueError(f"dimension mismatch: map {t.dim}, state {state.dim}")
    gamma = state.matrix
    inv_sqrt = state.power(-0.5)
    # T*(Gamma) = unvec(K^* vec(Gamma)), read off K without copying K^*
    tgam = unvec((vec(gamma).conj() @ t.action_matrix).conj(), t.dim)
    w = inv_sqrt @ tgam @ inv_sqrt
    # an entry that overflowed leaves eigvalsh nothing sound to return (NaN,
    # or a finite value below the true C1), so C1 is reported as inf
    if np.all(np.isfinite(w)):
        c1 = float(np.linalg.eigvalsh(_hermitian_part(w))[-1])
    else:
        c1 = math.inf

    eye = np.eye(t.dim)
    t_of_i = t(eye)
    cp = is_completely_positive(t)
    c_inf = schatten_norm(t_of_i, math.inf) if cp else None
    unital = bool(schatten_norm(t_of_i - eye, math.inf) <= UNITAL_TOL)
    return CompatibilityReport(
        c1=c1, c_inf=c_inf, unital=unital, completely_positive=cp
    )
