"""Dense complex linear algebra for small matrices.

Everything downstream works with square numpy arrays of complex128, at most
16x16.  This module fixes the conventions once: row-major tensor products,
the Hilbert-Schmidt inner product tr(A^H B), numerical rank by singular
values, and unitary change of basis T A T^H.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotUnitary

#: default tolerance for unitarity certification
UNITARITY_TOL = 1e-10
#: default threshold for numerical rank, relative to the largest singular value
RANK_TOL = 1e-10
#: default tolerance for matrix equality in HS norm
EQ_TOL = 1e-10

MAX_DIM = 16


def as_matrix(a, dim: int | None = None) -> np.ndarray:
    """Coerce input to a square complex matrix and validate it.

    Rejects non-square shapes, non-finite entries, and (optionally) a
    dimension other than ``dim``.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise DimensionMismatch(f"dimension {m.shape[0]} exceeds the supported maximum {MAX_DIM}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix entries must be finite")
    return m


def kron(A, B) -> np.ndarray:
    """Tensor product with row-major index flattening (i,k) -> i*dim(B)+k.

    (A (x) B)[(i,k),(j,l)] = A[i,j] * B[k,l], which is exactly numpy's kron.
    """
    return np.kron(as_matrix(A), as_matrix(B))


def kron_power(A, t: int) -> np.ndarray:
    """t-fold tensor power of A (t >= 1)."""
    if t < 1:
        raise ValueError(f"tensor power needs t >= 1, got {t}")
    A = as_matrix(A)
    out = A
    for _ in range(t - 1):
        out = np.kron(out, A)
    return out


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product tr(A^H B)."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    # tr(A^H B) = sum of conj(A) * B entry-wise
    return complex(np.sum(np.conj(A) * B))


def hs_norm(A) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(A, dtype=complex)))


def hs_dist(A, B) -> float:
    """HS distance ||A - B||."""
    return hs_norm(np.asarray(A, dtype=complex) - np.asarray(B, dtype=complex))


def first_pair(X: np.ndarray, find) -> tuple[int, int] | None:
    """The first pair of rows (a, b), a < b, in double-loop order, among the
    pairs ``find(A, X)`` returns as row-major index arrays (i, j) from a block
    A of rows of X to all of X; blocks hold at most 2^16 entries of X."""
    rows = max(1, 2**16 // X.size)
    for lo in range(0, len(X), rows):
        i, j = find(X[lo : lo + rows], X)
        later = np.flatnonzero(j > lo + i)
        if later.size:
            k = later[0]
            return lo + int(i[k]), int(j[k])
    return None


def rank(A, tol: float = RANK_TOL) -> int:
    """Numerical rank: the number of singular values above ``tol`` times the
    largest one.  For the exact lattice-valued matrices this library
    produces, the spectrum separates cleanly by many orders of magnitude, so
    the threshold is uncritical."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    return int(np.count_nonzero(s > tol * s.max(initial=0.0)))


def assert_unitary(U, tol: float = UNITARITY_TOL, what: str = "matrix") -> np.ndarray:
    """Validate ||U^H U - 1||_HS <= tol and return U as an array."""
    U = as_matrix(U)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
        defect = hs_norm(U.conj().T @ U - np.eye(U.shape[0]))
    if not defect <= tol:
        raise NotUnitary(f"{what} is not unitary: ||U^H U - 1|| = {defect:.3e} > {tol:.1e}")
    return U


def is_unitary(U, tol: float = UNITARITY_TOL) -> bool:
    try:
        assert_unitary(U, tol)
    except (NotUnitary, DimensionMismatch):
        return False
    return True


def change_of_basis(A, T) -> np.ndarray:
    """Conjugate A by the unitary T: returns T A T^H.

    If the columns of T^H are the new basis vectors expressed in the old one,
    the result is the matrix of A in the new basis.
    """
    A = as_matrix(A)
    T = assert_unitary(T, what="change-of-basis matrix")
    if A.shape != T.shape:
        raise DimensionMismatch(f"shapes differ: {A.shape} vs {T.shape}")
    return T @ A @ T.conj().T
