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

_EPS = float(np.finfo(float).eps)


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


# The two reductions below are the expressions np.linalg.norm (an int or a
# pair of axes, ord None) and np.mean (all axes, float input) evaluate, so
# their values are bit-identical; they skip the argument handling that costs
# a few microseconds per call.


def norms(A: np.ndarray, axis) -> np.ndarray:
    """np.linalg.norm(A, axis=axis): the Euclidean norms of a complex array
    over `axis`, an int or a pair of ints."""
    return np.sqrt(np.add.reduce((A.conj() * A).real, axis))


def mean(x: np.ndarray):
    """np.mean(x) of a nonempty float array, as a numpy scalar."""
    return np.add.reduce(x, axis=None) / x.size


#: the most entries of a Gram matrix first_pair forms at once (256 kB complex)
GRAM_BLOCK = 2**14


def first_pair(X: np.ndarray, find, gram: np.ndarray | None = None) -> tuple[int, int] | None:
    """The first pair of rows (a, b), a < b, in double-loop order, among the
    pairs ``find(G, lo)`` returns as row-major index arrays (i, j) into G,
    the rows lo, lo + 1, ... of the Gram matrix conj(X) X^T.  The blocks G
    hold at most GRAM_BLOCK entries, and are cut from `gram`, the whole Gram
    matrix, when it is given."""
    rows = max(1, GRAM_BLOCK // len(X))
    for lo in range(0, len(X), rows):
        G = X[lo : lo + rows].conj() @ X.T if gram is None else gram[lo : lo + rows]
        i, j = find(G, lo)
        if i.size:
            later = np.flatnonzero(j > lo + i)
            if later.size:
                k = later[0]
                return lo + int(i[k]), int(j[k])
    return None


def near_pairs(X: np.ndarray, overlap: np.ndarray, lo: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), j > lo + i, of the pairs of rows (lo + i, j) of a
    C-contiguous X that may lie within `radius`, for an exact distance to
    decide.

    `overlap` is a block of Gram rows as first_pair passes it, reduced to
    its real part (for the distance ||x_a - x_b||) or its modulus (for the
    distance to the nearer of +-x_b, X real).  The Gram form
    s = ||x_a||^2 + ||x_b||^2 - 2 overlap of the squared distance is off by
    less than (k + 2) eps (||x_a||^2 + ||x_b||^2) for rows of k real
    coordinates, so the pairs with s - (k + 4) eps (||x_a||^2 + ||x_b||^2)
    within radius^2 include every pair within `radius`; radius^2 alone lies
    below the rounding floor near 0 and would miss pairs.
    """
    x = X.view(float)
    sq = np.einsum("ij,ij->i", x, x) * (1.0 - (x.shape[1] + 4) * _EPS)
    i, j = np.nonzero(sq[lo : lo + len(overlap), None] + sq - 2.0 * overlap <= radius * radius)
    later = j > lo + i
    return i[later], j[later]


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
