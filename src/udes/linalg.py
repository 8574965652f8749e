"""Dense complex linear algebra for small matrices.

Everything downstream works with square numpy arrays of complex128.  This
module fixes the conventions once: row-major tensor products, the
Hilbert-Schmidt inner product tr(A^H B), and numerical rank by singular
values.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotUnitary

#: default threshold for numerical rank, relative to the largest singular value
RANK_TOL = 1e-10
#: default tolerance for matrix equality and unitarity, ||A - B|| and
#: ||U^H U - 1|| in HS norm
EQ_TOL = 1e-10

_EPS = float(np.finfo(float).eps)


def as_matrix(a, dim: int | None = None) -> np.ndarray:
    """Coerce input to a square complex matrix and validate it.

    Rejects non-square shapes, non-finite entries, and (optionally) a
    dimension other than ``dim``.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise DimensionMismatch("matrix entries must be finite")
    return m


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


def gram_floor(low: float, high: float, radius: float) -> float:
    """The floor that the computed overlap Re<x_a, x_b> (or |<x_a, x_b>|)
    of every pair of rows within `radius` of each other reaches, for rows of
    four coordinates (a flattened 2x2 unitary, or a quaternion) whose
    squared norms are known to lie in [low, high].  The bound is only as
    good as that knowledge: UnitarySet takes it from its unitarity check,
    su2_closure from the norms themselves.

    Exactly, ||x_a - x_b||^2 = ||x_a||^2 + ||x_b||^2 - 2 Re<x_a, x_b>, so a
    pair within `radius` has Re<x_a, x_b> >= low - radius^2 / 2.  The
    allowance 28 eps (high + radius^2), eps the float64 epsilon, covers what
    rounding can move that bound by:
      - a GEMM entry is off by at most 6 eps ||x_a|| ||x_b|| <= 6 eps high;
      - a pair within `radius` as norms() measures its difference lies
        within radius^2 (1 + 12 eps) exactly;
      - low and high may be off by 14 eps high themselves.  UnitarySet's
        are 2 -+ sqrt(2) delta, from computed defects <= delta: the exact
        ||U^H U - 1|| is then at most delta (1 + 7 eps) + 4 eps ||U||^2,
        and sqrt(2) 4 <= 6;
      - the floor's own evaluation rounds by a few eps (high + radius^2).
    These sum to less than the allowance.  Without it a screen misses pairs
    at the edge: pairs built at the largest computed defect and distance
    <= tol fall up to 3 eps (high + radius^2) below low - radius^2 / 2.
    """
    r2 = radius * radius
    return low - r2 / 2.0 - 28.0 * _EPS * (high + r2)


#: near_pairs' answer when no entry off the diagonal reaches the floor
_NO_PAIRS = np.empty(0, np.intp)
_NO_PAIRS.flags.writeable = False


def near_pairs(overlap: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), j > i, in row-major order, of the entries of the
    strict upper triangle of `overlap` at or above `floor`: a square Gram
    matrix reduced to its real part or its modulus.  With a floor from
    gram_floor these include every pair of rows (i, j) within its radius,
    for an exact distance to decide: the Gram form cannot resolve the
    distance itself, since radius^2 lies below its rounding floor near 0.
    When no entry off the diagonal reaches the floor, as for a set whose
    rows all lie well apart, both are one shared, read-only empty array,
    and no index array is formed."""
    near = overlap >= floor
    near.reshape(-1)[:: len(near) + 1] = False  # the diagonal
    if not np.count_nonzero(near):
        return _NO_PAIRS, _NO_PAIRS
    i, j = np.nonzero(near)
    later = j > i
    return i[later], j[later]


def check_tol(tol: float) -> None:
    """Refuse a NaN tol, which every comparison would read as False."""
    if tol != tol:
        raise ValueError(f"tol must be a number, got {tol!r}")


def rank(A, tol: float = RANK_TOL) -> int:
    """Numerical rank: the number of singular values above ``tol`` times the
    largest one.  For the exact lattice-valued matrices this library
    produces, the spectrum separates cleanly by many orders of magnitude, so
    the threshold is uncritical."""
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    s = np.linalg.svd(as_matrix(A), compute_uv=False)
    return int(np.count_nonzero(s > tol * s.max(initial=0.0)))


def assert_unitary(U, tol: float = EQ_TOL) -> np.ndarray:
    """Validate ||U^H U - 1||_HS <= tol and return U as an array."""
    U = as_matrix(U)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
        defect = hs_norm(U.conj().T @ U - np.eye(U.shape[0]))
    if not defect <= tol:
        raise NotUnitary(f"matrix is not unitary: ||U^H U - 1|| = {defect:.3e} > {tol:.1e}")
    return U

