"""Twirling channels over finite unitary sets, closed-form Haar twirl
oracles for one and two qubits, superoperator/Choi machinery, frame
potentials, and a deterministic Monte-Carlo Haar sampler.

Vectorization is column-stacking throughout: vec(A) = A.reshape(-1,
order="F"), so vec(M A M^H) = kron(conj(M), M) vec(A) and the standard
basis operator E(i, j) vectorizes to the unit vector at index j*D + i.

Every twirl reads one moment operator.  For a finite set it is the twirl
superoperator Phi_S = (1/N) sum_a conj(M_a) (x) M_a with M_a = U_a^{(x)t}:
for the stacked tensor powers flattened to X = M.reshape(N, D*D) it is the
Gram matrix X^H X, permuted.  The Haar twirls are the read-only constants
SUPEROP_HAAR.  Twirls of operators and Choi matrices are read off Phi, and
design checks use Delta = Phi_S - Phi_Haar, whose largest column norm is the
worst twirl error on a basis operator and whose squared norm is the
frame-potential gap (Gross, Audenaert & Eisert, JMP 48, 052104 (2007)).

The Monte Carlo check of the Haar oracle sums its moments over monomials of
the Haar quaternion q instead of the entries of U^{(x)t}; see mc_oracle_check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DuplicateElements, NotUnitary, UnsupportedOrder
from .linalg import EQ_TOL, RANK_TOL, as_matrix, first_pair, rank
from .qubit import singlet_triplet
from .su2 import UNIT_BASIS, su2_batch

HAAR = "haar"

FRAME_POTENTIAL_HAAR = {1: 1.0, 2: 2.0}  # Haar values for U(2), by order t


class UnitarySet:
    """An ordered, duplicate-free, finite set of same-dimension unitaries.

    Elements are validated on construction: each must be unitary within
    `tol`, and no two may coincide in Hilbert-Schmidt distance.  Proportional
    elements (equal up to phase) are allowed here; operations that need
    phase-distinctness check for it themselves.
    """

    def __init__(self, elems, labels=None, tol: float = EQ_TOL):
        mats = [as_matrix(m) for m in elems]
        if not mats:
            raise ValueError("a unitary set must be nonempty")
        d = mats[0].shape[0]
        # the first offending element decides the error, as in a single pass
        same = next((k for k, m in enumerate(mats) if m.shape[0] != d), len(mats))
        stack = np.stack(mats[:same])
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
            defects = np.linalg.norm(stack.conj().swapaxes(1, 2) @ stack - np.eye(d), axis=(1, 2))
        bad = np.flatnonzero(~(defects <= tol))
        if bad.size:
            k = bad[0]
            raise NotUnitary(
                f"element {k}: matrix is not unitary: ||U^H U - 1|| = {defects[k]:.3e} > {tol:.1e}"
            )
        if same < len(mats):
            m = mats[same].shape[0]
            raise DimensionMismatch(f"element {same} is {m}x{m}, expected {d}x{d}")
        n = len(mats)
        pair = first_pair(
            stack.reshape(n, d * d),
            lambda A, X: np.nonzero(np.linalg.norm(A[:, None] - X, axis=2) <= tol),
        )
        if pair:
            raise DuplicateElements(f"elements {pair[0]} and {pair[1]} coincide within {tol}")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels for {n} elements")
        self.dim = d
        self.stack = stack  # (N, d, d); the elements are views into it
        self.unitarity_defect = float(defects.max())  # max ||U^H U - 1||_HS
        self.elems = tuple(stack)
        self.labels = labels

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, k) -> np.ndarray:
        return self.elems[k]

    def __repr__(self) -> str:
        return f"UnitarySet(dim={self.dim}, n={len(self.elems)})"


@dataclass(frozen=True)
class FramePotentialReport:
    t: int
    value: float
    haar_value: float | None  # None when no exact reference is implemented
    gap: float | None

    def is_design(self, tol: float = EQ_TOL) -> bool:
        if self.gap is None:
            raise UnsupportedOrder(f"no Haar reference for t={self.t}; one exists for U(2), t <= 2")
        return self.gap <= tol


def vec(A) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(A, dtype=complex).reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    D = math.isqrt(v.size)
    if D * D != v.size:
        raise DimensionMismatch(f"vector of length {v.size} is not a vec'd square matrix")
    return v.reshape(D, D, order="F")


_vs, _vt = (vec(P) for P in singlet_triplet())
#: The exact Haar twirls on qubits by order t, built once and read-only: t = 1
#: is the completely depolarizing channel A -> tr(A) 1/2; t = 2 projects onto
#: the span of the singlet and triplet projectors, A -> <P_s, A> P_s + <P_t, A> P_t / 3.
SUPEROP_HAAR = {
    1: np.outer(vec(np.eye(2) / 2.0), vec(np.eye(2)).conj()),
    2: np.outer(_vs, _vs.conj()) + np.outer(_vt, _vt.conj()) / 3.0,
}
for _Phi in SUPEROP_HAAR.values():
    _Phi.flags.writeable = False


def twirl_finite(S: UnitarySet, t: int, A) -> np.ndarray:
    """(1/N) sum_a U_a^{(x)t} A (U_a^H)^{(x)t} — the order-t twirl over S."""
    if t < 1:
        raise UnsupportedOrder(f"twirl order must be >= 1, got {t}")
    A = as_matrix(A, S.dim**t)
    return unvec(superop_of_twirl(S, t) @ vec(A))


def haar_twirl(t: int, A) -> np.ndarray:
    """The Haar-average twirl on qubits: SUPEROP_HAAR[t] applied to A."""
    return unvec(superop_of_twirl(HAAR, t) @ vec(as_matrix(A, 2**t)))


def superop_of_twirl(source, t: int) -> np.ndarray:
    """The (D^2, D^2) matrix of the order-t twirl channel on vectorized operators.

    `source` is either a UnitarySet or the string "haar" for the exact
    Haar-average channel (t in {1, 2} only in that case), which returns the
    read-only SUPEROP_HAAR[t] itself.
    """
    if isinstance(source, str):
        if source != HAAR:
            raise ValueError(f"unknown twirl source {source!r}")
        if t not in SUPEROP_HAAR:
            raise UnsupportedOrder(f"haar superoperator implements t in {{1, 2}}, got {t}")
        return SUPEROP_HAAR[t]
    if t < 1:
        raise UnsupportedOrder(f"twirl order must be >= 1, got {t}")
    D = source.dim**t
    X = _tensor_batch(source.stack, t).reshape(len(source), D * D)
    return _superop_layout(X.conj().T @ X, D) / len(source)


def choi(Phi) -> np.ndarray:
    """Choi matrix sum_ij E(i,j) (x) channel(E(i,j)) of a superoperator matrix.

    Its block (i, j) is unvec(Phi[:, j*D + i]), so entry [(i,k),(j,l)] is
    Phi[l*D + k, j*D + i]: one axis permutation of Phi as a (D,)*4 array.
    """
    Phi = np.asarray(Phi, dtype=complex)
    n = len(Phi)
    D = math.isqrt(n)
    if D * D != n or Phi.shape != (n, n):
        raise DimensionMismatch(f"a {Phi.shape} array is not a superoperator on D x D operators")
    return Phi.reshape((D,) * 4).transpose(3, 1, 2, 0).reshape(n, n)


def choi_rank(Phi, tol: float = RANK_TOL) -> int:
    return rank(choi(Phi), tol)


def frame_potential(S: UnitarySet, t: int) -> FramePotentialReport:
    """(1/N^2) sum_{a,b} |tr(U_a^H U_b)|^(2t), with the U(2) Haar reference
    for t in {1, 2}; the reference (and the gap) is None for other orders
    and for sets of dimension other than 2."""
    if t < 1:
        raise UnsupportedOrder(f"frame potential order must be >= 1, got {t}")
    gram = np.einsum("aij,bij->ab", S.stack.conj(), S.stack)
    value = float(np.mean(np.abs(gram) ** (2 * t)))
    haar_value = FRAME_POTENTIAL_HAAR.get(t) if S.dim == 2 else None
    gap = None if haar_value is None else value - haar_value
    return FramePotentialReport(t, value, haar_value, gap)


# --------------------------------------------------------------------------
# deterministic Haar sampling on SU(2)


@dataclass
class HaarSampler:
    """Deterministic Haar-uniform SU(2) stream.

    The state is (seed, counter) where `counter` indexes quaternions drawn
    so far; any (seed, counter) pair reproduces the identical continuation,
    and bulk draws agree bitwise with repeated single draws.  Not for
    concurrent mutation — give each thread its own sampler.
    """

    seed: int
    counter: int = 0

    def quaternions(self, n: int) -> np.ndarray:
        """Draw n uniform points of S^3 as an (n, 4) array, advancing the state."""
        if n < 1:
            raise ValueError("need n >= 1")
        # Each quaternion consumes one 128-bit counter block (four doubles),
        # so jumping the block counter by `counter` replays the stream tail.
        bits = np.random.Philox(key=np.uint64(self.seed), counter=[self.counter, 0, 0, 0])
        u = np.ascontiguousarray(np.random.Generator(bits).random((n, 4)).T)
        self.counter += n
        # Box-Muller on contiguous rows: g = (r cos a, r sin a) for (r, a) from
        # rows (0, 1) and (2, 3), normalized in np.linalg.norm's summation order
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        a = 2.0 * np.pi * u[1::2]
        g = np.empty((4, n))
        np.multiply(r, np.cos(a, out=g[0::2]), out=g[0::2])
        np.multiply(r, np.sin(a, out=g[1::2]), out=g[1::2])
        g /= np.sqrt(((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2]) + g[3] * g[3])
        return g.T


def haar_sample(h: HaarSampler) -> np.ndarray:
    """One Haar-distributed special unitary, advancing the sampler."""
    return su2_batch(h.quaternions(1))[0]


def _tensor_batch(U: np.ndarray, t: int) -> np.ndarray:
    """The t-fold tensor powers of an (n, d, d) stack, as an (n, d^t, d^t) stack."""
    M, d = U, U.shape[1]
    for _ in range(t - 1):
        n, a, _ = M.shape
        M = (M[:, :, None, :, None] * U[:, None, :, None, :]).reshape(n, a * d, a * d)
    return M


def _superop_layout(G: np.ndarray, D: int) -> np.ndarray:
    """Permute a moment matrix indexed [(a,b),(c,d)] to the superoperator's
    [(a,c),(b,d)] = kron(conj(M), M) layout."""
    return G.reshape((D,) * 4).swapaxes(1, 2).reshape(D * D, D * D)


#: |U|^2 = [[A, 1 - A], [1 - A, A]] on SU(2), as the coefficients of 1 and A
_ABS2_BASIS = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, -1.0], [-1.0, 1.0]]])


def _monomials(W: np.ndarray, t: int) -> np.ndarray:
    """Rows of the degree-t monomials of the columns of a (k, m) array:
    W at t = 1, W_a W_b for a <= b in row-major order at t = 2."""
    return W if t == 1 else np.concatenate([W[a] * W[a:] for a in range(len(W))])


def _power_map(E: np.ndarray, t: int) -> np.ndarray:
    """T with _tensor_batch(w . E, t).reshape(m, -1) = _monomials(w.T, t).T @ T
    for a (k, d, d) stack E.  At t = 2, w_a w_b carries the bilinear form
    (X(a + b) - X(a - b)) / 4 of the quadratic X at (e_a, e_b), doubled off
    the diagonal; at these integer points it is exact."""
    if t == 1:
        return E.reshape(len(E), -1)
    a, b = np.triu_indices(len(E))
    X = _tensor_batch(np.concatenate([E[a] + E[b], E[a] - E[b]]), 2).reshape(2, len(a), -1)
    return (X[0] - X[1]) * np.where(a == b, 0.25, 0.5)[:, None]


@dataclass(frozen=True)
class McOracleReport:
    """Per-basis-element comparison of the MC twirl against the exact oracle.

    For each standard basis operator E(i,j), `deviations[j*D+i]` is the
    Euclidean distance between the estimated and exact vectorized twirls and
    `std_errors[j*D+i]` the empirical standard error of the estimate.
    """

    t: int
    n: int
    seed: int
    deviations: np.ndarray
    std_errors: np.ndarray
    nsigma: float = 5.0

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max())

    @property
    def max_ratio(self) -> float:
        return float((self.deviations / self.std_errors).max())

    @property
    def ok(self) -> bool:
        return bool(np.all(self.deviations <= self.nsigma * self.std_errors))


def mc_oracle_check(
    h: HaarSampler, t: int, n: int, nsigma: float = 5.0, chunk: int = 65536
) -> McOracleReport:
    """Single-pass MC sweep of the twirl over the whole operator basis.

    Estimates the twirl superoperator (whose column j*D+i is the vectorized
    twirl of E(i,j)) together with entrywise second moments, then scores
    every basis element against the exact Haar oracle.  For a chunk's tensor
    powers flattened to X = Y C_t, with Y the (m, n_t) monomials of the
    quaternions (n_t = 4 at t = 1, 10 at t = 2) and C_t read off su2_batch,
    the first moment X^H X is C_t^H (Y^T Y) C_t.  The second, P^T P for
    P = |X|^2 = Z B_t with Z = [1, A, ..., A^t] and A = |U_00|^2, is
    B_t^T (Z^T Z) B_t: power sums of A up to A^(2t).  Both, indexed
    [(a,b),(c,d)], are permuted to the superoperator's [(a,c),(b,d)] =
    kron(conj(M), M) layout once, after the last chunk.
    """
    if t not in (1, 2):
        raise UnsupportedOrder(f"oracle check implements t in {{1, 2}}, got {t}")
    if n < 2:
        raise ValueError("need n >= 2 for a standard error")
    D = 2**t
    gram_y = gram_z = 0.0
    left = n
    while left > 0:
        m = min(left, chunk)
        Q = h.quaternions(m).T  # (4, m)
        Y = _monomials(Q, t)
        gram_y = gram_y + Y @ Y.T
        Z = _monomials(np.stack([np.ones(m), np.abs(UNIT_BASIS[:, 0, 0] @ Q) ** 2]), t)  # A = |U_00|^2
        gram_z = gram_z + Z @ Z.T
        left -= m
    C, B = _power_map(UNIT_BASIS, t), _power_map(_ABS2_BASIS, t)
    mean = _superop_layout(C.conj().T @ gram_y @ C, D) / n
    second = _superop_layout(B.T @ gram_z @ B, D)
    entry_var = np.maximum(second / n - np.abs(mean) ** 2, 0.0)
    deviations = np.linalg.norm(mean - SUPEROP_HAAR[t], axis=0)
    std_errors = np.sqrt(entry_var.sum(axis=0) / n)
    return McOracleReport(t, n, h.seed, deviations, std_errors, nsigma)
