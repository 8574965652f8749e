"""Twirling channels over finite unitary sets, closed-form Haar twirl
oracles for one and two qubits, superoperator/Choi machinery, frame
potentials, and a deterministic Monte-Carlo Haar sampler.

Vectorization is column-stacking throughout: vec(A) = A.reshape(-1,
order="F"), so vec(M A M^H) = kron(conj(M), M) vec(A) and the standard
basis operator E(i, j) vectorizes to the unit vector at index j*D + i.

Every twirl reads one moment: the Hermitian Gram matrix G of the degree-t
monomials of the four entries of U (10 x 10 at t = 2), each entry of
U^{(x)t} being one of them.  The twirl superoperator Phi_S = (1/N) sum_a
conj(M_a) (x) M_a, M_a = U_a^{(x)t}, is a fixed gather of G's entries,
Phi[(a,c),(b,d)] = G[(a,b),(c,d)] / N (_moment_index).  The Monte Carlo
check sums the same Gram matrix in the monomials of the Haar quaternion q,
maps it to the entries' by one exact change of coordinates, and ends in the
same gather.  SUPEROP_HAAR holds the read-only Haar twirls, by order.
Twirls of operators and Choi matrices are read off Phi, and design checks
use Delta = Phi_S - Phi_Haar, whose largest column norm is the worst twirl
error on a basis operator and whose squared norm is the frame-potential gap
(Gross, Audenaert & Eisert, JMP 48, 052104 (2007)).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DuplicateElements, NotUnitary, UnsupportedOrder
from .linalg import (
    EQ_TOL,
    RANK_TOL,
    as_matrix,
    check_tol,
    gram_floor,
    mean,
    near_pairs,
    norms,
    rank,
)
from .qubit import singlet_triplet
from .su2 import UNIT_BASIS, su2_batch

HAAR = "haar"


class UnitarySet:
    """An ordered, duplicate-free, finite set of 2x2 unitaries.

    Elements are validated on construction: each must be a 2x2 matrix with
    finite entries, unitary within `tol`, and no two may coincide in
    Hilbert-Schmidt distance.  Proportional elements (equal up to phase) are
    allowed here; operations that need phase-distinctness check for it
    themselves.

    The elements are copied into one read-only (N, 2, 2) complex stack,
    which never aliases the caller's arrays.  The first offending element
    decides the error, checked in this order: shape and finiteness, in
    input order (DimensionMismatch), then unitarity, then duplicates.

    The duplicate scan screens pairs on the Gram matrix and measures the few
    it passes on as differences, in row-major order.  Once every element
    has passed the unitarity check, ||U_a||^2 = tr(U_a^H U_a) lies within
    |tr(U_a^H U_a - 1)| <= sqrt(2) ||U_a^H U_a - 1|| <= sqrt(2) delta of 2,
    delta <= tol the largest defect the check measured.  So a pair within
    `tol` has Re G[a, b] >= 2 - sqrt(2) delta - tol^2 / 2, and the screen
    keeps the pairs at or above that floor less linalg.gram_floor's
    rounding allowance.  Before the check the norms are unbounded, and the
    floor would prove nothing.  Once sqrt(2) delta + tol^2 / 2 reaches 2,
    the floor falls to 0 and passes most pairs on, each then measured.

    `gram`, the Gram matrix G[a, b] = tr(U_a^H U_b), is the one GEMM the
    duplicate scan reads, kept read-only.  `elems` is the stack, and S[k]
    and iteration read it.  Since the set never changes, the results derived
    from it are stored on it too, in `_derived`, a dict that relabeled
    copies share: frame_potential's value per order t, and
    designs.classify_min_1design's frame per tol (successes only).
    """

    dim = 2  # every element is 2x2

    def __init__(self, elems, labels=None, tol: float = EQ_TOL):
        check_tol(tol)
        stack = _qubit_stack(elems)
        n = len(stack)
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
            E = stack.conj().swapaxes(1, 2) @ stack
            E.reshape(n, 4)[:, ::3] -= 1  # U^H U - 1
            defects = norms(E, (1, 2))
        unitary = defects <= tol
        if not unitary.all():
            k = np.flatnonzero(~unitary)[0]
            raise NotUnitary(
                f"element {k}: matrix is not unitary: ||U^H U - 1|| = {defects[k]:.3e} > {tol:.1e}"
            )
        X = stack.reshape(n, 4)
        defect = float(defects.max())
        gram = X.conj() @ X.T
        # every ||x_a||^2 is within sqrt(2) defect of 2 now: see the docstring
        spread = math.sqrt(2) * defect
        i, j = near_pairs(gram.real, gram_floor(2 - spread, 2 + spread, tol))
        if i.size:  # most sets pass no pair on; skip the empty index and norms
            hit = np.flatnonzero(norms(X[i] - X[j], 1) <= tol)
            if hit.size:
                raise DuplicateElements(f"elements {i[hit[0]]} and {j[hit[0]]} coincide within {tol}")
        self.labels = _labels(labels, n)
        self.stack = _read_only(stack)  # (N, 2, 2)
        self.gram = _read_only(gram)
        self.unitarity_defect = defect  # max ||U^H U - 1||_HS
        self._derived = {}

    def relabeled(self, labels) -> UnitarySet:
        """The same elements under `labels` (one per element, or None),
        sharing this set's stack, Gram matrix and derived results: nothing is
        validated or computed again."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__, labels=_labels(labels, len(self)))
        return other

    @property
    def elems(self) -> np.ndarray:
        return self.stack

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self):
        return iter(self.stack)

    def __getitem__(self, k) -> np.ndarray:
        return self.stack[k]

    def __repr__(self) -> str:
        return f"UnitarySet(dim={self.dim}, n={len(self.stack)})"


def _labels(labels, n: int) -> tuple[str, ...] | None:
    if labels is None:
        return None
    if isinstance(labels, str):  # would split into one label per character
        raise ValueError(f"labels must be one string per element, not the string {labels!r}")
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} elements")
    return labels


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _qubit_stack(elems) -> np.ndarray:
    """The elements of a would-be UnitarySet as one (N, 2, 2) complex copy.

    Elements that numpy stacks into one (N, 2, 2) array of finite entries
    are copied in one pass.  Otherwise each goes through in input order, and
    the first that is not a 2x2 matrix of finite entries raises
    DimensionMismatch naming it.
    """
    try:
        stack = np.array(elems, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # ragged, or entries that are no numbers
        stack = None
    if (
        stack is not None
        and stack.ndim == 3
        and 0 < len(stack)
        and stack.shape[1:] == (2, 2)
        and np.isfinite(stack).all()
    ):
        return stack
    mats = []
    for k, m in enumerate(elems):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise DimensionMismatch(f"element {k} has shape {m.shape}, expected (2, 2)")
        if not np.isfinite(m).all():
            raise DimensionMismatch(f"element {k}: matrix entries must be finite")
        mats.append(m)
    if not mats:
        raise ValueError("a unitary set must be nonempty")
    return np.stack(mats)


class FramePotentialReport(NamedTuple):
    t: int
    value: float
    haar_value: float  # the U(2) Haar value, the Catalan number C_t
    gap: float

    def is_design(self, tol: float = EQ_TOL) -> bool:
        check_tol(tol)
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
    """(1/N) sum_a U_a^{(x)t} A (U_a^H)^{(x)t} — the order-t twirl over S,
    for any t >= 1."""
    return unvec(superop_of_twirl(S, t) @ vec(as_matrix(A, 2**t)))


def haar_twirl(t: int, A) -> np.ndarray:
    """The Haar-average twirl on qubits: SUPEROP_HAAR[t] applied to A."""
    return unvec(superop_of_twirl(HAAR, t) @ vec(as_matrix(A, 2**t)))


def superop_of_twirl(source, t: int) -> np.ndarray:
    """The (D^2, D^2) matrix of the order-t twirl channel on vectorized operators.

    `source` is either a UnitarySet or the string "haar" for the exact
    Haar-average channel, which returns the read-only SUPEROP_HAAR[t]
    itself: the one check of the Haar oracle's orders, SUPEROP_HAAR's keys.
    """
    if isinstance(source, str):
        if source != HAAR:
            raise ValueError(f"unknown twirl source {source!r}")
        if t not in SUPEROP_HAAR:
            raise UnsupportedOrder(f"the Haar oracle implements t in {set(SUPEROP_HAAR)}, got {t}")
        return SUPEROP_HAAR[t]
    if t < 1:
        raise UnsupportedOrder(f"twirl order must be >= 1, got {t}")
    n = len(source)
    Y = _monomials(source.stack.reshape(n, 4).T, t)
    G = np.dot(Y.conj(), Y.T) / n  # np.dot: less overhead than @ on matrices this small
    return G.ravel()[_moment_index(t)]


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
    """(1/N^2) sum_{a,b} |tr(U_a^H U_b)|^(2t), read off the set's Gram
    matrix once per t and then stored on the set, with its U(2) Haar value
    C_t, the Catalan number that counts the spin-0 states of 2t spin-1/2
    particles (Diaconis & Shahshahani, J. Appl. Probab. 31A (1994)).  Each
    |tr(U_a^H U_b)| is at most 2 + sqrt(2) S.unitarity_defect (see
    UnitarySet), so the sum, and C_t < 4^t, stay in the float range while
    N^2 times that to the power 2t is below 2^1022; higher orders are refused."""
    if t < 1:
        raise UnsupportedOrder(f"frame potential order must be >= 1, got {t}")
    key = ("frame_potential", t)
    value = S._derived.get(key)
    if value is None:
        if math.log2(len(S)) + t * math.log2(2 + math.sqrt(2) * S.unitarity_defect) >= 511:
            raise UnsupportedOrder(f"the order-{t} frame potential of {len(S)} elements may overflow")
        value = S._derived[key] = float(mean(np.abs(S.gram) ** (2 * t)))
    haar_value = _haar_frame_potential(t)
    return FramePotentialReport(t, value, haar_value, value - haar_value)


@functools.cache
def _haar_frame_potential(t: int) -> float:
    return math.comb(2 * t, t) / (t + 1)  # C_t, an int over an int: correctly rounded


# --------------------------------------------------------------------------
# deterministic Haar sampling on SU(2)


#: the end of every Haar stream: Philox's block counter has 256 bits
_STREAM_END = 2**256


def _check_stream_end(counter: int, n: int) -> None:
    if counter + n > _STREAM_END:
        raise ValueError(f"drawing {n} from counter {counter} passes the stream's end at 2**256")


class HaarSampler:
    """Deterministic Haar-uniform SU(2) stream.

    The state is (seed, counter) where `counter` indexes quaternions drawn
    so far; any (seed, counter) pair reproduces the identical continuation,
    and bulk draws agree bitwise with repeated single draws.  Quaternion k
    of the stream is a pure function of (seed, k), so _haar_block draws any
    block of it without a sampler: mc_oracle_check draws its blocks that
    way, on the calling thread and its helper threads, and advances
    `counter` once at the end.  Not for concurrent mutation — give each
    thread its own sampler.

    `seed` must be an int in [0, 2**64), the Philox key, and `counter` an
    int in [0, 2**256), the Philox block counter; numpy ints count, bools do
    not.  Anything else raises ValueError, since it would draw some other
    stream than the one it names, and so does a draw past 2**256.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int, counter: int = 0):
        if not _is_int(seed) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
        if not _is_int(counter) or not 0 <= counter < _STREAM_END:
            raise ValueError(f"counter must be an int in [0, 2**256), got {counter!r}")
        self.seed = int(seed)
        self.counter = int(counter)

    def __repr__(self) -> str:
        return f"HaarSampler(seed={self.seed!r}, counter={self.counter!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.seed, self.counter) == (other.seed, other.counter)

    def quaternions(self, n: int) -> np.ndarray:
        """Draw n uniform points of S^3 as an (n, 4) array, advancing the state."""
        if not _is_int(n) or n < 1:
            raise ValueError(f"n must be an int >= 1, got {n!r}")
        n = int(n)  # a numpy int would overflow the counter's sum from 2**63 up
        _check_stream_end(self.counter, n)
        g, u = np.empty((4, n)), np.empty((4, n))
        _haar_block(self.seed, self.counter, g, u)
        self.counter += n
        return g.T


def _haar_block(seed: int, counter: int, g: np.ndarray, u: np.ndarray) -> None:
    """Write quaternions counter, ..., counter + m - 1 of the Haar stream of
    `seed` into the rows (s, x, y, z) of g, a C-contiguous (4, m) array,
    with u, another, as scratch.  It keeps no state and allocates no array,
    so the blocks of one stream can be drawn in any order and on any thread."""
    # Each quaternion consumes one 256-bit counter block (four doubles), so
    # starting the block counter at `counter` replays the stream from there.
    # Philox takes it as a Python int in [0, 2**256), exactly; a list would go
    # through float64 from 2**63 up.  The raw draws, (m, 4) in C order, go
    # through g's memory to u's rows.
    bits = np.random.Philox(key=np.uint64(seed), counter=counter)
    raw = g.reshape(g.shape[1], 4)
    np.copyto(u, np.random.Generator(bits).random(out=raw).T)
    # Box-Muller on contiguous rows, in place: g = (r cos a, r sin a) for (r, a)
    # from rows (0, 1) and (2, 3), normalized in np.linalg.norm's summation order
    r, a = u[0::2], u[1::2]
    np.sqrt(np.multiply(np.log1p(np.negative(r, out=r), out=r), -2.0, out=r), out=r)
    np.multiply(a, 2.0 * np.pi, out=a)
    np.multiply(r, np.cos(a, out=g[0::2]), out=g[0::2])
    np.multiply(r, np.sin(a, out=g[1::2]), out=g[1::2])
    norm, square = u[0], u[1]  # r and a are spent
    np.multiply(g[0], g[0], out=norm)
    for row in g[1:]:
        norm += np.multiply(row, row, out=square)
    g /= np.sqrt(norm, out=norm)


def haar_sample(h: HaarSampler) -> np.ndarray:
    """One Haar-distributed special unitary, advancing the sampler."""
    return su2_batch(h.quaternions(1))[0]


def _monomials(W: np.ndarray, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of the degree-t monomials of the rows of a (k, m) array, in
    itertools.combinations_with_replacement order: W itself at t = 1, else
    written into `out` when given, a (C(k + t - 1, t), m) array, with no
    other array made."""
    if t == 1:
        return W
    k = len(W)
    Y = np.empty((math.comb(k + t - 1, t), W.shape[1]), W.dtype) if out is None else out
    # Raise the degree one at a time: the degree-d rows that start with W[a]
    # are W[a] times the last C(k - a + d - 2, d - 1) rows P of degree d - 1.
    # P is W, then the first rows of Y, which those that start with W[0] take
    # over last.
    P = W
    for d in range(2, t + 1):
        row = len(P)
        for a in range(1, k):
            tail = P[len(P) - math.comb(k - a + d - 2, d - 1) :]
            np.multiply(W[a], tail, out=Y[row : row + len(tail)])
            row += len(tail)
        np.multiply(W[0], P, out=Y[: len(P)])
        P = Y[:row]
    return Y


@functools.cache
def _moment_index(t: int) -> np.ndarray:
    """Phi = G.ravel()[this] / N lays the Gram matrix G = conj(Y) Y^T of the
    monomials Y of N unitaries' four entries out as their twirl
    superoperator: Phi[(a,c),(b,d)] = G[(a,b),(c,d)], where (a,b) is the
    monomial that is entry [a, b] of U^{(x)t}, the product over the factors
    s of U[a_s, b_s], entry 2 a_s + b_s of the four."""
    row = {j: r for r, j in enumerate(itertools.combinations_with_replacement(range(4), t))}
    bits = list(itertools.product((0, 1), repeat=t))  # the bits a_1 ... a_t of each index a
    rank = {(a, b): row[tuple(sorted(2 * x + y for x, y in zip(a, b)))] for a in bits for b in bits}
    index = [[rank[a, b] * len(row) + rank[c, d] for b in bits for d in bits] for a in bits for c in bits]
    return _read_only(np.array(index))


@functools.cache
def _entry_map(t: int) -> np.ndarray:
    """L_t with _monomials(u, t) = L_t @ _monomials(q, t) for the four
    entries u_j = sum_k q_k B[k, j] of U = sum_k q_k UNIT_BASIS[k]: the row
    of j_1 <= ... <= j_t expands prod_s u_{j_s} over the monomials of q.
    Its entries are sums of products of 0, +-1 and +-i, so exact."""
    B = UNIT_BASIS.reshape(4, 4)
    row = {j: r for r, j in enumerate(itertools.combinations_with_replacement(range(4), t))}
    L = np.zeros((len(row), len(row)), dtype=complex)
    for j, r in row.items():
        for k in itertools.product(range(4), repeat=t):
            L[r, row[tuple(sorted(k))]] += math.prod(B[k_s, j_s] for k_s, j_s in zip(k, j))
    return _read_only(L)


#: the Monte Carlo gate: a report is ok when every deviation is within this
#: many standard errors
NSIGMA = 5.0


class McOracleReport(NamedTuple):
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
    nsigma: float = NSIGMA

    @property
    def max_deviation(self) -> float:
        return float(self.deviations.max())

    @property
    def max_ratio(self) -> float:
        """The largest deviation in standard errors: a zero deviation counts
        as 0 and any other over a zero standard error as inf."""
        d, s = self.deviations, self.std_errors
        return float(np.divide(d, s, out=np.where(d > 0, np.inf, 0.0), where=s > 0).max())

    @property
    def ok(self) -> bool:
        return bool(np.all(self.deviations <= self.nsigma * self.std_errors))


#: the samples per block of mc_oracle_check: a block's work array holds at
#: most 18 rows of CHUNK floats, 1.2 MB, which stays in a 2 MB L2 cache, and
#: a call has enough blocks that a helper thread starting late still finds some
CHUNK = 8192


def mc_oracle_check(h: HaarSampler, t: int, n: int) -> McOracleReport:
    """Single-pass MC sweep of the twirl over the whole operator basis.

    Estimates the twirl superoperator, whose column j*D+i is the vectorized
    twirl of E(i,j), and scores every basis element against the exact Haar
    oracle.  Each block sums the real Gram matrix Y Y^T of the (n_t, m)
    monomials Y of its quaternions (n_t = 4 at t = 1, 10 at t = 2).  The
    monomials of U's entries are L_t Y, for the exact, constant L_t of
    _entry_map, so after the last block conj(L_t) (sum Y Y^T) L_t^T is the
    Gram matrix that superop_of_twirl forms from a set, and the same gather
    (_moment_index) lays it out as the superoperator.
    Every column of kron(conj(M), M) is a unit vector for unitary M, so the
    entry variances of a column sum to 1 - ||mean column||^2, and that sum
    over n gives the column's squared standard error.

    The samples h.counter, ..., h.counter + n - 1 of h's stream are split
    into blocks of CHUNK = 8192 (the last may be shorter).  Each block is
    drawn and reduced to its Gram matrix on its own, in one of `workers`
    work arrays.  The calling thread takes blocks, and so does one helper
    thread per further CPU this process may use (os.sched_getaffinity;
    os.cpu_count outside Linux), up to one thread per block; their Gram
    matrices are added in block order (_sum_in_order).  The partition
    depends on n and CHUNK alone, so the report is bit-identical whatever
    the number of workers; a different CHUNK moves it only by
    floating-point summation order.  h.counter advances by n.
    """
    oracle = superop_of_twirl(HAAR, t)
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {n}")
    n, chunk = int(n), CHUNK
    _check_stream_end(h.counter, n)
    seed, start, stop = h.seed, h.counter, h.counter + n
    starts = range(start, stop, chunk)
    workers = min(_usable_cpus(), len(starts))
    # one work array per worker, made on this thread: workers allocate no
    # array, so no per-thread heap holds on to their memory
    spare = [np.empty(_MC_ROWS[t] * min(chunk, n)) for _ in range(workers)]

    def block(lo):
        work = spare.pop()  # atomic; at most `workers` blocks run at once
        try:
            return _mc_block(seed, lo, min(chunk, stop - lo), t, work)
        finally:
            spare.append(work)

    gram = _sum_in_order(block, starts, workers)
    h.counter = stop
    L = _entry_map(t)
    phi = (L.conj() @ gram @ L.T / n).ravel()[_moment_index(t)]
    deviations = np.linalg.norm(phi - oracle, axis=0)
    # a mean column of samples that all agree can round to norm 1 + ulp
    std_errors = np.sqrt(np.maximum(1.0 - (np.abs(phi) ** 2).sum(axis=0), 0.0) / n)
    return McOracleReport(t, n, h.seed, deviations, std_errors)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


#: rows of m floats that _mc_block uses at each oracle order t: g and u, then
#: the degree-t monomials of g's four rows, which at t = 1 are g itself
_MC_ROWS = {t: 8 if t == 1 else 8 + math.comb(t + 3, t) for t in SUPEROP_HAAR}


def _mc_block(seed: int, start: int, m: int, t: int, work: np.ndarray) -> np.ndarray:
    """The Gram matrix Y Y^T of the monomials of quaternions start, ...,
    start + m - 1 of the stream `seed`, for mc_oracle_check, computed in
    `work`, a flat float array of at least _MC_ROWS[t] * m entries.  It calls
    no traced name and makes no array but its small result, so that it can
    run on helper threads.  numpy still buffers the broadcasts of a short
    block: under tracemalloc a call peaks at 34 KB for m = 999 and 68 KB for
    m = 4096, at t = 1 and 2 (_haar_block's divide; at t = 2 also
    _monomials' multiplies), against 2.2 KB, the Philox generator, at 8192."""
    g, u = work[: 8 * m].reshape(2, 4, m)
    _haar_block(seed, start, g, u)
    Y = _monomials(g, t, out=work[8 * m : _MC_ROWS[t] * m].reshape(-1, m))
    return np.dot(Y, Y.T)  # not Y @ Y.T, which holds the GIL for the whole product


def _sum_in_order(fn, items, workers: int):
    """The left fold 0 + fn(items[0]) + fn(items[1]) + ..., as sum() gives it,
    with fn run on the calling thread and workers - 1 helper threads.

    Each thread takes the next item under a lock and runs fn on it.  A
    result is added to the total once every earlier item's result has been;
    one that comes early waits in `parked` while its thread goes on, and a
    thread takes an item only while at most `workers` taken items wait to be
    added, so at most `workers` results wait.  An exception from fn stops
    the taking of items; once every helper is joined, the one raised by the
    earliest item propagates unchanged, as it would from
    sum(map(fn, items)).  No thread outlives the call."""
    if workers <= 1:
        return sum(map(fn, items))
    todo = enumerate(items)
    turn = threading.Condition()
    total, added, taken, parked = 0, 0, 0, {}
    failed = None  # (index, exception) once anything raised

    def work():
        nonlocal total, added, taken, failed
        while True:
            with turn:
                turn.wait_for(lambda: taken - added <= workers or failed)
                k, item = next(todo, (None, None))
                if k is None or failed:
                    return
                taken += 1
            try:
                value = fn(item)
            except BaseException as exc:
                with turn:
                    if not failed or k < failed[0]:
                        failed = (k, exc)
                    turn.notify_all()
                return
            with turn:
                parked[k] = value
                while added in parked:
                    total = total + parked.pop(added)
                    added += 1
                turn.notify_all()

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    except BaseException as exc:  # an interrupt, or no thread to start: stop the helpers
        with turn:
            failed = (-1, exc)
            turn.notify_all()
        raise
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[1]
    return total
