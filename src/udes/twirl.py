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

The Monte Carlo check of the Haar oracle sums its first moment over
monomials of the Haar quaternion q instead of the entries of U^{(x)t}; see
mc_oracle_check.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DuplicateElements, NotUnitary, UnsupportedOrder
from .linalg import EQ_TOL, GRAM_BLOCK, MAX_DIM, RANK_TOL, as_matrix, first_pair, mean, near_pairs, norms, rank
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

    The elements are copied into one read-only (N, d, d) complex stack,
    which never aliases the caller's arrays.  When they all have one square
    shape of at most MAX_DIM with finite entries, that copy is made and
    validated in one pass; otherwise each element goes through as_matrix in
    order.  Either way the first offending element decides the error,
    checked in this order: shape and finiteness, unitarity (of the elements
    before the first one of another dimension), dimension, then duplicates.
    The duplicate scan screens pairs by the Gram matrix and measures the
    few it passes on as differences, in row-major order.

    `gram`, the Gram matrix G[a, b] = tr(U_a^H U_b), is one GEMM, read-only
    and computed once: by the duplicate scan when it fits in one of
    first_pair's blocks, else on first use.  Since the set never changes,
    the results derived from it are stored on it too, in `_derived`, a dict
    that relabeled copies share: frame_potential's value per order t, and
    designs.classify_min_1design's frame per tol (successes only).
    """

    def __init__(self, elems, labels=None, tol: float = EQ_TOL):
        stack, mismatch = _square_stack(elems)
        n, d, _ = stack.shape
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: inf or nan, refused
            defects = norms(stack.conj().swapaxes(1, 2) @ stack - np.eye(d), (1, 2))
        bad = np.flatnonzero(~(defects <= tol))
        if bad.size:
            k = bad[0]
            raise NotUnitary(
                f"element {k}: matrix is not unitary: ||U^H U - 1|| = {defects[k]:.3e} > {tol:.1e}"
            )
        if mismatch is not None:
            raise DimensionMismatch(mismatch)
        X = stack.reshape(n, d * d)

        def coincide(G, lo):
            i, j = near_pairs(X, G.real, lo, tol)
            if i.size:
                hit = np.linalg.norm(X[lo + i] - X[j], axis=1) <= tol
                i, j = i[hit], j[hit]
            return i, j

        self._gram = _read_only(X.conj() @ X.T) if n * n <= GRAM_BLOCK else None
        pair = first_pair(X, coincide, self._gram)
        if pair:
            raise DuplicateElements(f"elements {pair[0]} and {pair[1]} coincide within {tol}")
        self.labels = _labels(labels, n)
        self.dim = d
        self.stack = _read_only(stack)  # (N, d, d); the elements are views into it
        self.unitarity_defect = float(defects.max())  # max ||U^H U - 1||_HS
        self.elems = tuple(stack)
        self._derived = {}

    def relabeled(self, labels) -> UnitarySet:
        """The same elements under `labels` (one per element, or None),
        sharing this set's stack, Gram matrix and derived results: nothing is
        validated or computed again."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__, labels=_labels(labels, len(self)))
        return other

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            X = self.stack.reshape(len(self), -1)
            self._gram = _read_only(X.conj() @ X.T)
        return self._gram

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, k) -> np.ndarray:
        return self.elems[k]

    def __repr__(self) -> str:
        return f"UnitarySet(dim={self.dim}, n={len(self.elems)})"


def _labels(labels, n: int) -> tuple[str, ...] | None:
    if labels is None:
        return None
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} elements")
    return labels


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _square_stack(elems) -> tuple[np.ndarray, str | None]:
    """The elements of a would-be UnitarySet as one (N, d, d) complex copy.

    Elements of one square shape with finite entries are copied in one pass.
    Any others go through as_matrix one by one, which raises for the first
    element it refuses; the copy then stops before the first element of
    another dimension, and the DimensionMismatch message for it, owed once
    the elements before it pass their unitarity check, comes back too.
    """
    try:
        stack = np.array(elems, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # ragged, or entries that are no numbers
        stack = None
    if (
        stack is not None
        and stack.ndim == 3
        and 0 < len(stack)
        and stack.shape[1] == stack.shape[2] <= MAX_DIM
        and np.isfinite(stack).all()
    ):
        return stack, None
    mats = [as_matrix(m) for m in elems]
    if not mats:
        raise ValueError("a unitary set must be nonempty")
    d = mats[0].shape[0]
    same = next((k for k, m in enumerate(mats) if m.shape[0] != d), len(mats))
    if same == len(mats):
        return np.stack(mats), None
    m = mats[same].shape[0]
    return np.stack(mats[:same]), f"element {same} is {m}x{m}, expected {d}x{d}"


class FramePotentialReport(NamedTuple):
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
    """(1/N^2) sum_{a,b} |tr(U_a^H U_b)|^(2t), read off the set's cached
    Gram matrix once per t and then stored on the set, with the U(2) Haar
    reference for t in {1, 2}; the reference (and the gap) is None for other
    orders and for sets of dimension other than 2."""
    if t < 1:
        raise UnsupportedOrder(f"frame potential order must be >= 1, got {t}")
    key = ("frame_potential", t)
    value = S._derived.get(key)
    if value is None:
        value = S._derived[key] = float(mean(np.abs(S.gram) ** (2 * t)))
    haar_value = FRAME_POTENTIAL_HAAR.get(t) if S.dim == 2 else None
    gap = None if haar_value is None else value - haar_value
    return FramePotentialReport(t, value, haar_value, gap)


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
    way, on worker threads, and advances `counter` once at the end.  Not
    for concurrent mutation — give each thread its own sampler.

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


def _monomials(W: np.ndarray, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of the degree-t monomials of the columns of a (k, m) array:
    W at t = 1, W_a W_b for a <= b in row-major order at t = 2, written
    into `out` when given."""
    if t == 1:
        return W
    k, m = W.shape
    Y = np.empty((k * (k + 1) // 2, m)) if out is None else out
    row = 0
    for a in range(k):
        np.multiply(W[a], W[a:], out=Y[row : row + k - a])
        row += k - a
    return Y


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
        return float((self.deviations / self.std_errors).max())

    @property
    def ok(self) -> bool:
        return bool(np.all(self.deviations <= self.nsigma * self.std_errors))


def mc_oracle_check(h: HaarSampler, t: int, n: int, chunk: int = 16384) -> McOracleReport:
    """Single-pass MC sweep of the twirl over the whole operator basis.

    Estimates the twirl superoperator, whose column j*D+i is the vectorized
    twirl of E(i,j), and scores every basis element against the exact Haar
    oracle.  For a block's tensor powers flattened to X = Y C_t, with Y the
    (m, n_t) monomials of the quaternions (n_t = 4 at t = 1, 10 at t = 2)
    and C_t read off su2_batch, the moment X^H X is C_t^H (Y^T Y) C_t,
    indexed [(a,b),(c,d)]; it is permuted to the superoperator's
    [(a,c),(b,d)] = kron(conj(M), M) layout once, after the last block.
    Every column of kron(conj(M), M) is a unit vector for unitary M, so the
    entry variances of a column sum to 1 - ||mean column||^2, and that sum
    over n gives the column's squared standard error.

    The samples h.counter, ..., h.counter + n - 1 of h's stream are split
    into blocks of `chunk` (the last may be shorter).  Each block is drawn
    and reduced to its Gram matrix on its own, in a work array of at most
    18 rows of `chunk` floats (2.4 MB at the default) that the blocks on one
    worker reuse.  The blocks run on one worker thread per CPU this process
    may use (os.sched_getaffinity; os.cpu_count outside Linux), inline when
    that or the block count is 1, and their Gram matrices are added in
    block order.  The partition depends on n and chunk alone, so the report
    is bit-identical whatever the number of workers; a different chunk
    moves it only by floating-point summation order.  h.counter advances
    by n.
    """
    if t not in (1, 2):
        raise UnsupportedOrder(f"oracle check implements t in {{1, 2}}, got {t}")
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"n must be >= 2 for a standard error, got {n}")
    if not _is_int(chunk) or chunk < 1:
        raise ValueError(f"chunk must be an int >= 1, got {chunk!r}")
    n, chunk = int(n), int(chunk)
    _check_stream_end(h.counter, n)
    seed, start, stop = h.seed, h.counter, h.counter + n
    starts = range(start, stop, chunk)
    workers = min(_usable_cpus(), len(starts))
    # one work array per worker, made on this thread: workers allocate no
    # array, so no per-thread heap holds on to their memory
    spare = [np.empty(_MC_ROWS[t] * min(chunk, n)) for _ in range(workers)]

    def block(lo):
        work = spare.pop()  # atomic; the pool runs at most `workers` blocks at once
        try:
            return _mc_block(seed, lo, min(chunk, stop - lo), t, work)
        finally:
            spare.append(work)

    gram = sum(_in_order(block, starts, workers))  # in block order
    h.counter = stop
    C = _power_map(UNIT_BASIS, t)
    phi = _superop_layout(C.conj().T @ gram @ C, 2**t) / n
    deviations = np.linalg.norm(phi - SUPEROP_HAAR[t], axis=0)
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


#: rows of m floats that _mc_block uses at order t: g and u, then the monomials
_MC_ROWS = {1: 8, 2: 18}


def _mc_block(seed: int, start: int, m: int, t: int, work: np.ndarray) -> np.ndarray:
    """The Gram matrix Y Y^T of the monomials of quaternions start, ...,
    start + m - 1 of the stream `seed`, for mc_oracle_check, computed in
    `work`, a flat float array of at least _MC_ROWS[t] * m entries.  It calls
    no traced name and allocates only its small result, so that it can run
    on worker threads."""
    g, u = work[: 8 * m].reshape(2, 4, m)
    _haar_block(seed, start, g, u)
    Y = _monomials(g, t, out=work[8 * m : 18 * m].reshape(10, m) if t == 2 else None)
    return Y @ Y.T


def _in_order(fn, items, workers: int):
    """Yield fn(item) for each item, in item order, computed on `workers`
    threads with at most 2 * workers items in flight.  An exception from fn
    propagates unchanged, after the items still queued are cancelled and
    the running ones have finished; no thread outlives the iteration."""
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms to import; mc alone needs it

    pool = ThreadPoolExecutor(workers)
    try:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
