"""The one moment every twirl check reads, and its exact Haar value.

The Hermitian Gram matrix G of the degree-t monomials of the four entries
of U (10 x 10 at t = 2), each entry of U^{(x)t} being one of them.  The
twirl superoperator Phi_S = (1/N) sum_a conj(M_a) (x) M_a, M_a =
U_a^{(x)t}, is a fixed gather of G's entries, Phi[(a,c),(b,d)] =
G[(a,b),(c,d)] / N (moment_index), read for twirls of operators and Choi
matrices.  The Monte Carlo check sums the same G in the monomials of the
Haar quaternion q, mapped to the entries' by one exact change of
coordinates (entry_map); the exact Haar G comes from S^3 moments
(haar_gram).  Design checks never form Delta = Phi_S - Phi_Haar: its
squared column norms (the largest is the worst twirl error on a basis
operator) are column sums of the gathered |G_S - G_Haar|^2, and their total
is the frame-potential gap (Gross, Audenaert & Eisert, JMP 48, 052104
(2007)).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import UnsupportedOrder
from .linalg import is_int, read_only
from .su2 import UNIT_BASIS

#: the highest order superop_of_twirl takes: the gather index of order t has
#: 4^{2t} entries, 8.4 MB at t = 5, then 134 MB at t = 6 and 2.1 GB at t = 7,
#: so a higher order is refused before its index is built
MAX_ORDER = 5


def check_order(t) -> int:
    if not is_int(t) or t < 1:
        raise UnsupportedOrder(f"twirl order must be an int >= 1, got {t!r}")
    if t > MAX_ORDER:
        raise UnsupportedOrder(
            f"twirl order must be <= {MAX_ORDER}, got {t}: its superoperator would have 4^{2 * t} entries"
        )
    return int(t)  # a numpy int would overflow 4^t (t + 1)! and share cache keys with the int


def gram(S, t: int) -> np.ndarray:
    """The order-t Gram matrix conj(Y) Y^T / N of the monomials Y of S's entries."""
    Y = monomials(S.stack.reshape(-1, 4).T, t)
    return np.dot(Y.conj(), Y.T) / len(S)  # np.dot: less overhead than @ on matrices this small


def twirl_errors_sq(G: np.ndarray, t: int) -> np.ndarray:
    """The squared column norms of Phi - Phi_Haar, Phi laid out from the order-t
    Gram matrix G, as column sums of the gathered |G - G_Haar|^2."""
    D = G - haar_gram(t)
    return column_sums((D.conj() * D).real, t)


def column_sums(M: np.ndarray, t: int) -> np.ndarray:
    """The column sums of the superoperator laid out from a Gram-shaped M."""
    return np.add.reduce(M.ravel()[moment_index(t)], 0)


def monomials(W: np.ndarray, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of the degree-t monomials of the rows of a (4, m) array, in
    itertools.combinations_with_replacement order: W itself at t = 1.

    The row of j_1 <= ... <= j_d is W[j_1] times the degree-(d - 1) row of
    j_2 ... j_d, one IEEE product in either layout.  Without `out` (a finite
    set's few columns) each degree is one cached gather, W[first] * Y[rest].
    With `out`, a (C(t + 3, t), m) array (a Monte Carlo block's 8,192
    columns), the rows are written into it by slices, with no other array
    made: a gather there would copy two block-sized temporaries.  One
    column also takes the slices: numpy forms a one-element broadcast
    product, as the slices make for the last row, without the fused
    multiply-add of its vector loops, so a gather would move last bits."""
    if t == 1:
        return W
    m = W.shape[1]
    if out is None and m > 1:
        Y = W
        for first, rest in monomial_gathers(t):
            Y = W[first] * Y[rest]
        return Y
    Y = np.empty((math.comb(t + 3, t), m), W.dtype) if out is None else out
    # Raise the degree one at a time: the degree-d rows that start with W[a]
    # are W[a] times the last C(d + 2 - a, d - 1) rows P of degree d - 1.
    # P is W, then the first rows of Y, which those that start with W[0] take
    # over last.
    P = W
    for d in range(2, t + 1):
        row = len(P)
        for a in range(1, 4):
            tail = P[len(P) - math.comb(d + 2 - a, d - 1) :]
            np.multiply(W[a], tail, out=Y[row : row + len(tail)])
            row += len(tail)
        np.multiply(W[0], P, out=Y[: len(P)])
        P = Y[:row]
    return Y


@functools.cache
def monomial_gathers(t: int) -> tuple:
    """For d = 2, ..., t, the index arrays (first, rest) with which the
    degree-d monomial rows are W[first] * Y[rest], Y the degree-(d - 1)
    rows: each row's first entry and the row of the rest."""
    gathers = []
    for d in range(2, t + 1):
        rank, rows = monomial_rows(d - 1), monomial_rows(d)
        first = np.array([j[0] for j in rows], np.intp)
        rest = np.array([rank[j[1:]] for j in rows], np.intp)
        gathers.append((read_only(first), read_only(rest)))
    return tuple(gathers)


@functools.cache
def monomial_rows(t: int) -> dict:
    """The row in monomials of the degree-t monomial of entries j_1 <= ... <= j_t."""
    return {j: r for r, j in enumerate(itertools.combinations_with_replacement(range(4), t))}


@functools.cache
def moment_index(t: int) -> np.ndarray:
    """Phi = G.ravel()[this] / N lays the Gram matrix G = conj(Y) Y^T of the
    monomials Y of N unitaries' four entries out as their twirl
    superoperator: Phi[(a,c),(b,d)] = G[(a,b),(c,d)], where (a,b) is the
    monomial that is entry [a, b] of U^{(x)t}, the product over the factors
    s of U[a_s, b_s], entry 2 a_s + b_s of the four."""
    row = monomial_rows(t)
    bits = list(itertools.product((0, 1), repeat=t))  # the bits a_1 ... a_t of each index a
    rank = np.array([[row[tuple(sorted(2 * x + y for x, y in zip(a, b)))] for b in bits] for a in bits])
    index = rank[:, None, :, None] * len(row) + rank[None, :, None, :]  # [a, c, b, d]
    return read_only(index.reshape(rank.size, rank.size))


@functools.cache
def entry_map(t: int) -> np.ndarray:
    """L_t with monomials(u, t) = L_t @ monomials(q, t) for the four
    entries u_j = sum_k q_k B[k, j] of U = sum_k q_k UNIT_BASIS[k]: the row
    of j_1 <= ... <= j_t expands prod_s u_{j_s} over the monomials of q.

    Built by raising the degree: the row of (j_1, rest) is the sum over k of
    B[k, j_1] times the row of rest, moved to the columns of the monomials
    with one more factor q_k.  Its entries are sums of products of 0, +-1
    and +-i, so exact, and those summed into the zeros stay +0.0."""
    if t == 0:
        return read_only(np.ones((1, 1), dtype=complex))
    B = UNIT_BASIS.reshape(4, 4)
    rows, lower = monomial_rows(t), monomial_rows(t - 1)
    first = [j[0] for j in rows]
    P = entry_map(t - 1)[[lower[j[1:]] for j in rows]]
    L = np.zeros((len(rows), len(rows)), dtype=complex)
    for k in range(4):
        L[:, [rows[tuple(sorted((k, *m)))] for m in lower]] += B[k, first, None] * P
    return read_only(L)


@functools.cache
def haar_gram(t: int) -> np.ndarray:
    """The order-t Haar Gram matrix from exact moments of a Haar quaternion q
    (Folland, Amer. Math. Monthly 108 (2001) 446-448): N = 4^t (t + 1)! E[Y
    Y^T], for Y the degree-t monomials of q, holds prod_i k_i! / (k_i / 2)!,
    or 0 if an exponent k_i of the product is odd.  With entry_map(t) = A +
    iB, conj(L) N L^T has integer parts, divided once: correctly rounded."""
    P = np.array([np.bincount(j, minlength=4) for j in monomial_rows(t)])  # (n_t, 4) exponents
    f = np.array([math.factorial(k) // math.factorial(k // 2) * (1 - k % 2) for k in range(2 * t + 1)])
    N = f[P[:, None] + P].prod(axis=2)
    L, scale = entry_map(t), 4**t * math.factorial(t + 1)
    A, B = L.real.astype(np.int64), L.imag.astype(np.int64)
    G = ((A @ N @ A.T + B @ N @ B.T) / scale).astype(complex)
    G.imag = (A @ N @ B.T - B @ N @ A.T) / scale
    return read_only(G)


@functools.cache
def haar_superop(t: int) -> np.ndarray:
    """The order-t Haar twirl superoperator, laid out from haar_gram(t)."""
    return read_only(haar_gram(t).ravel()[moment_index(t)])
