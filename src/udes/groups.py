"""SU(2) closures of unitary sets, finite group structure, and recognition
of the 3-sphere polytopes their quaternion pictures trace out.

Every unitary has exactly two determinant-1 phase shifts, an antipodal pair
on the unit quaternion 3-sphere; the closure collects both for every element
of a set.  For the Pauli basis this yields the quaternion group Q8 (a
16-cell on the 3-sphere), and for its 12-element 2-design completion the
binary tetrahedral group (a 24-cell).  Everything here works on that
(2n, 4) quaternion array, with Hamilton products in place of matmuls.

The closure table reads the exact +-D0 quaternions of the built-in listing,
whose coordinates lie in {0, +-1/2, +-1}, and derives the Pauli coefficients
(through those of su2's unit basis) and rotation vectors from them in closed
form, with no rounding step.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from .designs import BUILTIN_LABELS, D0_QUATERNIONS
from .errors import NonUnitPoint, NotHalfInteger, ProportionalElements
from .linalg import check_tol, gram_floor, near_pairs, read_only
from .su2 import (
    PAULI_BASIS,
    QUATERNION_UNITS,
    UNIT_BASIS,
    AxisAngle,
    axis_angle_batch,
    canonical_signs,
    hamilton,
    normalize_batch,
    quaternion_batch,
)
from .twirl import UnitarySet

_MEMBER_TOL = 1e-9  # products of lattice-exact elements leave huge margin

_ORDER_CAP = 48  # largest element order we ever probe for


def _signed(A: np.ndarray) -> np.ndarray:
    """The rows of A interleaved with their negatives: A[0], -A[0], A[1], ..."""
    out = np.empty((2 * len(A), *A.shape[1:]), A.dtype)
    out[0::2], out[1::2] = A, -A
    return out


def _hs_distance(d: np.ndarray) -> np.ndarray:
    """||U - V|| = sqrt(2) |p - q| from quaternion differences d = p - q (..., 4)."""
    return math.sqrt(2.0) * np.sqrt(np.einsum("...i,...i->...", d, d))


class Su2Closure(NamedTuple):
    """Both determinant-1 normalizations of every element of a set, as the
    read-only (2n, 4) array `quaternions` of unit quaternions.

    Row 2a is the canonical normalization of element a of the set (first
    nonzero coordinate positive) and row 2a + 1 its negative;
    su2_batch(C.points()) gives their matrices.  len() is the closure size,
    not the number of fields.
    """

    quaternions: np.ndarray

    def __len__(self) -> int:
        return len(self.quaternions)

    def points(self) -> np.ndarray:
        """The closure as an (n, 4) array of unit quaternions."""
        return self.quaternions


# namedtuple's own _make, which _replace calls, checks len(), the closure
# size here; the constructor checks the field count instead
Su2Closure._make = classmethod(lambda cls, fields: cls(*fields))


def su2_closure(S: UnitarySet, tol: float = _MEMBER_TOL) -> Su2Closure:
    """Collect both determinant-1 phase shifts of every element.

    Proportional elements share their normalizations, which would collapse
    the closure; the first pair in row order with sqrt(2) min(|p - q|,
    |p + q|) <= tol for its normalized quaternions p and q is rejected.  The
    Gram screen of linalg.near_pairs passes on the pairs with |p.q| at or
    above linalg.gram_floor for the squared norms |p|^2 the quaternions span,
    which holds every pair that close, and their differences decide.
    """
    check_tol(tol)
    P = quaternion_batch(normalize_batch(S.stack))
    sq = np.einsum("ij,ij->i", P, P)
    floor = gram_floor(sq.min(), sq.max(), tol / math.sqrt(2.0))
    G = P @ P.T
    i, j = near_pairs(np.abs(G), floor)
    if i.size:
        # the sign of p.q picks the nearer of q and -q
        hit = np.flatnonzero(_hs_distance(P[i] - np.sign(G[i, j])[:, None] * P[j]) <= tol)
        if hit.size:
            a, b = i[hit[0]], j[hit[0]]
            raise ProportionalElements(f"elements {a} and {b} are proportional and share normalizations")
    return Su2Closure(read_only(_signed(P)))


class GroupProfile(NamedTuple):
    is_group: bool
    order_histogram: dict
    center_size: int
    cosets: tuple | None
    semidirect_check: bool


#: row j holds the (i, k) entries (e_i e_j)_k of the unit basis products, so
#: that (q @ _RIGHT).reshape(4, 4) is the right-multiplication matrix of q:
#: p q = p @ (q @ _RIGHT).reshape(4, 4), with hamilton's sign convention
_RIGHT = hamilton(QUATERNION_UNITS[None], QUATERNION_UNITS[:, None]).reshape(4, 16)


def _lookup(P: np.ndarray, Q: np.ndarray, tol: float) -> np.ndarray:
    """Index of the row of the signed closure Q nearest each quaternion of P,
    or -1 where it is farther than tol in Hilbert-Schmidt distance
    ||U - V|| = sqrt(2) |p - q|.

    The largest p.q over Q picks the row, in row blocks of at most 2^15 dot
    products (256 kB): Q holds -r right after each representative r, so
    that is the largest |p.r| with the sign of p.r, the first on a tie.  The
    distance is then taken directly, because 2 - 2 |p.r| loses the 1e-9
    scale to cancellation.
    """
    flat = P.reshape(-1, 4)
    out = np.empty(len(flat), dtype=int)
    step = max(1, 2**15 // len(Q))
    for lo in range(0, len(flat), step):
        out[lo : lo + step] = np.argmax(flat[lo : lo + step] @ Q.T, axis=1)
    out[_hs_distance(flat - Q.take(out, axis=0)) > tol] = -1
    return out.reshape(P.shape[:-1])


#: k / 2 for the probed powers k = 1, ..., _ORDER_CAP
_HALF_POWERS = np.arange(1, _ORDER_CAP + 1) / 2.0


def _orders(Q: np.ndarray, tol: float) -> np.ndarray:
    """Smallest k <= _ORDER_CAP with ||U^k - 1|| <= tol per element, 0 if none.

    A unit quaternion (cos a, sin a n) has the powers (cos ka, sin ka n), so
    ||U^k - 1|| = sqrt(2) |q^k - 1| = 2 sqrt(2) |sin(ka / 2)|, with
    a = atan2(|v|, s).  In units of pi, k a / 2 is reduced exactly to its
    distance r <= 1/2 from the nearest integer, and |sin(pi r)| grows with
    r there: the test is r <= arcsin(tol / (2 sqrt(2))) / pi.  The rounding
    of k a / 2 never enters, and the built-in lattice elements, whose r is
    exactly 0 at their orders, keep those orders however small tol is.
    """
    turns = np.arctan2(np.linalg.norm(Q[:, 1:], axis=1), Q[:, 0]) / math.pi
    x = np.multiply.outer(turns, _HALF_POWERS)
    reach = math.asin(min(tol / (2.0 * math.sqrt(2.0)), 1.0)) / math.pi
    hit = np.abs(x - np.round(x)) <= reach
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 0)


_CANDIDATE_SUBGROUPS = (
    ("1", "-1", "I", "-I", "J", "-J", "K", "-K"),  # quaternion group Q8
    ("1", "-1", "I", "-I"),
    ("1", "-1", "J", "-J"),
    ("1", "-1", "K", "-K"),
    ("1", "-1"),
)

#: the signed quaternion units, in the order of Q8 above
_UNITS = _signed(QUATERNION_UNITS)


def _product_table(Q: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) index table of the products of the signed closure Q, -1
    where a product lies farther than tol from every element, and which
    representatives Q[0::2] commute with all of them within tol.

    Negation is exact, so Q[2a+s] Q[2b+t] = (-1)^(s+t) R_a R_b bit for bit
    with R = Q[0::2]: only the (n/2)^2 representative products are formed,
    in one GEMM against their right-multiplication matrices, and the index
    of a signed product is that of R_a R_b with its low bit flipped by s ^ t.
    """
    R = Q[0::2]
    m = len(R)
    right = (R @ _RIGHT).reshape(m, 4, 4)
    T = (R @ right.transpose(1, 0, 2).reshape(4, 4 * m)).reshape(m, m, 4)  # T[a, b] = R_a R_b
    rep = _lookup(T, Q, tol)
    flip = np.where(rep < 0, -1, rep ^ 1)  # -1 ^ 1 is -2
    prod = np.empty((2 * m, 2 * m), dtype=int)
    prod[0::2, 0::2] = prod[1::2, 1::2] = rep
    prod[0::2, 1::2] = prod[1::2, 0::2] = flip
    commutes = (_hs_distance(T - T.swapaxes(0, 1)) <= tol).all(axis=1)
    return prod, commutes


def group_profile(C: Su2Closure, tol: float = _MEMBER_TOL) -> GroupProfile:
    """Multiplicative structure of a closure: closure-under-product verdict,
    element orders, center size, coset split by the largest proper normal
    subgroup among the quaternion-unit subgroups, and whether that subgroup
    admits a cyclic complement (an inner semidirect decomposition), all from
    one table of Hamilton products looked up within tol."""
    check_tol(tol)
    Q = C.points()
    n = len(C)
    prod, commutes = _product_table(Q, tol)
    histogram = dict(Counter(_orders(Q, tol).tolist()))
    # g commutes with everything exactly when -g does
    center = 2 * int(np.count_nonzero(commutes))

    # a group: closed, with an identity row e that every row holds (an inverse)
    table = prod.tolist() if (prod >= 0).all() else []
    ident = list(range(n))
    e = table.index(ident) if ident in table else -1
    if e < 0 or not all(e in row for row in table):
        return GroupProfile(False, histogram, center, None, False)
    inverse = [row.index(e) for row in table]
    units = dict(zip(_CANDIDATE_SUBGROUPS[0], _lookup(_UNITS, Q, tol).tolist()))
    for names in _CANDIDATE_SUBGROUPS:
        idx = [units[nm] for nm in names]
        if -1 in idx or len(idx) >= n:
            continue
        members = set(idx)
        # normal: g h g^-1 stays in the subgroup for every g
        if all(table[row[h]][g_inv] in members for row, g_inv in zip(table, inverse) for h in idx):
            # row r starts a new left coset rH exactly when r is its smallest member
            left = np.sort(prod.take(idx, axis=1), axis=1)
            cosets = tuple(map(tuple, left[left[:, 0] == np.arange(n)].tolist()))
            return GroupProfile(True, histogram, center, cosets, _has_cyclic_complement(table, members, e))
    return GroupProfile(True, histogram, center, None, False)


def _has_cyclic_complement(prod: list, members: set, e: int) -> bool:
    """Whether some cyclic subgroup of order n/|members| meets the normal
    subgroup only in e, so that the two together cover the group; `prod` is
    the product table as nested lists, faster to walk than an array."""
    n = len(prod)
    want = n // len(members)
    for g in range(n):
        powers = [e]
        cur = g
        while cur != e and len(powers) <= want:
            powers.append(cur)
            cur = prod[cur][g]
        if cur == e and len(powers) == want and set(powers) & members == {e}:
            if len({prod[h][k] for h in members for k in powers}) == n:
                return True
    return False


class PolytopeId(NamedTuple):
    kind: str
    distance_spectrum: tuple  # ((chord, multiplicity), ...) per vertex


_SQ2, _SQ3 = math.sqrt(2.0), math.sqrt(3.0)

_TEMPLATES = (
    ("16-cell", 8, ((_SQ2, 6), (2.0, 1))),
    ("tesseract", 16, ((1.0, 4), (_SQ2, 6), (_SQ3, 4), (2.0, 1))),
    ("24-cell", 24, ((1.0, 8), (_SQ2, 6), (_SQ3, 8), (2.0, 1))),
    ("hexagon", 6, ((1.0, 2), (_SQ3, 2), (2.0, 1))),
    ("tetrahedron-pair", 8, ((1.0, 3), (_SQ2, 3), (_SQ3, 1))),
)
_TEMPLATE_SIZES = frozenset(size for _, size, _ in _TEMPLATES)


def _expand(template) -> np.ndarray:
    vals = []
    for chord, mult in template:
        vals.extend([chord] * mult)
    return np.array(sorted(vals))


def polytope_identify(points, tol: float = _MEMBER_TOL) -> PolytopeId:
    """Recognize a point set on the unit 3-sphere by its chord spectrum.

    Each stored template is the sorted multiset of distances seen from any
    one vertex; a set matches when every vertex sees exactly that multiset.
    Sets matching no template are reported as kind "other" with the spectrum
    of their first vertex.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 4:
        raise NonUnitPoint(f"expected an (n, 4) array of quaternions, got {P.shape}")
    norms = np.linalg.norm(P, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol))  # NaN fails too
    if bad.size:
        raise NonUnitPoint(f"point {bad[0]} has norm {float(norms[bad[0]])!r}")
    n = P.shape[0]
    if n < 2:
        return PolytopeId("other", ())
    # the distances each vertex sees; when no template has n vertices, only
    # the first vertex's, whose spectrum is all that is read
    seen = P if n in _TEMPLATE_SIZES else P[:1]
    dists = np.linalg.norm(seen[:, None, :] - P[None, :, :], axis=2)
    rows = np.sort(dists, axis=1)[:, 1:]  # drop each vertex's zero self-distance
    for kind, size, template in _TEMPLATES:
        if n != size:
            continue
        want = _expand(template)
        if np.all(np.abs(rows - want[None, :]) <= tol):
            return PolytopeId(kind, template)
    return PolytopeId("other", _spectrum_of(rows[0], tol))


def _spectrum_of(row: np.ndarray, tol: float) -> tuple:
    out = []
    for d in row:
        if out and abs(d - out[-1][0]) <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((float(d), 1))
    return tuple(out)


def demitesseract_class(q, tol: float = _MEMBER_TOL) -> str:
    """Which translate-coset a half-integer quaternion belongs to.

    The sixteen points with all coordinates +-1/2 split into the translates
    of the quaternion units by the axis-cycle generator and by its inverse;
    the sign of the coordinate product separates them ("W" for positive,
    "W*" for negative).  Antipodal points always land together.
    """
    vals = [float(v) for v in q]
    # written as not <= so that NaN coordinates and a NaN tol fail
    if len(vals) != 4 or not all(abs(abs(v) - 0.5) <= tol for v in vals):
        raise NotHalfInteger(f"expected all coordinates +-1/2, got {vals}")
    product = vals[0] * vals[1] * vals[2] * vals[3]
    return "W" if product > 0 else "W*"


def so3_image_table(C: Su2Closure) -> list[AxisAngle]:
    """Axis-angle of the covering rotation, one per antipodal pair,
    evaluated on the canonical representative of each pair."""
    axes, angles = axis_angle_batch(C.points()[0::2])
    return [AxisAngle(tuple(n), a) for n, a in zip(axes.tolist(), angles.tolist())]


#: the rotation-vector coordinate +-c of the half-integer closure elements:
#: angle 2pi/3 about an axis (+-1, +-1, +-1)/sqrt(3)
ROTATION_C = 2.0 * math.pi / (3.0 * math.sqrt(3.0))

#: each quaternion unit's one Pauli coefficient tr(P_k u_k): 2, -2i, -2i, -2i
_UNIT_PAULI = np.einsum("kij,kji->k", UNIT_BASIS, PAULI_BASIS)

#: theta / sin(theta/2), theta = 2 arccos(s), at the canonical s of the
#: closure elements; the vector part vanishes at s = 1
_ROTATION_SCALE = {1.0: 0.0, 0.0: math.pi, 0.5: 2.0 * ROTATION_C}


class ClosureTableRow(NamedTuple):
    """One element of the binary tetrahedral closure in all four pictures."""

    label: str
    pauli: tuple  # c with U = (c0*1 + c1*X + c2*Y + c3*Z) / 2
    quaternion: tuple
    rotation: tuple  # angle * axis of the covering rotation (shared by +-U)


def axis_cycle_closure_table() -> list[ClosureTableRow]:
    """All 24 elements of the closed quaternion-unit completion, row per
    signed element, exact.  The Pauli coefficients of a quaternion are its
    coordinates times _UNIT_PAULI, and the rotation vector is theta n =
    (x, y, z) theta / sin(theta/2) at the canonical sign."""
    Q = _signed(D0_QUATERNIONS) + 0.0  # no -0.0
    R = Q * canonical_signs(Q)[:, None]
    scale = np.array([_ROTATION_SCALE[s] for s in R[:, 0].tolist()])
    coeffs = Q * _UNIT_PAULI
    labels = [tag + name for name in BUILTIN_LABELS["D0"] for tag in "+-"]
    return [
        ClosureTableRow(label, tuple(c), tuple(q), tuple(r))
        for label, c, q, r in zip(
            labels, coeffs.tolist(), Q.tolist(), (R[:, 1:] * scale[:, None] + 0.0).tolist()
        )
    ]
