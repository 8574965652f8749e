"""Recognition, classification and completion of minimal 1-designs of U(2),
plus the named example designs shipped as exact constants.

A four-element set of pairwise Hilbert-Schmidt-orthogonal unitaries is
precisely a phased, two-sided-rotated copy of the Pauli basis
{e^{i phi_mu} V X_{sigma(mu)} V'}; `classify_min_1design` recovers such a
frame, and `extend_to_2design` upgrades the set to a 12-element 2-design by
adjoining its left translates under the conjugated axis-cycle generator
V W V^H, where W is the order-6 special unitary whose covering rotation
cyclically permutes the coordinate axes.  The classification runs on Python
floats through su2's four-coordinate formulas; no quaternion formula is here.

The built-ins are one exact listing: their elements are the quaternion
products {1, W, W*} x {1, I, J, K}, with all coordinates in {0, +-1/2, +-1},
computed once at import; each built-in is a tuple of labels that names its
elements by sign, factor and unit.  No rounding step is needed anywhere.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalConsistencyError,
    NotMinimal1Design,
    NotOrthogonalBasis,
    NotRotation,
    NotUnitary,
    NotUnitaryElements,
    DuplicateElements,
    UnknownName,
)
from .linalg import EQ_TOL, check_tol, hs_norm
from .su2 import (
    _UNIT_COORDINATES,
    PAULI_BASIS,
    QUATERNION_UNITS,
    W_QUATERNION,
    canonical_quaternion,
    hamilton,
    hamilton_product,
    quaternion_conjugate,
    rotation_batch,
    rotation_quaternion,
    su2_batch,
    su2_entries,
)
from .twirl import HAAR, UnitarySet, _read_only, frame_potential, superop_of_twirl

#: order-6 special unitary whose covering rotation is the cyclic axis shift
#: x -> y -> z -> x; all four entries are exact dyadic rationals
AXIS_CYCLE = su2_batch(W_QUATERNION)

#: the largest overlap scan tol at which classify_min_1design's later checks
#: must pass, and the fixed tolerance of those checks of quantities second
#: order in the set's distance from a frame (the axes' volume, the phases'
#: moduli)
_FRAME_TOL = 1e-8
#: the fixed tolerance of its checks of first-order quantities (traceless
#: relative elements, orthonormal axes, the reconstruction): after a scan at
#: tol <= _FRAME_TOL they are at most tol / 2, sqrt(6) tol / 2 and, measured
#: on rotated frames, 1.26 tol, so they pass with a factor 3 to spare
_FIRST_ORDER_TOL = 4 * _FRAME_TOL


class DesignReport(NamedTuple):
    t: int
    is_design: bool
    frame_gap: float
    max_twirl_deviation: float
    method_agreement: bool
    frame_potential: float
    haar_value: float


class OneDesignFrame(NamedTuple):
    """The data reconstructing a minimal 1-design as a phased Pauli frame.

    `permutation` maps element position -> Pauli index (position 0 always
    plays the identity slot), and the reconstruction is
    phases[mu] * V @ PAULI_BASIS[permutation[mu]] @ Vp.
    """

    V: np.ndarray
    Vp: np.ndarray
    phases: tuple
    permutation: tuple

    def reconstruct(self) -> list:
        return [
            self.phases[mu] * self.V @ PAULI_BASIS[self.permutation[mu]] @ self.Vp
            for mu in range(4)
        ]


class NamedDesign(NamedTuple):
    name: str
    set: UnitarySet


def verify_design(S: UnitarySet, t: int, tol: float = EQ_TOL, method: str = "both") -> DesignReport:
    """Check whether S is a t-design, by two independent criteria.

    With Delta = Phi_S - Phi_Haar, the twirl criterion is the largest column
    norm of Delta (the worst twirl error on a basis operator E(i, j)) and the
    frame criterion the gap of the Gram-matrix frame potential over its Haar
    value.  `method` ("twirl", "frame" or "both") picks which one, compared
    with `tol`, is the verdict; "both" takes the twirl one.  Near a design
    the deviation (~eps) and the gap (~eps^2) can fall on either side of one
    `tol`, which `method_agreement` reports.  "both" checks the identity
    gap = ||Delta||_F^2 instead and raises InternalConsistencyError when the
    two differ by more than 1e-12 4^t, for rounding (at most 6e-16 4^t was
    measured on sets of up to 1000 elements), plus 2 h ((1 + delta)^t - 1),
    the identity's error for elements unitary only to within
    delta = S.unitarity_defect, with h the Haar frame potential.
    """
    check_tol(tol)
    oracle = superop_of_twirl(HAAR, t)  # refuses the orders it lacks
    if method not in ("twirl", "frame", "both"):
        raise ValueError(f"unknown method {method!r}")
    delta = superop_of_twirl(S, t) - oracle
    # the largest of norms(delta, 0) as the root of the largest squared column
    # norm, one sqrt: sqrt is correctly rounded and monotone, so the same float
    max_dev = math.sqrt(np.add.reduce((delta.conj() * delta).real, 0).max())
    fp = frame_potential(S, t)
    gap = fp.gap
    if method == "both":
        dist_sq = np.vdot(delta, delta).real
        bound = 1e-12 * 4**t + 2 * fp.haar_value * ((1 + S.unitarity_defect) ** t - 1)
        if abs(gap - dist_sq) > bound:
            raise InternalConsistencyError(
                f"frame gap {gap} and ||Delta||^2 {dist_sq} differ by more than {bound:.3e}"
            )
    verdict = (gap if method == "frame" else max_dev) <= tol
    agree = (max_dev <= tol) == (gap <= tol)
    return DesignReport(t, verdict, gap, max_dev, agree, fp.value, fp.haar_value)


def verify_rotation_sum(S: UnitarySet, tol: float = EQ_TOL) -> bool:
    """True iff the covering rotations of the elements sum to zero.

    This is the phase-blind 1-design criterion: it holds for S exactly when
    the twirl over S (at t = 1) is completely depolarizing.
    """
    check_tol(tol)
    return hs_norm(rotation_batch(S.stack).sum(axis=0)) <= tol


def classify_min_1design(S, tol: float = 1e-9) -> OneDesignFrame:
    """Recover the (V, V', phases, permutation) frame of a minimal 1-design.

    The input must be four pairwise HS-orthogonal 2x2 unitaries; the overlap
    scan reads them from the set's Gram matrix.  Everything after it is
    float arithmetic on quaternions, through su2's formulas.  Each element
    is sum_k alpha_k UNIT_BASIS[k] for complex coordinates alpha, and
    dividing by the square root of det U = alpha . alpha leaves the
    quaternion of its special unitary.  The first one, with the canonical sign, is the frame anchor;
    the other three, relative to it, are then traceless, (0, n) for unit
    vectors n that form an orthonormal triple.  Reordered to a positively
    oriented triple (lexicographically smallest such reordering), they
    assemble a rotation R, which su2's pivot map rotation_quaternion lifts
    back to SU(2), splitting off V and V'.  The phase of element mu is
    tr(P^H U)/2 for its rebuilt Pauli frame element P = V X_sigma V', and
    the reconstruction miss is ||phase P - U||.

    A set that is not four 2x2 unitaries pairwise HS-orthogonal within `tol`
    raises NotOrthogonalBasis.  The checks after that scan (traceless
    relative elements, R a rotation, its lift special unitary, unit phases,
    the reconstruction) work at fixed thresholds, _FIRST_ORDER_TOL or
    _FRAME_TOL by how the checked quantity scales, which every set passing
    the scan at tol <= _FRAME_TOL meets.  A looser `tol` can pass a set that
    is no frame, which a failed check then refuses as NotOrthogonalBasis,
    naming the condition; at tol <= _FRAME_TOL a failed check is a bug, and
    raises InternalConsistencyError, NotRotation or NotUnitary.

    A frame found for a UnitarySet is stored on it under `tol`, with V and
    V' read-only, and a later call with the same tol returns it; a failure
    is not stored, so it raises again.
    """
    check_tol(tol)
    if not isinstance(S, UnitarySet):
        try:
            S = UnitarySet(S)
        except NotUnitary as exc:
            raise NotUnitaryElements(str(exc)) from None
        except DuplicateElements as exc:
            raise NotOrthogonalBasis(f"duplicate elements: {exc}") from None
    key = ("frame", tol)
    frame = S._derived.get(key)
    if frame is not None:
        return frame
    if len(S) != 4:
        raise NotOrthogonalBasis(f"a minimal 1-design has four elements, got {len(S)}")
    X = S.stack.reshape(4, 4)
    a, b = np.nonzero((np.abs(S.gram) > tol) & _UPPER)  # |tr(U_a^H U_b)|, row-major
    if a.size:
        a, b = a[0], b[0]
        raise NotOrthogonalBasis(
            f"elements {a} and {b} have HS inner product {X[a].conj() @ X[b]:.3e}"
        )

    def fail(condition: str, internal: Exception):
        # a scan at tol <= _FRAME_TOL passes only sets within ~tol of a
        # frame, which meet the checks below
        if tol > _FRAME_TOL:
            raise NotOrthogonalBasis(
                f"no two elements overlap by more than {tol:g}, "
                f"but they are not a phased Pauli frame: {condition}"
            )
        raise internal

    alpha = (X @ _UNIT_COORDINATES).tolist()
    # From here on, float arithmetic on quaternions as tuples, through su2's
    # four-coordinate formulas; each dot product adds from the int 0, left
    # to right, so that a total of -0.0 reads +0.0.
    specials = []  # the quaternion of conj(omega) U, omega = sqrt(det U), det U = alpha . alpha
    for c0, c1, c2, c3 in alpha:
        w = cmath.sqrt(0 + c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3).conjugate()
        specials.append(((w * c0).real, (w * c1).real, (w * c2).real, (w * c3).real))
    p0 = canonical_quaternion(specials[0])
    # relative to the anchor each element is T = -i n.X, with quaternion (0, n):
    # conj(p0) times its quaternion, with the canonical sign
    anchor = quaternion_conjugate(p0)
    rel = [canonical_quaternion(hamilton_product(anchor, p)) for p in specials[1:]]
    if max(abs(rel[0][0]), abs(rel[1][0]), abs(rel[2][0])) > _FIRST_ORDER_TOL:
        fail(
            "a relative element is not traceless",
            InternalConsistencyError("relative element is not traceless"),
        )
    ns = []
    for _, x, y, z in rel:
        norm = math.sqrt(x * x + y * y + z * z)
        ns.append((x / norm, y / norm, z / norm))
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = ns
    triple = (  # det of the axes as columns, a . (b x c)
        ax * (by * cz - bz * cy)
        + ay * (bz * cx - bx * cz)
        + az * (bx * cy - by * cx)
    )
    perm = (1, 2, 3) if triple > 0 else (1, 3, 2)
    # ||R^T R - 1||, from the axes' squared norms and dot products
    ab = 0 + ax * bx + ay * by + az * bz
    ac = 0 + ax * cx + ay * cy + az * cz
    bc = 0 + bx * cx + by * cy + bz * cz
    diagonal = (
        (0 + ax * ax + ay * ay + az * az - 1.0) ** 2
        + (0 + bx * bx + by * by + bz * bz - 1.0) ** 2
        + (0 + cx * cx + cy * cy + cz * cz - 1.0) ** 2
    )
    if math.sqrt(diagonal + 2.0 * (ab * ab + ac * ac + bc * bc)) > _FIRST_ORDER_TOL:
        fail(
            "the relative axes are not orthonormal",
            NotRotation("matrix is not orthogonal within tolerance"),
        )
    if abs(abs(triple) - 1.0) > _FRAME_TOL:
        fail(
            f"the relative axes span volume {abs(triple)}",
            NotRotation(f"determinant {abs(triple)} != 1"),
        )
    a, b, c = ns
    q = rotation_quaternion(zip(a, b, c) if triple > 0 else zip(a, c, b))  # R's columns are the axes
    e, f, g, h = q
    # its matrix VR has VR^H VR = det(VR) 1 = |q|^2 1: assert_unitary's
    # check, which also holds det(VR) to within EQ_TOL of 1
    defect = math.sqrt(2.0) * abs(0 + e * e + f * f + g * g + h * h - 1.0)
    if not defect <= EQ_TOL:
        message = f"||U^H U - 1|| = {defect:.3e} > {EQ_TOL:.1e}"
        fail("the lifted rotation is not special unitary", NotUnitary(f"matrix is not unitary: {message}"))
    q = canonical_quaternion(q)
    v, qc = hamilton_product(p0, q), quaternion_conjugate(q)
    # perm maps Pauli slot k -> input position perm[k-1]; both candidates are
    # their own inverse, so position mu plays slot sigma[mu]
    sigma = (0, *perm)
    phases, worst = [], 0.0
    for (c0, c1, c2, c3), k in zip(alpha, sigma):
        # the rebuilt element is P = i^[k > 0] times the special unitary of
        # w = v u_k conj(q), u_k the unit 1, I, J or K, so tr(P^H U)/2 is the
        # phase, and ||phase P - U|| = sqrt(2) |z w - coords|
        w0, w1, w2, w3 = hamilton_product(hamilton_product(v, _UNITS[k]), qc)
        z = 0 + w0 * c0 + w1 * c1 + w2 * c2 + w3 * c3
        phase = z if k == 0 else -1j * z
        if abs(abs(phase) - 1.0) > _FRAME_TOL:
            fail(
                "an extracted phase is not a unit complex",
                InternalConsistencyError("extracted phase is not a unit complex"),
            )
        phases.append(phase)
        worst = max(
            worst,
            math.sqrt(2.0) * math.hypot(abs(z * w0 - c0), abs(z * w1 - c1), abs(z * w2 - c2), abs(z * w3 - c3)),
        )
    if worst > _FIRST_ORDER_TOL:
        fail(
            f"the frame reconstruction misses by {worst:.3e}",
            InternalConsistencyError(f"frame reconstruction misses by {worst:.3e}"),
        )
    # read-only: the stored frame goes to every later caller
    # su2_batch((v, conj(q))) as one array: the same float expressions, a fraction of the calls
    V, Vp = _read_only(np.array([*su2_entries(v), *su2_entries(qc)]).reshape(2, 2, 2))
    frame = S._derived[key] = OneDesignFrame(V, Vp, tuple(phases), sigma)
    return frame


#: the quaternion units 1, I, J, K as tuples
_UNITS = tuple(map(tuple, QUATERNION_UNITS.tolist()))
#: the strict upper triangle of a 4x4 Gram matrix: the pairs a < b
_UPPER = np.triu(np.ones((4, 4), dtype=bool), 1)


def extend_to_2design(S, frame: OneDesignFrame | None = None) -> UnitarySet:
    """Complete a minimal 1-design to a 12-element 2-design.

    Adjoins the left translates of S by the conjugated axis-cycle generator
    and its inverse: S u GS u G^H S with G = V W V^H, W the order-6 cycle
    and V the left unitary of `frame`, by default classify_min_1design(S),
    which reuses the frame a classification of the same set stored.
    """
    if frame is None:
        try:
            frame = classify_min_1design(S)
        except (NotOrthogonalBasis, NotUnitaryElements) as exc:
            raise NotMinimal1Design(str(exc)) from exc
    G = frame.V @ AXIS_CYCLE @ frame.V.conj().T
    X = S.stack if isinstance(S, UnitarySet) else np.array(list(S), dtype=complex)
    n = len(X)
    Y = np.empty((3 * n, 2, 2), complex)
    Y[:n] = X
    np.matmul(G, X, out=Y[n : 2 * n])
    np.matmul(G.conj().T, X, out=Y[2 * n :])
    # DuplicateElements would flag a degenerate input
    return UnitarySet(Y)


#: each built-in as its labels: an optional sign "-", an optional factor W or
#: W* (the axis cycle or its inverse) and a unit 1, I, J, K, or X, Y, Z for
#: the Pauli matrices iI, iJ, iK
BUILTIN_LABELS = {
    "B": ("1", "X", "Y", "Z"),
    "B0": ("1", "I", "J", "K"),
    "D": ("1", "X", "Y", "Z", "W", "WX", "WY", "WZ", "W*", "W*X", "W*Y", "W*Z"),
    "D0": ("1", "I", "J", "K", "W", "WI", "WJ", "WK", "W*", "W*I", "W*J", "W*K"),
    "D1": ("1", "I", "J", "K", "W", "-WI", "-WJ", "-WK", "W*", "W*I", "W*J", "W*K"),
    "D2": ("1", "-I", "-J", "-K", "-W", "-WI", "-WJ", "-WK", "W*", "-W*I", "-W*J", "-W*K"),
}
NAMED_DESIGNS = tuple(BUILTIN_LABELS)

#: the quaternions of D0's labels, in order: {1, W, W*} x {1, I, J, K}
D0_QUATERNIONS = hamilton(
    np.stack([QUATERNION_UNITS[0], W_QUATERNION, quaternion_conjugate(W_QUATERNION)])[:, None],
    QUATERNION_UNITS,
).reshape(12, 4)
D0_QUATERNIONS.flags.writeable = False

_D0_INDEX = {label: k for k, label in enumerate(BUILTIN_LABELS["D0"])}
_PAULI_TO_UNIT = str.maketrans("XYZ", "IJK")


def named_design(name: str) -> NamedDesign:
    """One of the built-in designs: B (the Pauli basis, alias "pauli"), its
    normalization B0, the 12-element 2-design D, and D's normalizations
    D0, D1, D2 — each as the exact constant listing."""
    key = "B" if name == "pauli" else name
    if key not in BUILTIN_LABELS:
        raise UnknownName(f"no built-in design named {name!r}; try one of {NAMED_DESIGNS}")
    labels = BUILTIN_LABELS[key]
    signs = np.array([-1.0 if label[0] == "-" else 1.0 for label in labels])
    units = [label.lstrip("-") for label in labels]
    rows = [_D0_INDEX[u.translate(_PAULI_TO_UNIT)] for u in units]
    U = su2_batch(signs[:, None] * D0_QUATERNIONS[rows])
    U[[u[-1] in "XYZ" for u in units]] *= 1j
    return NamedDesign(key, UnitarySet(U, labels=labels))


def clifford_bound(d: int) -> int:
    """The size lower bound d^4 - 2 d^2 + 2 for a 2-design of U(d)."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return d**4 - 2 * d**2 + 2
