"""Recognition, classification and completion of minimal 1-designs of U(2),
plus the named example designs shipped as exact constants.

A four-element set of pairwise Hilbert-Schmidt-orthogonal unitaries is
precisely a phased, two-sided-rotated copy of the Pauli basis
{e^{i phi_mu} V X_{sigma(mu)} V'}; `classify_min_1design` recovers such a
frame, and `extend_to_2design` upgrades the set to a 12-element 2-design by
adjoining its left translates under the conjugated axis-cycle generator
V W V^H, where W is the order-6 special unitary whose covering rotation
cyclically permutes the coordinate axes.

The built-ins are one exact listing: their elements are the quaternion
products {1, W, W*} x {1, I, J, K}, with all coordinates in {0, +-1/2, +-1},
computed once at import; each built-in is a tuple of labels that names its
elements by sign, factor and unit.  No rounding step is needed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    NotMinimal1Design,
    NotOrthogonalBasis,
    NotRotation,
    NotUnitary,
    NotUnitaryElements,
    DuplicateElements,
    UnknownName,
    UnsupportedOrder,
)
from .linalg import EQ_TOL, UNITARITY_TOL, first_pair, hs_norm
from .qubit import pauli
from .su2 import (
    PAULI_BASIS,
    W_QUATERNION,
    canonical_signs,
    hamilton,
    normalize_batch,
    quaternion_batch,
    rotation_quaternion_batch,
    so3_rep,
    su2_batch,
)
from .twirl import SUPEROP_HAAR, UnitarySet, frame_potential, superop_of_twirl

#: order-6 special unitary whose covering rotation is the cyclic axis shift
#: x -> y -> z -> x; all four entries are exact dyadic rationals
AXIS_CYCLE = su2_batch(W_QUATERNION)

#: the fixed tolerance of classify_min_1design's checks after its overlap scan
_FRAME_TOL = 1e-8


@dataclass(frozen=True)
class DesignReport:
    t: int
    is_design: bool
    frame_gap: float
    max_twirl_deviation: float
    method_agreement: bool
    frame_potential: float
    haar_value: float


@dataclass(frozen=True)
class OneDesignFrame:
    """The data reconstructing a minimal 1-design as a phased Pauli frame.

    `permutation` maps element position -> Pauli index (position 0 always
    plays the identity slot), and the reconstruction is
    phases[mu] * V @ pauli(permutation[mu]) @ Vp.
    """

    V: np.ndarray
    Vp: np.ndarray
    phases: tuple
    permutation: tuple

    def reconstruct(self) -> list:
        return [
            self.phases[mu] * self.V @ pauli(self.permutation[mu]) @ self.Vp
            for mu in range(4)
        ]


@dataclass(frozen=True)
class NamedDesign:
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
    two differ by more than 1e-12 d^(2t), for rounding (at most 6e-16 d^(2t)
    was measured on sets of up to 1000 elements), plus 2 h ((1 + delta)^t - 1),
    the identity's error for elements unitary only to within
    delta = S.unitarity_defect, with h the Haar frame potential.
    """
    if t not in (1, 2):
        raise UnsupportedOrder(f"design verification implements t in {{1, 2}}, got {t}")
    if method not in ("twirl", "frame", "both"):
        raise ValueError(f"unknown method {method!r}")
    if S.dim != 2:
        raise DimensionMismatch(f"expected dimension 2, got {S.dim}")
    delta = superop_of_twirl(S, t) - SUPEROP_HAAR[t]
    max_dev = float(np.linalg.norm(delta, axis=0).max())
    fp = frame_potential(S, t)
    gap = float(fp.gap)
    if method == "both":
        dist_sq = np.vdot(delta, delta).real
        bound = 1e-12 * S.dim ** (2 * t) + 2 * fp.haar_value * ((1 + S.unitarity_defect) ** t - 1)
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
    total = np.zeros((3, 3))
    for U in S:
        total += so3_rep(U)
    return hs_norm(total) <= tol


def classify_min_1design(S, tol: float = 1e-9) -> OneDesignFrame:
    """Recover the (V, V', phases, permutation) frame of a minimal 1-design.

    The input must be four pairwise HS-orthogonal 2x2 unitaries.  The first
    element is normalized into SU(2) to serve as the frame anchor; the other
    three, relative to it, are then traceless special unitaries -i n.X whose
    unit vectors n form an orthonormal triple.  Reordered to a positively
    oriented triple (lexicographically smallest such reordering), they
    assemble a rotation R, which su2's pivot map rotation_quaternion_batch
    lifts back to SU(2), splitting off V and V'.

    A set that is not four 2x2 unitaries pairwise HS-orthogonal within `tol`
    raises NotOrthogonalBasis.  The checks after that scan (traceless
    relative elements, R a rotation, its lift special unitary, unit phases)
    work at the fixed _FRAME_TOL.  A looser `tol` can pass a set that is no
    frame, which a failed check then refuses as NotOrthogonalBasis, naming
    the condition; within it a failed check is a bug, and raises
    InternalConsistencyError, NotRotation or NotUnitary as before.
    """
    if not isinstance(S, UnitarySet):
        try:
            S = UnitarySet(S)
        except NotUnitary as exc:
            raise NotUnitaryElements(str(exc)) from None
        except DuplicateElements as exc:
            raise NotOrthogonalBasis(f"duplicate elements: {exc}") from None
    if S.dim != 2 or len(S) != 4:
        raise NotOrthogonalBasis(
            f"a minimal 1-design has four 2x2 elements, got {len(S)} of dim {S.dim}"
        )
    X = S.stack.reshape(4, 4)
    pair = first_pair(X, lambda A, X: np.nonzero(np.abs(A.conj() @ X.T) > tol))  # tr(U_a^H U_b)
    if pair:
        a, b = pair
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

    V = normalize_batch(S.stack)
    # relative to the anchor V[0] each element is T = -i n.X, with quaternion (0, n)
    Q = quaternion_batch(V[0].conj().T @ V[1:])
    Q *= canonical_signs(Q)[:, None]
    if (np.abs(Q[:, 0]) > _FRAME_TOL).any():
        fail(
            "a relative element is not traceless",
            InternalConsistencyError("relative element is not traceless"),
        )
    ns = Q[:, 1:] / np.linalg.norm(Q[:, 1:], axis=1, keepdims=True)
    a, b, c = ns.tolist()
    triple = (  # det of the axes as columns, a . (b x c)
        a[0] * (b[1] * c[2] - b[2] * c[1])
        + a[1] * (b[2] * c[0] - b[0] * c[2])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    perm = (1, 2, 3) if triple > 0 else (1, 3, 2)
    R = ns[[p - 1 for p in perm]].T  # positively oriented, so det R = |triple|
    if np.linalg.norm(R.T @ R - np.eye(3)) > _FRAME_TOL:
        fail(
            "the relative axes are not orthonormal",
            NotRotation("matrix is not orthogonal within tolerance"),
        )
    if abs(abs(triple) - 1.0) > _FRAME_TOL:
        fail(
            f"the relative axes span volume {abs(triple)}",
            NotRotation(f"determinant {abs(triple)} != 1"),
        )
    q = rotation_quaternion_batch(R)
    # VR = su2_batch(q) has VR^H VR = det(VR) 1 = |q|^2 1: assert_unitary's
    # check, which also holds det(VR) to within EQ_TOL of 1
    defect = math.sqrt(2.0) * abs(q @ q - 1.0)
    if not defect <= UNITARITY_TOL:
        message = f"||U^H U - 1|| = {defect:.3e} > {UNITARITY_TOL:.1e}"
        fail("the lifted rotation is not special unitary", NotUnitary(f"matrix is not unitary: {message}"))
    VR = su2_batch(q)
    if canonical_signs(q) < 0:
        VR = -VR
    V = V[0] @ VR
    Vp = VR.conj().T
    # perm maps Pauli slot k -> input position perm[k-1]; both candidates are
    # their own inverse, so position mu plays slot sigma[mu]
    sigma = (0, *perm)
    P = V @ PAULI_BASIS[list(sigma)] @ Vp
    phases = np.einsum("aij,aij->a", P.conj(), S.stack) / 2.0
    if (np.abs(np.abs(phases) - 1.0) > _FRAME_TOL).any():
        fail(
            "an extracted phase is not a unit complex",
            InternalConsistencyError("extracted phase is not a unit complex"),
        )
    worst = np.linalg.norm(phases[:, None, None] * P - S.stack, axis=(1, 2)).max()
    if worst > max(tol, 1e-9):
        fail(
            f"the frame reconstruction misses by {worst:.3e}",
            InternalConsistencyError(f"frame reconstruction misses by {worst:.3e}"),
        )
    return OneDesignFrame(V, Vp, tuple(phases.tolist()), sigma)


def extend_to_2design(S, frame: OneDesignFrame | None = None) -> UnitarySet:
    """Complete a minimal 1-design to a 12-element 2-design.

    Adjoins the left translates of S by the conjugated axis-cycle generator
    and its inverse: S u GS u G^H S with G = V W V^H, W the order-6 cycle
    and V the left unitary of `frame`, by default classify_min_1design(S).
    """
    if frame is None:
        try:
            frame = classify_min_1design(S)
        except (NotOrthogonalBasis, NotUnitaryElements) as exc:
            raise NotMinimal1Design(str(exc)) from exc
    G = frame.V @ AXIS_CYCLE @ frame.V.conj().T
    X = S.stack if isinstance(S, UnitarySet) else np.array(list(S), dtype=complex)
    GX = np.stack([G, G.conj().T])[:, None] @ X
    # DuplicateElements would flag a degenerate input
    return UnitarySet(np.concatenate([X, GX.reshape(-1, *X.shape[1:])]))


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
    np.stack([np.eye(4)[0], W_QUATERNION, W_QUATERNION * (1.0, -1.0, -1.0, -1.0)])[:, None],
    np.eye(4),
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
