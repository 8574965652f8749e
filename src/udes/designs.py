"""Recognition, classification and completion of minimal 1-designs of U(2),
plus the named example designs shipped as exact constants.

A four-element set of pairwise Hilbert-Schmidt-orthogonal unitaries is
precisely a phased, two-sided-rotated copy of the Pauli basis
{e^{i phi_mu} V X_{sigma(mu)} V'}; `classify_min_1design` recovers such a
frame, and `extend_to_2design` upgrades the set to a 12-element 2-design by
adjoining its left translates under the conjugated axis-cycle generator
V W V^H, where W is the order-6 special unitary whose covering rotation
cyclically permutes the coordinate axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalConsistencyError,
    NotMinimal1Design,
    NotOrthogonalBasis,
    NotUnitary,
    NotUnitaryElements,
    DuplicateElements,
    UnknownName,
    UnsupportedOrder,
)
from .linalg import first_pair, hs_norm
from .qubit import pauli
from .su2 import (
    canonical_signs,
    normalize_batch,
    quaternion_batch,
    so3_rep,
    su2_batch,
    su2_from_rotation,
)
from .twirl import HAAR, UnitarySet, frame_potential, superop_of_twirl

#: the quaternion units 1, I, J, K as special unitaries 1, -iX, -iY, -iZ
_EYE2, UNIT_I, UNIT_J, UNIT_K = su2_batch(np.eye(4))

#: order-6 special unitary whose covering rotation is the cyclic axis shift
#: x -> y -> z -> x; all four entries are exact dyadic rationals
AXIS_CYCLE = np.array([[0.5 - 0.5j, -0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])


@dataclass(frozen=True)
class DesignReport:
    t: int
    is_design: bool
    frame_gap: float
    max_twirl_deviation: float
    method_agreement: bool


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


def verify_design(S: UnitarySet, t: int, tol: float = 1e-10, method: str = "both") -> DesignReport:
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
    delta = superop_of_twirl(S, t).matrix - superop_of_twirl(HAAR, t).matrix
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
    return DesignReport(t, verdict, gap, max_dev, (max_dev <= tol) == (gap <= tol))


def verify_rotation_sum(S: UnitarySet, tol: float = 1e-10) -> bool:
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
    assemble a rotation that lifts back to SU(2) and splits off V and V'.
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

    V = normalize_batch(S.stack)
    # relative to the anchor V[0] each element is T = -i n.X, with quaternion (0, n)
    Q = quaternion_batch(V[0].conj().T @ V[1:])
    Q *= canonical_signs(Q)[:, None]
    if (np.abs(Q[:, 0]) > 1e-8).any():
        raise InternalConsistencyError("relative element is not traceless")
    ns = Q[:, 1:] / np.linalg.norm(Q[:, 1:], axis=1, keepdims=True)
    perm = (1, 2, 3) if np.dot(ns[0], np.cross(ns[1], ns[2])) > 0 else (1, 3, 2)
    VR = su2_from_rotation(ns[[p - 1 for p in perm]].T, tol=1e-8)[0]
    V = V[0] @ VR
    Vp = VR.conj().T
    # perm maps Pauli slot k -> input position perm[k-1]; both candidates are
    # their own inverse, so position mu plays slot sigma[mu]
    sigma = (0, *perm)
    P = V @ np.stack([pauli(k) for k in sigma]) @ Vp
    phases = np.einsum("aij,aij->a", P.conj(), S.stack) / 2.0
    if (np.abs(np.abs(phases) - 1.0) > 1e-8).any():
        raise InternalConsistencyError("extracted phase is not a unit complex")
    worst = np.linalg.norm(phases[:, None, None] * P - S.stack, axis=(1, 2)).max()
    if worst > max(tol, 1e-9):
        raise InternalConsistencyError(f"frame reconstruction misses by {worst:.3e}")
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
    elems = list(S)
    elems += [G @ U for U in S]
    elems += [G.conj().T @ U for U in S]
    return UnitarySet(elems)  # DuplicateElements would flag a degenerate input


_NAMED_BUILDERS = {}


def _register(name, labels, builder):
    _NAMED_BUILDERS[name] = (labels, builder)


def _pauli_elems():
    return [pauli(mu) for mu in range(4)]


def _unit_elems():
    return [_EYE2.copy(), UNIT_I.copy(), UNIT_J.copy(), UNIT_K.copy()]


def _cycle_extended(base, middle_signs, outer_signs):
    """base u (signed) G base u (signed) G^H base with G the axis cycle."""
    G, Gh = AXIS_CYCLE, AXIS_CYCLE.conj().T
    out = [b.copy() for b in base]
    out += [s * (G @ b) for s, b in zip(middle_signs, base)]
    out += [s * (Gh @ b) for s, b in zip(outer_signs, base)]
    return out


_register("B", ("1", "X", "Y", "Z"), _pauli_elems)
_register("B0", ("1", "I", "J", "K"), _unit_elems)
_register(
    "D",
    ("1", "X", "Y", "Z", "W", "WX", "WY", "WZ", "W*", "W*X", "W*Y", "W*Z"),
    lambda: _cycle_extended(_pauli_elems(), (1, 1, 1, 1), (1, 1, 1, 1)),
)
_register(
    "D0",
    ("1", "I", "J", "K", "W", "WI", "WJ", "WK", "W*", "W*I", "W*J", "W*K"),
    lambda: _cycle_extended(_unit_elems(), (1, 1, 1, 1), (1, 1, 1, 1)),
)
_register(
    "D1",
    ("1", "I", "J", "K", "W", "-WI", "-WJ", "-WK", "W*", "W*I", "W*J", "W*K"),
    lambda: _cycle_extended(_unit_elems(), (1, -1, -1, -1), (1, 1, 1, 1)),
)
_register(
    "D2",
    ("1", "-I", "-J", "-K", "-W", "-WI", "-WJ", "-WK", "W*", "-W*I", "-W*J", "-W*K"),
    lambda: [
        s * b
        for s, b in zip(
            (1, -1, -1, -1, -1, -1, -1, -1, 1, -1, -1, -1),
            _cycle_extended(_unit_elems(), (1, 1, 1, 1), (1, 1, 1, 1)),
        )
    ],
)

NAMED_DESIGNS = tuple(_NAMED_BUILDERS)


def named_design(name: str) -> NamedDesign:
    """One of the built-in designs: B (the Pauli basis, alias "pauli"), its
    normalization B0, the 12-element 2-design D, and D's normalizations
    D0, D1, D2 — each as the exact constant listing."""
    key = "B" if name == "pauli" else name
    if key not in _NAMED_BUILDERS:
        raise UnknownName(f"no built-in design named {name!r}; try one of {NAMED_DESIGNS}")
    labels, builder = _NAMED_BUILDERS[key]
    return NamedDesign(key, UnitarySet(builder(), labels=labels))


def clifford_bound(d: int) -> int:
    """The size lower bound d^4 - 2 d^2 + 2 for a 2-design of U(d)."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return d**4 - 2 * d**2 + 2
