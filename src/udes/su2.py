"""The SU(2) / SO(3) / quaternion triangle, and the one home of its conventions.

Conventions, fixed once and used everywhere:

* Euler angles:  U(alpha, beta, gamma) = exp(-i alpha Z/2) exp(-i beta Y/2)
  exp(-i gamma Z/2), with alpha in [0, 2pi), beta in [0, pi], gamma in [0, 4pi).
* Axis-angle:    exp(-i theta n.sigma / 2) = cos(theta/2) 1 - i sin(theta/2) n.sigma.
* Quaternions:   (s, x, y, z)  <->  s 1 - i (x X + y Y + z Z), so the unit
  3-sphere maps one-to-one onto SU(2) and multiplication is respected.
* Covering map:  so3_rep(U)[i, j] = tr(X_i U X_j U^H) / 2, two-to-one with
  kernel {1, -1}; it is blind to phases, so it accepts any U(2) element.

The canonical representative of an antipodal pair {U, -U} is the one whose
quaternion has its first coordinate above 1e-9 in magnitude positive.
Every module converts through the stack maps below, which take unvalidated
(..., 2, 2) or (..., 4) arrays; the scalar functions validate and call them.
Each quaternion formula is written once, on four coordinates that may be
floats or arrays: hamilton_product, quaternion_conjugate and su2_entries,
which hamilton and su2_batch apply to stacks; the covering map
rotation_batch and the Euler map are Hamilton products.  The pivot map
from rotations to quaternions and the canonical sign and flip of one
quaternion work on Python floats, for the frame classifier in designs.
The constants the other modules build from, the Pauli basis, the
quaternion units 1, I, J, K (QUATERNION_UNITS) and the axis-cycle
generator W, live here too.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    NonUnitAxis,
    NonUnitQuaternion,
    NotRotation,
    NotSpecialUnitary,
)
from .linalg import EQ_TOL, as_matrix, assert_unitary, hs_norm, read_only

#: the Pauli basis 1, X, Y, Z as one read-only (4, 2, 2) stack
PAULI_BASIS = read_only(np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]))

#: cyclic coordinate shift e_i -> e_{i+1 mod 3}; the rotation image of the
#: completion generator (axis (1,1,1)/sqrt(3), angle 2pi/3)
SHIFT_RIGHT = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
#: inverse cyclic shift e_i -> e_{i-1 mod 3}
SHIFT_LEFT = SHIFT_RIGHT.T.copy()

_RANGE_EPS = 1e-12

_ZTOL = 1e-9  # smallest coordinate that decides the canonical sign
_LEAD_WEIGHTS = np.array([8.0, 4.0, 2.0, 1.0])  # see canonical_signs


class EulerAngles(NamedTuple):
    alpha: float
    beta: float
    gamma: float


class AxisAngle(NamedTuple):
    """A rotation as unit axis plus angle; `vector` packs them as angle*axis."""

    axis: tuple[float, float, float]
    angle: float

    def vector(self) -> np.ndarray:
        return self.angle * np.asarray(self.axis, dtype=float)


class Quaternion(NamedTuple):
    s: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    def conjugate(self) -> "Quaternion":
        return Quaternion(*quaternion_conjugate(self))


def quaternion_conjugate(q) -> tuple:
    """The conjugate (s, -x, -y, -z) of q = (s, x, y, z), four floats or arrays."""
    s, x, y, z = q
    return s, -x, -y, -z


def su2_entries(q) -> tuple:
    """U00, U01, U10, U11 of s 1 - i (x,y,z).sigma, for q = (s, x, y, z) four floats or arrays."""
    s, x, y, z = q
    return s - 1j * z, -y - 1j * x, y - 1j * x, s + 1j * z


def su2_batch(q) -> np.ndarray:
    """(..., 4) unit quaternions to the (..., 2, 2) stack of special
    unitaries s 1 - i (x,y,z).sigma."""
    q = np.asarray(q, dtype=float)
    U = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    entries = su2_entries((q[..., 0], q[..., 1], q[..., 2], q[..., 3]))
    U[..., 0, 0], U[..., 0, 1], U[..., 1, 0], U[..., 1, 1] = entries
    return U


def hamilton_product(p, q) -> tuple:
    """The Hamilton product p q, for p and q four floats or broadcastable arrays each."""
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def hamilton(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton products of broadcast quaternion arrays (..., 4); su2_batch
    turns them into matrix products."""
    return np.stack(hamilton_product(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0)), axis=-1)


#: the quaternion units 1, I, J, K as the rows of one read-only array
QUATERNION_UNITS = read_only(np.eye(4))

#: the quaternion units as the special unitaries 1, -iX, -iY, -iZ;
#: U = sum_k q_k UNIT_BASIS[k]
UNIT_BASIS = read_only(su2_batch(QUATERNION_UNITS))

#: W = (1 + I + J + K)/2, the order-6 axis-cycle generator: its covering
#: rotation, angle 2pi/3 about (1,1,1)/sqrt(3), permutes the axes x -> y -> z
W_QUATERNION = read_only(np.full(4, 0.5))

#: a = (U flattened) @ this gives U = sum_k a_k UNIT_BASIS[k] for any 2x2 U:
#: the units are orthogonal, of squared norm 2.  For a special unitary a is
#: its quaternion, real up to rounding
UNIT_COORDINATES = read_only(UNIT_BASIS.reshape(4, 4).conj().T / 2.0)


def quaternion_batch(U) -> np.ndarray:
    """Inverse of su2_batch: coordinates (..., 4) of a (..., 2, 2) stack of
    special unitaries, the real part of their unit-basis coordinates."""
    U = np.asarray(U, dtype=complex)
    return (U.reshape(U.shape[:-2] + (4,)) @ UNIT_COORDINATES).real


def rotation_quaternion(R) -> tuple[float, float, float, float]:
    """The unit quaternion covering an unvalidated rotation, given as three
    rows of floats, with its pivot coordinate positive.

    The entries of R give 4 q q^T: its diagonal from the trace and diagonal
    of R, the rest from the (anti)symmetric parts.  Quaternion extraction
    reads the row of the largest of (trace, R00, R11, R22) as pivot, so the
    pi-rotations, where the naive trace formula degenerates, stay
    well-conditioned.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    t = r00 + r11 + r22
    sx, sy, sz = r21 - r12, r02 - r20, r10 - r01
    xy, xz, yz = r01 + r10, r02 + r20, r12 + r21
    K = (
        (1.0 + t, sx, sy, sz),
        (sx, 1.0 + r00 - r11 - r22, xy, xz),
        (sy, xy, 1.0 - r00 + r11 - r22, yz),
        (sz, xz, yz, 1.0 - r00 - r11 + r22),
    )
    diagonal = (t, r00, r11, r22)
    pivot = max(range(4), key=diagonal.__getitem__)  # the first largest
    r = math.sqrt(K[pivot][pivot])
    q = [c / (2 * r) for c in K[pivot]]
    q[pivot] = 0.5 * r
    s, x, y, z = q
    norm = math.sqrt(s * s + x * x + y * y + z * z)
    return (s / norm, x / norm, y / norm, z / norm)


def canonical_signs(Q) -> np.ndarray:
    """+-1 per quaternion of a (..., 4) array, making its first coordinate
    above _ZTOL in magnitude positive: that coordinate's sign, weighted 8,
    outweighs the signs after it, weighted 4, 2 and 1."""
    Q = np.asarray(Q, dtype=float)
    lead = np.where(np.abs(Q) > _ZTOL, np.sign(Q), 0.0) @ _LEAD_WEIGHTS
    return np.where(lead < 0, -1.0, 1.0)


def canonical_sign(q) -> float:
    """canonical_signs of one quaternion given as four floats."""
    for c in q:
        if abs(c) > _ZTOL:
            return 1.0 if c > 0 else -1.0
    return 1.0


def canonical_quaternion(q):
    """q given as four floats, or its negation as a tuple where canonical_sign(q) < 0."""
    return q if canonical_sign(q) > 0 else (-q[0], -q[1], -q[2], -q[3])


def normalize_batch(U) -> np.ndarray:
    """The canonical determinant-1 phase shift of each unitary in a
    (..., 2, 2) stack: conj(omega) U with omega the principal square root of
    det U, times the canonical sign."""
    U = np.asarray(U)
    det = U[..., 0, 0] * U[..., 1, 1] - U[..., 0, 1] * U[..., 1, 0]
    V = np.conj(np.sqrt(det))[..., None, None] * U
    return V * canonical_signs(quaternion_batch(V))[..., None, None]


def axis_angle_batch(Q) -> tuple[np.ndarray, np.ndarray]:
    """Axes (..., 3) and angles (...) of the rotations covered by a (..., 4)
    array of unit quaternions.  The canonical sign puts each angle in
    [0, pi + 2 _ZTOL]; the identity rotation reports axis (0, 0, 1), angle 0."""
    R = np.asarray(Q, dtype=float) * canonical_signs(Q)[..., None]
    vnorm = np.linalg.norm(R[..., 1:], axis=-1, keepdims=True)
    small = vnorm <= _ZTOL
    axes = np.where(small, (0.0, 0.0, 1.0), R[..., 1:] / np.maximum(vnorm, _ZTOL)) + 0.0  # no -0.0
    return axes, np.where(small[..., 0], 0.0, 2.0 * np.arctan2(vnorm[..., 0], R[..., 0]))


def euler_args(alpha, beta, gamma) -> EulerAngles:
    """Accept either three angles or a single EulerAngles-like triple."""
    if beta is None and gamma is None:
        alpha, beta, gamma = alpha
    e = EulerAngles(float(alpha), float(beta), float(gamma))
    if not (-_RANGE_EPS <= e.alpha < 2 * math.pi + _RANGE_EPS):
        raise ValueError(f"alpha={e.alpha} outside [0, 2pi)")
    if not (-_RANGE_EPS <= e.beta <= math.pi + _RANGE_EPS):
        raise ValueError(f"beta={e.beta} outside [0, pi]")
    if not (-_RANGE_EPS <= e.gamma < 4 * math.pi + _RANGE_EPS):
        raise ValueError(f"gamma={e.gamma} outside [0, 4pi)")
    return e


def _axis_angle_args(axis, angle) -> tuple[np.ndarray, float]:
    """Accept (axis, angle) or a single AxisAngle-like pair; the axis must be
    unit and the angle finite."""
    if angle is None:
        axis, angle = axis
    n = np.asarray(axis, dtype=float).reshape(3)
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= 1e-12:  # not <=, so that a NaN axis fails
        raise NonUnitAxis(f"axis has norm {norm!r}, expected 1")
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"angle={angle} is not finite")
    return n, angle


def su2_from_euler(alpha, beta: float | None = None, gamma: float | None = None) -> np.ndarray:
    """exp(-i alpha Z/2) exp(-i beta Y/2) exp(-i gamma Z/2): su2_batch of the
    Hamilton product of the three axis quaternions."""
    alpha, beta, gamma = euler_args(alpha, beta, gamma)
    z_alpha = (math.cos(alpha / 2), 0.0, 0.0, math.sin(alpha / 2))
    y_beta = (math.cos(beta / 2), 0.0, math.sin(beta / 2), 0.0)
    z_gamma = (math.cos(gamma / 2), 0.0, 0.0, math.sin(gamma / 2))
    return su2_batch(hamilton_product(hamilton_product(z_alpha, y_beta), z_gamma))


def shift_euler_solutions() -> list[EulerAngles]:
    """The four Euler triples whose two-qubit Bell-basis matrix has a phased
    cyclic shift as its triplet block.

    Within the standard ranges the solutions are exactly
    alpha in {0, pi}, beta = pi/2, gamma in {pi/2, 5pi/2}.  The first entry,
    (0, pi/2, pi/2), is the order-6 completion generator used as the default
    throughout; (0, pi/2, 5pi/2) is its negative (order 3).
    """
    h = math.pi / 2
    return [
        EulerAngles(0.0, h, h),
        EulerAngles(0.0, h, 5 * h),
        EulerAngles(math.pi, h, h),
        EulerAngles(math.pi, h, 5 * h),
    ]


def su2_from_axis_angle(axis, angle: float | None = None) -> np.ndarray:
    """cos(theta/2) 1 - i sin(theta/2) (n_x X + n_y Y + n_z Z)."""
    n, angle = _axis_angle_args(axis, angle)
    return su2_batch(np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * n]))


def rotation_batch(U) -> np.ndarray:
    """The covering rotations (..., 3, 3) of an unvalidated (..., 2, 2) stack
    of unitaries, R[i,j] = tr(X_i U X_j U^H)/2.

    The unit-basis coordinates a of U are e^{i phi} q for the quaternion q
    of its special part, so column j of R is the vector part of
    a e_j conj(a)^*, ^* the quaternion conjugate: q e_j q^*, the phase
    cancelled against its conjugate.  Blind to the phase, and exactly equal
    for U and -U, whose coordinates differ only in sign.
    """
    U = np.asarray(U, dtype=complex)
    a = np.moveaxis(U.reshape(U.shape[:-2] + (4,)) @ UNIT_COORDINATES, -1, 0)[..., None]
    columns = hamilton_product(hamilton_product(a, QUATERNION_UNITS[1:].T), quaternion_conjugate(a.conj()))
    return np.stack(columns[1:], axis=-2).real


def so3_rep(U) -> np.ndarray:
    """The rotation carried by a 2x2 unitary, validated: rotation_batch(U).

    Insensitive to a global phase of U, hence defined on all of U(2);
    antipodal special unitaries have the same image.
    """
    return rotation_batch(assert_unitary(as_matrix(U, 2)))


def rodrigues(axis, angle: float | None = None) -> np.ndarray:
    """Rotation matrix about a unit axis: x -> (x.n)n + cos(phi)(x - (x.n)n) + sin(phi) n x x."""
    n, angle = _axis_angle_args(axis, angle)
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return c * np.eye(3) + (1 - c) * np.outer(n, n) + s * cross


def assert_rotation(R, tol: float = EQ_TOL) -> np.ndarray:
    """Validate orthogonality and det = +1."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise NotRotation(f"expected 3x3, got {R.shape}")
    # written as not <= so that NaN entries fail
    if not hs_norm(R.T @ R - np.eye(3)) <= tol:
        raise NotRotation("matrix is not orthogonal within tolerance")
    if not abs(np.linalg.det(R) - 1.0) <= tol:
        raise NotRotation(f"determinant {np.linalg.det(R)} != 1")
    return R


def assert_special_unitary(U, tol: float = EQ_TOL) -> np.ndarray:
    """Validate a 2x2 unitary with det within `tol` of 1 and return it as an array."""
    U = assert_unitary(as_matrix(U, 2))
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    if not abs(det - 1.0) <= tol:  # not <=, so that a NaN tol fails
        raise NotSpecialUnitary(f"det = {det}, expected 1")
    return U


def quaternion_of(U, tol: float = EQ_TOL) -> Quaternion:
    """Coordinates (s, x, y, z) of a special unitary, U = s 1 - i (x,y,z).sigma."""
    return Quaternion(*quaternion_batch(assert_special_unitary(U, tol)).tolist())


def su2_of_quaternion(q, tol: float = EQ_TOL) -> np.ndarray:
    """Inverse of quaternion_of; q must be a unit quaternion."""
    s, x, y, z = (float(v) for v in q)
    norm2 = s * s + x * x + y * y + z * z
    if not abs(norm2 - 1.0) <= 2 * tol:  # not <=, so that NaN fails
        raise NonUnitQuaternion(f"|q|^2 = {norm2}, expected 1")
    return su2_batch((s, x, y, z))


def canonical_su2(U) -> np.ndarray:
    """Of the antipodal pair {U, -U}, the one whose quaternion has its first
    nonzero coordinate positive, in the order (s, x, y, z)."""
    Ua = as_matrix(U, 2)
    return -Ua if canonical_signs(quaternion_of(Ua)) < 0 else Ua


def su2_from_rotation(R, tol: float = EQ_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Both special unitaries covering a rotation, canonical one first,
    through the pivot map rotation_quaternion.  The lift is negated by unary
    minus, as canonical_su2 does: a product with -1.0 would multiply as
    complex numbers and change the signs of zeros."""
    q = rotation_quaternion(assert_rotation(R, tol).tolist())
    U = su2_batch(q) if canonical_sign(q) > 0 else -su2_batch(q)
    return U, -U


def normalize_to_su2(U) -> tuple[np.ndarray, np.ndarray]:
    """The two determinant-1 phase shifts of a unitary, canonical one first.

    With omega the principal square root of det(U), the pair is
    {conj(omega) U, -conj(omega) U}; which of the two comes first depends
    only on the ray of U, not on its phase.
    """
    V = normalize_batch(assert_unitary(as_matrix(U, 2)))
    return V, -V


def axis_angle_of(U) -> AxisAngle:
    """Axis-angle of the rotation carried by a special unitary.

    Uses the canonical antipodal representative, so the angle lands in
    [0, pi] and antipodal inputs agree.  The identity rotation reports
    axis (0, 0, 1) and angle 0.
    """
    axis, angle = axis_angle_batch(quaternion_of(U))
    return AxisAngle(tuple(axis.tolist()), float(angle))
