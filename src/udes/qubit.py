"""One- and two-qubit fixtures: Pauli and Bell bases, Bloch decomposition,
singlet/triplet projectors, swap, Wigner D^(1), and the Bell-basis matrix
forms of U (x) U.

The Bell basis is ordered (psi-, phi-, psi+, phi+) everywhere.  The adapted
variant (psi-, -phi-, i*phi+, psi+) — note the phi+/psi+ swap relative to
the plain ordering — is the basis in which U (x) U becomes 1 (+) R(U) for
special unitary U, with R the covering rotation.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError
from .linalg import EQ_TOL, as_matrix, assert_unitary
from .su2 import PAULI_BASIS, assert_special_unitary, euler_args

PAULI_LABELS = ("I", "X", "Y", "Z")

#: Bell labels in the fixed global ordering
BELL_LABELS = ("psi-", "phi-", "psi+", "phi+")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_BELL_VECTORS = {
    "psi-": np.array([0.0, _INV_SQRT2, -_INV_SQRT2, 0.0], dtype=complex),
    "phi-": np.array([_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2], dtype=complex),
    "psi+": np.array([0.0, _INV_SQRT2, _INV_SQRT2, 0.0], dtype=complex),
    "phi+": np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex),
}

#: transition matrix whose columns are the spherical basis vectors
#: e_{+1} = -(x+iy)/sqrt2, e_0 = z, e_{-1} = (x-iy)/sqrt2, expressed in the
#: Cartesian basis; conjugating a rotation by it yields the spin-1 Wigner matrix
SPHERICAL_BASIS = np.array(
    [
        [-_INV_SQRT2, 0.0, _INV_SQRT2],
        [-1.0j * _INV_SQRT2, 0.0, -1.0j * _INV_SQRT2],
        [0.0, 1.0, 0.0],
    ]
)


def pauli(mu) -> np.ndarray:
    """Pauli operator by index 0..3 or by letter I/X/Y/Z."""
    if isinstance(mu, str):
        try:
            mu = PAULI_LABELS.index(mu.upper())
        except ValueError:
            raise ValueError(f"unknown Pauli label {mu!r}") from None
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be in 0..3, got {mu!r}")
    return PAULI_BASIS[operator.index(mu)].copy()


class BlochForm(NamedTuple):
    """Coefficients a_mu = tr(X_mu A); the operator is (a0*1 + a.X)/2."""

    a0: complex
    a: np.ndarray

    def matrix(self) -> np.ndarray:
        out = self.a0 * PAULI_BASIS[0]
        for k in range(3):
            out = out + self.a[k] * PAULI_BASIS[k + 1]
        return 0.5 * out


def bloch_decompose(A) -> BlochForm:
    A = as_matrix(A, 2)
    coeffs = [np.trace(PAULI_BASIS[mu] @ A) for mu in range(4)]
    return BlochForm(complex(coeffs[0]), np.array(coeffs[1:], dtype=complex))


def _bell_key(b) -> str:
    if isinstance(b, int):
        return BELL_LABELS[b]
    key = str(b).lower()
    if key not in _BELL_VECTORS:
        raise ValueError(f"unknown Bell label {b!r}; expected one of {BELL_LABELS}")
    return key


def bell_state(b) -> np.ndarray:
    """Bell vector by label ('psi-', 'phi-', 'psi+', 'phi+') or index 0..3."""
    return _BELL_VECTORS[_bell_key(b)].copy()


def bell_projector(b) -> np.ndarray:
    v = _BELL_VECTORS[_bell_key(b)]
    return np.outer(v, v.conj())


def bell_basis_matrix() -> np.ndarray:
    """Unitary with the Bell vectors as columns, in the fixed ordering."""
    return np.column_stack([_BELL_VECTORS[k] for k in BELL_LABELS])


class SingletTriplet(NamedTuple):
    P_s: np.ndarray
    P_t: np.ndarray


def swap2() -> np.ndarray:
    """The two-qubit swap; equals half the sum of X_mu (x) X_mu."""
    S = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        S += np.kron(PAULI_BASIS[mu], PAULI_BASIS[mu])
    return 0.5 * S


def singlet_triplet() -> SingletTriplet:
    """Projectors onto the antisymmetric (1-dim) and symmetric (3-dim)
    two-qubit subspaces: P_s = (1 - SWAP)/2, P_t = (1 + SWAP)/2."""
    S = swap2()
    eye = np.eye(4, dtype=complex)
    return SingletTriplet(0.5 * (eye - S), 0.5 * (eye + S))


def total_spin_squared() -> np.ndarray:
    """J^2 for two spin-1/2, with J_i = (X_i (x) 1 + 1 (x) X_i)/2; equals 2 P_t."""
    J2 = np.zeros((4, 4), dtype=complex)
    eye = PAULI_BASIS[0]
    for i in (1, 2, 3):
        Ji = 0.5 * (np.kron(PAULI_BASIS[i], eye) + np.kron(eye, PAULI_BASIS[i]))
        J2 += Ji @ Ji
    return J2


def wigner_d1(alpha, beta: float | None = None, gamma: float | None = None) -> np.ndarray:
    """The spin-1 Wigner matrix D^(1)(alpha, beta, gamma), rows and columns
    indexed by m = (+1, 0, -1).

    Closed form; equals the covering rotation of the corresponding special
    unitary conjugated into the spherical basis.
    """
    alpha, beta, gamma = euler_args(alpha, beta, gamma)
    ch, sh = math.cos(beta / 2.0), math.sin(beta / 2.0)
    c2, s2, sb = ch * ch, sh * sh, math.sin(beta)
    ea = complex(math.cos(alpha), -math.sin(alpha))  # e^{-i alpha}
    eg = complex(math.cos(gamma), -math.sin(gamma))  # e^{-i gamma}
    r2 = _INV_SQRT2
    return np.array(
        [
            [ea * eg * c2, -ea * sb * r2, ea * np.conj(eg) * s2],
            [eg * sb * r2, math.cos(beta), -np.conj(eg) * sb * r2],
            [np.conj(ea) * eg * s2, np.conj(ea) * sb * r2, np.conj(ea * eg) * c2],
        ]
    )


def uu_in_bell_basis(U) -> np.ndarray:
    """Matrix of U (x) U in the ordered Bell basis.

    For det U = 1 the singlet row and column are (1, 0, 0, 0): the singlet
    is a fixed point and the rest of the action lives on the triplet space.
    """
    U = assert_unitary(as_matrix(U, 2))
    B = bell_basis_matrix()
    return B.conj().T @ np.kron(U, U) @ B


def adapted_bell_matrix() -> np.ndarray:
    """Columns (psi-, -phi-, i*phi+, psi+): the rephased, reordered Bell basis
    in which the triplet block of U (x) U is real for special unitary U."""
    cols = [
        _BELL_VECTORS["psi-"],
        -_BELL_VECTORS["phi-"],
        1.0j * _BELL_VECTORS["phi+"],
        _BELL_VECTORS["psi+"],
    ]
    return np.column_stack(cols)


def adapted_bell_block(U, tol: float = EQ_TOL) -> np.ndarray:
    """The 3x3 triplet block of U (x) U in the adapted Bell basis.

    For special unitary U this is exactly the covering rotation so3_rep(U):
    the two-qubit action of U (x) U, seen in the right basis, is Cartesian.
    """
    U = assert_special_unitary(U, tol)
    T = adapted_bell_matrix()
    M = T.conj().T @ np.kron(U, U) @ T
    corner = np.zeros(4, dtype=complex)
    corner[0] = 1.0
    if (
        np.max(np.abs(M[0, :] - corner)) > 1e-8
        or np.max(np.abs(M[:, 0] - corner)) > 1e-8
        or np.max(np.abs(M[1:, 1:].imag)) > 1e-8
    ):
        raise InternalConsistencyError("adapted Bell block failed its shape guard")
    return M[1:, 1:].real.copy()


class TwirlCoefficients(NamedTuple):
    """Bell and singlet/triplet weights of a two-qubit operator.

    f_beta are the expectation values against the four Bell projectors;
    f_s is the singlet weight (= f of psi-) and f_t the total triplet weight.
    For a state all are nonnegative, f_s + f_t = 1, and the Haar-twirled
    state is f_s * P_s + f_t * P_t / 3.
    """

    f_s: float
    f_t: float
    f_beta: dict


def twirl_coefficients(rho) -> TwirlCoefficients:
    rho = as_matrix(rho, 4)
    f = {}
    for label in BELL_LABELS:
        f[label] = float(np.trace(bell_projector(label) @ rho).real)
    f_s = f["psi-"]
    return TwirlCoefficients(f_s, f["phi-"] + f["psi+"] + f["phi+"], f)


def bell_diagonal_part(A) -> np.ndarray:
    """Pinch an operator to its Bell-diagonal component."""
    A = as_matrix(A, 4)
    out = np.zeros((4, 4), dtype=complex)
    for label in BELL_LABELS:
        P = bell_projector(label)
        out += P @ A @ P
    return out
