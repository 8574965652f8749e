import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.linalg import hs_inner, hs_norm, kron
from udes.qubit import (
    BELL_LABELS,
    SPHERICAL_BASIS,
    adapted_bell_block,
    adapted_bell_matrix,
    bell_basis_matrix,
    bell_diagonal_part,
    bell_projector,
    bell_state,
    bloch_decompose,
    pauli,
    singlet_triplet,
    swap2,
    total_spin_squared,
    twirl_coefficients,
    uu_in_bell_basis,
    wigner_d1,
)
from udes.su2 import so3_rep, su2_from_euler
from udes.twirl import HaarSampler, haar_sample

rng = np.random.default_rng(31)


def random_herm():
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return A + A.conj().T


def test_pauli_by_index_and_letter():
    assert np.array_equal(pauli(0), np.eye(2))
    assert np.array_equal(pauli("X"), pauli(1))
    assert np.array_equal(pauli("Y"), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli("Z"), np.diag([1.0 + 0j, -1.0]))


def test_pauli_rejects_unknown():
    with pytest.raises(ValueError):
        pauli("Q")
    with pytest.raises(ValueError):
        pauli(4)


def test_bloch_round_trip():
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    form = bloch_decompose(A)
    assert hs_norm(form.matrix() - A) < 1e-14


def test_bloch_of_pure_state():
    # |0><0| sits at the north pole of the unit ball
    rho = np.diag([1.0 + 0j, 0.0])
    form = bloch_decompose(rho)
    assert form.a0 == pytest.approx(1.0)
    assert np.allclose(form.a, [0.0, 0.0, 1.0])


def test_bell_states_are_orthonormal():
    B = bell_basis_matrix()
    assert np.allclose(B.conj().T @ B, np.eye(4), atol=1e-15)
    for name in BELL_LABELS:
        v = bell_state(name)
        assert np.linalg.norm(v) == pytest.approx(1.0)


def test_bell_projectors_match_pauli_closed_forms():
    II = kron(pauli(0), pauli(0))
    XX = kron(pauli(1), pauli(1))
    YY = kron(pauli(2), pauli(2))
    ZZ = kron(pauli(3), pauli(3))
    expect = {
        "psi-": (II - XX - YY - ZZ) / 4,
        "phi-": (II - XX + YY + ZZ) / 4,
        "psi+": (II + XX + YY - ZZ) / 4,
        "phi+": (II + XX - YY + ZZ) / 4,
    }
    for name, M in expect.items():
        assert hs_norm(bell_projector(name) - M) < 1e-15


def test_swap_is_pauli_average():
    S = swap2()
    expect = sum(kron(pauli(m), pauli(m)) for m in range(4)) / 2
    assert np.array_equal(S, S.conj().T)
    assert hs_norm(S - expect) < 1e-15
    assert hs_norm(S @ S - np.eye(4)) < 1e-15


def test_singlet_triplet_partition_identity():
    P_s, P_t = singlet_triplet()
    assert hs_norm(P_s + P_t - np.eye(4)) < 1e-15
    assert hs_norm(P_s @ P_s - P_s) < 1e-15
    assert hs_norm(P_t @ P_t - P_t) < 1e-15
    assert hs_norm(P_s @ P_t) < 1e-15
    assert np.trace(P_s).real == pytest.approx(1.0)
    assert np.trace(P_t).real == pytest.approx(3.0)
    assert hs_norm(P_s - bell_projector("psi-")) < 1e-15


def test_total_spin_is_bell_diagonal():
    J2 = total_spin_squared()
    B = bell_basis_matrix()
    diag = B.conj().T @ J2 @ B
    assert np.allclose(diag, np.diag([0.0, 2.0, 2.0, 2.0]), atol=1e-14)


def test_wigner_d1_is_unitary_and_covers_rotation():
    g = np.random.default_rng(5)
    for _ in range(25):
        alpha = g.uniform(0, 2 * math.pi)
        beta = g.uniform(0, math.pi)
        gamma = g.uniform(0, 4 * math.pi)
        D = wigner_d1(alpha, beta, gamma)
        assert np.allclose(D @ D.conj().T, np.eye(3), atol=1e-13)
        R = so3_rep(su2_from_euler(alpha, beta, gamma))
        P = SPHERICAL_BASIS
        assert hs_norm(D - P.conj().T @ R @ P) < 1e-12


def test_uu_in_bell_basis_of_shift_generator():
    Wmat = su2_from_euler(0.0, math.pi / 2, math.pi / 2)
    expect = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1j],
            [0, -1j, 0, 0],
        ],
        dtype=complex,
    )
    assert hs_norm(uu_in_bell_basis(Wmat) - expect) < 1e-14


def test_adapted_bell_matrix_reorders_bell_columns():
    A = adapted_bell_matrix()
    assert np.allclose(A.conj().T @ A, np.eye(4), atol=1e-15)
    assert np.allclose(A[:, 0], bell_state("psi-"))
    assert np.allclose(A[:, 3], bell_state("psi+"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_adapted_bell_block_is_the_covering_rotation(seed):
    U = haar_sample(HaarSampler(seed))
    block = adapted_bell_block(U)
    assert np.allclose(block, so3_rep(U), atol=1e-12)


def test_adapted_bell_block_rejects_plain_unitary():
    from udes.errors import NotSpecialUnitary

    with pytest.raises(NotSpecialUnitary):
        adapted_bell_block(1j * np.eye(2))
    with pytest.raises(NotSpecialUnitary):
        adapted_bell_block(1j * np.eye(2), tol=math.nan)


def test_twirl_coefficients_reconstruct_bell_diagonal():
    rho = random_herm()
    rho = rho @ rho.conj().T
    rho = kron(rho / np.trace(rho), np.eye(2) / 2)
    co = twirl_coefficients(rho)
    rebuilt = sum(co.f_beta[n] * bell_projector(n) for n in BELL_LABELS)
    assert hs_norm(rebuilt - bell_diagonal_part(rho)) < 1e-13
    P_s, P_t = singlet_triplet()
    assert co.f_s == pytest.approx(hs_inner(P_s, rho).real)
    assert co.f_t == pytest.approx(hs_inner(P_t, rho).real)


def test_bell_diagonal_part_is_a_pinching():
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    once = bell_diagonal_part(A)
    assert hs_norm(bell_diagonal_part(once) - once) < 1e-13
    # the pinched operator commutes with every bell projector
    for name in BELL_LABELS:
        P = bell_projector(name)
        assert hs_norm(once @ P - P @ once) < 1e-13


def test_bell_diagonal_part_fixes_uu_invariant_operators():
    # singlet/triplet projectors are invariant, so pinching cannot move them
    P_s, P_t = singlet_triplet()
    assert hs_norm(bell_diagonal_part(P_s) - P_s) < 1e-14
    assert hs_norm(bell_diagonal_part(P_t) - P_t) < 1e-14
