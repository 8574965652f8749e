import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.errors import (
    DimensionMismatch,
    DuplicateElements,
    NotUnitary,
    UnsupportedOrder,
)
from udes.linalg import hs_norm, kron, kron_power
from udes.qubit import bell_diagonal_part, pauli, singlet_triplet
from udes.su2 import UNIT_BASIS
from udes.twirl import (
    _ABS2_BASIS,
    _monomials,
    _power_map,
    _tensor_batch,
    HaarSampler,
    UnitarySet,
    choi,
    choi_rank,
    frame_potential,
    haar_sample,
    haar_twirl,
    mc_oracle_check,
    su2_batch,
    superop_of_twirl,
    twirl_finite,
    unvec,
    vec,
)

rng = np.random.default_rng(404)

PAULI_SET = UnitarySet([pauli(m) for m in range(4)])


def random_op(d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_state():
    A = random_op(2)
    rho = A @ A.conj().T
    return rho / np.trace(rho)


# ---- UnitarySet validation --------------------------------------------------


def test_unitary_set_basic_accessors():
    S = UnitarySet([np.eye(2), pauli(1)], labels=["1", "X"])
    assert len(S) == 2
    assert S.dim == 2
    assert S.labels == ("1", "X")
    assert np.array_equal(S[1], pauli(1))
    assert [U.shape for U in S] == [(2, 2), (2, 2)]


def test_unitary_set_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        UnitarySet([np.eye(2), np.eye(4)])


def test_unitary_set_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        UnitarySet([np.eye(2), np.diag([1.0, 2.0])])


@pytest.mark.parametrize("big", [1e200, 1e308])
def test_unitary_set_refuses_entries_whose_defect_overflows(big):
    with pytest.raises(NotUnitary, match="element 1: matrix is not unitary"):
        UnitarySet([np.eye(2), np.diag([big, 1.0])])


def test_unitary_set_rejects_duplicates():
    with pytest.raises(DuplicateElements):
        UnitarySet([pauli(1), pauli(1)])


@pytest.mark.parametrize(
    "elems,error,message",
    [
        (
            [np.eye(2), pauli(1), np.diag([1.0, 2.0]), np.diag([1.0, 3.0])],
            NotUnitary,
            "element 2: matrix is not unitary: ||U^H U - 1|| = 3.000e+00 > 1.0e-10",
        ),
        (
            [np.eye(2), np.diag([1.0, 2.0]), np.eye(4)],
            NotUnitary,
            "element 1: matrix is not unitary: ||U^H U - 1|| = 3.000e+00 > 1.0e-10",
        ),
        (
            [np.eye(2), np.eye(4), np.diag([1.0, 2.0])],
            DimensionMismatch,
            "element 1 is 4x4, expected 2x2",
        ),
        # (0, 4) comes before (1, 3) in the order a double loop over pairs visits them
        (
            [pauli(1), pauli(2), pauli(3), pauli(2), pauli(1)],
            DuplicateElements,
            "elements 0 and 4 coincide within 1e-10",
        ),
        (
            [np.eye(2), pauli(3), np.exp(1e-11j) * np.eye(2)],
            DuplicateElements,
            "elements 0 and 2 coincide within 1e-10",
        ),
    ],
)
def test_unitary_set_names_the_first_offending_element(elems, error, message):
    with pytest.raises(error) as err:
        UnitarySet(elems)
    assert str(err.value) == message


def test_unitary_set_finds_the_first_duplicate_pair_across_row_blocks():
    elems = list(su2_batch(HaarSampler(6).quaternions(200)))  # three row blocks
    elems[190] = elems[150].copy()
    elems[199] = elems[100].copy()
    with pytest.raises(DuplicateElements, match="^elements 100 and 199 coincide"):
        UnitarySet(elems)


def test_unitary_set_rejects_bad_label_count():
    with pytest.raises(ValueError):
        UnitarySet([np.eye(2)], labels=["a", "b"])


def test_unitary_set_rejects_empty():
    with pytest.raises(ValueError):
        UnitarySet([])


# ---- vec / unvec ------------------------------------------------------------


def test_vec_stacks_columns():
    A = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(A), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(unvec(vec(A)), A)


def test_vec_of_conjugation_is_kron_action():
    M = random_op(3)
    A = random_op(3)
    lhs = vec(M @ A @ M.conj().T)
    rhs = kron(M.conj(), M) @ vec(A)
    assert np.allclose(lhs, rhs)


# ---- twirls -----------------------------------------------------------------


def test_pauli_twirl_depolarizes():
    for _ in range(10):
        rho = random_state()
        out = twirl_finite(PAULI_SET, 1, rho)
        assert hs_norm(out - np.eye(2) / 2) < 1e-14


def test_pauli_twirl_order_two_pinches_to_bell_diagonal():
    A = random_op(4)
    out = twirl_finite(PAULI_SET, 2, A)
    assert hs_norm(out - bell_diagonal_part(A)) < 1e-13


def test_twirl_finite_is_linear():
    A, B = random_op(2), random_op(2)
    c = 0.3 - 1.2j
    lhs = twirl_finite(PAULI_SET, 1, A + c * B)
    rhs = twirl_finite(PAULI_SET, 1, A) + c * twirl_finite(PAULI_SET, 1, B)
    assert np.allclose(lhs, rhs)


def test_haar_twirl_first_order_traces_out():
    A = random_op(2)
    out = haar_twirl(1, A)
    assert np.allclose(out, np.trace(A) * np.eye(2) / 2)


def test_haar_twirl_second_order_closed_form():
    P_s, P_t = singlet_triplet()
    A = random_op(4)
    expect = (
        np.trace(P_s @ A) * P_s + np.trace(P_t @ A) * P_t / 3
    )
    assert np.allclose(haar_twirl(2, A), expect)


def test_haar_twirl_fixes_invariant_projectors():
    P_s, P_t = singlet_triplet()
    assert hs_norm(haar_twirl(2, P_s) - P_s) < 1e-14
    assert hs_norm(haar_twirl(2, P_t) - P_t) < 1e-14


@pytest.mark.parametrize("t", [0, 3, -1])
def test_haar_oracle_orders_are_restricted(t):
    with pytest.raises(UnsupportedOrder):
        haar_twirl(t, np.eye(2 ** max(t, 1)))


@pytest.mark.parametrize("t", [0, -1])
def test_finite_twirl_rejects_nonpositive_order(t):
    with pytest.raises(UnsupportedOrder):
        twirl_finite(PAULI_SET, t, np.eye(2))


def test_finite_twirl_works_beyond_oracle_orders():
    # finite averaging is well-defined at any order, oracle or not
    out = twirl_finite(PAULI_SET, 3, np.eye(8))
    assert out.shape == (8, 8)
    assert hs_norm(out - np.eye(8)) < 1e-14  # identity is always a fixed point


# ---- the moment operator against per-element Kronecker loops -----------------


def random_unitaries(d, n, seed):
    g = np.random.default_rng(seed)
    Z = g.normal(size=(n, d, d)) + 1j * g.normal(size=(n, d, d))
    return [np.linalg.qr(z)[0] for z in Z]


RANDOM_SET = UnitarySet(random_unitaries(2, 7, 1))
QUTRIT_SET = UnitarySet(random_unitaries(3, 5, 2))


def reference_superop(S, t):
    total = 0
    for U in S:
        M = kron_power(U, t)
        total = total + np.kron(M.conj(), M)
    return total / len(S)


def reference_twirl(S, t, A):
    total = 0
    for U in S:
        M = kron_power(U, t)
        total = total + M @ A @ M.conj().T
    return total / len(S)


@pytest.mark.parametrize(
    "S,t",
    [(PAULI_SET, 1), (PAULI_SET, 2), (PAULI_SET, 3), (RANDOM_SET, 1), (RANDOM_SET, 2), (RANDOM_SET, 3),
     (QUTRIT_SET, 1), (QUTRIT_SET, 2)],
)
def test_moment_operator_matches_per_element_kron_loops(S, t):
    assert hs_norm(superop_of_twirl(S, t) - reference_superop(S, t)) < 1e-13
    A = random_op(S.dim**t)
    assert hs_norm(twirl_finite(S, t, A) - reference_twirl(S, t, A)) < 1e-13 * hs_norm(A)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_tensor_batch_takes_the_element_dimension(t):
    M = _tensor_batch(QUTRIT_SET.stack, t)
    assert M.shape == (len(QUTRIT_SET), 3**t, 3**t)
    for k, U in enumerate(QUTRIT_SET):
        assert np.array_equal(M[k], kron_power(U, t))


# ---- superoperators and Choi matrices ---------------------------------------


def test_superop_applies_like_twirl():
    S = superop_of_twirl(PAULI_SET, 2)
    A = random_op(4)
    assert np.allclose(unvec(S @ vec(A)), twirl_finite(PAULI_SET, 2, A))


def test_haar_superop_is_idempotent():
    for t in (1, 2):
        S = superop_of_twirl("haar", t)
        assert hs_norm(S @ S - S) < 1e-13


def test_choi_ranks_of_the_three_reference_channels():
    assert choi_rank(superop_of_twirl("haar", 1)) == 4
    assert choi_rank(superop_of_twirl("haar", 2)) == 10
    assert choi_rank(superop_of_twirl(PAULI_SET, 2)) == 4


def test_choi_is_hermitian_and_positive():
    C = choi(superop_of_twirl("haar", 2))
    assert hs_norm(C - C.conj().T) < 1e-13
    assert np.linalg.eigvalsh(C).min() > -1e-12


@pytest.mark.parametrize("t", [1, 2, 3])
def test_choi_is_the_defining_sum_over_basis_operators(t):
    # RANDOM_SET is not closed under inverse, so its channel is not symmetric
    # and a swapped axis in the reshape would show
    D = 2**t
    expect = 0
    for i in range(D):
        for j in range(D):
            E = np.zeros((D, D))
            E[i, j] = 1
            expect = expect + np.kron(E, reference_twirl(RANDOM_SET, t, E))
    assert hs_norm(choi(superop_of_twirl(RANDOM_SET, t)) - expect) < 1e-13


def test_choi_rejects_a_matrix_off_a_square_operator_space():
    with pytest.raises(DimensionMismatch):
        choi(np.eye(3))
    with pytest.raises(DimensionMismatch):
        choi(np.zeros((4, 5)))


@pytest.mark.parametrize("t", [1, 2])
def test_haar_superop_is_one_read_only_constant(t):
    Phi = superop_of_twirl("haar", t)
    assert superop_of_twirl("haar", t) is Phi
    with pytest.raises(ValueError):
        Phi[0, 0] = 0


def test_choi_of_haar_second_order_closed_form():
    P_s, P_t = singlet_triplet()
    C = choi(superop_of_twirl("haar", 2))
    expect = np.kron(P_s.T, P_s) + np.kron(P_t.T, P_t) / 3
    assert hs_norm(C - expect) < 1e-13


# ---- frame potentials --------------------------------------------------------


def test_frame_potential_reference_values():
    assert frame_potential(PAULI_SET, 1).value == pytest.approx(1.0, abs=1e-14)
    fp = frame_potential(PAULI_SET, 2)
    assert fp.value == pytest.approx(4.0, abs=1e-14)
    assert fp.haar_value == 2.0
    assert fp.gap == pytest.approx(2.0, abs=1e-14)
    assert not fp.is_design(1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_frame_potential_is_translation_invariant(seed):
    V = haar_sample(HaarSampler(seed))
    left = UnitarySet([V @ U for U in PAULI_SET])
    right = UnitarySet([U @ V for U in PAULI_SET])
    for t in (1, 2):
        base = frame_potential(PAULI_SET, t).value
        assert frame_potential(left, t).value == pytest.approx(base, abs=1e-12)
        assert frame_potential(right, t).value == pytest.approx(base, abs=1e-12)


def test_frame_potential_has_no_haar_reference_off_the_qubit():
    # the reference table holds U(2) values; other dimensions get none
    S = UnitarySet([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    for t in (1, 2):
        fp = frame_potential(S, t)
        assert fp.haar_value is None and fp.gap is None
        with pytest.raises(UnsupportedOrder):
            fp.is_design()


def test_frame_potential_never_below_haar():
    # Haar value is a lower bound over all finite sets
    h = HaarSampler(123)
    for n in (2, 5, 9):
        S = UnitarySet([haar_sample(h) for _ in range(n)])
        for t in (1, 2):
            fp = frame_potential(S, t)
            assert fp.value >= fp.haar_value - 1e-12


# ---- sampling ----------------------------------------------------------------


def test_sampler_is_deterministic_and_replayable():
    a = HaarSampler(2024)
    bulk = a.quaternions(7)
    b = HaarSampler(2024)
    singles = np.vstack([b.quaternions(1) for _ in range(7)])
    assert np.array_equal(bulk, singles)
    # replay from the middle using the counter
    c = HaarSampler(2024, counter=3)
    assert np.array_equal(c.quaternions(4), bulk[3:])


def test_sampler_output_is_unit_and_unitary():
    h = HaarSampler(9)
    q = h.quaternions(100)
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, atol=1e-12)
    U = haar_sample(h)
    assert hs_norm(U @ U.conj().T - np.eye(2)) < 1e-12
    assert abs(np.linalg.det(U) - 1.0) < 1e-12


def test_different_seeds_differ():
    assert not np.array_equal(
        HaarSampler(1).quaternions(4), HaarSampler(2).quaternions(4)
    )


# sha256 of the C-ordered (n, 4) draws: replays by (seed, counter) depend on them
HAAR_STREAM_SHA256 = {
    (0, 0, 1): "c8784d6685d29c54b417ebe7afe2a1e5078b29e61cf7ee0d10d579bb0510c18a",
    (12345, 0, 65536): "2d919726957ab8b92b7a65af06e4407cf0075c21954ca7a4ecc4f851b0715dce",
    (2**64 - 1, 7, 100003): "93cf0def9809f1f9dac59449e4b2ed03f93ce9a27979d3ee1fbd5a0121689f1e",
    (42, 123456789, 131073): "87ce7b188a082685a8c221d9de6a3fa8c3d6aede02a3cbf6e678bf83acbe1f77",
    (7, 1, 70000): "1915ead3d017900c3c8365e157d282874c0455eed25c6f05e448fd8ef544b001",
}


@pytest.mark.parametrize("seed,counter,n", sorted(HAAR_STREAM_SHA256))
def test_sampler_stream_is_pinned(seed, counter, n):
    h = HaarSampler(seed, counter)
    q = np.ascontiguousarray(h.quaternions(n))
    assert q.shape == (n, 4) and h.counter == counter + n
    assert hashlib.sha256(q.tobytes()).hexdigest() == HAAR_STREAM_SHA256[seed, counter, n]


@pytest.mark.parametrize("t", [1, 2])
def test_moment_maps_reproduce_the_tensor_power(t):
    q = rng.normal(size=(500, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    X = _tensor_batch(su2_batch(q), t).reshape(500, 4**t)
    Y = _monomials(q.T, t).T
    assert Y.shape == (500, (4, 10)[t - 1])
    assert np.max(np.abs(Y @ _power_map(UNIT_BASIS, t) - X)) < 1e-12
    A = np.abs(su2_batch(q)[:, 0, 0]) ** 2
    Z = _monomials(np.stack([np.ones(500), A]), t).T
    assert np.array_equal(Z, np.vander(A, t + 1, increasing=True))
    assert np.max(np.abs(Z @ _power_map(_ABS2_BASIS, t) - np.abs(X) ** 2)) < 1e-12


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_within_bars(t):
    rep = mc_oracle_check(HaarSampler(77), t, 30000)
    assert rep.ok
    assert rep.max_ratio < 5.0
    assert rep.deviations.shape == (4**t,)


def reference_oracle_check(seed, t, n):
    """The oracle check from per-sample Kronecker products, one sample at a time."""
    first, second = 0, 0
    for q in HaarSampler(seed).quaternions(n):
        M = kron_power(su2_batch(q[None])[0], t)
        first = first + np.kron(M.conj(), M)
        second = second + np.kron(np.abs(M) ** 2, np.abs(M) ** 2)
    mean = first / n
    entry_var = np.maximum(second / n - np.abs(mean) ** 2, 0.0)
    deviations = np.linalg.norm(mean - superop_of_twirl("haar", t), axis=0)
    return deviations, np.sqrt(entry_var.sum(axis=0) / n)


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_matches_per_sample_reference(t):
    rep = mc_oracle_check(HaarSampler(31), t, 300, chunk=64)
    deviations, std_errors = reference_oracle_check(31, t, 300)
    assert np.max(np.abs(rep.deviations - deviations)) < 1e-12
    assert np.max(np.abs(rep.std_errors - std_errors)) < 1e-12


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_is_chunk_invariant(t):
    reports, counters = [], []
    for chunk in (7, 1000, 65536):
        h = HaarSampler(8)
        reports.append(mc_oracle_check(h, t, 2500, chunk=chunk))
        counters.append(h.counter)
    assert counters == [2500] * 3
    for rep in reports[1:]:
        assert np.max(np.abs(rep.deviations - reports[0].deviations)) < 1e-12
        assert np.max(np.abs(rep.std_errors - reports[0].std_errors)) < 1e-12


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_replays_bit_identically(t):
    a = mc_oracle_check(HaarSampler(2**64 - 1), t, 70000)
    b = mc_oracle_check(HaarSampler(2**64 - 1), t, 70000)
    assert a.deviations.tobytes() == b.deviations.tobytes()
    assert a.std_errors.tobytes() == b.std_errors.tobytes()


def test_mc_oracle_check_needs_samples():
    with pytest.raises(ValueError):
        mc_oracle_check(HaarSampler(0), 1, 1)
