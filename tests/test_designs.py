import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.designs import (
    AXIS_CYCLE,
    classify_min_1design,
    clifford_bound,
    extend_to_2design,
    named_design,
    verify_design,
    verify_rotation_sum,
)
import udes.designs as designs
from udes.errors import (
    DimensionMismatch,
    InternalConsistencyError,
    NotMinimal1Design,
    NotOrthogonalBasis,
    NotUnitaryElements,
    UnknownName,
    UnsupportedOrder,
)
from udes.linalg import hs_dist, hs_inner, hs_norm, kron_power
from udes.qubit import pauli, singlet_triplet
from udes.su2 import canonical_su2, normalize_to_su2, quaternion_of, su2_from_rotation
from udes.twirl import HaarSampler, UnitarySet, frame_potential, haar_sample

W = AXIS_CYCLE
SQ2 = 1 / np.sqrt(2)


# ---- named designs -----------------------------------------------------------


@pytest.mark.parametrize(
    "name,size", [("pauli", 4), ("B", 4), ("B0", 4), ("D", 12), ("D0", 12), ("D1", 12), ("D2", 12)]
)
def test_named_design_sizes(name, size):
    nd = named_design(name)
    assert len(nd.set) == size
    assert nd.set.labels is not None and len(nd.set.labels) == size


def test_pauli_aliases_b():
    A = named_design("pauli").set
    B = named_design("B").set
    assert all(np.array_equal(x, y) for x, y in zip(A, B))


def test_unknown_name_raises():
    with pytest.raises(UnknownName):
        named_design("E8")


def test_d_is_the_cycled_pauli_listing():
    D = named_design("D").set
    B = named_design("B").set
    Wd = W.conj().T
    expect = list(B) + [W @ U for U in B] + [Wd @ U for U in B]
    assert all(hs_dist(x, y) < 1e-15 for x, y in zip(D, expect))


def test_d2_matches_its_closed_form_listing():
    # all twelve elements, written out with explicit signs
    one, I, J, K = (named_design("B0").set[k] for k in range(4))
    Wd = W.conj().T
    listing = [
        one, -I, -J, -K,
        -W, -(W @ I), -(W @ J), -(W @ K),
        Wd, -(Wd @ I), -(Wd @ J), -(Wd @ K),
    ]
    D2 = named_design("D2").set
    assert all(hs_norm(x - y) < 1e-15 for x, y in zip(D2, listing))


def test_builtins_equal_their_matrix_listings_exactly():
    X, Y, Z = (pauli(k) for k in (1, 2, 3))
    one, I, J, K = pauli(0), -1j * X, -1j * Y, -1j * Z
    Wd = W.conj().T
    listings = {
        "B": [one, X, Y, Z],
        "B0": [one, I, J, K],
        "D": [one, X, Y, Z, W, W @ X, W @ Y, W @ Z, Wd, Wd @ X, Wd @ Y, Wd @ Z],
        "D0": [one, I, J, K, W, W @ I, W @ J, W @ K, Wd, Wd @ I, Wd @ J, Wd @ K],
        "D1": [one, I, J, K, W, -(W @ I), -(W @ J), -(W @ K), Wd, Wd @ I, Wd @ J, Wd @ K],
        "D2": [
            one, -I, -J, -K,
            -W, -(W @ I), -(W @ J), -(W @ K),
            Wd, -(Wd @ I), -(Wd @ J), -(Wd @ K),
        ],
    }
    for name, listing in listings.items():
        assert np.array_equal(named_design(name).set.stack, np.stack(listing)), name


def test_axis_cycle_is_the_dyadic_matrix_of_w():
    assert np.array_equal(AXIS_CYCLE, np.array([[0.5 - 0.5j, -0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]]))


# ---- verification ------------------------------------------------------------


def test_pauli_basis_is_a_1design_but_not_a_2design():
    B = named_design("B").set
    r1 = verify_design(B, 1)
    assert r1.is_design and r1.frame_gap == pytest.approx(0.0, abs=1e-14)
    r2 = verify_design(B, 2)
    assert not r2.is_design
    assert r2.frame_gap == pytest.approx(2.0, abs=1e-12)
    assert r2.max_twirl_deviation == pytest.approx(SQ2, abs=1e-12)
    assert r2.method_agreement


@pytest.mark.parametrize("name", ["D", "D0", "D1", "D2"])
def test_completions_are_2designs(name):
    S = named_design(name).set
    for t in (1, 2):
        rep = verify_design(S, t)
        assert rep.is_design, f"{name} failed at t={t}"
        assert rep.frame_gap < 1e-12


def near_d(eps, k=5):
    """D with element k rotated by exp(-i eps X)."""
    elems = list(named_design("D").set)
    elems[k] = (np.cos(eps) * np.eye(2) - 1j * np.sin(eps) * pauli(1)) @ elems[k]
    return UnitarySet(elems)


def reference_max_deviation(S, t):
    """The largest twirl error over the basis operators, one operator and one
    element at a time, against the closed-form Haar twirl."""
    D = S.dim**t
    P_s, P_t = singlet_triplet()
    devs = []
    for i in range(D):
        for j in range(D):
            E = np.zeros((D, D), dtype=complex)
            E[i, j] = 1.0
            finite = sum(kron_power(U, t) @ E @ kron_power(U, t).conj().T for U in S) / len(S)
            if t == 1:
                haar = np.trace(E) * np.eye(2) / 2
            else:
                haar = hs_inner(P_s, E) * P_s + hs_inner(P_t, E) * P_t / 3
            devs.append(hs_norm(finite - haar))
    return max(devs)


@pytest.mark.parametrize(
    "S",
    [
        named_design("B").set,
        named_design("D").set,
        named_design("D2").set,
        near_d(1e-3),
        near_d(1e-7),
        UnitarySet([haar_sample(h) for h in [HaarSampler(3)] * 9]),
    ],
)
def test_verify_design_deviation_matches_the_per_basis_loop(S):
    for t in (1, 2):
        rep = verify_design(S, t, method="twirl")
        assert abs(rep.max_twirl_deviation - reference_max_deviation(S, t)) <= 1e-15


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 1e-8])
def test_both_takes_the_twirl_verdict_near_a_design(eps):
    # the deviation (~eps) fails tol while the gap (~eps^2) passes it
    S = near_d(eps)
    both = verify_design(S, 2)
    assert both == verify_design(S, 2, method="twirl")
    assert not both.is_design and not both.method_agreement
    assert verify_design(S, 2, method="frame").is_design


def test_verification_reads_the_haar_operator_built_at_import(monkeypatch):
    import udes.qubit as qubit
    import udes.twirl as twirl

    for module in (qubit, twirl):
        monkeypatch.setattr(module, "singlet_triplet", lambda: pytest.fail("Haar operator rebuilt"))
    assert verify_design(named_design("D").set, 2).is_design


def test_both_raises_only_when_the_frame_identity_fails(monkeypatch):
    D = named_design("D").set
    real = designs.frame_potential

    def shifted(S, t):
        fp = real(S, t)
        return dataclasses.replace(fp, gap=fp.gap + 1e-9)

    monkeypatch.setattr(designs, "frame_potential", shifted)
    with pytest.raises(InternalConsistencyError):
        verify_design(D, 2)
    assert verify_design(D, 2, method="twirl").is_design


def test_both_allows_elements_unitary_only_within_tolerance():
    # ||U^H U - 1|| = 5.7e-11 moves gap - ||Delta||^2 by ~3e-10 at t = 2
    S = UnitarySet([(1 + 2e-11) * U for U in named_design("D").set])
    for t in (1, 2):
        verify_design(S, t)


def test_verify_design_needs_qubits():
    with pytest.raises(DimensionMismatch):
        verify_design(UnitarySet([np.eye(3)]), 1)


def test_verify_design_single_methods():
    B = named_design("B").set
    assert verify_design(B, 2, method="twirl").is_design is False
    assert verify_design(B, 2, method="frame").is_design is False


def test_verify_design_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        verify_design(named_design("B").set, 3)


def test_rotation_sum_vanishes_for_designs_only():
    assert verify_rotation_sum(named_design("D").set)
    assert verify_rotation_sum(named_design("B").set)  # already true at order 1
    assert not verify_rotation_sum(UnitarySet([np.eye(2), pauli(1)]))


# ---- classification and completion -------------------------------------------


def random_frame(seed):
    """A generic minimal 1-design: phased, rotated, permuted Pauli basis."""
    g = np.random.default_rng(seed)
    h = HaarSampler(seed)
    V = haar_sample(h)
    Vp = haar_sample(h)
    phases = np.exp(2j * np.pi * g.uniform(size=4))
    perm = g.permutation(4)
    return [phases[m] * V @ pauli(perm[m]) @ Vp for m in range(4)]


def _reference_frame(S):
    """classify_min_1design as it was written element by element, with one
    normalization, quaternion and inner product per call; kept as the
    reference for the batched version."""
    V0 = normalize_to_su2(S[0])[0]
    ns = []
    for i in (1, 2, 3):
        q = quaternion_of(normalize_to_su2(V0.conj().T @ S[i])[0])
        n = np.array([q.x, q.y, q.z])
        ns.append(n / np.linalg.norm(n))
    perm = (1, 2, 3) if np.dot(ns[0], np.cross(ns[1], ns[2])) > 0 else (1, 3, 2)
    R = np.column_stack([ns[p - 1] for p in perm])
    VR = canonical_su2(su2_from_rotation(R, tol=1e-8)[0])
    V, Vp = V0 @ VR, VR.conj().T
    sigma = [0, 0, 0, 0]
    for k, pos in enumerate(perm, start=1):
        sigma[pos] = k
    phases = [hs_inner(V @ pauli(sigma[mu]) @ Vp, S[mu]) / 2.0 for mu in range(4)]
    return V, Vp, phases, tuple(sigma)


def test_classify_matches_the_elementwise_reference():
    # 200 generic frames plus the rephased and reordered built-in bases
    sets = [random_frame(seed) for seed in range(200)]
    sets += [[1j**k * U for k, U in enumerate(named_design(n).set)] for n in ("B", "B0")]
    sets += [list(named_design(n).set)[::-1] for n in ("B", "B0")]
    for S in sets:
        frame = classify_min_1design(S)
        V, Vp, phases, sigma = _reference_frame(S)
        assert frame.permutation == sigma
        assert np.abs(frame.V - V).max() <= 1e-14
        assert np.abs(frame.Vp - Vp).max() <= 1e-14
        assert np.abs(np.subtract(frame.phases, phases)).max() <= 1e-14


def test_classify_pauli_basis_is_trivial():
    frame = classify_min_1design(named_design("B").set)
    assert np.allclose(frame.V, np.eye(2))
    assert np.allclose(frame.Vp, np.eye(2))
    assert frame.permutation == (0, 1, 2, 3)
    assert np.allclose(frame.phases, np.ones(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_classify_reconstructs_arbitrary_frames(seed):
    elems = random_frame(seed)
    frame = classify_min_1design(elems)
    rebuilt = frame.reconstruct()
    assert max(hs_norm(a - b) for a, b in zip(rebuilt, elems)) < 1e-9
    # phases are honest unit scalars
    assert np.allclose(np.abs(frame.phases), 1.0, atol=1e-10)
    # V and Vp are special unitaries
    for M in (frame.V, frame.Vp):
        assert abs(np.linalg.det(M) - 1.0) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_extension_always_verifies(seed):
    S = extend_to_2design(random_frame(seed))
    assert len(S) == 12
    rep = verify_design(S, 2, tol=1e-10)
    assert rep.is_design


@given(st.sampled_from(["D", "D0", "B"]), st.integers(min_value=0, max_value=2**64 - 1))
def test_verdict_and_frame_potentials_survive_phases_and_translations(name, seed):
    # S -> {e^{i phi_a} V U_a W} fixes every |tr(U_a^H U_b)|, hence the frame
    # potentials and the design property
    S = named_design(name).set
    h = HaarSampler(seed)
    V, Wr = haar_sample(h), haar_sample(h)
    phases = np.exp(2j * np.pi * h.quaternions(len(S))[:, 0])
    T = UnitarySet([p * V @ U @ Wr for p, U in zip(phases, S)])
    for t in (1, 2):
        for method in ("twirl", "frame", "both"):
            assert verify_design(T, t, method=method).is_design == (name != "B" or t == 1)
        assert abs(frame_potential(T, t).value - frame_potential(S, t).value) < 1e-12


def test_extension_completes_from_a_given_frame(monkeypatch):
    S = named_design("B").set
    frame = classify_min_1design(S)
    monkeypatch.setattr(designs, "classify_min_1design", lambda *a, **k: pytest.fail("classified twice"))
    ext = extend_to_2design(S, frame)
    assert all(np.array_equal(a, b) for a, b in zip(ext, named_design("D").set))


def test_extension_of_pauli_basis_is_the_named_completion():
    D = named_design("D").set
    ext = extend_to_2design(named_design("B").set)
    assert all(np.array_equal(a, b) for a, b in zip(ext, D))


def test_classify_rejects_non_orthogonal_sets():
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(NotOrthogonalBasis):
        classify_min_1design([pauli(0), pauli(1), pauli(2), H])


@pytest.mark.parametrize(
    "S, message",
    [
        # only elements 1 and 2 overlap: tr(X (X + Y)/sqrt(2)) = sqrt(2)
        (
            [pauli(0), pauli(1), (pauli(1) + pauli(2)) / np.sqrt(2), pauli(3)],
            "elements 1 and 2 have HS inner product 1.414e+00+0.000e+00j",
        ),
        # (0, 3) and (1, 2) both overlap; a row-major scan meets (0, 3) first
        (
            [pauli(0), pauli(1), 1j * pauli(1), -pauli(0)],
            "elements 0 and 3 have HS inner product -2.000e+00+0.000e+00j",
        ),
    ],
)
def test_classify_reports_the_first_overlapping_pair(S, message):
    with pytest.raises(NotOrthogonalBasis) as exc:
        classify_min_1design(S)
    assert str(exc.value) == message


def test_classify_measures_overlap_against_tol():
    # cos(d) Y + sin(d) X overlaps X by tr = 2 sin(d)
    def tilted(d):
        return [pauli(0), pauli(1), np.cos(d) * pauli(2) + np.sin(d) * pauli(1), pauli(3)]

    with pytest.raises(NotOrthogonalBasis, match="^elements 1 and 2 "):
        classify_min_1design(tilted(1e-6))
    assert classify_min_1design(tilted(1e-12)).permutation[0] == 0


def test_classify_rejects_wrong_size():
    with pytest.raises(NotOrthogonalBasis):
        classify_min_1design([pauli(0), pauli(1)])


def test_classify_rejects_non_unitary():
    bad = np.diag([1.0, 0.5])
    with pytest.raises(NotUnitaryElements):
        classify_min_1design([pauli(0), pauli(1), pauli(2), bad])


def test_extension_wraps_classification_failure():
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(NotMinimal1Design):
        extend_to_2design([pauli(0), pauli(1), pauli(2), H])


# ---- size bound ---------------------------------------------------------------


def test_clifford_bound_values():
    assert clifford_bound(2) == 10
    assert clifford_bound(3) == 65
    with pytest.raises(ValueError):
        clifford_bound(1)


def test_completion_exceeds_naive_bound():
    # the guaranteed completion has 12 elements, above the d=2 bound of 10
    assert len(named_design("D").set) > clifford_bound(2)
