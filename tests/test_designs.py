import math

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
    NotRotation,
    NotUnitary,
    NotUnitaryElements,
    UnknownName,
    UnsupportedOrder,
)
from udes.linalg import hs_inner, hs_norm, kron_power
from udes.qubit import pauli, singlet_triplet
from udes.su2 import (
    PAULI_BASIS,
    UNIT_BASIS,
    canonical_signs,
    canonical_su2,
    normalize_batch,
    normalize_to_su2,
    quaternion_batch,
    quaternion_of,
    rotation_quaternion,
    so3_rep,
    su2_batch,
    su2_from_rotation,
)
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
    assert all(hs_norm(x - y) < 1e-15 for x, y in zip(D, expect))


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
        return fp._replace(gap=fp.gap + 1e-9)

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


def _numpy_classify(S, tol=1e-9):
    """classify_min_1design's body as it was written in numpy, at the
    thresholds the module holds now; the reference for its float version.
    su2.rotation_quaternion stands in for the stacked pivot map it called,
    whose bits test_su2 pins it to."""
    S = S if isinstance(S, UnitarySet) else UnitarySet(S)
    X = S.stack.reshape(4, 4)
    i, j = np.nonzero(np.triu(np.abs(X.conj() @ X.T) > tol, 1))
    if i.size:
        a, b = i[0], j[0]
        raise NotOrthogonalBasis(
            f"elements {a} and {b} have HS inner product {X[a].conj() @ X[b]:.3e}"
        )

    def fail(condition: str, internal: Exception):
        if tol > designs._FRAME_TOL:
            raise NotOrthogonalBasis(
                f"no two elements overlap by more than {tol:g}, "
                f"but they are not a phased Pauli frame: {condition}"
            )
        raise internal

    V = normalize_batch(S.stack)
    Q = quaternion_batch(V[0].conj().T @ V[1:])
    Q *= canonical_signs(Q)[:, None]
    if (np.abs(Q[:, 0]) > designs._FIRST_ORDER_TOL).any():
        fail(
            "a relative element is not traceless",
            InternalConsistencyError("relative element is not traceless"),
        )
    ns = Q[:, 1:] / np.linalg.norm(Q[:, 1:], axis=1, keepdims=True)
    a, b, c = ns.tolist()
    triple = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        + a[1] * (b[2] * c[0] - b[0] * c[2])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    perm = (1, 2, 3) if triple > 0 else (1, 3, 2)
    R = ns[[p - 1 for p in perm]].T
    if np.linalg.norm(R.T @ R - np.eye(3)) > designs._FIRST_ORDER_TOL:
        fail(
            "the relative axes are not orthonormal",
            NotRotation("matrix is not orthogonal within tolerance"),
        )
    if abs(abs(triple) - 1.0) > designs._FRAME_TOL:
        fail(
            f"the relative axes span volume {abs(triple)}",
            NotRotation(f"determinant {abs(triple)} != 1"),
        )
    q = np.array(rotation_quaternion(R.tolist()))
    defect = math.sqrt(2.0) * abs(q @ q - 1.0)
    if not defect <= designs.UNITARITY_TOL:
        message = f"||U^H U - 1|| = {defect:.3e} > {designs.UNITARITY_TOL:.1e}"
        fail("the lifted rotation is not special unitary", NotUnitary(f"matrix is not unitary: {message}"))
    VR = su2_batch(q)
    if canonical_signs(q) < 0:
        VR = -VR
    V = V[0] @ VR
    Vp = VR.conj().T
    sigma = (0, *perm)
    P = V @ PAULI_BASIS[list(sigma)] @ Vp
    phases = np.einsum("aij,aij->a", P.conj(), S.stack) / 2.0
    if (np.abs(np.abs(phases) - 1.0) > designs._FRAME_TOL).any():
        fail(
            "an extracted phase is not a unit complex",
            InternalConsistencyError("extracted phase is not a unit complex"),
        )
    worst = np.linalg.norm(phases[:, None, None] * P - S.stack, axis=(1, 2)).max()
    if worst > designs._FIRST_ORDER_TOL:
        fail(
            f"the frame reconstruction misses by {worst:.3e}",
            InternalConsistencyError(f"frame reconstruction misses by {worst:.3e}"),
        )
    return V, Vp, phases.tolist(), sigma


def _builtin_frames():
    """B and B0, rephased by 1, i, -1, -i and in reverse order."""
    sets = [[1j**k * U for k, U in enumerate(named_design(n).set)] for n in ("B", "B0")]
    return sets + [list(named_design(n).set)[::-1] for n in ("B", "B0")]


def test_classify_matches_the_numpy_reference():
    for seed in range(300):
        S = random_frame(seed)
        frame = classify_min_1design(S)
        V, Vp, phases, sigma = _numpy_classify(S)
        assert frame.permutation == sigma
        assert np.abs(frame.V - V).max() <= 1e-14
        assert np.abs(frame.Vp - Vp).max() <= 1e-14
        assert np.abs(np.subtract(frame.phases, phases)).max() <= 1e-14
    # the built-ins, whose coordinates are dyadic, exactly; a zero may carry
    # the other sign, which format_number writes as 0 either way
    for S in _builtin_frames():
        frame = classify_min_1design(S)
        V, Vp, phases, sigma = _numpy_classify(S)
        assert frame.permutation == sigma
        assert np.array_equal(frame.V, V) and np.array_equal(frame.Vp, Vp)
        assert list(frame.phases) == phases


def _tilted(d):
    """1, I, cos(d) J + sin(d) I, K: relative elements exactly traceless,
    axes d off orthogonal, I and the tilted J overlapping by 2 sin(d)."""
    one, i, j, k = UNIT_BASIS
    return [one, i, math.cos(d) * j + math.sin(d) * i, k]


#: the Pauli basis with its first element scaled by 1 + 1e-11, unitary within
#: 1e-10: its phase has modulus (1 + 1e-11)^3 and it misses its rebuilt
#: element by ~sqrt(2) 4e-11, while every other quantity stays exact
_SCALED = [(1 + 1e-11) * pauli(0), pauli(1), pauli(2), pauli(3)]


@pytest.mark.parametrize(
    "elems, patch, error",
    [
        ([pauli(0), pauli(1), (pauli(1) + pauli(2)) * SQ2, pauli(3)], {}, NotOrthogonalBasis),
        (random_frame(3), {"_FIRST_ORDER_TOL": -1.0}, InternalConsistencyError),
        (_tilted(1e-10), {"_FIRST_ORDER_TOL": 0.0}, NotRotation),
        ([pauli(m) for m in range(4)], {"_FRAME_TOL": -1.0}, NotOrthogonalBasis),
        ([pauli(m) for m in range(4)], {"UNITARITY_TOL": -1.0}, NotUnitary),
        (_SCALED, {"_FRAME_TOL": 0.0}, NotOrthogonalBasis),
        (_SCALED, {"_FIRST_ORDER_TOL": 0.0}, InternalConsistencyError),
    ],
    ids=["overlap", "traceless", "orthonormal", "volume", "lift", "phase", "reconstruction"],
)
def test_classify_fails_as_the_numpy_reference_on_every_branch(monkeypatch, elems, patch, error):
    # each threshold patched so that the branch trips at the default tol;
    # below _FRAME_TOL the internal exception, above it NotOrthogonalBasis
    for name, value in patch.items():
        monkeypatch.setattr(designs, name, value)
    with pytest.raises(error) as want:
        _numpy_classify(elems)
    with pytest.raises(error) as got:
        classify_min_1design(elems)
    assert str(got.value) == str(want.value)


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


@pytest.mark.parametrize("pivot", range(4))
def test_classify_matches_the_reference_on_every_pivot(pivot):
    # frames {1, -i n_k.X} whose axes n_k are the columns of a rotation that
    # takes each pivot of the quaternion extraction (trace, R00, R11, R22),
    # each column with its first nonzero entry positive as classify's axes
    # have; rephased and translated on the left, which leaves the axes be
    R = [
        np.eye(3),
        np.array([[1, 2, 2], [2, -2, 1], [2, 1, -2]]) / 3,
        np.array([[1, 12, 12], [12, 8, -9], [-12, 9, -8]]) / 17,
        np.array([[1, 12, 12], [-12, -8, 9], [12, -9, 8]]) / 17,
    ][pivot]
    assert np.argmax([np.trace(R), *np.diag(R)]) == pivot
    h = HaarSampler(pivot)
    L = haar_sample(h)
    phases = np.exp(2j * np.pi * h.quaternions(1)[0])
    axes = su2_batch(np.vstack([np.eye(4)[0], np.c_[np.zeros(3), R.T]]))
    S = [p * L @ U for p, U in zip(phases, axes)]
    frame = classify_min_1design(S)
    V, Vp, ref_phases, sigma = _reference_frame(S)
    assert frame.permutation == sigma == (0, 1, 2, 3)
    assert np.abs(frame.V - V).max() <= 1e-14
    assert np.abs(frame.Vp - Vp).max() <= 1e-14
    assert np.abs(np.subtract(frame.phases, ref_phases)).max() <= 1e-14
    V, Vp, ref_phases, _ = _numpy_classify(S)
    assert np.abs(frame.V - V).max() <= 1e-14
    assert np.abs(frame.Vp - Vp).max() <= 1e-14
    assert np.abs(np.subtract(frame.phases, ref_phases)).max() <= 1e-14
    # Vp is the lift of R itself
    assert np.allclose(so3_rep(Vp.conj().T), R, atol=1e-12)


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


def _rotated_frame(seed, tol):
    """random_frame(seed) with each element rotated by exp(-i eps n.X), the
    rotations scaled until the largest overlap |tr(U_a^H U_b)| is just
    under tol."""
    g = np.random.default_rng(seed)
    F = np.array(random_frame(seed))
    kicks = g.normal(size=(4, 3)) * g.random((4, 1))

    def rotated(scale):
        eps = np.linalg.norm(kicks, axis=1, keepdims=True) * scale
        q = np.hstack([np.cos(eps), np.sin(eps) * kicks / np.linalg.norm(kicks, axis=1, keepdims=True)])
        return su2_batch(q) @ F

    def overlap(S):
        X = S.reshape(4, 4)
        return np.abs(X.conj() @ X.T)[np.triu_indices(4, 1)].max()

    scale = 1e-9
    for _ in range(3):
        scale *= tol / overlap(rotated(scale))
    while overlap(rotated(scale)) > tol:
        scale *= 1 - 1e-5
    return rotated(scale)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1e-10, 1e-9, 5e-9, 1e-8]))
def test_near_frames_that_pass_the_scan_complete(seed, tol):
    # every check after the scan leaves room for the first-order slack a
    # scan at tol <= _FRAME_TOL lets through, so such a set completes as
    # `udes construct` does it, with no internal error
    S = UnitarySet(_rotated_frame(seed, tol))
    frame = classify_min_1design(S, tol=tol)
    assert max(hs_norm(a - b) for a, b in zip(frame.reconstruct(), S)) <= designs._FIRST_ORDER_TOL
    verify_design(extend_to_2design(S, frame), 2, tol=tol)


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


def _same_frame(a, b) -> bool:
    return (
        a.V.tobytes() == b.V.tobytes()
        and a.Vp.tobytes() == b.Vp.tobytes()
        and a.phases == b.phases
        and a.permutation == b.permutation
    )


@pytest.mark.parametrize("seed", range(5))
def test_a_stored_frame_is_the_classification_of_a_fresh_copy(seed):
    S = UnitarySet(random_frame(seed))
    frame = classify_min_1design(S)
    assert classify_min_1design(S) is frame
    assert _same_frame(frame, classify_min_1design(UnitarySet(np.array(S.stack))))
    # another tol classifies again, to the same frame
    other = classify_min_1design(S, 1e-10)
    assert other is not frame and _same_frame(other, frame)
    assert classify_min_1design(S, 1e-10) is other


def test_a_stored_frame_is_read_only():
    frame = classify_min_1design(UnitarySet(random_frame(7)))
    for M in (frame.V, frame.Vp):
        with pytest.raises(ValueError):
            M[0, 0] = 0.0


def test_a_relabeled_set_and_the_extension_reuse_the_stored_frame(monkeypatch):
    S = UnitarySet(random_frame(8))
    frame = classify_min_1design(S)
    extended = extend_to_2design(S)
    # nothing of the classification itself runs again
    monkeypatch.setattr(designs, "first_pair", lambda *a: pytest.fail("classified again"))
    assert classify_min_1design(S.relabeled("abcd")) is frame
    assert np.array_equal(extend_to_2design(S).stack, extended.stack)


@pytest.mark.parametrize(
    "elems, tol",
    [
        # the overlap scan fails
        ([pauli(0), pauli(1), (pauli(1) + pauli(2)) * SQ2, pauli(3)], 1e-9),
        # the scan passes at this loose tol, and the orthonormality check fails
        ([pauli(0), pauli(1), np.cos(1e-6) * pauli(2) + np.sin(1e-6) * pauli(1), pauli(3)], 1e-5),
    ],
)
def test_a_failed_classification_is_not_stored(elems, tol):
    S = UnitarySet(elems)
    messages = []
    for _ in range(2):
        with pytest.raises(NotOrthogonalBasis) as exc:
            classify_min_1design(S, tol)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert S._derived == {}


def test_extension_of_pauli_basis_is_the_named_completion():
    D = named_design("D").set
    ext = extend_to_2design(named_design("B").set)
    assert all(np.array_equal(a, b) for a, b in zip(ext, D))


def test_extension_shares_no_memory_with_its_input():
    S = UnitarySet(random_frame(5))
    ext = extend_to_2design(S)
    assert not np.shares_memory(ext.stack, S.stack)
    assert np.array_equal(ext.stack[:4], S.stack)


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
