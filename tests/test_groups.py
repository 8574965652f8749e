import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.cli import BUILTIN_NAMES
from udes.designs import AXIS_CYCLE, named_design
from udes.errors import DimensionMismatch, NonUnitPoint, NotHalfInteger, ProportionalElements
from udes.groups import (
    GroupProfile,
    axis_cycle_closure_table,
    demitesseract_class,
    group_profile,
    polytope_identify,
    so3_image_table,
    su2_closure,
)
from udes.qubit import pauli
from udes.linalg import hs_norm
from udes.su2 import quaternion_of, rodrigues, so3_rep, su2_batch
from udes.twirl import HaarSampler, UnitarySet

B = named_design("B").set
D = named_design("D").set
ROT_C = 2 * math.pi / (3 * math.sqrt(3))


def test_closure_doubles_and_pairs():
    C = su2_closure(B)
    assert len(C) == 8
    for k, partner in enumerate(C.pairing):
        assert C.pairing[partner] == k
        assert np.allclose(C.closure[k], -C.closure[partner])
    # even slots carry the canonical representative
    for rep in C.representatives():
        q = np.array(quaternion_of(rep))
        first = q[np.flatnonzero(np.abs(q) > 1e-9)[0]]
        assert first > 0


def test_closure_rejects_proportional_elements():
    with pytest.raises(ProportionalElements):
        su2_closure(UnitarySet([pauli(1), 1j * pauli(1)]))


def test_pauli_closure_is_the_quaternion_group():
    prof = group_profile(su2_closure(B))
    assert prof.is_group
    assert prof.order_histogram == {1: 1, 2: 1, 4: 6}
    assert prof.center_size == 2
    assert prof.cosets is not None and len(prof.cosets) == 2
    # Q8 admits no complement for any of its proper normal subgroups
    assert not prof.semidirect_check


def test_completion_closure_is_binary_tetrahedral():
    prof = group_profile(su2_closure(D))
    assert prof.is_group
    assert prof.order_histogram == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    assert prof.center_size == 2
    assert len(prof.cosets) == 3
    assert sorted(len(c) for c in prof.cosets) == [8, 8, 8]
    assert prof.semidirect_check
    # the quaternion-unit coset comes first and contains index 0 (identity)
    assert 0 in prof.cosets[0]


def test_wing_cosets_alone_do_not_close():
    wings = UnitarySet(list(D.elems[4:]))
    prof = group_profile(su2_closure(wings))
    assert not prof.is_group
    # every element order in the wings is divisible by three
    assert set(prof.order_histogram) == {3, 6}
    assert sum(prof.order_histogram.values()) == 16


def test_polytope_recognition_from_closures():
    assert polytope_identify(su2_closure(B).points()).kind == "16-cell"
    assert polytope_identify(su2_closure(D).points()).kind == "24-cell"
    wings = UnitarySet(list(D.elems[4:]))
    assert polytope_identify(su2_closure(wings).points()).kind == "tesseract"


def test_polytope_hexagon_from_cycle_powers():
    Ws = [np.linalg.matrix_power(AXIS_CYCLE, k) for k in range(6)]
    pts = np.array([quaternion_of(w) for w in Ws])
    pid = polytope_identify(pts)
    assert pid.kind == "hexagon"
    assert pid.distance_spectrum[0] == (1.0, 2)  # unit edge length


def test_polytope_tetrahedron_pair():
    cube = np.array(
        [[0.5, 0.5 * a, 0.5 * b, 0.5 * c] for a, b, c in itertools.product([1, -1], repeat=3)]
    )
    assert polytope_identify(cube).kind == "tetrahedron-pair"


def test_polytope_other_and_validation():
    # a square is none of the recognized solids
    square = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    assert polytope_identify(square).kind == "other"
    with pytest.raises(NonUnitPoint):
        polytope_identify(np.array([[1.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(NonUnitPoint):
        polytope_identify(np.zeros((3, 5)))


def test_polytope_recognition_is_rotation_invariant():
    # chord spectra are unchanged by any global 4d rotation
    g = np.random.default_rng(8)
    M = np.linalg.qr(g.normal(size=(4, 4)))[0]
    pts = su2_closure(D).points() @ M.T
    assert polytope_identify(pts).kind == "24-cell"


@pytest.mark.parametrize("signs", list(itertools.product([1, -1], repeat=4)))
def test_demitesseract_class_by_sign_parity(signs):
    label = demitesseract_class(np.array(signs) * 0.5)
    expect = "W" if signs.count(-1) % 2 == 0 else "W*"
    assert label == expect


def test_demitesseract_class_requires_half_coordinates():
    with pytest.raises(NotHalfInteger):
        demitesseract_class((1.0, 0.0, 0.0, 0.0))


def test_demitesseract_class_is_antipodal_invariant():
    q = np.array([0.5, -0.5, 0.5, 0.5])
    assert demitesseract_class(q) == demitesseract_class(-q)


def test_so3_image_of_pauli_closure():
    table = so3_image_table(su2_closure(B))
    assert len(table) == 4
    assert table[0].angle == 0.0
    for k, aa in enumerate(table[1:]):
        assert aa.angle == pytest.approx(math.pi)
        expect = np.zeros(3)
        expect[k] = 1.0
        assert np.allclose(aa.axis, expect)


def test_closure_table_is_exact():
    rows = axis_cycle_closure_table()
    assert len(rows) == 24
    assert [r.label for r in rows[:6]] == ["+1", "-1", "+I", "-I", "+J", "-J"]
    q_allowed = {0.0, 0.5, -0.5, 1.0, -1.0}
    r_allowed = {0.0, math.pi, ROT_C, -ROT_C}
    for row in rows:
        assert set(row.quaternion) <= q_allowed
        assert set(row.rotation) <= r_allowed
        # quaternion must reproduce the Pauli expansion: U = (c . sigma)/2
        U = sum(c * pauli(m) for m, c in enumerate(row.pauli)) / 2
        assert np.allclose(np.array(quaternion_of(U)), row.quaternion, atol=1e-12)


def test_closure_table_antipodal_rows_share_rotation():
    rows = axis_cycle_closure_table()
    for even, odd in zip(rows[0::2], rows[1::2]):
        assert even.label[1:] == odd.label[1:]
        assert even.rotation == odd.rotation
        assert np.allclose(np.array(even.quaternion), -np.array(odd.quaternion))


# ---- the quaternion layer against the loop-based matrix code it replaced ----


#: B_k = 1, iX, iY, iZ: U = s 1 - i (x,y,z).sigma has coordinates tr(B_k U) / 2
_REFERENCE_BASIS = [pauli(0)] + [1j * pauli(k) for k in (1, 2, 3)]


def _reference_quaternion(U) -> np.ndarray:
    return np.array([0.5 * np.trace(B @ U).real for B in _REFERENCE_BASIS])


def _reference_closure(S) -> list:
    """su2_closure's matrices, element by element: U / sqrt(det U) with the
    sign that makes the first quaternion coordinate above 1e-9 positive,
    followed by its negative."""
    out = []
    for U in S:
        V = U / np.sqrt(U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0])
        if next(v for v in _reference_quaternion(V) if abs(v) > 1e-9) < 0:
            V = -V
        out += [V, -V]
    return out


_REFERENCE_LATTICE = {
    "1": np.eye(2, dtype=complex),
    "-1": -np.eye(2, dtype=complex),
    "I": np.array([[0.0, -1.0j], [-1.0j, 0.0]]),
    "-I": np.array([[0.0, 1.0j], [1.0j, 0.0]]),
    "J": np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex),
    "-J": np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
    "K": np.array([[-1.0j, 0.0], [0.0, 1.0j]]),
    "-K": np.array([[1.0j, 0.0], [0.0, -1.0j]]),
}

_REFERENCE_SUBGROUPS = (
    ("1", "-1", "I", "-I", "J", "-J", "K", "-K"),
    ("1", "-1", "I", "-I"),
    ("1", "-1", "J", "-J"),
    ("1", "-1", "K", "-K"),
    ("1", "-1"),
)


def _reference_profile(G: list, tol: float = 1e-9) -> GroupProfile:
    """group_profile as it was built from 2x2 matrix products, an O(n^3)
    table of nearest-element scans, repeated matmuls and a rescanned
    inverse; kept here as the oracle for the quaternion layer."""
    n = len(G)
    stack = np.stack(G)
    eye = np.eye(2)

    def find(M):
        d = np.linalg.norm(stack - M, axis=(1, 2))
        k = int(np.argmin(d))
        return k if d[k] <= tol else -1

    def order(U):
        P = U.copy()
        for k in range(1, 49):
            if hs_norm(P - eye) <= tol:
                return k
            P = P @ U
        return 0

    prod = np.array([[find(G[a] @ G[b]) for b in range(n)] for a in range(n)])
    is_group = bool((prod >= 0).all())
    histogram: dict = {}
    for k in map(order, G):
        histogram[k] = histogram.get(k, 0) + 1
    center = sum(
        all(hs_norm(G[a] @ G[b] - G[b] @ G[a]) <= tol for b in range(n)) for a in range(n)
    )
    cosets, semidirect = None, False
    if is_group:
        e = next(k for k in range(n) if all(prod[k, b] == b for b in range(n)))
        inverse = [next(h for h in range(n) if prod[g, h] == e) for g in range(n)]
        for names in _REFERENCE_SUBGROUPS:
            idx = [find(_REFERENCE_LATTICE[nm]) for nm in names]
            if any(k < 0 for k in idx) or len(idx) >= n:
                continue
            members = set(idx)
            if all(prod[prod[g, h], inverse[g]] in members for g in range(n) for h in members):
                seen, parts = set(), []
                for r in range(n):
                    if r not in seen:
                        coset = tuple(sorted(int(prod[r, h]) for h in members))
                        parts.append(coset)
                        seen.update(coset)
                cosets = tuple(parts)
                semidirect = _reference_complement(prod, members, e)
                break
    return GroupProfile(is_group, histogram, center, cosets, semidirect)


def _reference_complement(prod, members, e) -> bool:
    n = len(prod)
    if n % len(members):
        return False
    want = n // len(members)
    for g in range(n):
        powers, cur = [e], g
        while cur != e and len(powers) <= want:
            powers.append(cur)
            cur = prod[cur, g]
        if cur == e and len(powers) == want and set(powers) & members == {e}:
            if len({prod[h, k] for h in members for k in powers}) == n:
                return True
    return False


def _haar(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _conjugated(rng, elems) -> np.ndarray:
    """{e^{i phi_a} V U_a V^H} for a Haar V and uniform phases."""
    V = _haar(rng, 1)[0]
    phases = np.exp(2j * np.pi * rng.random(len(elems)))
    return phases[:, None, None] * (V @ np.stack(elems) @ V.conj().T)


def _generated(kind: str, seed: int) -> UnitarySet:
    """A conjugated, rephased and shuffled Pauli set or 12-element design, or
    the union of such a design with a Haar translate of it: a 24-element set
    whose 48-element closure is no group and holds elements of no finite
    order.  Shuffling interleaves the cosets' indices; the "lattice" kind,
    the design shuffled and rephased but not conjugated, keeps the quaternion
    units and with them the Q8 coset split."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        phases = np.exp(2j * np.pi * rng.random(12))[:, None, None]
        return UnitarySet(list((phases * D.stack)[rng.permutation(12)]))
    if kind == "pauli":
        return UnitarySet(list(_conjugated(rng, B.elems)[rng.permutation(4)]))
    design = _conjugated(rng, D.elems)[rng.permutation(12)]
    if kind == "design":
        return UnitarySet(list(design))
    return UnitarySet(list(np.concatenate([design, _haar(rng, 1)[0] @ design])))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_group_profile_matches_the_matrix_reference_on_builtins(name):
    S = named_design(name).set
    assert group_profile(su2_closure(S)) == _reference_profile(_reference_closure(S))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["pauli", "design", "lattice", "union"]), st.integers(min_value=0, max_value=10**9)
)
def test_group_profile_matches_the_matrix_reference_on_generated_sets(kind, seed):
    S = _generated(kind, seed)
    C = su2_closure(S)
    prof = group_profile(C)
    assert prof == _reference_profile(_reference_closure(S))
    assert prof.is_group == (kind != "union")
    if kind == "union":
        assert len(C) == 48 and prof.order_histogram.get(0, 0) > 0


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["pauli", "design", "union"]), st.integers(min_value=0, max_value=10**9))
def test_quaternions_and_rotations_match_the_scalar_path(kind, seed):
    S = _generated(kind, seed)
    C = su2_closure(S)
    closure = np.stack(C.closure)
    ref = _reference_closure(S)
    # U / sqrt(det U) and the library's conj(sqrt(det U)) U part by |det U| - 1,
    # a few ulps for these inputs
    assert np.abs(closure - np.stack(ref)).max() <= 1e-14
    # det 1, and each pair proportional to its original element
    assert np.abs(np.linalg.det(closure) - 1).max() <= 1e-14
    overlap = np.einsum("nij,nij->n", np.repeat(S.stack, 2, axis=0).conj(), closure)
    assert np.abs(np.abs(overlap) - 2).max() <= 1e-14
    assert np.abs(su2_batch(C.points()) - closure).max() <= 1e-15
    scalar = np.array([_reference_quaternion(U) for U in ref])
    assert np.abs(C.points() - scalar).max() <= 1e-14
    for aa, U in zip(so3_image_table(C), ref[0::2]):
        # the canonical sign ignores an s below 1e-9, so a pi-rotation may overshoot by 2e-9
        assert 0.0 <= aa.angle <= math.pi + 2e-9
        assert np.abs(rodrigues(aa.axis, aa.angle) - so3_rep(U)).max() <= 1e-14
    got, want = polytope_identify(C.points()), polytope_identify(scalar)
    assert got.kind == want.kind
    assert [m for _, m in got.distance_spectrum] == [m for _, m in want.distance_spectrum]
    assert np.allclose([d for d, _ in got.distance_spectrum], [d for d, _ in want.distance_spectrum], rtol=0, atol=1e-14)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["B", "D", "wings"]), st.integers(min_value=0, max_value=10**9))
def test_structure_is_invariant_under_rephased_conjugation(name, seed):
    elems = D.elems[4:] if name == "wings" else named_design(name).set.elems
    S, T = UnitarySet(list(elems)), UnitarySet(list(_conjugated(np.random.default_rng(seed), elems)))
    p, q = group_profile(su2_closure(S)), group_profile(su2_closure(T))
    assert (p.is_group, p.order_histogram, p.center_size) == (q.is_group, q.order_histogram, q.center_size)
    assert polytope_identify(su2_closure(S).points()).kind == polytope_identify(su2_closure(T).points()).kind


def test_closure_reports_the_first_proportional_pair_in_row_order():
    # (0, 3) and (1, 2) are both proportional; a row-major scan meets (0, 3) first
    S = UnitarySet([pauli(1), pauli(2), 1j * pauli(2), -pauli(1)])
    with pytest.raises(ProportionalElements) as exc:
        su2_closure(S)
    assert str(exc.value) == "elements 0 and 3 are proportional and share normalizations"


def test_closure_rejects_non_qubit_sets():
    with pytest.raises(DimensionMismatch):
        su2_closure(UnitarySet([np.eye(3), np.diag([1.0, 1.0, -1.0])]))


def test_closure_points_are_computed_once_and_read_only():
    C = su2_closure(D)
    assert C.points() is C.points()
    with pytest.raises(ValueError):
        C.points()[0, 0] = 0.0


@pytest.mark.parametrize("eps", [1e-8, 1e-5, 1e-2])
@pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-7])
def test_closure_measures_proportionality_at_every_scale(eps, scale):
    # the normalizations of X and i X exp(-i eps Z) lie, up to sign,
    # ||1 - exp(-i eps Z)|| = 2 sqrt(2) sin(eps / 2) apart; a scale below 1
    # shortens the normalized quaternions, which a unit-norm test would miss
    gap = 2 * math.sqrt(2) * math.sin(eps / 2)
    Xz = pauli(1) @ np.diag([np.exp(-1j * eps), np.exp(1j * eps)])
    S = UnitarySet([scale * pauli(0), scale * pauli(1), 1j * scale * Xz], tol=1e-6)
    tol = gap * scale**2  # the normalization scales by |det|
    with pytest.raises(ProportionalElements, match="^elements 1 and 2 "):
        su2_closure(S, tol=tol * (1 + 1e-6))
    assert len(su2_closure(S, tol=tol * (1 - 1e-6))) == 6


def test_closure_finds_the_first_proportional_pair_across_row_blocks():
    elems = list(su2_batch(HaarSampler(6).quaternions(200)))  # three row blocks
    elems[190] = 1j * elems[150]
    elems[199] = -elems[100]
    with pytest.raises(ProportionalElements, match="^elements 100 and 199 "):
        su2_closure(UnitarySet(elems))
