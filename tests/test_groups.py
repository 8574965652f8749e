import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.cli import BUILTIN_NAMES
from udes.designs import (
    AXIS_CYCLE,
    DesignReport,
    NamedDesign,
    OneDesignFrame,
    classify_min_1design,
    named_design,
    verify_design,
)
from udes.errors import DimensionMismatch, NonUnitPoint, NotHalfInteger, ProportionalElements
from udes.groups import (
    ClosureTableRow,
    GroupProfile,
    PolytopeId,
    Su2Closure,
    _UNITS,
    _lookup,
    _orders,
    _product_table,
    axis_cycle_closure_table,
    demitesseract_class,
    group_profile,
    polytope_identify,
    so3_image_table,
    su2_closure,
)
from udes.qubit import pauli
from udes.linalg import hs_norm, near_pairs
from udes.su2 import hamilton, quaternion_of, rodrigues, so3_rep, su2_batch
from udes.twirl import (
    FramePotentialReport,
    HaarSampler,
    McOracleReport,
    UnitarySet,
    frame_potential,
    mc_oracle_check,
)

B = named_design("B").set
D = named_design("D").set
ROT_C = 2 * math.pi / (3 * math.sqrt(3))


def test_closure_doubles_and_pairs():
    C = su2_closure(B)
    Q = C.points()
    assert len(C) == len(Q) == 8
    # odd rows are the exact antipodes of the even rows before them
    assert np.array_equal(Q[1::2], -Q[0::2])
    # even slots carry the canonical representative
    for rep in su2_batch(Q[0::2]):
        q = np.array(quaternion_of(rep))
        first = q[np.flatnonzero(np.abs(q) > 1e-9)[0]]
        assert first > 0


def test_closure_rejects_proportional_elements():
    with pytest.raises(ProportionalElements):
        su2_closure(UnitarySet([pauli(1), 1j * pauli(1)]))


def test_closure_refuses_a_nan_tol():
    # every distance <= nan is False, so the proportional pair would pass
    with pytest.raises(ValueError, match="^tol must be a number, got nan$"):
        su2_closure(UnitarySet([pauli(0), 1j * pauli(0)]), tol=math.nan)


def test_group_profile_refuses_a_nan_tol():
    # no lookup would miss, so any closure would read as a group
    C = su2_closure(UnitarySet([pauli(0), pauli(1), named_design("D").set[4]]))
    with pytest.raises(ValueError, match="^tol must be a number, got nan$"):
        group_profile(C, tol=math.nan)


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


#: two elements whose closure of four has a closed table at a loose tol but
#: no group's: (quaternions, tol, table, orders)
_LOOSE_NON_GROUPS = [
    # no row is the identity; orders 1, 3, 3, 5 break Lagrange for a group of 4
    (
        [[-0.318, -0.769, 0.389, 0.396], [0.668, -0.351, -0.119, 0.645]],
        1.2,
        [[3, 2, 0, 1], [2, 3, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
        {1: 1, 3: 2, 5: 1},
    ),
    # row 2 is the identity, but rows 0 and 1 hold no inverse
    (
        [[0.624, 0.180, 0.753, 0.100], [0.708, 0.219, -0.124, -0.660]],
        1.5,
        [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 2, 3], [1, 0, 3, 2]],
        {1: 2, 3: 2},
    ),
]


@pytest.mark.parametrize("quaternions, tol, table, orders", _LOOSE_NON_GROUPS)
def test_a_closed_table_without_identity_and_inverses_is_no_group(quaternions, tol, table, orders):
    q = np.array(quaternions)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    C = su2_closure(UnitarySet(list(su2_batch(q))), tol)
    assert _product_table(C.points(), tol)[0].tolist() == table
    prof = group_profile(C, tol)
    assert (prof.is_group, prof.order_histogram, prof.cosets, prof.semidirect_check) == (False, orders, None, False)


def test_group_profile_looks_up_in_bounded_blocks():
    # 200 Haar elements close to 400: one unblocked search of the m^2
    # products over the 2m signed rows would hold 1.6e7 dot products (128 MB);
    # the blocks hold 2^15 at a time
    rng = np.random.default_rng(5)
    C = su2_closure(UnitarySet(list(_haar(rng, 200))))
    assert len(C) == 400
    tracemalloc.start()
    try:
        prof = group_profile(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not prof.is_group
    assert peak < 8e6


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


@pytest.mark.parametrize("shape", [(8, 4), (1, 4)])
def test_polytope_refuses_nan_points(shape):
    # NaN fails every comparison, so a norm test written as > tol would let it through
    with pytest.raises(NonUnitPoint, match="^point 0 has norm nan"):
        polytope_identify(np.full(shape, np.nan))


def _full_matrix_identify(P, tol=1e-9):
    """polytope_identify's answer from every vertex's sorted distances, as it
    was formed for every n: the reference for the one-row path."""
    from udes.groups import _TEMPLATES, _expand, _spectrum_of

    n = P.shape[0]
    rows = np.sort(np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2), axis=1)[:, 1:]
    for kind, size, template in _TEMPLATES:
        if n == size and np.all(np.abs(rows - _expand(template)[None, :]) <= tol):
            return PolytopeId(kind, template)
    return PolytopeId("other", _spectrum_of(rows[0], tol) if n > 1 else ())


@pytest.mark.parametrize("n", range(1, 61))
def test_polytope_reads_one_row_as_the_full_matrix_does(n):
    # sizes without a template read the first vertex's row alone; kind and
    # spectrum, down to each distance's bits, are the full matrix's, on
    # random points and on the closure points of the built-ins cut to n
    g = np.random.default_rng(n)
    P = g.normal(size=(n, 4))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    lattice = su2_closure(D).points()[:n] if n <= 24 else np.concatenate([P[: n - 24], su2_closure(D).points()])
    for Q in (P, lattice):
        got, want = polytope_identify(Q), _full_matrix_identify(Q)
        assert got.kind == want.kind
        assert np.array(got.distance_spectrum).tobytes() == np.array(want.distance_spectrum).tobytes()
    # a NaN or non-unit point is refused before any distance is formed
    for bad in (np.nan, 2.0):
        Q = P.copy()
        Q[n // 2] *= bad
        with pytest.raises(NonUnitPoint, match=f"^point {n // 2} has norm "):
            polytope_identify(Q)


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


@pytest.mark.parametrize("q,tol", [([math.nan] * 4, 1e-9), ([0.5, math.nan, 0.5, 0.5], 1e-9), ([0.5] * 4, math.nan)])
def test_demitesseract_class_refuses_nan(q, tol):
    # NaN fails every comparison, so a test written as > tol would let it through
    with pytest.raises(NotHalfInteger):
        demitesseract_class(q, tol)


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


def test_closure_table_pauli_coefficients_are_exact_and_hold_no_negative_zero():
    # U = s 1 - i (x X + y Y + z Z) = (c . sigma)/2 with c = (2s, -2ix, -2iy, -2iz)
    for row in axis_cycle_closure_table():
        s, x, y, z = row.quaternion
        assert row.pauli == (2 * s, -2j * x, -2j * y, -2j * z)
        parts = [v for c in row.pauli for v in (c.real, c.imag)] + [*row.quaternion, *row.rotation]
        assert not any(v == 0 and math.copysign(1.0, v) < 0 for v in parts)


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
    closure = su2_batch(C.points())
    ref = _reference_closure(S)
    # U / sqrt(det U) and the library's conj(sqrt(det U)) U part by |det U| - 1,
    # a few ulps for these inputs
    assert np.abs(closure - np.stack(ref)).max() <= 1e-14
    # det 1, and each pair proportional to its original element
    assert np.abs(np.linalg.det(closure) - 1).max() <= 1e-14
    overlap = np.einsum("nij,nij->n", np.repeat(S.stack, 2, axis=0).conj(), closure)
    assert np.abs(np.abs(overlap) - 2).max() <= 1e-14
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
    # a set of any other dimension cannot be built, so su2_closure never sees one
    with pytest.raises(DimensionMismatch, match=r"^element 0 has shape \(3, 3\), expected \(2, 2\)$"):
        UnitarySet([np.eye(3), np.diag([1.0, 1.0, -1.0])])


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


def test_closure_measures_the_one_pair_its_screen_passes(monkeypatch):
    # of the 10 pairs only (2, 4) reaches the floor, so the screen goes on
    # to measure it, and it is proportional
    screened = []

    def screen(overlap, floor):
        screened.append(near_pairs(overlap, floor))
        return screened[-1]

    monkeypatch.setattr("udes.groups.near_pairs", screen)
    S = UnitarySet([pauli(0), pauli(1), pauli(2), pauli(3), -1j * pauli(2)])
    with pytest.raises(ProportionalElements) as exc:
        su2_closure(S)
    assert str(exc.value) == "elements 2 and 4 are proportional and share normalizations"
    [(i, j)] = screened
    assert i.tolist() == [2] and j.tolist() == [4]


def test_closure_finds_the_first_proportional_pair_among_200_elements():
    # both pairs sit in the last rows of the Gram matrix; (100, 199) comes first
    elems = list(su2_batch(HaarSampler(6).quaternions(200)))
    elems[190] = 1j * elems[150]
    elems[199] = -elems[100]
    with pytest.raises(ProportionalElements, match="^elements 100 and 199 "):
        su2_closure(UnitarySet(elems))


# ---- the representative table and the closed-form orders against the code they replaced ----


def _hs_distance(d):
    return math.sqrt(2.0) * np.sqrt(np.einsum("...i,...i->...", d, d))


def _reference_table(Q, tol):
    """group_profile's product table and center as they were: all n^2
    Hamilton products of the signed closure, each looked up by its largest
    dot product over all n rows, and the commutators of every pair."""
    P = hamilton(Q[:, None, :], Q[None, :, :])
    prod = np.argmax(P @ Q.T, axis=2)
    prod[_hs_distance(P - Q[prod]) > tol] = -1
    commutes = _hs_distance(P - P.swapaxes(0, 1)) <= tol
    return prod, int(np.count_nonzero(commutes.all(axis=1)))


def _reference_lookup(P, Q, tol):
    """_lookup as it was: the largest |p.r| over the representatives
    r = Q[0::2], then the sign of p.r picks r or -r, in the same blocks."""
    flat = P.reshape(-1, 4)
    R = Q[0::2]
    out = np.empty(len(flat), dtype=int)
    step = max(1, 2**15 // len(R))
    for lo in range(0, len(flat), step):
        dots = flat[lo : lo + step] @ R.T
        c = np.argmax(np.abs(dots), axis=1)
        out[lo : lo + step] = 2 * c + (dots[np.arange(len(c)), c] < 0)
    out[_hs_distance(flat - Q[out]) > tol] = -1
    return out.reshape(P.shape[:-1])


def _lookup_points(Q, rng):
    """Points to look up in the signed closure Q: the representatives'
    products, the signed units, Q itself near and beyond tol, the midpoints
    of every pair, the 81 points of {-1, 0, 1}^4 and their halves, whose
    dot products with lattice rows tie exactly, and 2000 random quaternions,
    enough for several row blocks."""
    R = Q[0::2]
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=4)))
    noise = rng.standard_normal(Q.shape)
    return [
        hamilton(R[:, None, :], R[None, :, :]),
        _UNITS,
        Q,
        Q + 1e-12 * noise,
        Q + 1e-6 * noise,
        1.5 * Q,
        (Q[:, None, :] + Q[None, :, :]) / 2,
        grid,
        grid / 2,
        rng.standard_normal((2000, 4)),
    ]


@pytest.mark.parametrize("tol", [1e-10, 1e-9, 1e-8, 1e-3, 3.0])
@pytest.mark.parametrize("source", [*BUILTIN_NAMES, "pauli-0", "design-1", "lattice-2", "union-3", "union-4"])
def test_lookup_matches_the_representative_scan(source, tol):
    # one argmax over the signed rows picks the row that |p.r| and the sign of
    # p.r picked, and -1 beyond tol; at tol 3, past the largest distance
    # 2 sqrt(2), no row is dropped and the exact ties show which row wins
    if source in BUILTIN_NAMES:
        S, rng = named_design(source).set, np.random.default_rng(0)
    else:
        kind, seed = source.split("-")
        S, rng = _generated(kind, int(seed)), np.random.default_rng(int(seed))
    Q = su2_closure(S).points()
    for P in _lookup_points(Q, rng):
        got = _lookup(P, Q, tol)
        assert got.shape == P.shape[:-1]
        assert np.array_equal(got, _reference_lookup(P, Q, tol))


def _doubling_distances(Q):
    """||U^k - 1|| for k = 1, ..., 48 (rows) per element, with the powers in
    doublings q^(m+1..2m) = q^m q^(1..m), one batched Hamilton product each."""
    powers = Q[None]
    while len(powers) < 48:
        powers = np.concatenate([powers, hamilton(powers[-1], powers)])
    return _hs_distance(powers[:48] - (1.0, 0.0, 0.0, 0.0))


def _doubling_orders(Q, tol):
    """_orders as it was: the smallest k with ||U^k - 1|| <= tol, 0 if none."""
    hit = _doubling_distances(Q) <= tol
    return np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, 0)


def _check_table(Q, tol):
    prod, commutes = _product_table(Q, tol)
    want, center = _reference_table(Q, tol)
    assert np.array_equal(prod, want)
    assert 2 * int(np.count_nonzero(commutes)) == center
    # the signed products follow from the representatives' by s ^ t
    rep = prod[0::2, 0::2]
    for s, t in itertools.product((0, 1), repeat=2):
        found = rep >= 0
        assert np.array_equal(prod[s::2, t::2][found], rep[found] ^ (s ^ t))
        assert (prod[s::2, t::2][~found] == -1).all()


@pytest.mark.parametrize("tol", [1e-10, 1e-9, 1e-8])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_representative_table_and_closed_form_orders_on_builtins(name, tol):
    Q = su2_closure(named_design(name).set).points()
    _check_table(Q, tol)
    assert np.array_equal(_orders(Q, tol), _doubling_orders(Q, tol))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_orders_hold_below_the_rounding_of_the_angle(name):
    # the lattice powers are exact in Hamilton products; the exact reduction
    # of k a / 2 keeps them exact in the closed form too
    Q = su2_closure(named_design(name).set).points()
    assert np.array_equal(_orders(Q, 1e-20), _doubling_orders(Q, 1e-20))
    assert 0 not in _orders(Q, 1e-20)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["pauli", "design", "lattice", "union"]),
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([1e-10, 1e-9, 1e-8]),
)
def test_representative_table_and_closed_form_orders_on_generated_sets(kind, seed, tol):
    Q = su2_closure(_generated(kind, seed)).points()
    _check_table(Q, tol)
    assert np.array_equal(_orders(Q, tol), _doubling_orders(Q, tol))


#: how far from tol the two ways of taking ||U^k - 1|| may disagree: each
#: rounds to ~1e-14 for k <= 48 (4.6e-14 at most, measured near the roots
#: of unity), far above 1e-13 * tol
_ORDER_BAND = 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([1e-10, 1e-9, 1e-8]))
def test_closed_form_orders_at_the_tolerance_boundary(seed, tol):
    # for each k, elements at quaternion angle 2 pi / k + delta, where
    # ||U^k - 1|| = 2 sqrt(2) |sin(k delta / 2)| is planted just inside and
    # just outside tol; their order is k inside and 0 outside
    rng = np.random.default_rng(seed)
    k = np.repeat(np.arange(1, 49), 8)
    offsets = np.array([-1e-2 * tol, -3e-11, -3e-12, -2e-13, 2e-13, 3e-12, 3e-11, 1e-2 * tol])
    target = tol + np.tile(offsets, 48)
    delta = 2.0 / k * np.arcsin(target / (2.0 * math.sqrt(2.0))) * rng.choice([-1.0, 1.0], len(k))
    angle = 2.0 * math.pi / k + delta
    axis = rng.standard_normal((len(k), 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    Q = np.concatenate([np.cos(angle)[:, None], np.sin(angle)[:, None] * axis], axis=1)
    got, want = _orders(Q, tol), _doubling_orders(Q, tol)
    clear = (np.abs(_doubling_distances(Q) - tol) > _ORDER_BAND).all(axis=0)
    assert clear.mean() > 0.9
    assert np.array_equal(got[clear], want[clear])
    assert np.array_equal(got[clear], np.where(target <= tol, k, 0)[clear])


# ---- records -------------------------------------------------------------

#: every report type with its field names, in order
RECORD_FIELDS = {
    FramePotentialReport: ("t", "value", "haar_value", "gap"),
    McOracleReport: ("t", "n", "seed", "deviations", "std_errors", "nsigma"),
    DesignReport: (
        "t",
        "is_design",
        "frame_gap",
        "max_twirl_deviation",
        "method_agreement",
        "frame_potential",
        "haar_value",
    ),
    OneDesignFrame: ("V", "Vp", "phases", "permutation"),
    NamedDesign: ("name", "set"),
    Su2Closure: ("quaternions",),
    GroupProfile: ("is_group", "order_histogram", "center_size", "cosets", "semidirect_check"),
    PolytopeId: ("kind", "distance_spectrum"),
    ClosureTableRow: ("label", "pauli", "quaternion", "rotation"),
}


@functools.cache
def _records() -> dict:
    """One record of each type, as the library makes them, by type."""
    C = su2_closure(D)
    made = (
        frame_potential(D, 2),
        mc_oracle_check(HaarSampler(1), 1, 64),
        verify_design(D, 2),
        classify_min_1design(B),
        named_design("D"),
        C,
        group_profile(C),
        polytope_identify(C.points()),
        axis_cycle_closure_table()[0],
    )
    return {type(rec): rec for rec in made}


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_records_are_named_tuples_with_pinned_fields(cls):
    rec = _records()[cls]
    assert isinstance(rec, tuple)
    assert cls._fields == RECORD_FIELDS[cls]
    new = rec._replace(**{cls._fields[0]: "x"})
    assert type(new) is cls and new[0] == "x"
    assert all(a is b for a, b in zip(new[1:], rec[1:]))
    assert list(rec._asdict()) == list(cls._fields)


def test_closure_len_is_its_size():
    C = su2_closure(D)
    assert len(C) == len(C.quaternions) == 24
    assert len(C._replace(quaternions=C.quaternions)) == 24

