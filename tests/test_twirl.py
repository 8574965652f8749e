import hashlib
import itertools
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.errors import (
    DimensionMismatch,
    DuplicateElements,
    NotUnitary,
    UnsupportedOrder,
)
from udes.designs import named_design, verify_design
from udes.linalg import EQ_TOL, RANK_TOL, gram_floor, hs_norm, kron_power
from udes.qubit import bell_diagonal_part, pauli, singlet_triplet
from udes import twirl
from udes.twirl import (
    _haar_block,
    _monomials,
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


def test_relabeled_shares_the_validated_set():
    S = UnitarySet([pauli(m) for m in range(4)])
    gram = S.gram
    T = S.relabeled(["1", "X", "Y", "Z"])
    assert T.labels == ("1", "X", "Y", "Z") and S.labels is None
    assert T.stack is S.stack and T.gram is gram and T.elems is S.elems
    assert T.unitarity_defect == S.unitarity_defect and T.dim == S.dim
    assert T.relabeled(None).labels is None
    with pytest.raises(ValueError, match="3 labels for 4 elements"):
        S.relabeled(["a", "b", "c"])


@pytest.mark.parametrize("d", [1, 3, 4, 16])
def test_unitary_set_holds_2x2_elements_only(d):
    with pytest.raises(DimensionMismatch, match=rf"^element 0 has shape \({d}, {d}\), expected \(2, 2\)$"):
        UnitarySet([np.eye(d), -np.eye(d)])


def test_unitary_set_rejects_mixed_dimensions():
    # the first element that is not 2x2 is named, in either order
    for elems, k in [([np.eye(2), np.eye(4)], 1), ([np.eye(4), np.eye(2)], 0)]:
        with pytest.raises(DimensionMismatch, match=rf"^element {k} has shape \(4, 4\), expected \(2, 2\)$"):
            UnitarySet(elems)


def test_labels_must_not_be_one_string():
    # a bare string would be split into one label per character
    S = UnitarySet([np.eye(2), pauli(1)])
    with pytest.raises(ValueError, match="^labels must be one string per element, not the string '1X'$"):
        UnitarySet([np.eye(2), pauli(1)], labels="1X")
    with pytest.raises(ValueError, match="^labels must be one string per element, not the string 'ab'$"):
        S.relabeled("ab")


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
        # shapes are checked before unitarity, so the 4x4 element is named
        # wherever the non-unitary one stands
        (
            [np.eye(2), np.diag([1.0, 2.0]), np.eye(4)],
            DimensionMismatch,
            "element 2 has shape (4, 4), expected (2, 2)",
        ),
        (
            [np.eye(2), np.eye(4), np.diag([1.0, 2.0])],
            DimensionMismatch,
            "element 1 has shape (4, 4), expected (2, 2)",
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
        (
            [np.eye(2), np.diag([1.0, 2.0]), np.ones((2, 3))],
            DimensionMismatch,
            "element 2 has shape (2, 3), expected (2, 2)",
        ),
        ([np.eye(2), np.ones(2)], DimensionMismatch, "element 1 has shape (2,), expected (2, 2)"),
        (
            [np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, np.nan])],
            DimensionMismatch,
            "element 2: matrix entries must be finite",
        ),
    ],
)
def test_unitary_set_names_the_first_offending_element(elems, error, message):
    with pytest.raises(error) as err:
        UnitarySet(elems)
    assert str(err.value) == message


def test_unitary_set_finds_the_first_duplicate_pair_among_200_elements():
    # both pairs sit in the last rows of the Gram matrix; (100, 199) comes first
    elems = list(su2_batch(HaarSampler(6).quaternions(200)))
    elems[190] = elems[150].copy()
    elems[199] = elems[100].copy()
    with pytest.raises(DuplicateElements, match="^elements 100 and 199 coincide"):
        UnitarySet(elems)


def _reference_first_duplicate(X, tol=EQ_TOL):
    """UnitarySet's duplicate scan as it was, exact distances of every pair
    of flattened elements in row blocks of at most 2^16 entries of X; the
    reference for the Gram screen."""
    rows = max(1, 2**16 // X.size)
    for lo in range(0, len(X), rows):
        i, j = np.nonzero(np.linalg.norm(X[lo : lo + rows, None] - X, axis=2) <= tol)
        later = np.flatnonzero(j > lo + i)
        if later.size:
            return lo + int(i[later[0]]), int(j[later[0]])
    return None


def _random_unitaries(g, n):
    q, r = np.linalg.qr(g.normal(size=(n, 2, 2)) + 1j * g.normal(size=(n, 2, 2)))
    return q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None]


def _planted(seed, n, plants):
    """n random 2x2 unitaries, of which `plants` copies of earlier ones are
    moved by exp(i H) to a distance from 1e-13 to 1e-9, around tol = 1e-10."""
    g = np.random.default_rng(seed)
    U = _random_unitaries(g, n)
    for _ in range(plants):
        a, b = sorted(g.choice(n, 2, replace=False))
        if g.random() < 0.5:
            a, b = b, a
        H = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
        H = (H + H.conj().T) / 2
        w, v = np.linalg.eigh(H)
        step = np.exp(1j * w)  # exp(i H) moves U by ||(exp(i H) - 1) U|| = ||exp(i w) - 1||
        scale = 10.0 ** g.uniform(-13, -9) / np.linalg.norm(step - 1)
        U[b] = (v * np.exp(1j * scale * w)) @ v.conj().T @ U[a]
    return U


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 3))
def test_gram_screen_finds_the_first_pair_of_the_exact_scan(seed, n, plants):
    U = _planted(seed, n, plants)
    want = _reference_first_duplicate(U.reshape(n, 4))
    if want is None:
        assert len(UnitarySet(U)) == n
    else:
        with pytest.raises(DuplicateElements) as exc:
            UnitarySet(U)
        assert str(exc.value) == f"elements {want[0]} and {want[1]} coincide within {EQ_TOL}"


@pytest.mark.parametrize("seed", range(3))
def test_gram_screen_finds_the_first_pair_among_200_elements(seed):
    # the near pairs, around tol, sit in the last rows of the Gram matrix,
    # and the first of them in row-major order is not the first planted
    U = _planted(seed, 200, 0)
    for a, b, dist in [(150, 190, 2e-10), (100, 199, 5e-11), (120, 170, 1e-13)][seed:]:
        U[b] = U[a] * np.exp(1j * dist / np.sqrt(2))  # ||U_b - U_a|| = |e^(i x) - 1| sqrt(2) ~ dist
    want = _reference_first_duplicate(U.reshape(200, 4))
    with pytest.raises(DuplicateElements) as exc:
        UnitarySet(U)
    assert str(exc.value) == f"elements {want[0]} and {want[1]} coincide within {EQ_TOL}"


def _defects(U):
    """||U^H U - 1|| per element, the expression UnitarySet's check evaluates."""
    return np.linalg.norm(U.conj().swapaxes(1, 2) @ U - np.eye(U.shape[-1]), axis=(1, 2))


def _off_unitary(U, tol, target, sign):
    """sqrt(c) U for a stack U of 2x2 unitaries, c = 1 + sign s tol / sqrt(2),
    with s in [0, 2] bisected to the largest computed defect <= target: off
    unitary with tr(U^H U - 1) = sign sqrt(2) ||U^H U - 1||, the extremes
    the Gram screen's bound allows."""

    def scaled(s):
        return np.sqrt(np.maximum(1.0 + sign * s * tol / np.sqrt(2), 0.0))[:, None, None] * U

    lo, hi = np.zeros(len(U)), np.full(len(U), 2.0)
    for _ in range(45):
        mid = (lo + hi) / 2
        ok = _defects(scaled(mid)) <= target
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return scaled(lo)


def _edge_of_tol(seed, n, tol, plants):
    """n random 2x2 unitaries, _off_unitary with either sign: a
    third at the largest computed defect <= tol, most of the rest just below
    it.  Then `plants` phased copies exp(i theta) U_a replace other elements,
    at distance tol (1 +- 1e-6) from U_a (or as far as a phase reaches, when
    that is less)."""
    g = np.random.default_rng(seed)
    f = g.choice([0.0, 1.0, 2.0], n, p=[0.25, 0.35, 0.4])
    f[f == 2.0] = 1.0 - 10.0 ** -g.uniform(0, 9, np.count_nonzero(f == 2.0))
    U = _off_unitary(_random_unitaries(g, n), tol, f * tol, g.choice([-1.0, 1.0], n))
    for _ in range(plants):
        a, b = g.choice(n, 2, replace=False)
        dist = tol * (1.0 + g.choice([-1e-6, 1e-6]))
        # ||exp(i theta) U_a - U_a|| = 2 sin(theta / 2) ||U_a||
        half, norm = dist / 2.0, np.linalg.norm(U[a])
        theta = 2.0 * np.arcsin(half / norm) if half < norm else np.pi
        for k in range(8):  # a copy at the edge may round past tol; another theta may not
            U[b] = np.exp(1j * theta * (1.0 + k * 1e-12)) * U[a]
            if _defects(U[b : b + 1])[0] <= tol:
                break
    return U


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([128, 129]),  # sets far larger than a design: thousands of pairs
    st.sampled_from([1e-12, 1e-10, 1e-6, 1e-2, 1.0, 3.0]),
    st.integers(1, 3),
)
def test_gram_screen_keeps_every_pair_at_the_edge_of_tol(seed, n, tol, plants):
    U = _edge_of_tol(seed, n, tol, plants)
    defects = _defects(U)
    if not (defects <= tol).all():
        k = np.flatnonzero(~(defects <= tol))[0]
        with pytest.raises(NotUnitary, match=f"^element {k}: matrix is not unitary: "):
            UnitarySet(U, tol=tol)
        return
    want = _reference_first_duplicate(U.reshape(n, 4), tol)
    if want is None:
        assert len(UnitarySet(U, tol=tol)) == n
    else:
        with pytest.raises(DuplicateElements) as exc:
            UnitarySet(U, tol=tol)
        assert str(exc.value) == f"elements {want[0]} and {want[1]} coincide within {tol}"


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-2])
def test_gram_screen_keeps_pairs_whose_margin_is_rounding(tol):
    # 100 pairs: A shrunk to the largest computed defect <= tol, and B =
    # exp(i theta) A at the largest theta with computed ||A - B|| <= tol and
    # defect <= tol.  Re G_AB then meets 2 - sqrt(2) tol - tol^2 / 2 only up
    # to rounding, below it in some pairs: the floor's allowance keeps them
    g = np.random.default_rng(int(-np.log10(tol)) * 100 + 2)
    A = _off_unitary(_random_unitaries(g, 100), tol, tol, -1.0)
    lo, hi = np.zeros(100), np.full(100, 4.0 * tol / np.sqrt(2))
    for _ in range(60):
        mid = (lo + hi) / 2
        B = np.exp(1j * mid)[:, None, None] * A
        ok = (np.linalg.norm(A - B, axis=(1, 2)) <= tol) & (_defects(B) <= tol)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    for a, b in zip(A, np.exp(1j * lo)[:, None, None] * A):
        with pytest.raises(DuplicateElements, match="^elements 0 and 1 coincide"):
            UnitarySet([a, b], tol=tol)


@pytest.mark.parametrize("n", [128, 129, 200])
def test_the_gram_matrix_is_built_with_the_set_and_shared_by_relabeled_copies(n):
    S = UnitarySet(_random_unitaries(np.random.default_rng(n), n))
    assert "gram" in vars(S)  # set by the constructor, not on first use
    X = S.stack.reshape(n, 4)
    assert S.gram.tobytes() == (X.conj() @ X.T).tobytes()
    assert S.relabeled([str(k) for k in range(n)]).gram is S.gram


def test_unitary_set_refuses_a_nan_tol():
    # every defect <= nan is False, which read as "not unitary: 0.000e+00 > nan"
    with pytest.raises(ValueError, match="^tol must be a number, got nan$"):
        UnitarySet([np.eye(2), pauli(1)], tol=np.nan)


def test_unitary_set_stack_is_read_only():
    S = UnitarySet([pauli(m) for m in range(4)])
    for a in (S.stack, S[0], S.gram):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


@pytest.mark.parametrize("n", [4, 12, 48, 200])
def test_cached_gram_and_frame_potential_match_the_einsum_reference(n):
    S = UnitarySet(_random_unitaries(np.random.default_rng(n), n))
    gram = np.einsum("aij,bij->ab", S.stack.conj(), S.stack)
    assert S.gram is S.gram
    assert np.abs(S.gram - gram).max() <= 1e-15
    for t in (1, 2):
        assert abs(frame_potential(S, t).value - np.mean(np.abs(gram) ** (2 * t))) <= 1e-15


@pytest.mark.parametrize("n", [4, 12, 48])
def test_a_stored_frame_potential_is_np_mean_bitwise(n):
    S = UnitarySet(_random_unitaries(np.random.default_rng(n), n))
    for t in (1, 2, 3):
        want = float(np.mean(np.abs(S.gram) ** (2 * t)))
        first = frame_potential(S, t)
        assert first.value == want and frame_potential(S, t) == first
        assert frame_potential(S.relabeled(None), t).value == want


def test_unitary_set_rejects_bad_label_count():
    with pytest.raises(ValueError):
        UnitarySet([np.eye(2)], labels=["a", "b"])


def test_unitary_set_rejects_empty():
    with pytest.raises(ValueError):
        UnitarySet([])


def _reference_unitary_set(elems, tol=EQ_TOL):
    """UnitarySet's validation written element by element; the reference
    for its stacked path.  Returns (stack, unitarity_defect)."""
    for k, m in enumerate(elems):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise DimensionMismatch(f"element {k} has shape {m.shape}, expected (2, 2)")
        if not np.isfinite(m).all():
            raise DimensionMismatch(f"element {k}: matrix entries must be finite")
    if not len(elems):
        raise ValueError("a unitary set must be nonempty")
    stack = np.array(elems, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.linalg.norm(stack.conj().swapaxes(1, 2) @ stack - np.eye(2), axis=(1, 2))
    bad = np.flatnonzero(~(defects <= tol))
    if bad.size:
        k = bad[0]
        raise NotUnitary(
            f"element {k}: matrix is not unitary: ||U^H U - 1|| = {defects[k]:.3e} > {tol:.1e}"
        )
    n = len(stack)
    for a in range(n):
        for b in range(a + 1, n):
            if np.linalg.norm(stack[a].ravel() - stack[b].ravel()) <= tol:
                raise DuplicateElements(f"elements {a} and {b} coincide within {tol}")
    return stack, float(defects.max())


def _entry(kind: str, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    if kind == "u2":
        return np.exp(2j * np.pi * g.random()) * haar_sample(HaarSampler(seed))
    if kind == "pauli":  # drawn twice, a duplicate
        return pauli(seed % 4)
    if kind in ("u3", "u17"):
        d = 3 if kind == "u3" else 17
        return np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))[0]
    if kind == "rect":
        return g.normal(size=(2, 3))
    if kind == "vector":
        return np.ones(2)
    if kind == "scaled":
        return (1 + 10.0 ** -g.integers(6, 12)) * pauli(seed % 4)
    U = haar_sample(HaarSampler(seed))  # a non-finite entry at any position
    U[divmod(seed % 4, 2)] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return U


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                ["u2", "u2", "u2", "pauli", "u3", "u17", "rect", "vector", "scaled", "nan", "inf", "-inf"]
            ),
            st.integers(0, 7),
        ),
        max_size=7,
    ),
    st.booleans(),
)
def test_unitary_set_paths_agree_with_the_elementwise_reference(spec, as_array):
    elems = [_entry(kind, seed) for kind, seed in spec]
    if as_array and len({e.shape for e in elems}) == 1:
        elems = np.array(elems)
    try:
        want = _reference_unitary_set(elems)
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            UnitarySet(elems)
        assert str(err.value) == str(exc)
        return
    S = UnitarySet(elems)
    assert S.stack.tobytes() == want[0].tobytes() and S.stack.shape == want[0].shape
    assert S.unitarity_defect == want[1]


def _stepwise_unitary_set(elems, tol):
    """UnitarySet's validation in the steps it used to take, the reference
    for the one gate: a finiteness pass over any stack numpy forms, the
    identity subtracted from the strided diagonal of U^H U, every defect
    tested against tol, and the plain nonzero scan of the Gram screen.
    Returns (stack, gram, unitarity_defect)."""
    try:
        stack = np.array(elems, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if not (
        stack is not None
        and stack.ndim == 3
        and 0 < len(stack)
        and stack.shape[1:] == (2, 2)
        and np.isfinite(stack).all()
    ):
        mats = []
        for k, m in enumerate(elems):
            m = np.asarray(m, dtype=complex)
            if m.shape != (2, 2):
                raise DimensionMismatch(f"element {k} has shape {m.shape}, expected (2, 2)")
            if not np.isfinite(m).all():
                raise DimensionMismatch(f"element {k}: matrix entries must be finite")
            mats.append(m)
        if not mats:
            raise ValueError("a unitary set must be nonempty")
        stack = np.stack(mats)
    n = len(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        E = stack.conj().swapaxes(1, 2) @ stack
        E.reshape(n, 4)[:, ::3] -= 1
        defects = np.sqrt(np.add.reduce((E.conj() * E).real, (1, 2)))
    unitary = defects <= tol
    if not unitary.all():
        k = np.flatnonzero(~unitary)[0]
        raise NotUnitary(
            f"element {k}: matrix is not unitary: ||U^H U - 1|| = {defects[k]:.3e} > {tol:.1e}"
        )
    X = stack.reshape(n, 4)
    defect = float(defects.max())
    gram = X.conj() @ X.T
    spread = math.sqrt(2) * defect
    i, j = np.nonzero(gram.real >= gram_floor(2 - spread, 2 + spread, tol))
    later = j > i
    i, j = i[later], j[later]
    D = X[i] - X[j]
    hit = np.flatnonzero(np.sqrt(np.add.reduce((D.conj() * D).real, 1)) <= tol)
    if hit.size:
        raise DuplicateElements(f"elements {i[hit[0]]} and {j[hit[0]]} coincide within {tol}")
    return stack, gram, defect


@np.errstate(over="ignore", invalid="ignore")  # a fault may land on a non-finite element
def _faulty_set(seed, n, faults, tol):
    """n random 2x2 unitaries with each (position, kind) fault applied in
    turn: a non-finite or huge (1e200) entry, a random non-unitary element,
    one scaled to a defect of tol (1 +- 1e-6), or a phased copy of another
    element at distance tol (1 +- 1e-6), an exact copy when tol is inf."""
    g = np.random.default_rng(seed)
    U = _random_unitaries(g, n)
    for pos, kind in faults:
        k = pos % n
        edge = tol * (1.0 + g.choice([-1e-6, 1e-6]))
        if kind == "duplicate":
            a = g.integers(n)
            # ||exp(i theta) U_a - U_a|| = 2 sin(theta / 2) ||U_a||
            theta = 2.0 * np.arcsin(edge / 2.0 / np.linalg.norm(U[a])) if edge < 1.0 else 0.0
            U[k] = np.exp(1j * theta) * U[a]
        elif kind == "off-tol":  # ||c^2 U^H U - 1|| = |c^2 - 1| sqrt(2) for unitary U
            U[k] *= np.sqrt(1.0 + g.choice([-1.0, 1.0]) * min(edge, 1.0) / np.sqrt(2))
        elif kind == "non-unitary":
            U[k] = g.normal(size=(2, 2))
        else:
            bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "infj": complex(0, np.inf)}
            U[k][divmod(int(g.integers(4)), 2)] = bad.get(kind, 1e200 * g.choice([1, -1, 1j]))
    return U


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.lists(
        st.tuples(
            st.integers(0, 59),
            st.sampled_from(["nan", "inf", "-inf", "infj", "huge", "non-unitary", "off-tol", "duplicate"]),
        ),
        max_size=4,
    ),
    st.sampled_from([1e-10, 1e-6, 1e-2, math.inf]),
    st.sampled_from(["array", "list", "nested"]),
)
def test_unitary_set_is_bitwise_the_stepwise_validation(seed, n, faults, tol, form):
    U = _faulty_set(seed, n, faults, tol)
    elems = {"array": U, "list": list(U), "nested": U.tolist()}[form]
    try:
        want = _stepwise_unitary_set(elems, tol)
    except Exception as exc:
        with pytest.raises(type(exc)) as err:
            UnitarySet(elems, tol=tol)
        assert str(err.value) == str(exc)
        return
    S = UnitarySet(elems, tol=tol)
    for got, ref in [(S.stack, want[0]), (S.gram, want[1])]:
        assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert np.float64(S.unitarity_defect).tobytes() == np.float64(want[2]).tobytes()


def test_unitary_set_copies_the_callers_array():
    A = su2_batch(HaarSampler(4).quaternions(5))
    S = UnitarySet(A)
    before = S.stack.copy()
    A[...] = 0.0
    assert np.array_equal(S.stack, before)
    assert not np.shares_memory(S.stack, A)


# ---- vec / unvec ------------------------------------------------------------


def test_vec_stacks_columns():
    A = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(A), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(unvec(vec(A)), A)


def test_vec_of_conjugation_is_kron_action():
    M = random_op(3)
    A = random_op(3)
    lhs = vec(M @ A @ M.conj().T)
    rhs = np.kron(M.conj(), M) @ vec(A)
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


@pytest.mark.parametrize("t", [0, 6, -1])
def test_haar_oracle_orders_are_restricted(t):
    with pytest.raises(UnsupportedOrder):
        haar_twirl(t, np.eye(2 ** max(t, 1)))


@pytest.mark.parametrize("t", [0, -1])
def test_finite_twirl_rejects_nonpositive_order(t):
    with pytest.raises(UnsupportedOrder, match=rf"^twirl order must be an int >= 1, got {t}$"):
        twirl_finite(PAULI_SET, t, np.eye(2))


@pytest.mark.parametrize("t", [True, 2.5, 2.0, "2", None])
def test_every_order_check_refuses_an_order_that_is_no_int(t):
    # a bool would be reported as its int, and a float would be summed over
    # the whole set before math.comb refused it
    D = named_design("D").set
    calls = [
        lambda: superop_of_twirl("haar", t),
        lambda: superop_of_twirl(D, t),
        lambda: twirl_finite(D, t, np.eye(4)),
        lambda: haar_twirl(t, np.eye(4)),
        lambda: verify_design(D, t),
    ]
    for call in calls:
        with pytest.raises(UnsupportedOrder, match=rf"^twirl order must be an int >= 1, got {t!r}$"):
            call()
    with pytest.raises(UnsupportedOrder, match=rf"^frame potential order must be an int >= 1, got {t!r}$"):
        frame_potential(D, t)
    assert ("frame_potential", t) not in D._derived


def test_finite_twirl_works_beyond_oracle_orders():
    # finite averaging needs no Haar oracle; t = 5, the highest order it
    # takes, has a 32 x 32 operator and a 1024 x 1024 superoperator
    for t in (3, 4, 5):
        out = twirl_finite(PAULI_SET, t, np.eye(2**t))
        assert out.shape == (2**t, 2**t)
        assert hs_norm(out - np.eye(2**t)) < 1e-14  # identity is always a fixed point


@pytest.mark.parametrize("t", [6, 7])
def test_finite_twirl_refuses_an_order_past_5_before_building_its_index(t):
    # the gather index alone would be 134 MB at t = 6 and 2.1 GB at t = 7
    import tracemalloc

    A = np.eye(2**t)
    calls = [
        lambda: superop_of_twirl(PAULI_SET, t),
        lambda: twirl_finite(PAULI_SET, t, A),
        lambda: choi_rank(superop_of_twirl(PAULI_SET, t)),
    ]
    cached = twirl._moment_index.cache_info().currsize
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(UnsupportedOrder) as err:
                call()
            assert str(err.value) == f"twirl order must be <= 5, got {t}: its superoperator would have 4^{2 * t} entries"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert twirl._moment_index.cache_info().currsize == cached
    assert peak < 2**20


# ---- the moment operator against per-element Kronecker loops -----------------


def random_unitaries(d, n, seed):
    g = np.random.default_rng(seed)
    Z = g.normal(size=(n, d, d)) + 1j * g.normal(size=(n, d, d))
    return [np.linalg.qr(z)[0] for z in Z]


RANDOM_SET = UnitarySet(random_unitaries(2, 7, 1))


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
    [(S, t) for S in (PAULI_SET, RANDOM_SET) for t in (1, 2, 3)] + [(PAULI_SET, 4), (RANDOM_SET, 4)],
)
def test_moment_operator_matches_per_element_kron_loops(S, t):
    assert hs_norm(superop_of_twirl(S, t) - reference_superop(S, t)) < 1e-13
    A = random_op(S.dim**t)
    assert hs_norm(twirl_finite(S, t, A) - reference_twirl(S, t, A)) < 1e-13 * hs_norm(A)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [float, complex])
def test_monomials_follow_combinations_with_replacement(dtype, t):
    # Gaussian-integer entries keep every product exact, so the rows must match
    W = rng.integers(-3, 4, size=(4, 9)).astype(dtype)
    if dtype is complex:
        W += 1j * rng.integers(-3, 4, size=(4, 9))
    rows = itertools.combinations_with_replacement(range(4), t)
    expect = np.array([np.prod(W[list(j)], axis=0) for j in rows])
    Y = _monomials(W, t)
    assert Y.dtype == W.dtype and np.array_equal(Y, expect)
    if t > 1:
        out = np.empty_like(expect)
        assert _monomials(W, t, out=out) is out
        assert np.array_equal(out, expect)


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


@pytest.mark.parametrize("name", ["B", "D", "haar7"])
@pytest.mark.parametrize("t", [3, 4])
def test_choi_rank_past_16_x_16_is_numpys_rank(name, t):
    # 64 x 64 and 256 x 256 Choi matrices, at choi_rank's relative threshold
    S = UnitarySet(random_unitaries(2, 7, 3)) if name == "haar7" else named_design(name).set
    C = choi(superop_of_twirl(S, t))
    assert choi_rank(superop_of_twirl(S, t)) == np.linalg.matrix_rank(C, tol=RANK_TOL * np.linalg.norm(C, 2))


def test_choi_rank_of_the_pauli_twirl_at_order_5():
    # a 1024 x 1024 Choi matrix: the four vec(P^(x)5) stay independent
    assert choi_rank(superop_of_twirl(PAULI_SET, 5)) == 4


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


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_haar_superop_is_one_read_only_constant(t):
    Phi = superop_of_twirl("haar", t)
    assert superop_of_twirl("haar", t) is Phi
    with pytest.raises(ValueError):
        Phi[0, 0] = 0


def test_haar_superop_at_order_1_is_the_depolarizing_formula_bit_for_bit():
    # A -> tr(A) 1/2, the closed form the exact moments replaced
    expect = np.outer(vec(np.eye(2) / 2.0), vec(np.eye(2)).conj())
    assert superop_of_twirl("haar", 1).tobytes() == expect.tobytes()


def test_haar_superop_at_order_2_is_the_singlet_triplet_projector_rounded_once():
    # A -> <P_s, A> P_s + <P_t, A> P_t / 3, evaluated exactly: the projectors'
    # entries 0, +-1/2 and 1 are exact floats
    vs, vt = ([Fraction(x) for x in vec(P).real] for P in singlet_triplet())
    exact = np.array([[float(a * b + c * d / 3) for b, d in zip(vs, vt)] for a, c in zip(vs, vt)])
    Phi = superop_of_twirl("haar", 2)
    assert np.array_equal(Phi.real, exact) and not Phi.imag.any()
    # the same formula in floats, rounded at each step, misses 8 entries
    fs, ft = (vec(P) for P in singlet_triplet())
    floats = np.outer(fs, fs.conj()) + np.outer(ft, ft.conj()) / 3.0
    miss = np.abs(floats - exact)
    assert np.count_nonzero(miss) == 8 and miss.max() <= 5.6e-17


@pytest.mark.parametrize("t,catalan", [(1, 1), (2, 2), (3, 5), (4, 14), (5, 42)])
def test_haar_superop_is_a_hermitian_projector_of_catalan_rank(t, catalan):
    # the twirl projects onto the operators that commute with every U^{(x)t}:
    # C_t of them, the spin-0 states of 2t spin-1/2 particles
    Phi = superop_of_twirl("haar", t)
    assert Phi.shape == (4**t, 4**t)
    assert np.array_equal(Phi, Phi.conj().T)  # exactly: each entry rounded once
    assert not Phi.imag.any()  # its range is spanned by the real permutations of the t factors
    assert np.abs(Phi @ Phi - Phi).max() <= 4 * np.finfo(float).eps
    assert np.trace(Phi) == catalan
    assert np.vdot(Phi, Phi).real == pytest.approx(catalan, rel=1e-13)  # a sum of 4^{2t} rounded squares


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


def test_frame_potential_is_design_refuses_a_nan_tol():
    # a gap <= nan is False, which read as "not a design" even for a 2-design
    fp = frame_potential(UnitarySet([pauli(m) for m in range(4)]), 1)
    assert fp.gap == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError, match="^tol must be a number, got nan$"):
        fp.is_design(np.nan)


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


def clifford_group() -> UnitarySet:
    """The 24 single-qubit Cliffords: the binary octahedral group modulo -1,
    quaternions with coordinates 0, +-1/2, +-1 and +-1/sqrt(2) of one
    modulus, the first nonzero one positive."""
    r = 1 / math.sqrt(2)
    Q = [
        q
        for q in itertools.product((0.0, 0.5, -0.5, 1.0, -1.0, r, -r), repeat=4)
        if abs(sum(x * x for x in q) - 1) < 1e-12
        and len({abs(x) for x in q if x}) == 1
        and next(x for x in q if x) > 0
    ]
    assert len(Q) == 24
    return UnitarySet(su2_batch(np.array(Q)))


def test_frame_potential_reference_is_catalan_and_separates_known_designs():
    # the U(2) Haar value of |tr U|^(2t) is C_t = 1, 2, 5, 14, ...: the
    # Clifford group is a 3-design and not a 4-design, the paper's D a
    # 2-design and not a 3-design, exactly (its FP_t are integers)
    C = clifford_group()
    for t, value in ((1, 1.0), (2, 2.0), (3, 5.0), (4, 15.0)):
        fp = frame_potential(C, t)
        assert fp.value == pytest.approx(value, abs=1e-12)
        assert fp.is_design(1e-12) == (t <= 3)
    D = named_design("D").set
    assert [frame_potential(D, t)[1:] for t in (1, 2, 3, 4)] == [(1, 1, 0), (2, 2, 0), (6, 5, 1), (22, 14, 8)]
    assert not frame_potential(D, 3).is_design()


def test_the_twirl_alone_finds_d_a_2_design_and_the_cliffords_a_3_design():
    # against the exact oracle, with no frame potential: D fails at t = 3 and
    # the Cliffords at t = 4, by 1/sqrt(12) and sqrt(5/24) on the worst basis
    # operator, as FP_3(D) = 6 > 5 and FP_4(Cliffords) = 15 > 14 say
    D, C = named_design("D").set, clifford_group()
    reports = {(name, t): verify_design(S, t, method="twirl") for name, S in (("D", D), ("C", C)) for t in (1, 2, 3, 4)}
    assert [reports["D", t].is_design for t in (1, 2, 3, 4)] == [True, True, False, False]
    assert [reports["C", t].is_design for t in (1, 2, 3, 4)] == [True, True, True, False]
    assert reports["D", 3].max_twirl_deviation == pytest.approx(1 / math.sqrt(12), abs=1e-15)
    assert reports["C", 4].max_twirl_deviation == pytest.approx(math.sqrt(5 / 24), abs=1e-15)
    assert reports["C", 3].max_twirl_deviation < 1e-15


def test_both_methods_agree_past_order_2():
    # gap = ||Delta||_F^2 holds at every order, so "both" never raises
    h = HaarSampler(5)
    sets = [named_design("D").set, clifford_group()] + [UnitarySet([haar_sample(h) for _ in range(n)]) for n in (3, 12, 40)]
    for S in sets:
        for t in (3, 4, 5):
            rep = verify_design(S, t)
            assert rep == verify_design(S, t, method="twirl")


@pytest.mark.filterwarnings("error")
def test_frame_potential_reference_is_exact_up_to_the_float_range():
    # D's 12 exact elements: N^2 4^t stays below 2^1022 up to t = 507
    D = named_design("D").set
    for t in range(1, 508):
        fp = frame_potential(D, t)
        assert fp.haar_value == float(math.comb(2 * t, t) // (t + 1))  # correctly rounded
        assert math.isfinite(fp.value) and fp.gap >= 0
    assert frame_potential(D, 20).haar_value == 6564120420  # exact below 2^53
    # 508: past that bound; 511: the sum would be inf; 520: C_t would overflow;
    # 10**400: too large for a float, and refused before it becomes one
    for t in (508, 511, 520, 10**6, 10**400):
        message = rf"^the order-{t} frame potential of 12 elements may overflow$"
        with pytest.raises(UnsupportedOrder, match=message):
            frame_potential(D, t)


def test_frame_potential_never_below_haar():
    # Haar value is a lower bound over all finite sets
    h = HaarSampler(123)
    for n in (2, 5, 9):
        S = UnitarySet([haar_sample(h) for _ in range(n)])
        for t in (1, 2, 3, 4):
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


@pytest.mark.parametrize(
    "args,name",
    [
        ((1.5,), "seed"),  # would draw seed 1's stream
        (("7",), "seed"),  # would draw seed 7's
        ((True,), "seed"),  # would draw seed 1's
        ((-1,), "seed"),  # an OverflowError at the first draw
        ((2**64,), "seed"),
        ((None,), "seed"),
        ((3, -5), "counter"),  # would draw a stream that is no position of seed 3's
        ((3, 2.0), "counter"),
        ((3, True), "counter"),
        ((3, 2**256), "counter"),  # Philox's block counter has 256 bits
    ],
)
def test_sampler_names_the_bad_argument(args, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an int"):
        HaarSampler(*args)


@pytest.mark.parametrize("n", [True, 2.0, "3", 0])
def test_sampler_draw_names_a_bad_n(n):
    h = HaarSampler(3)
    with pytest.raises(ValueError, match="^n must be an int >= 1"):
        h.quaternions(n)
    assert h.counter == 0


def test_sampler_counters_past_2_63_are_exact():
    # a counter that went through float64 drew these three as one
    first = [HaarSampler(3, c).quaternions(1) for c in (2**63, 2**63 + 1, 2**63 + 1000)]
    assert not np.array_equal(first[0], first[1]) and not np.array_equal(first[0], first[2])
    assert np.array_equal(HaarSampler(3, 2**63).quaternions(2)[1:], first[1])


def test_sampler_stream_carries_across_2_64():
    # the counter's low word wraps and its next word counts on
    h = HaarSampler(3, 2**64 - 2)
    bulk = h.quaternions(4)
    assert h.counter == 2**64 + 2
    singles = np.concatenate([HaarSampler(3, 2**64 - 2 + k).quaternions(1) for k in range(4)])
    assert np.array_equal(bulk, singles)
    assert np.allclose(np.einsum("ij,ij->i", bulk, bulk), 1.0)


def test_sampler_draws_up_to_the_end_of_the_stream():
    h = HaarSampler(3, 2**256 - 1)
    with pytest.raises(ValueError, match="passes the stream's end"):
        h.quaternions(2)
    with pytest.raises(ValueError, match="passes the stream's end"):
        mc_oracle_check(h, 1, 2)
    assert h.counter == 2**256 - 1
    assert h.quaternions(1).shape == (1, 4) and h.counter == 2**256


def test_sampler_takes_numpy_integers_and_compares_by_state():
    a = HaarSampler(np.uint64(2**64 - 1), counter=np.int64(7))
    b = HaarSampler(2**64 - 1, 7)
    assert a == b and a != HaarSampler(2**64 - 1, 8) and a != (2**64 - 1, 7)
    assert repr(a) == "HaarSampler(seed=18446744073709551615, counter=7)"
    assert np.array_equal(a.quaternions(3), b.quaternions(3))
    assert a.counter == 10
    with pytest.raises(TypeError):
        hash(a)  # mutable, so unhashable


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


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_moment_maps_reproduce_the_tensor_power(t):
    # L_t takes the monomials of q to those of U's entries, exactly: its
    # entries are Gaussian integers; and the gather lays each sample's Gram
    # matrix out as kron(conj(M), M), M = U^{(x)t}
    L = twirl._entry_map(t)
    assert L.shape == (len(_monomials(np.eye(4), t)),) * 2
    assert np.array_equal(L, np.round(L))
    q = rng.normal(size=(40, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    U = su2_batch(q)
    Y = L @ _monomials(q.T, t)
    assert np.max(np.abs(Y - _monomials(U.reshape(40, 4).T, t))) < 1e-14
    for y, u in zip(Y.T, U):
        M = kron_power(u, t)
        phi = np.outer(y.conj(), y).ravel()[twirl._moment_index(t)]
        assert np.max(np.abs(phi - np.kron(M.conj(), M))) < 1e-14


def _entry_map_reference(t):
    """_entry_map as it was built: every row j expands prod_s u_{j_s} over
    all 4^t index tuples k, adding prod_s B[k_s, j_s] into the monomial of
    sorted(k); kept as the oracle for the degree recursion."""
    B = twirl.UNIT_BASIS.reshape(4, 4)
    row = twirl._monomial_rows(t)
    L = np.zeros((len(row), len(row)), dtype=complex)
    for j, r in row.items():
        for k in itertools.product(range(4), repeat=t):
            L[r, row[tuple(sorted(k))]] += math.prod(B[k_s, j_s] for k_s, j_s in zip(k, j))
    return L


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_entry_map_matches_the_loop_bit_for_bit(t):
    # the entries are small Gaussian integers, so every order of summation is
    # exact; the zeros, -0.0 in three entries of UNIT_BASIS, must stay +0.0
    L = twirl._entry_map(t)
    assert L.tobytes() == _entry_map_reference(t).tobytes()
    assert not np.signbit(L.view(float)[L.view(float) == 0]).any()
    assert not L.flags.writeable


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*(st.floats(-1, 1) for _ in range(4))).filter(lambda v: np.linalg.norm(v) > 1e-2),
    st.floats(0, 2 * np.pi),
    st.sampled_from([1, 2]),
)
def test_columns_of_the_moment_summand_are_unit_vectors(v, phi, t):
    # mc_oracle_check's standard errors in closed form rest on this identity
    q = np.array(v) / np.linalg.norm(v)
    M = kron_power(np.exp(1j * phi) * su2_batch(q), t)
    K = np.kron(M.conj(), M)
    assert np.max(np.abs(np.linalg.norm(K, axis=0) - 1.0)) < 1e-14


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


@pytest.mark.parametrize(
    "seed,t,n,chunk",
    [
        pytest.param(31, 1, 300, 64, id="1"),
        pytest.param(31, 2, 300, 64, id="2"),
        (5, 1, 2, 1),
        (6, 2, 2, 16384),
        (7, 1, 3, 2),
        (8, 2, 3, 1),
        (9, 2, 5, 3),
        (10, 1, 1000, 97),
        (11, 2, 777, 256),
        (12, 3, 50, 16),
    ],
)
def test_mc_oracle_check_matches_per_sample_reference(monkeypatch, seed, t, n, chunk):
    monkeypatch.setattr(twirl, "CHUNK", chunk)
    rep = mc_oracle_check(HaarSampler(seed), t, n)
    deviations, std_errors = reference_oracle_check(seed, t, n)
    assert np.max(np.abs(rep.deviations - deviations)) < 1e-12
    assert np.max(np.abs(rep.std_errors - std_errors)) < 1e-12


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_is_chunk_invariant(monkeypatch, t):
    reports, counters = [], []
    for chunk in (7, 1000, 65536):
        monkeypatch.setattr(twirl, "CHUNK", chunk)
        h = HaarSampler(8)
        reports.append(mc_oracle_check(h, t, 2500))
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


@pytest.mark.parametrize("t", [3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_oracle_check_passes_its_gate_past_order_2(t, seed):
    rep = mc_oracle_check(HaarSampler(seed), t, 200000)
    assert rep.ok and rep.deviations.shape == (4**t,)


def test_mc_oracle_check_needs_samples():
    with pytest.raises(ValueError):
        mc_oracle_check(HaarSampler(0), 1, 1)


@pytest.mark.parametrize("seed,counter,n", sorted(HAAR_STREAM_SHA256))
def test_haar_blocks_concatenate_to_the_pinned_stream(seed, counter, n):
    for size in (16384, 1000, 97):
        parts = []
        for lo in range(counter, counter + n, size):
            m = min(size, counter + n - lo)
            g, u = np.empty((4, m)), np.empty((4, m))
            _haar_block(seed, lo, g, u)
            parts.append(g.T)
        q = np.ascontiguousarray(np.concatenate(parts))
        assert hashlib.sha256(q.tobytes()).hexdigest() == HAAR_STREAM_SHA256[seed, counter, n], size


@pytest.mark.parametrize("t", [1, 2])
def test_mc_block_sums_the_monomials(t):
    m = 999
    Y = _monomials(HaarSampler(21, counter=4).quaternions(m).T, t)
    gram = twirl._mc_block(21, 4, m, t, np.empty(twirl._mc_rows(t) * m))
    assert np.allclose(gram, Y @ Y.T, rtol=1e-13, atol=0)


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_of_a_constant_stream_has_zero_standard_errors(monkeypatch, t):
    # every sample one unitary: each mean column is that sample's unit column,
    # whose squared norm rounds to either side of 1; no error may be NaN
    workers(monkeypatch, 1)
    for q in np.random.default_rng(t).normal(size=(40, 4)):
        q = q / np.linalg.norm(q)

        def constant(seed, counter, g, u, q=q):
            g[:] = q[:, None]

        monkeypatch.setattr(twirl, "_haar_block", constant)
        rep = mc_oracle_check(HaarSampler(0), t, 64)
        assert np.all(rep.std_errors <= np.sqrt(1e-12 / 64))
        # and the 5-sigma gate refuses it, with no warning for the zero errors
        assert rep.max_ratio > rep.nsigma and not rep.ok
    # over a zero standard error, a zero deviation is 0 errors, any other inf
    zero = np.zeros(3)
    assert rep._replace(deviations=zero, std_errors=zero).max_ratio == 0.0
    assert rep._replace(deviations=zero, std_errors=zero).ok
    tiny = np.array([0.0, 1e-17, 0.0])
    assert rep._replace(deviations=tiny, std_errors=zero).max_ratio == np.inf
    assert not rep._replace(deviations=tiny, std_errors=zero).ok
    mixed = rep._replace(deviations=np.array([0.0, 1.0, 3.0]), std_errors=np.array([0.0, 1.0, 2.0]))
    assert mixed.max_ratio == 1.5 and mixed.ok


def workers(monkeypatch, k):
    """Make mc_oracle_check see k usable CPUs."""
    monkeypatch.setattr(twirl.os, "sched_getaffinity", lambda pid: set(range(k)))


@pytest.mark.parametrize("t", [1, 2])
def test_mc_oracle_check_is_bit_identical_on_any_number_of_workers(monkeypatch, t):
    monkeypatch.setattr(twirl, "CHUNK", 1000)
    reports = []
    for k in (1, 2, 3):
        workers(monkeypatch, k)
        reports.append(mc_oracle_check(HaarSampler(11, counter=5), t, 20003))
    for rep in reports[1:]:
        assert rep.deviations.tobytes() == reports[0].deviations.tobytes()
        assert rep.std_errors.tobytes() == reports[0].std_errors.tobytes()


def test_mc_oracle_check_blocks_never_share_a_work_array(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # can: two blocks in one work array would corrupt each other's Gram sums
    monkeypatch.setattr(twirl, "CHUNK", 7)
    workers(monkeypatch, 1)
    serial = mc_oracle_check(HaarSampler(12), 2, 3001)
    workers(monkeypatch, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = mc_oracle_check(HaarSampler(12), 2, 3001)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.deviations.tobytes() == serial.deviations.tobytes()
    assert threaded.std_errors.tobytes() == serial.std_errors.tobytes()


def blockwise_report(seed, t, n, chunk):
    """mc_oracle_check's deviations and standard errors with a fresh work
    array for every block, the blocks' Gram matrices summed in block order."""
    gram = 0
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        gram = gram + twirl._mc_block(seed, lo, m, t, np.empty(twirl._mc_rows(t) * m))
    L = twirl._entry_map(t)
    phi = (L.conj() @ gram @ L.T / n).ravel()[twirl._moment_index(t)]
    deviations = np.linalg.norm(phi - superop_of_twirl("haar", t), axis=0)
    std_errors = np.sqrt(np.maximum(1.0 - (np.abs(phi) ** 2).sum(axis=0), 0.0) / n)
    return deviations.tobytes(), std_errors.tobytes()


def report_bytes(rep):
    return rep.deviations.tobytes(), rep.std_errors.tobytes()


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("n", [2, 8193, 70000])
def test_mc_oracle_check_on_kept_work_arrays_matches_fresh_ones(monkeypatch, t, n):
    # each call runs on the arrays the calls before it left, of whatever size,
    # here filled with NaN first: a block that read an entry it did not write
    # would show in the bits
    expected = blockwise_report(2**64 - 1, t, n, twirl.CHUNK)
    for k in (1, 2, 3, 2, 1):
        workers(monkeypatch, k)
        for a in vars(twirl._KEPT).get("arrays", []):
            a.fill(np.nan)
        assert report_bytes(mc_oracle_check(HaarSampler(2**64 - 1), t, n)) == expected


def test_a_second_call_on_a_thread_makes_no_work_array(monkeypatch):
    # 65,536 samples on 2 workers at t = 2: two 1.2 MB work arrays, made by
    # the first call only
    import tracemalloc

    monkeypatch.setattr(twirl, "_KEPT", threading.local())
    workers(monkeypatch, 2)
    peaks = []
    for seed in (1, 2):
        tracemalloc.start()
        try:
            mc_oracle_check(HaarSampler(seed), 2, 65536)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] >= 1_000_000 and peaks[1] < 100_000, peaks


def test_threads_calling_at_once_each_keep_their_own_work_arrays(monkeypatch):
    # two callers, each with a helper, switching as often as the interpreter
    # can: shared work arrays would corrupt each other's Gram sums
    monkeypatch.setattr(twirl, "CHUNK", 7)
    workers(monkeypatch, 2)
    seeds = (13, 14)
    serial = {s: report_bytes(mc_oracle_check(HaarSampler(s), 2, 3001)) for s in seeds}
    reports = {s: [] for s in seeds}

    def caller(s):
        for _ in range(2):  # the second call on the arrays the first kept
            reports[s].append(report_bytes(mc_oracle_check(HaarSampler(s), 2, 3001)))

    threads = [threading.Thread(target=caller, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == {s: [serial[s]] * 2 for s in seeds}


def test_a_nested_call_gets_its_own_work_arrays(monkeypatch):
    # a call made from inside a block on the calling thread, as a signal
    # handler could, while the outer call's helper is still at work
    monkeypatch.setattr(twirl, "CHUNK", 1000)
    workers(monkeypatch, 2)
    outer_serial = report_bytes(mc_oracle_check(HaarSampler(15), 2, 20000))
    inner_serial = report_bytes(mc_oracle_check(HaarSampler(16), 1, 5000))
    block, main = twirl._mc_block, threading.current_thread()
    used, inner = {15: [], 16: []}, []

    def nesting(seed, start, m, t, work):
        used[seed].append(work)
        if seed == 15 and not inner and threading.current_thread() is main:
            inner.append(report_bytes(mc_oracle_check(HaarSampler(16), 1, 5000)))
        return block(seed, start, m, t, work)

    monkeypatch.setattr(twirl, "_mc_block", nesting)
    assert report_bytes(mc_oracle_check(HaarSampler(15), 2, 20000)) == outer_serial
    assert inner == [inner_serial]
    assert not any(np.shares_memory(a, b) for a in used[15] for b in used[16])


def test_a_larger_block_or_more_workers_regrow_the_kept_arrays(monkeypatch):
    # the arrays only grow: to the most workers and the largest block so far
    monkeypatch.setattr(twirl, "_KEPT", threading.local())
    for chunk, k, count in ((100, 1, 1), (5000, 2, 2), (100, 3, 3), (8192, 1, 3)):
        monkeypatch.setattr(twirl, "CHUNK", chunk)
        workers(monkeypatch, k)
        rep = mc_oracle_check(HaarSampler(17), 2, 20000)
        assert report_bytes(rep) == blockwise_report(17, 2, 20000, chunk)
        kept = twirl._KEPT.arrays
        assert len(kept) == count
        assert all(a.size >= twirl._mc_rows(2) * chunk for a in kept)


# mc_oracle_check sums its blocks' Gram matrices in block order from the
# slots of twirl._map_in_threads, which the sum_in_order tests check


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sum_in_order_is_the_left_fold_on_any_number_of_workers(k):
    # terms whose sum depends on their order, each returned after a random
    # sleep so that the threads finish out of order
    values = [1e16, 1.0, -1e16, 1.0, 3.0, -1e16, 0.5, 1e16] * 5
    pauses = np.random.default_rng(k).uniform(0, 2e-3, len(values))
    calls, running, most, busy = [0] * len(values), [0], [0], set()
    scratch = [object() for _ in range(k)]
    lock = threading.Lock()

    def fn(i, s):
        with lock:
            calls[i] += 1
            running[0] += 1
            most[0] = max(most[0], running[0])
            assert s in scratch and id(s) not in busy  # no two calls share a work array
            busy.add(id(s))
        time.sleep(pauses[i])
        with lock:
            running[0] -= 1
            busy.remove(id(s))
        return values[i]

    before = threading.active_count()
    slots = twirl._map_in_threads(fn, range(len(values)), scratch)
    assert threading.active_count() == before
    assert slots == values
    total = sum(slots)
    assert total == sum(values) and type(total) is float
    assert calls == [1] * len(values)
    assert 1 <= most[0] <= k


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sum_in_order_raises_the_earliest_items_error(k):
    # item 12 fails while item 5, which fails too, is still running: the
    # error of item 5 propagates, as it would from the list comprehension
    errors = {5: ValueError("item 5"), 12: KeyError("item 12")}

    def fn(i, s):
        if i == 5:
            time.sleep(0.05)
        if i in errors:
            raise errors[i]
        return float(i)

    before = threading.active_count()
    with pytest.raises(ValueError) as caught:
        twirl._map_in_threads(fn, range(20), [None] * k)
    assert caught.value is errors[5]
    assert threading.active_count() == before


def test_sum_in_order_joins_its_helpers_when_one_cannot_start(monkeypatch):
    start, started = threading.Thread.start, []
    err = RuntimeError("can't start new thread")

    def start_one(thread):
        if started:
            raise err
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_one)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        twirl._map_in_threads(lambda i, s: time.sleep(1e-3) or 1.0, range(50), [None] * 3)
    assert caught.value is err
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


def test_map_in_threads_starts_no_thread_with_one_work_array(monkeypatch):
    def no_thread(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    main, work = threading.current_thread(), object()

    def fn(i, s):
        assert threading.current_thread() is main and s is work
        return 2 * i

    assert twirl._map_in_threads(fn, range(7), [work]) == [0, 2, 4, 6, 8, 10, 12]


def test_map_in_threads_joins_its_helpers_on_an_interrupt():
    # Ctrl-C lands in fn on the calling thread while both helpers are inside
    # an item: the interrupt propagates once they are joined, and the items
    # not yet taken never are
    interrupt, main = KeyboardInterrupt(), threading.current_thread()
    lock, calls, running = threading.Lock(), [], [0]

    def fn(i, s):
        with lock:
            calls.append(i)
            running[0] += 1
        try:
            time.sleep(0.02)
            if threading.current_thread() is main:
                raise interrupt
            return float(i)
        finally:
            with lock:
                running[0] -= 1

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt) as caught:
        twirl._map_in_threads(fn, range(100), [None] * 3)
    assert caught.value is interrupt
    assert threading.active_count() == before and running[0] == 0
    assert len(calls) < 100


@pytest.mark.parametrize("k", [1, 2])
def test_mc_oracle_check_advances_the_counter_by_n(monkeypatch, k):
    workers(monkeypatch, k)
    monkeypatch.setattr(twirl, "CHUNK", 1000)
    h = HaarSampler(3, counter=17)
    mc_oracle_check(h, 2, 2501)
    assert h.counter == 17 + 2501
    # and continues the stream where the check stopped
    assert np.array_equal(h.quaternions(2), HaarSampler(3, counter=17 + 2501).quaternions(2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_an_error_in_one_block_propagates_and_leaves_no_thread(monkeypatch, k):
    workers(monkeypatch, k)
    block, err = twirl._mc_block, RuntimeError("block failed")

    def failing(seed, start, m, t, work):
        if start == 3000:
            raise err
        return block(seed, start, m, t, work)

    monkeypatch.setattr(twirl, "_mc_block", failing)
    monkeypatch.setattr(twirl, "CHUNK", 1000)
    before = threading.active_count()
    h = HaarSampler(1)
    with pytest.raises(RuntimeError) as caught:
        mc_oracle_check(h, 2, 20000)
    assert caught.value is err
    assert threading.active_count() == before
    assert h.counter == 0  # a failed check draws nothing from the sampler


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"n": 2.5}, "n"),
        ({"n": True}, "n"),
        ({"n": "100"}, "n"),
    ],
)
def test_mc_oracle_check_names_the_bad_argument(kwargs, name):
    args = {"n": 100, **kwargs}
    with pytest.raises(ValueError, match=rf"^{name} must be an int"):
        mc_oracle_check(HaarSampler(0), 1, **args)


def test_mc_oracle_check_takes_numpy_integers(monkeypatch):
    monkeypatch.setattr(twirl, "CHUNK", 700)
    a = mc_oracle_check(HaarSampler(4), 2, np.int64(3000))
    b = mc_oracle_check(HaarSampler(4), 2, 3000)
    assert a.deviations.tobytes() == b.deviations.tobytes()


def test_import_loads_no_thread_pool():
    # concurrent.futures costs ~7 ms to import, and a threaded mc does not need
    # it: its helpers are plain threads, all joined when it returns.  The
    # records are NamedTuples, so dataclasses is not imported either
    src = str(pathlib.Path(twirl.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, os, sys, threading, udes.cli\n"
        "loaded = lambda: [m in sys.modules for m in ('concurrent.futures', 'dataclasses')]\n"
        "print(*loaded())\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = udes.cli.main(['mc', '--samples', '20000', '--format', 'json'])\n"
        "print(code, *loaded(), threading.active_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "0", "False", "False", "1"]
