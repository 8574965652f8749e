"""The completion path and the structure commands against the code they
replaced, bit for bit.

classify_min_1design, extend_to_2design, superop_of_twirl (through
monomials), verify_design, group_profile's tail after the product table, and
geometry's rotation list were rewritten in fewer numpy calls and
interpreter steps.  The functions below are their earlier bodies, kept here
as references; every comparison is by tobytes(), so a changed last bit or the
sign of a zero fails it.
"""

import argparse
import cmath
import functools
import itertools
import math
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import udes.designs as designs
from udes import cli, groups
from udes.designs import AXIS_CYCLE, classify_min_1design, extend_to_2design, named_design, verify_design
from udes.errors import InternalConsistencyError, NotOrthogonalBasis, NotRotation, NotUnitary
from udes.groups import su2_closure
from udes.linalg import EQ_TOL, norms
from udes.qubit import pauli
from udes.su2 import UNIT_COORDINATES, canonical_sign, hamilton, rotation_quaternion, su2_batch
from udes import moments
from udes.moments import monomials
from udes.twirl import HAAR, UnitarySet, frame_potential, superop_of_twirl


# ---- the earlier bodies -------------------------------------------------------


def ref_monomials(W, t):
    """monomials' slice loop: the degree-d rows that start with W[a] are
    W[a] times the last C(k - a + d - 2, d - 1) rows of degree d - 1."""
    if t == 1:
        return W
    k = len(W)
    Y = np.empty((math.comb(k + t - 1, t), W.shape[1]), W.dtype)
    P = W
    for d in range(2, t + 1):
        row = len(P)
        for a in range(1, k):
            tail = P[len(P) - math.comb(k - a + d - 2, d - 1) :]
            np.multiply(W[a], tail, out=Y[row : row + len(tail)])
            row += len(tail)
        np.multiply(W[0], P, out=Y[: len(P)])
        P = Y[:row]
    return Y


def ref_superop(S, t):
    n = len(S)
    Y = ref_monomials(S.stack.reshape(n, 4).T, t)
    G = np.dot(Y.conj(), Y.T) / n
    return G.ravel()[moments.moment_index(t)]


def ref_verify(S, t, tol=EQ_TOL, method="both"):
    oracle = superop_of_twirl(HAAR, t)
    delta = ref_superop(S, t) - oracle
    max_dev = float(norms(delta, 0).max())
    fp = frame_potential(S, t)
    gap = fp.gap
    if method == "both":
        dist_sq = np.vdot(delta, delta).real
        bound = 1e-12 * 4**t + 2 * fp.haar_value * ((1 + S.unitarity_defect) ** t - 1)
        if abs(gap - dist_sq) > bound:
            raise InternalConsistencyError(
                f"frame gap {gap} and ||Delta||^2 {dist_sq} differ by more than {bound:.3e}"
            )
    verdict = (gap if method == "frame" else max_dev) <= tol
    agree = (max_dev <= tol) == (gap <= tol)
    return designs.DesignReport(t, verdict, gap, max_dev, agree, fp.value, fp.haar_value)


def ref_extend(S, frame):
    G = frame.V @ AXIS_CYCLE @ frame.V.conj().T
    X = S.stack
    GX = np.stack([G, G.conj().T])[:, None] @ X
    return UnitarySet(np.concatenate([X, GX.reshape(-1, *X.shape[1:])]))


def _dot(u, v):
    # sum(map(operator.mul, u, v)) as Python 3.10 and 3.11 evaluate it: a
    # left-to-right fold from the int 0 (3.12 made sum() of floats compensated)
    return functools.reduce(operator.add, map(operator.mul, u, v), 0)


def _special(alpha):
    w = cmath.sqrt(_dot(alpha, alpha)).conjugate()
    return tuple((w * c).real for c in alpha)


def _canonical(q):
    return q if canonical_sign(q) > 0 else tuple(map(operator.neg, q))


def _conjugate(q):
    s, x, y, z = q
    return (s, -x, -y, -z)


def _product(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


_UNITS = tuple(map(tuple, np.eye(4).tolist()))


def ref_classify(S, tol=1e-9):
    """classify_min_1design's body after its overlap scan, with its helpers."""
    X = S.stack.reshape(4, 4)
    a, b = np.nonzero((np.abs(S.gram) > tol) & np.triu(np.ones((4, 4), dtype=bool), 1))
    if a.size:
        a, b = a[0], b[0]
        raise NotOrthogonalBasis(f"elements {a} and {b} have HS inner product {X[a].conj() @ X[b]:.3e}")

    def fail(condition, internal):
        if tol > designs._FRAME_TOL:
            raise NotOrthogonalBasis(
                f"no two elements overlap by more than {tol:g}, "
                f"but they are not a phased Pauli frame: {condition}"
            )
        raise internal

    alpha = (X @ UNIT_COORDINATES).tolist()
    p0 = _canonical(_special(alpha[0]))
    anchor = _conjugate(p0)
    rel = [_canonical(_product(anchor, _special(a))) for a in alpha[1:]]
    if max(abs(r[0]) for r in rel) > designs._FIRST_ORDER_TOL:
        fail("a relative element is not traceless", InternalConsistencyError("relative element is not traceless"))
    ns = []
    for _, x, y, z in rel:
        norm = math.sqrt(x * x + y * y + z * z)
        ns.append((x / norm, y / norm, z / norm))
    a, b, c = ns
    triple = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        + a[1] * (b[2] * c[0] - b[0] * c[2])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    perm = (1, 2, 3) if triple > 0 else (1, 3, 2)
    ab, ac, bc = _dot(a, b), _dot(a, c), _dot(b, c)
    diagonal = (_dot(a, a) - 1.0) ** 2 + (_dot(b, b) - 1.0) ** 2 + (_dot(c, c) - 1.0) ** 2
    if math.sqrt(diagonal + 2.0 * (ab * ab + ac * ac + bc * bc)) > designs._FIRST_ORDER_TOL:
        fail("the relative axes are not orthonormal", NotRotation("matrix is not orthogonal within tolerance"))
    if abs(abs(triple) - 1.0) > designs._FRAME_TOL:
        fail(f"the relative axes span volume {abs(triple)}", NotRotation(f"determinant {abs(triple)} != 1"))
    q = rotation_quaternion(zip(*(ns[k - 1] for k in perm)))
    defect = math.sqrt(2.0) * abs(_dot(q, q) - 1.0)
    if not defect <= designs.EQ_TOL:
        message = f"||U^H U - 1|| = {defect:.3e} > {designs.EQ_TOL:.1e}"
        fail("the lifted rotation is not special unitary", NotUnitary(f"matrix is not unitary: {message}"))
    q = _canonical(q)
    v, qc = _product(p0, q), _conjugate(q)
    sigma = (0, *perm)
    phases, worst = [], 0.0
    for coords, k in zip(alpha, sigma):
        w = _product(_product(v, _UNITS[k]), qc)
        z = _dot(w, coords)
        phase = z if k == 0 else -1j * z
        if abs(abs(phase) - 1.0) > designs._FRAME_TOL:
            fail(
                "an extracted phase is not a unit complex",
                InternalConsistencyError("extracted phase is not a unit complex"),
            )
        phases.append(phase)
        worst = max(worst, math.sqrt(2.0) * math.hypot(*(abs(z * wj - cj) for wj, cj in zip(w, coords))))
    if worst > designs._FIRST_ORDER_TOL:
        fail(
            f"the frame reconstruction misses by {worst:.3e}",
            InternalConsistencyError(f"frame reconstruction misses by {worst:.3e}"),
        )
    V, Vp = np.array([[[s - 1j * z, -y - 1j * x], [y - 1j * x, s + 1j * z]] for s, x, y, z in (v, qc)])
    return designs.OneDesignFrame(V, Vp, tuple(phases), sigma)


# ---- inputs -----------------------------------------------------------------


def haar(g, n):
    """n Haar unitaries: Haar special unitaries times uniform phases."""
    q = g.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return np.exp(2j * np.pi * g.random(n))[:, None, None] * su2_batch(q)


def frame(g):
    """A phased, permuted, two-sided translate of the Pauli basis."""
    V, Vp = haar(g, 2)
    P = np.stack([pauli(m) for m in range(4)])[g.permutation(4)]
    return np.exp(2j * np.pi * g.random(4))[:, None, None] * (V @ P @ Vp)


def near_frame(g, eps):
    """frame(g) with one element rotated by exp(-i eps n.X) about a random axis n."""
    F = frame(g)
    n = g.normal(size=3)
    n /= np.linalg.norm(n)
    k = g.integers(4)
    F[k] = su2_batch(np.array([math.cos(eps), *(math.sin(eps) * n)])) @ F[k]
    return F


def completion(g):
    return extend_to_2design(UnitarySet(frame(g)))


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:  # compared as a value below
        return type(exc), str(exc)


seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: log-uniform distances from a frame, 1e-12 to 1e-3
epsilons = st.floats(min_value=-12.0, max_value=-3.0).map(lambda e: 10.0**e)


# ---- monomials and superop_of_twirl ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=5))
def test_monomials_form_the_products_of_the_slice_loop(seed, m, t):
    g = np.random.default_rng(seed)
    W = g.normal(size=(4, m)) + 1j * g.normal(size=(4, m))
    assert bits(monomials(W, t)) == bits(ref_monomials(W, t))
    out = np.empty((math.comb(t + 3, t), m), complex)
    if t > 1:  # the Monte Carlo blocks' layout, with `out`, keeps the loop
        assert monomials(W, t, out=out) is out and bits(out) == bits(ref_monomials(W, t))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=5))
def test_superop_of_twirl_keeps_its_bits_on_haar_sets(seed, n, t):
    S = UnitarySet(haar(np.random.default_rng(seed), n))
    assert bits(superop_of_twirl(S, t)) == bits(ref_superop(S, t))


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_superop_of_twirl_keeps_its_bits_on_completions(seed):
    S = completion(np.random.default_rng(seed))
    for t in range(1, 6):
        assert bits(superop_of_twirl(S, t)) == bits(ref_superop(S, t))


@pytest.mark.parametrize("name", ["B", "B0", "D", "D0", "D1", "D2"])
def test_superop_of_twirl_keeps_its_bits_on_the_builtins(name):
    S = named_design(name).set
    for t in range(1, 6):
        assert bits(superop_of_twirl(S, t)) == bits(ref_superop(S, t))


# ---- verify_design ----------------------------------------------------------


def same_report(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(a[0], type):  # both raised
        return a == b
    return all(bits(x) == bits(y) and type(x) is type(y) for x, y in zip(a, b))


def check_verify(S):
    for t in (1, 2):
        for method in ("twirl", "frame", "both"):
            want = outcome(ref_verify, S, t, method=method)
            got = outcome(verify_design, S, t, method=method)
            assert type(got) is type(want) and same_report(got, want), (t, method)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=60))
def test_verify_design_keeps_its_bits_on_haar_sets(seed, n):
    check_verify(UnitarySet(haar(np.random.default_rng(seed), n)))


@settings(max_examples=40, deadline=None)
@given(seeds, epsilons)
def test_verify_design_keeps_its_bits_near_a_completion(seed, eps):
    g = np.random.default_rng(seed)
    S = completion(g)
    check_verify(S)
    X = S.stack.copy()
    k = g.integers(12)
    X[k] = su2_batch(np.array([math.cos(eps), math.sin(eps), 0.0, 0.0])) @ X[k]
    check_verify(UnitarySet(X))


@pytest.mark.parametrize("name", ["B", "B0", "D", "D0", "D1", "D2"])
def test_verify_design_keeps_its_bits_on_the_builtins(name):
    check_verify(named_design(name).set)


# ---- classify_min_1design and extend_to_2design ------------------------------


def same_frame(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(a[0], type):
        return a == b
    return (
        bits(a.V) == bits(b.V)
        and bits(a.Vp) == bits(b.Vp)
        and bits(np.array(a.phases)) == bits(np.array(b.phases))
        and a.permutation == b.permutation
        and all(type(x) is complex for x in a.phases)
    )


def check_completion(elems, tol):
    want = outcome(ref_classify, UnitarySet(elems), tol)
    S = UnitarySet(elems)
    got = outcome(classify_min_1design, S, tol)
    assert type(got) is type(want) and same_frame(got, want)
    if isinstance(got, designs.OneDesignFrame):
        assert bits(extend_to_2design(S, got).stack) == bits(ref_extend(S, want).stack)
        if tol == 1e-9:  # the default, which extend_to_2design classifies at
            assert bits(extend_to_2design(UnitarySet(elems)).stack) == bits(ref_extend(S, want).stack)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_classify_and_extend_keep_their_bits_on_frames(seed):
    check_completion(frame(np.random.default_rng(seed)), 1e-9)


@settings(max_examples=150, deadline=None)
@given(seeds, epsilons, st.sampled_from([1e-10, 1e-9, 1e-8, 1e-6, 1e-2]))
def test_classify_and_extend_keep_their_bits_on_near_frames(seed, eps, tol):
    # small eps and a tol above the overlap classify; the rest raise, and
    # must raise the same error with the same message
    check_completion(near_frame(np.random.default_rng(seed), eps), tol)


def lattice_frames():
    """Frames with exact entries 0, +-1/2 and +-1, where zeros and their signs abound."""
    D = named_design("D").set.stack
    D0 = named_design("D0").set.stack
    for name in ("B", "B0"):
        yield named_design(name).set.stack
    for S in (D, D0):
        for k in (4, 8):
            yield S[k : k + 4]
            yield S[k : k + 4][::-1]
            yield -S[k : k + 4]
            yield 1j * S[k : k + 4]


@pytest.mark.parametrize("elems", list(lattice_frames()))
def test_classify_and_extend_keep_their_bits_on_the_lattice(elems):
    check_completion(np.array(elems), 1e-9)


# ---- group and geometry -------------------------------------------------------
#
# group_profile built its table's four sign blocks in one broadcast XOR and
# read its identity, inverses, normal subgroups and cosets from n x n array
# comparisons, and cmd_geometry built each rotation vector from an AxisAngle.
# ref_lookup, the search over all 2m signed rows of a closure, pins the rows
# any other search (say, over the m representatives) must pick.


def ref_lookup(P, Q, tol):
    flat = P.reshape(-1, 4)
    out = np.empty(len(flat), dtype=int)
    step = max(1, 2**15 // len(Q))
    for lo in range(0, len(flat), step):
        out[lo : lo + step] = np.argmax(flat[lo : lo + step] @ Q.T, axis=1)
    out[groups._hs_distance(flat - Q[out]) > tol] = -1
    return out.reshape(P.shape[:-1])


def ref_profile(C, tol):
    Q = C.points()
    n = len(C)
    R = Q[0::2]
    m = len(R)
    right = (R @ groups._RIGHT).reshape(m, 4, 4)
    T = (R @ right.transpose(1, 0, 2).reshape(4, 4 * m)).reshape(m, m, 4)
    rep = ref_lookup(T, Q, tol)
    prod = (rep[:, None, :, None] ^ np.array([[0, 1], [1, 0]])[:, None, :]).reshape(2 * m, 2 * m)
    prod[prod < 0] = -1
    commutes = (groups._hs_distance(T - T.swapaxes(0, 1)) <= tol).all(axis=1)
    is_group = bool((prod >= 0).all())
    # the one change of verdict: a table with no identity row, or a row that
    # misses it, is no group (argmax of an all-False row read row 0)
    identity = (prod == np.arange(n)).all(axis=1)
    is_group = is_group and bool(identity.any()) and bool((prod == np.argmax(identity)).any(axis=1).all())
    histogram = dict(Counter(groups._orders(Q, tol).tolist()))
    center = 2 * int(np.count_nonzero(commutes))
    cosets, semidirect = None, False
    if is_group:
        e = int(np.argmax((prod == np.arange(n)).all(axis=1)))
        inverse = np.argmax(prod == e, axis=1)
        units = dict(zip(groups._CANDIDATE_SUBGROUPS[0], ref_lookup(groups._UNITS, Q, tol)))
        for names in groups._CANDIDATE_SUBGROUPS:
            idx = np.array([units[nm] for nm in names])
            if (idx < 0).any() or len(idx) >= n:
                continue
            member = np.zeros(n, dtype=bool)
            member[idx] = True
            if member[prod[prod[:, idx], inverse[:, None]]].all():
                left = prod[:, idx]
                starts = np.flatnonzero(left.min(axis=1) == np.arange(n))
                cosets = tuple(tuple(sorted(left[r].tolist())) for r in starts)
                semidirect = groups._has_cyclic_complement(prod.tolist(), set(idx.tolist()), e)
                break
    return groups.GroupProfile(is_group, histogram, center, cosets, semidirect)


def ref_rotations(C):
    return [
        {"axis": list(aa.axis), "angle": aa.angle, "vector": aa.vector().tolist()}
        for aa in groups.so3_image_table(C)
    ]


def conjugated(g, elems):
    """e^{i phi} V S V^H per element, V Haar: a conjugate of S's closure."""
    V = haar(g, 1)[0]
    return np.exp(2j * np.pi * g.random(len(elems)))[:, None, None] * (V @ elems @ V.conj().T)


def structure_set(kind, g):
    """The sets that `udes group` and `udes geometry` see in the benchmark's
    structure workload: a two-sided translate of the Paulis, phased
    conjugates of the Paulis and of D, and the 24-element union of such a D
    with a Haar left translate of it."""
    if kind == "frame":
        return frame(g)
    if kind == "pauli":
        return conjugated(g, np.stack([pauli(k) for k in range(4)]))
    D = conjugated(g, named_design("D").set.stack)
    return D if kind == "design" else np.concatenate([D, haar(g, 1)[0] @ D])


#: 1e-10 and 1e-6 are the CLI's tolerances; at 0.5 and 3 whole rows of the
#: table tie, and at 3, past the largest distance 2 sqrt(2), nothing is dropped
structure_tols = [1e-10, 1e-6, 0.5, 3.0]


def same_profile(a, b) -> bool:
    return a == b and [type(x) for x in a] == [type(x) for x in b]


def check_structure(S):
    C = su2_closure(S)
    Q = C.points()
    R = Q[0::2]
    grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=4)))
    points = [hamilton(R[:, None, :], R[None, :, :]), groups._UNITS, grid, grid / 2]
    for tol in structure_tols:
        for P in points:
            assert bits(groups._lookup(P, Q, tol)) == bits(ref_lookup(P, Q, tol)), tol
        assert same_profile(groups.group_profile(C, tol), ref_profile(C, tol)), tol
        # repr tells -0.0 from 0.0 and round-trips every float
        got = outcome(lambda: cli.cmd_geometry(S, argparse.Namespace(tol=tol))[0]["result"]["rotations"])
        want = outcome(lambda: ref_rotations(su2_closure(S, tol)))
        assert repr(got) == repr(want), tol


@settings(max_examples=25, deadline=None)
@given(seeds, st.sampled_from(["frame", "pauli", "design", "union"]))
def test_group_and_geometry_keep_their_bits_on_structure_sets(seed, kind):
    check_structure(UnitarySet(structure_set(kind, np.random.default_rng(seed))))


@pytest.mark.parametrize("name", ["B", "B0", "D", "D0", "D1", "D2"])
def test_group_and_geometry_keep_their_bits_on_the_builtins(name):
    check_structure(named_design(name).set)
