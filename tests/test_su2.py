import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.errors import (
    NonUnitAxis,
    NonUnitQuaternion,
    NotRotation,
    NotSpecialUnitary,
)
from udes.linalg import hs_norm
from udes.qubit import pauli
from udes.twirl import HaarSampler
from udes.su2 import (
    SHIFT_LEFT,
    SHIFT_RIGHT,
    AxisAngle,
    EulerAngles,
    Quaternion,
    assert_rotation,
    axis_angle_batch,
    axis_angle_of,
    canonical_quaternion,
    canonical_sign,
    canonical_signs,
    canonical_su2,
    hamilton,
    hamilton_product,
    normalize_batch,
    normalize_to_su2,
    quaternion_batch,
    quaternion_conjugate,
    quaternion_of,
    rodrigues,
    rotation_batch,
    rotation_quaternion,
    shift_euler_solutions,
    so3_rep,
    su2_batch,
    su2_entries,
    su2_from_axis_angle,
    su2_from_euler,
    su2_from_rotation,
    su2_of_quaternion,
)

W = su2_from_euler(0.0, math.pi / 2, math.pi / 2)


def unit_quaternion(a, b, c, d):
    v = np.array([a, b, c, d])
    n = np.linalg.norm(v)
    return v / n


quaternions = st.tuples(
    *(st.floats(min_value=-1, max_value=1) for _ in range(4))
).filter(lambda q: np.linalg.norm(q) > 1e-2)


def su2_of(qtuple):
    return su2_of_quaternion(Quaternion(*unit_quaternion(*qtuple)))


# ---- constructors ----------------------------------------------------------


def test_euler_constructor_agrees_with_axis_angle_on_shift_generator():
    axis = (1 / math.sqrt(3),) * 3
    assert hs_norm(W - su2_from_axis_angle(axis, 2 * math.pi / 3)) < 1e-15


def test_shift_generator_is_exact_dyadic():
    expect = 0.5 * np.array([[1 - 1j, -1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.allclose(W, expect, atol=1e-15)


def test_euler_accepts_namedtuple_argument():
    angles = EulerAngles(0.3, 0.7, 1.1)
    assert np.array_equal(su2_from_euler(angles), su2_from_euler(0.3, 0.7, 1.1))


def test_axis_angle_accepts_namedtuple_argument():
    aa = AxisAngle((0.0, 0.0, 1.0), 0.25)
    assert np.array_equal(su2_from_axis_angle(aa), su2_from_axis_angle((0, 0, 1), 0.25))


@pytest.mark.parametrize(
    "alpha,beta,gamma",
    [(-0.1, 1.0, 1.0), (0.1, -0.2, 1.0), (0.1, 3.5, 1.0), (0.1, 1.0, 13.0)],
)
def test_euler_range_validation(alpha, beta, gamma):
    with pytest.raises(ValueError):
        su2_from_euler(alpha, beta, gamma)


def test_axis_must_be_unit():
    with pytest.raises(NonUnitAxis):
        su2_from_axis_angle((1.0, 1.0, 0.0), 0.5)


@pytest.mark.parametrize("f", [su2_from_axis_angle, rodrigues])
def test_axis_angle_refuses_nan_and_infinite_input(f):
    with pytest.raises(NonUnitAxis, match="norm nan"):
        f((math.nan, 0.0, 0.0), 0.5)
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^angle={angle} is not finite$"):
            f((0.0, 0.0, 1.0), angle)
        with pytest.raises(ValueError, match="not finite"):
            f(AxisAngle((0.0, 0.0, 1.0), angle))


def test_all_four_euler_solutions_have_the_shift_pattern():
    # the solutions produce a *phased* shift: the covering rotation carries
    # the cyclic zero pattern, with unit entries of possibly mixed sign
    sols = shift_euler_solutions()
    assert len(sols) == 4
    assert len(set(sols)) == 4
    for angles in sols:
        R = so3_rep(su2_from_euler(angles))
        assert np.allclose(np.abs(R), SHIFT_RIGHT, atol=1e-14)
    # the first solution is the exact shift generator, not merely phased
    assert hs_norm(su2_from_euler(sols[0]) - W) < 1e-15
    assert np.allclose(so3_rep(W), SHIFT_RIGHT, atol=1e-15)
    # the second is its negative, which covers the same rotation
    assert hs_norm(su2_from_euler(sols[1]) + W) < 1e-15


# ---- covering map ----------------------------------------------------------


def test_so3_rep_of_shift_generator_is_exact():
    # entry-exact for the dyadic-rational form of the generator
    Wd = 0.5 * np.array([[1 - 1j, -1 - 1j], [1 - 1j, 1 + 1j]])
    assert np.array_equal(so3_rep(Wd), SHIFT_RIGHT)
    assert np.array_equal(so3_rep(Wd.conj().T), SHIFT_LEFT)
    # the trig-built form lands within a few ulps
    assert np.allclose(so3_rep(W), SHIFT_RIGHT, atol=1e-15)


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_so3_rep_is_a_homomorphism(qa, qb):
    U, V = su2_of(qa), su2_of(qb)
    assert np.allclose(so3_rep(U @ V), so3_rep(U) @ so3_rep(V), atol=1e-12)


@given(quaternions, st.floats(min_value=0, max_value=2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_so3_rep_is_phase_blind(q, phi):
    U = su2_of(q)
    assert np.allclose(so3_rep(np.exp(1j * phi) * U), so3_rep(U), atol=1e-12)


@given(quaternions)
@settings(max_examples=60, deadline=None)
def test_so3_rep_lands_in_rotations(q):
    R = so3_rep(su2_of(q))
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_rodrigues_matches_covering_map():
    g = np.random.default_rng(7)
    for _ in range(50):
        v = g.normal(size=3)
        axis = tuple(v / np.linalg.norm(v))
        angle = g.uniform(0, 2 * math.pi)
        R1 = rodrigues(axis, angle)
        R2 = so3_rep(su2_from_axis_angle(axis, angle))
        assert hs_norm(R1 - R2) < 1e-12


# ---- quaternions -----------------------------------------------------------


@given(quaternions)
@settings(max_examples=60, deadline=None)
def test_quaternion_round_trip(q):
    qn = unit_quaternion(*q)
    U = su2_of_quaternion(Quaternion(*qn))
    back = quaternion_of(U)
    assert np.allclose(back.as_array(), qn, atol=1e-12)


def test_quaternion_of_rejects_general_unitary():
    with pytest.raises(NotSpecialUnitary):
        quaternion_of(1j * np.eye(2))
    with pytest.raises(NotSpecialUnitary):
        quaternion_of(1j * np.eye(2), tol=math.nan)


def test_su2_of_quaternion_rejects_non_unit():
    with pytest.raises(NonUnitQuaternion):
        su2_of_quaternion(Quaternion(1.0, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("q,tol", [([math.nan, 0.0, 0.0, 0.0], 1e-10), ([1.0, 0.0, 0.0, 0.0], math.nan)])
def test_su2_of_quaternion_refuses_nan(q, tol):
    with pytest.raises(NonUnitQuaternion):
        su2_of_quaternion(q, tol)


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_quaternion_distance_is_scaled_hs_distance(qa, qb):
    U, V = su2_of(qa), su2_of(qb)
    d_q = np.linalg.norm(quaternion_of(U).as_array() - quaternion_of(V).as_array())
    assert hs_norm(U - V) == pytest.approx(math.sqrt(2) * d_q, abs=1e-12)


def test_quaternion_conjugate_is_adjoint():
    q = quaternion_of(W)
    assert np.allclose(
        su2_of_quaternion(q.conjugate()), W.conj().T, atol=1e-15
    )


# ---- canonical representatives and rotation lifting ------------------------


@given(quaternions)
@settings(max_examples=60, deadline=None)
def test_canonical_su2_fixes_antipodal_choice(q):
    U = su2_of(q)
    C1 = canonical_su2(U)
    C2 = canonical_su2(-U)
    assert np.array_equal(C1, C2)
    s = quaternion_of(C1).as_array()
    first = s[np.flatnonzero(np.abs(s) > 1e-9)[0]]
    assert first > 0


@given(quaternions)
@settings(max_examples=80, deadline=None)
def test_su2_from_rotation_inverts_covering_map(q):
    U = canonical_su2(su2_of(q))
    plus, minus = su2_from_rotation(so3_rep(U))
    assert hs_norm(plus - U) < 1e-7 or hs_norm(minus - U) < 1e-7
    assert np.allclose(plus, -minus)
    assert np.allclose(so3_rep(plus), so3_rep(U), atol=1e-7)


def test_su2_from_rotation_rejects_non_rotation():
    with pytest.raises(NotRotation):
        su2_from_rotation(np.diag([1.0, 1.0, -1.0]))  # determinant -1


@pytest.mark.parametrize("R", [np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.nan])])
def test_assert_rotation_refuses_nan(R):
    # NaN fails every comparison, so a test written as > tol would let it through
    with pytest.raises(NotRotation):
        assert_rotation(R)
    with pytest.raises(NotRotation):
        su2_from_rotation(R)


def test_su2_from_rotation_handles_pi_rotations():
    # trace -1 exercises the off-diagonal extraction branches
    for k in range(3):
        R = np.diag([-1.0, -1.0, -1.0])
        R[k, k] = 1.0
        plus, _ = su2_from_rotation(R)
        assert np.allclose(so3_rep(plus), R, atol=1e-12)


#: rotations that take each pivot of the quaternion extraction: the trace,
#: R00, R11 and R22; the second set has columns whose first nonzero entry is
#: positive, as classify_min_1design's relative axes have
PIVOT_ROTATIONS = {
    "trace": np.eye(3),
    "pi_x": np.diag([1.0, -1.0, -1.0]),
    "pi_y": np.diag([-1.0, 1.0, -1.0]),
    "pi_z": np.diag([-1.0, -1.0, 1.0]),
    "R00": np.array([[1, 2, 2], [2, -2, 1], [2, 1, -2]]) / 3,
    "R11": np.array([[1, 12, 12], [12, 8, -9], [-12, 9, -8]]) / 17,
    "R22": np.array([[1, 12, 12], [-12, -8, 9], [12, -9, 8]]) / 17,
}
#: the pivot each rotation takes, and the quaternion of the canonical special
#: unitary su2_from_rotation returns for it, pinned from before the pivot
#: formula had a map of its own
PIVOT_OUTPUTS = {
    "trace": (0, (1.0, 0.0, 0.0, 0.0)),
    "pi_x": (1, (0.0, 1.0, 0.0, 0.0)),
    "pi_y": (2, (0.0, 0.0, 1.0, 0.0)),
    "pi_z": (3, (0.0, 0.0, 0.0, 1.0)),
    "R00": (1, (0.0, 0.8164965809277261, 0.4082482904638631, 0.4082482904638631)),
    "R11": (2, (0.5144957554275266, 0.5144957554275266, 0.6859943405700354, 0.0)),
    "R22": (3, (0.5144957554275266, -0.5144957554275266, 0.0, -0.6859943405700354)),
}


@pytest.mark.parametrize("name", PIVOT_ROTATIONS)
def test_su2_from_rotation_keeps_its_outputs_on_every_pivot(name):
    R = PIVOT_ROTATIONS[name]
    pivot, q = PIVOT_OUTPUTS[name]
    assert np.argmax([np.trace(R), *np.diag(R)]) == pivot
    plus, minus = su2_from_rotation(R)
    assert tuple(quaternion_of(plus)) == q
    assert np.array_equal(minus, -plus)
    assert np.allclose(so3_rep(plus), R, atol=1e-12)


#: the pivot rotations, more pi-rotations about axes with zero coordinates,
#: which lift to unitaries with zero entries, a rotation about x by pi + 1/2,
#: whose lift is negated (s < 0 under the x pivot), and the axis shifts
SIGNED_ZERO_ROTATIONS = {
    **PIVOT_ROTATIONS,
    "pi_xy": rodrigues(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), math.pi),
    "pi_x-z": rodrigues(np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0), math.pi),
    "x_past_pi": rodrigues((1.0, 0.0, 0.0), math.pi + 0.5),
    "shift_right": SHIFT_RIGHT,
    "shift_left": SHIFT_LEFT,
}


@pytest.mark.parametrize("name", SIGNED_ZERO_ROTATIONS)
def test_su2_from_rotation_is_the_matrix_path_bit_for_bit(name):
    # su2_from_rotation lifts the pivot quaternion once; the matrix path goes
    # through su2_of_quaternion and canonical_su2.  tobytes() also tells the
    # signed zeros apart, which a product with -1.0 would move
    R = SIGNED_ZERO_ROTATIONS[name]
    want = canonical_su2(su2_of_quaternion(rotation_quaternion(R.tolist())))
    plus, minus = su2_from_rotation(R)
    assert plus.tobytes() == want.tobytes()
    assert minus.tobytes() == (-want).tobytes()


def _reference_rotation_quaternion_batch(R) -> np.ndarray:
    """The pivot map as it was written for (..., 3, 3) stacks in numpy; the
    reference for the scalar rotation_quaternion."""
    R = np.asarray(R, dtype=float)
    n = R.ndim - 2
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R.transpose(n, n + 1, *range(n))
    t = r00 + r11 + r22
    sx, sy, sz = r21 - r12, r02 - r20, r10 - r01
    xy, xz, yz = r01 + r10, r02 + r20, r12 + r21
    K = np.array(
        [
            [1.0 + t, sx, sy, sz],
            [sx, 1.0 + r00 - r11 - r22, xy, xz],
            [sy, xy, 1.0 - r00 + r11 - r22, yz],
            [sz, xz, yz, 1.0 - r00 - r11 + r22],
        ]
    ).reshape(4, 4, -1)
    pivot = np.argmax(np.array([t, r00, r11, r22]).reshape(4, -1), axis=0)
    rows = np.arange(pivot.size)
    q = K[pivot, :, rows]  # (N, 4): row `pivot` of 4 q q^T
    r = np.sqrt(q[rows, pivot])
    q /= 2 * r[:, None]
    q[rows, pivot] = 0.5 * r
    s, x, y, z = q.T
    q /= np.sqrt(s * s + x * x + y * y + z * z)[:, None]
    return q.reshape(R.shape[:-2] + (4,))


def test_rotation_quaternion_gives_the_bits_of_the_stacked_reference():
    random = su2_batch(HaarSampler(8).quaternions(40))
    R = np.stack([*PIVOT_ROTATIONS.values(), *(so3_rep(U) for U in random)])
    scalar = np.array([rotation_quaternion(M.tolist()) for M in R])
    assert scalar.tobytes() == _reference_rotation_quaternion_batch(R).tobytes()
    # each covers its rotation, with its pivot coordinate positive
    pivots = np.argmax([np.trace(R, axis1=1, axis2=2), *np.diagonal(R, axis1=1, axis2=2).T], axis=0)
    assert (scalar[np.arange(len(R)), pivots] > 0).all()
    assert np.allclose(np.stack([so3_rep(U) for U in su2_batch(scalar)]), R, atol=1e-12)


@given(quaternions, st.floats(min_value=0, max_value=2 * math.pi))
@settings(max_examples=60, deadline=None)
def test_normalize_to_su2_strips_phase(q, phi):
    U = su2_of(q)
    plus, minus = normalize_to_su2(np.exp(1j * phi) * U)
    assert abs(np.linalg.det(plus) - 1) < 1e-12
    assert np.array_equal(plus, -minus) or np.allclose(plus, -minus)
    # result is proportional to the input
    ip = np.trace(plus.conj().T @ U)
    assert abs(abs(ip) - 2) < 1e-10


def test_axis_angle_of_identity_and_shift():
    aa = axis_angle_of(np.eye(2))
    assert aa.angle == 0.0
    aa_w = axis_angle_of(W)
    assert aa_w.angle == pytest.approx(2 * math.pi / 3)
    assert np.allclose(aa_w.axis, np.ones(3) / math.sqrt(3))
    # antipodal input gives the same rotation data
    assert axis_angle_of(-W) == aa_w


def test_axis_angle_vector_scales_axis():
    aa = AxisAngle((0.0, 1.0, 0.0), 0.5)
    assert np.allclose(aa.vector(), (0.0, 0.5, 0.0))


# ---- stack maps ------------------------------------------------------------

#: U = s 1 - i (x X + y Y + z Z), written out term by term
_UNIT_BASIS = np.stack([pauli(0), *(-1j * pauli(k) for k in (1, 2, 3))])


def _unit_quaternions(rng, shape):
    q = rng.standard_normal(shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_stack_maps_round_trip_on_any_leading_shape(shape):
    q = _unit_quaternions(np.random.default_rng(len(shape)), shape)
    U = su2_batch(q)
    assert U.shape == shape + (2, 2)
    assert np.abs(U - np.einsum("...k,kij->...ij", q, _UNIT_BASIS)).max() <= 1e-15
    assert np.abs(np.linalg.det(U) - 1).max() <= 1e-14
    assert quaternion_batch(U).shape == shape + (4,)
    assert np.abs(quaternion_batch(U) - q).max() <= 1e-15


@pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
def test_rotation_batch_is_the_pauli_trace_map_on_any_leading_shape(shape):
    rng = np.random.default_rng(10 + len(shape))
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, shape))[..., None, None]
    U = phases * su2_batch(_unit_quaternions(rng, shape))
    R = rotation_batch(U)
    assert R.shape == shape + (3, 3)
    # R[i, j] = tr(X_i U X_j U^H) / 2, one trace at a time
    sigma = [pauli(k) for k in (1, 2, 3)]
    for k in np.ndindex(shape):
        V = U[k]
        trace = [[0.5 * np.trace(a @ V @ b @ V.conj().T).real for b in sigma] for a in sigma]
        assert np.abs(R[k] - trace).max() <= 1e-15
    assert np.array_equal(rotation_batch(-U), R)


def test_stack_map_of_a_hamilton_product_is_the_matrix_product():
    rng = np.random.default_rng(3)
    p, q = _unit_quaternions(rng, (6,)), _unit_quaternions(rng, (6,))
    assert np.abs(su2_batch(hamilton(p, q)) - su2_batch(p) @ su2_batch(q)).max() <= 1e-15
    # broadcasting: all 36 products at once
    table = su2_batch(hamilton(p[:, None], q[None, :]))
    assert np.abs(table - su2_batch(p)[:, None] @ su2_batch(q)[None, :]).max() <= 1e-15


def test_canonical_sign_per_row_equals_canonical_su2():
    rng = np.random.default_rng(4)
    # rows whose sign is decided by s, x, y or z, and leading entries below 1e-9
    Q = np.concatenate(
        [
            _unit_quaternions(rng, (8,)),
            [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -0.6, 0.8, 0]],
            [[1e-12, -1, 0, 0], [-1e-12, 0, 1e-10, 1], [2e-9, -1, 0, 0]],
        ]
    )
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    U = su2_batch(Q)
    signs = canonical_signs(quaternion_batch(U))
    assert signs.tolist() == [1.0 if next(v for v in q if abs(v) > 1e-9) > 0 else -1.0 for q in Q]
    for sign, V in zip(signs, U):
        assert np.array_equal(sign * V, canonical_su2(V))
        assert np.array_equal(sign * V, canonical_su2(-V))
    # the same signs on a (3, 5) reshaping of the rows, and one row at a time
    assert np.array_equal(canonical_signs(Q.reshape(3, 5, 4)), signs.reshape(3, 5))
    assert [canonical_sign(q) for q in Q.tolist()] == signs.tolist()


#: quaternion coordinates at the edges of the shared formulas: signed zeros,
#: subnormals and the canonical sign's 1e-9 threshold, among any floats of |x| <= 2
_edge_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-9, -1e-9, 0.5, -1.0]),
    st.floats(min_value=-2.0, max_value=2.0),
)
_edge_quaternions = st.tuples(*[_edge_coordinates] * 4)


@settings(max_examples=400, deadline=None)
@given(_edge_quaternions, _edge_quaternions)
def test_four_coordinate_formulas_agree_with_the_stack_maps_bit_for_bit(p, q):
    # the classifier runs these formulas on Python floats and su2_batch and
    # hamilton on arrays; a float converts to complex before it multiplies
    # a complex in both, so the signs of zeros agree too
    bits = lambda x: np.asarray(x).tobytes()
    assert bits(hamilton_product(p, q)) == bits(hamilton(np.array(p), np.array(q)))
    assert bits([hamilton_product(p, q), hamilton_product(q, p)]) == bits(hamilton(np.array([p, q]), np.array([q, p])))
    assert bits(su2_entries(q)) == bits(su2_batch(q).ravel())
    assert bits(quaternion_conjugate(q)) == bits(np.array(q) * (1.0, -1.0, -1.0, -1.0))
    assert bits(canonical_quaternion(q)) == bits(canonical_signs(q) * np.array(q))


def test_normalize_batch_gives_canonical_det_one_multiples():
    rng = np.random.default_rng(5)
    V = su2_batch(_unit_quaternions(rng, (2, 6)))
    U = np.exp(2j * np.pi * rng.random((2, 6)))[..., None, None] * V
    N = normalize_batch(U)
    assert N.shape == (2, 6, 2, 2)
    assert np.abs(np.linalg.det(N) - 1).max() <= 1e-14
    overlap = np.abs(np.einsum("...ij,...ij->...", N.conj(), U))
    assert np.abs(overlap - 2).max() <= 1e-14
    for n, u in zip(N.reshape(-1, 2, 2), U.reshape(-1, 2, 2)):
        assert np.abs(n - normalize_to_su2(u)[0]).max() <= 1e-15


def test_axis_angle_batch_covers_the_rotation():
    rng = np.random.default_rng(6)
    Q = np.concatenate([_unit_quaternions(rng, (10,)), [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, -1, 0]]])
    axes, angles = axis_angle_batch(Q)
    assert axes.shape == (13, 3) and angles.shape == (13,)
    assert ((angles >= 0) & (angles <= math.pi)).all()
    for n, angle, U in zip(axes, angles, su2_batch(Q)):
        assert np.abs(rodrigues(n, angle) - so3_rep(U)).max() <= 1e-14
    assert axes[10].tolist() == axes[11].tolist() == [0.0, 0.0, 1.0]
    assert angles[10] == angles[11] == 0.0
    assert axes[12].tolist() == [0.0, 1.0, 0.0] and angles[12] == math.pi
