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
from udes.linalg import hs_dist, hs_norm
from udes.qubit import pauli
from udes.su2 import (
    SHIFT_LEFT,
    SHIFT_RIGHT,
    AxisAngle,
    EulerAngles,
    Quaternion,
    axis_angle_batch,
    axis_angle_of,
    canonical_signs,
    canonical_su2,
    hamilton,
    normalize_batch,
    normalize_to_su2,
    quaternion_batch,
    quaternion_of,
    rodrigues,
    shift_euler_solutions,
    so3_rep,
    su2_batch,
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
    assert hs_dist(W, su2_from_axis_angle(axis, 2 * math.pi / 3)) < 1e-15


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
    assert hs_dist(su2_from_euler(sols[0]), W) < 1e-15
    assert np.allclose(so3_rep(W), SHIFT_RIGHT, atol=1e-15)
    # the second is its negative, which covers the same rotation
    assert hs_dist(su2_from_euler(sols[1]), -W) < 1e-15


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


def test_su2_of_quaternion_rejects_non_unit():
    with pytest.raises(NonUnitQuaternion):
        su2_of_quaternion(Quaternion(1.0, 1.0, 0.0, 0.0))


@given(quaternions, quaternions)
@settings(max_examples=60, deadline=None)
def test_quaternion_distance_is_scaled_hs_distance(qa, qb):
    U, V = su2_of(qa), su2_of(qb)
    d_q = np.linalg.norm(quaternion_of(U).as_array() - quaternion_of(V).as_array())
    assert hs_dist(U, V) == pytest.approx(math.sqrt(2) * d_q, abs=1e-12)


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
    assert hs_dist(plus, U) < 1e-7 or hs_dist(minus, U) < 1e-7
    assert np.allclose(plus, -minus)
    assert np.allclose(so3_rep(plus), so3_rep(U), atol=1e-7)


def test_su2_from_rotation_rejects_non_rotation():
    with pytest.raises(NotRotation):
        su2_from_rotation(np.diag([1.0, 1.0, -1.0]))  # determinant -1


def test_su2_from_rotation_handles_pi_rotations():
    # trace -1 exercises the off-diagonal extraction branches
    for k in range(3):
        R = np.diag([-1.0, -1.0, -1.0])
        R[k, k] = 1.0
        plus, _ = su2_from_rotation(R)
        assert np.allclose(so3_rep(plus), R, atol=1e-12)


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
    # the same signs on a (3, 5) reshaping of the rows
    assert np.array_equal(canonical_signs(Q.reshape(3, 5, 4)), signs.reshape(3, 5))


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
