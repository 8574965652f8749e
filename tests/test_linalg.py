import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udes.errors import DimensionMismatch, NotUnitary
from udes.linalg import (
    as_matrix,
    assert_unitary,
    hs_inner,
    hs_norm,
    kron_power,
    mean,
    near_pairs,
    norms,
    rank,
)

rng = np.random.default_rng(20240817)


def random_unitary(d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_as_matrix_accepts_nested_lists():
    A = as_matrix([[1, 2], [3, 4]])
    assert A.dtype == complex
    assert A.shape == (2, 2)


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_wrong_dim():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.eye(3), dim=2)


def test_as_matrix_takes_any_dimension():
    # no size cap: the order-3 superoperators on qubits are 64 x 64
    assert as_matrix(np.eye(64)).shape == (64, 64)


@pytest.mark.parametrize(
    "entry",
    [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 0.0)],
    ids=["nan-re", "inf-im", "-inf"],
)
def test_as_matrix_rejects_non_finite_entries(entry):
    m = np.eye(2, dtype=complex)
    m[1, 0] = entry
    with pytest.raises(DimensionMismatch, match="finite"):
        as_matrix(m)


def test_hs_inner_conjugates_first_argument():
    A = random_unitary()
    B = random_unitary()
    assert hs_inner(A, B) == pytest.approx(np.trace(A.conj().T @ B))


def test_hs_norm_of_identity():
    assert hs_norm(np.eye(2)) == pytest.approx(np.sqrt(2))


@given(st.integers(min_value=1, max_value=4))
def test_kron_power_matches_repeated_kron(t):
    A = np.array([[1.0, 2.0], [0.5, -1.0]])
    expect = np.eye(1)
    for _ in range(t):
        expect = np.kron(expect, A)
    assert np.array_equal(kron_power(A, t), expect)


def test_kron_power_rejects_zero():
    with pytest.raises(ValueError):
        kron_power(np.eye(2), 0)


def test_rank_full():
    assert rank(np.eye(4)) == 4


def test_rank_of_outer_products():
    # a sum of k random rank-1 projectors has rank k almost surely
    for k in (1, 2, 3):
        vs = rng.normal(size=(k, 5)) + 1j * rng.normal(size=(k, 5))
        A = sum(np.outer(v, v.conj()) for v in vs)
        assert rank(A) == k


def test_rank_respects_tolerance():
    A = np.diag([1.0, 1e-14])
    assert rank(A) == 1
    assert rank(A, tol=1e-16) == 2


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
def test_rank_refuses_a_tol_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        rank(np.eye(2), tol=tol)


def test_assert_unitary_passes_and_fails():
    assert_unitary(random_unitary())
    with pytest.raises(NotUnitary):
        assert_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


@pytest.mark.parametrize("big", [1e200, 1e308])
def test_assert_unitary_refuses_entries_whose_defect_overflows(big):
    # U^H U overflows to inf or nan, which no tolerance may let through
    with pytest.raises(NotUnitary):
        assert_unitary(np.diag([big, 1.0]))


@pytest.mark.parametrize("shape, axis", [((7, 3, 3), (1, 2)), ((12, 2, 2), (1, 2)), ((16, 16), 0), ((5, 4, 3), 1)])
def test_norms_and_mean_are_numpys_bitwise(shape, axis):
    # the same expressions as np.linalg.norm and np.mean; a numpy that
    # changes its own would show here
    for scale in (1e-9, 1.0, 1e9):
        A = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        assert norms(A, axis).tobytes() == np.linalg.norm(A, axis=axis).tobytes()
        x = np.abs(A) ** 4
        assert mean(x) == np.mean(x) and type(mean(x)) is type(np.mean(x))


def _plain_near_pairs(overlap, floor):
    i, j = np.nonzero(overlap >= floor)
    later = j > i
    return i[later], j[later]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from(["gram", "random", "view", "below", "above", "nan", "nan floor"]),
)
def test_near_pairs_is_the_plain_scan_of_the_upper_triangle(seed, n, kind):
    g = np.random.default_rng(seed)
    A = g.normal(size=(n, n))
    floor = float(np.quantile(A, g.uniform(0.5, 1.0)))
    if kind == "gram":  # a real Gram matrix with a few rows repeated
        X = g.normal(size=(n, 4))
        X[g.integers(n, size=n // 3)] = X[g.integers(n, size=n // 3)]
        A = X @ X.T / 4
    elif kind == "view":  # the real part of a complex Gram matrix, a strided view
        X = g.normal(size=(n, 4)) + 1j * g.normal(size=(n, 4))
        A = (X.conj() @ X.T).real
    elif kind == "below":
        floor = float(A.max()) + 1.0
    elif kind == "above":
        floor = float(A.min())
    elif kind == "nan":
        A[g.random((n, n)) < 0.3] = np.nan
    elif kind == "nan floor":
        floor = np.nan
    before = A.copy()
    got, want, again = near_pairs(A, floor), _plain_near_pairs(A, floor), near_pairs(A, floor)
    np.testing.assert_array_equal(A, before)
    for a, b, c in zip(got, want, again):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        if a is c:  # one shared array: no caller may write to it
            assert not a.flags.writeable
