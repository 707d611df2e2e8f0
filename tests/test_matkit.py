"""Unit tests for the 2x2 matrix helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_susy import (
    IDENTITY,
    NotUnitaryError,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    circular_distance,
    conjugate,
    diagonalize_u2,
    euler_angles_of,
    is_unitary,
    pauli_combination,
    pauli_vector,
    su2_from_euler,
)

from helpers import random_unitary_2x2

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
reals = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_pauli_basics():
    assert np.allclose(pauli_combination([1, 0, 0]), SIGMA1)
    assert np.allclose(pauli_combination([0, 1, 0]), SIGMA2)
    assert np.allclose(pauli_combination([0, 0, 1]), SIGMA3)
    v = pauli_vector(0.3 * SIGMA1 - 1.2 * SIGMA3 + 0.25 * IDENTITY)
    assert np.allclose(v, [0.3, 0.0, -1.2])


@given(st.tuples(reals, reals, reals), st.tuples(reals, reals, reals), reals)
def test_pauli_combination_linear(v1, v2, t):
    lhs = pauli_combination(np.add(v1, np.multiply(t, v2)))
    rhs = pauli_combination(v1) + t * pauli_combination(v2)
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(st.tuples(reals, reals, reals))
def test_pauli_round_trip(v):
    assert np.allclose(pauli_vector(pauli_combination(v)), v, atol=1e-12)


def test_is_unitary():
    assert is_unitary(SIGMA2)
    assert is_unitary(np.exp(0.7j) * IDENTITY)
    assert not is_unitary(1.5 * IDENTITY)
    assert not is_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_is_unitary_rejects_nonfinite_entries(where, bad):
    """A NaN or infinite entry is never unitary, wherever it sits: each
    residual of m^dag m - I must itself compare within the tolerance."""
    m = su2_from_euler(0.4, 1.3)
    assert is_unitary(m)
    m[where] = bad
    assert not is_unitary(m)


@pytest.mark.parametrize("shape", [(), (2,), (1, 1), (2, 3), (3, 3), (1, 2, 2), (4, 4)])
def test_is_unitary_needs_2x2(shape):
    m = np.zeros(shape, dtype=complex)
    if len(shape) == 2 and shape[0] == shape[1]:
        m = np.eye(shape[0], dtype=complex)  # unitary, but not 2x2
    assert not is_unitary(m)


def test_conjugate_eigenvalues(rng):
    for _ in range(50):
        w = random_unitary_2x2(rng)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        before = np.sort_complex(np.linalg.eigvals(m))
        after = np.sort_complex(np.linalg.eigvals(conjugate(w, m)))
        assert np.allclose(before, after, atol=1e-10)


def test_circular_distance():
    assert circular_distance(0.1, 0.1) == 0.0
    assert abs(circular_distance(0.0, 2.0 * np.pi) - 0.0) < 1e-12
    assert abs(circular_distance(-0.1, 0.1) - 0.2) < 1e-12
    assert abs(circular_distance(0.0, np.pi) - np.pi) < 1e-12


@given(angles, angles)
@settings(max_examples=60)
def test_su2_from_euler_is_special_unitary(mu, nu):
    v = su2_from_euler(mu, nu)
    assert is_unitary(v)
    assert abs(np.linalg.det(v) - 1.0) < 1e-12


def test_su2_matches_generator_exponential():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    # independent construction: V(mu, nu) = e^{i mu sigma2 / 2} e^{i nu sigma3 / 2}
    for mu, nu in [(0.3, 1.1), (2.0, -0.4), (np.pi / 2, np.pi), (1e-3, 5.0)]:
        want = scipy_linalg.expm(0.5j * mu * SIGMA2) @ scipy_linalg.expm(
            0.5j * nu * SIGMA3
        )
        got = su2_from_euler(mu, nu)
        assert np.allclose(got, want, atol=1e-12), (mu, nu)


def test_euler_round_trip_interior():
    for mu, nu in [(0.5, 0.3), (1.2, 4.0), (2.9, 6.1), (np.pi / 2, 0.0)]:
        m2, n2 = euler_angles_of(su2_from_euler(mu, nu))
        assert abs(m2 - mu) < 1e-10
        assert circular_distance(n2, nu) < 1e-9


def test_euler_edge_branches():
    # mu = 0 and mu = pi have a gauge freedom; the extractor pins nu there
    mu, nu = euler_angles_of(IDENTITY)
    assert mu == 0.0 and nu == 0.0
    mu, nu = euler_angles_of(su2_from_euler(np.pi, 1.3))
    assert abs(mu - np.pi) < 1e-12
    assert circular_distance(nu, 1.3) < 1e-9


def test_euler_gauge_invariance(rng):
    # a left diagonal phase e^{i xi sigma3 / 2} must not move (mu, nu)
    for _ in range(25):
        mu = rng.uniform(0.1, np.pi - 0.1)
        nu = rng.uniform(0.0, 2.0 * np.pi)
        xi = rng.uniform(0.0, 2.0 * np.pi)
        gauge = su2_from_euler(0.0, xi)
        m2, n2 = euler_angles_of(gauge @ su2_from_euler(mu, nu))
        assert abs(m2 - mu) < 1e-9
        assert circular_distance(n2, nu) < 1e-8


def test_diagonalize_u2_reconstructs(rng):
    for _ in range(1000):
        u = random_unitary_2x2(rng)
        v, d = diagonalize_u2(u)
        assert is_unitary(v)
        assert np.allclose(np.diag(np.diag(d)), d, atol=1e-12)
        assert np.linalg.norm(v @ u @ v.conj().T - d) < 1e-10
        assert abs(np.linalg.det(v) - 1.0) < 1e-10


def test_diagonalize_u2_orders_minus_one_last():
    u = np.diag([-1.0, np.exp(0.8j)]).astype(complex)
    v, d = diagonalize_u2(u)
    assert abs(d[1, 1] + 1.0) < 1e-12
    assert abs(d[0, 0] - np.exp(0.8j)) < 1e-12
    # both eigenvalues near -1: no digits lost to cancellation
    w = su2_from_euler(0.7, 1.3)
    near = np.exp(1j * (np.pi - 1e-7))
    v, d = diagonalize_u2(w.conj().T @ np.diag([near, -1.0]) @ w)
    assert abs(d[1, 1] + 1.0) < 1e-15
    assert abs(d[0, 0] - near) < 1e-15
    # one eigenvalue just inside 1e-9 of -1 and one just outside: the inside
    # one is Dirichlet and is swapped last, plain and tilted
    pair = np.diag(-np.exp(1j * np.array([3e-9, 5e-10])))
    for u in (pair, w.conj().T @ pair @ w):
        v, d = diagonalize_u2(u)
        assert abs(d[1, 1] + 1.0) <= 1e-9 < abs(d[0, 0] + 1.0)
        assert np.linalg.norm(v @ u @ v.conj().T - d) < 1e-15


def test_diagonalize_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        diagonalize_u2(np.array([[1.0, 0.2], [0.0, 1.0]]))
