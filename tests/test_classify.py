"""Tests for SUSY degree classification and supercharge construction."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from singular_susy import (
    Geometry,
    GeometryMismatchError,
    NotDiagonalError,
    SIGMA3,
    SuperchargeSpec,
    SystemSpec,
    ThetaPiError,
    WaveFunction,
    admits_susy_at_point,
    annihilates,
    classify_system,
    conjugate,
    diagonalize_u2,
    half_parity_system,
    inverse_robin_length,
    pauli_combination,
    robin_matrix,
    solve_spectrum,
    su2_from_euler,
    theta_for_scale,
)

from helpers import half_parity, point_condition_residual, random_unitary_2x2
from families import (
    crossed_robin_interval,
    matched_robin_interval,
    reflected_crossed_interval,
    robin_line,
    simple_charge_interval,
)


def test_admits_susy_at_point():
    got = admits_susy_at_point(np.diag([np.exp(0.9j), -1.0]).astype(complex))
    assert got is not None
    theta, v = got
    assert abs(theta - 0.9) < 1e-12
    assert admits_susy_at_point(np.eye(2, dtype=complex)) is None  # no -1
    assert admits_susy_at_point(-np.eye(2, dtype=complex)) is None  # theta = pi
    w = random_unitary_2x2(np.random.default_rng(3))
    got = admits_susy_at_point(conjugate(w, np.diag([np.exp(0.9j), -1.0])))
    assert got is not None and abs(got[0] - 0.9) < 1e-9


def test_build_supercharge_validation():
    q = SuperchargeSpec(0.3, 1.5, 0.8, 1.0, 1.0)
    assert abs(q.shift - (np.tan(0.4) ** 2 + 1.5**2)) < 1e-12
    with pytest.raises(ThetaPiError):
        SuperchargeSpec(0.0, 0.0, np.pi, 1.0, 1.0)


def test_charge_vectors_orthonormal():
    q = SuperchargeSpec(0.7, -0.4, 1.1, 2.0, 0.5)
    assert abs(np.dot(q.a_vec, q.a_vec) - 1.0) < 1e-12
    assert abs(np.dot(q.a_vec, q.b_vec)) < 1e-12


@pytest.mark.parametrize("theta", [np.pi / 4, np.pi / 2, 2.5])
def test_matched_robin_is_good_n2(theta):
    spec = matched_robin_interval(theta)
    cls = classify_system(spec)
    assert cls.degree == "N2"
    assert cls.goodness == "Good"
    assert len(cls.charges) == 2
    assert abs(cls.shift - np.tan(theta / 2) ** 2) < 1e-12
    for q in cls.charges:
        assert not q.reflected
        for mat in (spec.U, spec.Dl):
            assert point_condition_residual(mat, q) < 1e-12


def test_matched_robin_ground_annihilated():
    spec = matched_robin_interval(np.pi / 2)
    cls = classify_system(spec)
    kappa = inverse_robin_length(np.pi / 2)
    ground = WaveFunction(
        spec.geometry, "negative", kappa, np.array([[1.0, -1.0], [0.0, 0.0]]), spec.lam
    )
    for q in cls.charges:
        assert annihilates(q, ground)


@pytest.mark.parametrize("L", [-0.3, -0.5, -0.7])
def test_crossed_robin_is_broken_n2(L):
    spec = crossed_robin_interval(L)
    cls = classify_system(spec)
    assert cls.degree == "N2"
    assert cls.goodness == "Broken"
    assert abs(cls.shift - (spec.lam / L) ** 2) < 1e-10
    for q in cls.charges:
        for mat in (spec.U, spec.Dl):
            assert point_condition_residual(mat, q) < 1e-12


def test_reflected_family_uses_half_parity_charges():
    spec = reflected_crossed_interval(-0.5)
    cls = classify_system(spec)
    assert cls.degree == "N2"
    assert cls.goodness == "Broken"
    assert all(q.reflected for q in cls.charges)
    assert any("reflection" in note for note in cls.notes)


def test_simple_charge_branches():
    assert classify_system(simple_charge_interval(0.0)).degree == "N2"
    assert classify_system(simple_charge_interval(np.pi)).degree == "N2"
    for mu in (np.pi / 3, np.pi / 2, 2.0):
        cls = classify_system(simple_charge_interval(mu))
        assert cls.degree == "N1"
        assert len(cls.charges) == 1
        assert cls.goodness == "Broken"
        # both ends are Neumann-type here, so the sigma3 coefficient is zero
        q = cls.charges[0]
        inv0 = inverse_robin_length(0.0)
        invl = inverse_robin_length(0.0)
        assert abs(q.c - q.lam * (invl - inv0 * np.cos(mu)) / np.sin(mu)) < 1e-12


def test_simple_charge_nu_free():
    for nu in (0.0, 1.0, 4.5):
        cls = classify_system(simple_charge_interval(np.pi / 3, nu=nu))
        assert cls.degree == "N1"


def test_n1_needs_matching_lengths():
    # same tilt but incompatible Robin lengths at the two ends: no charge
    v = su2_from_euler(np.pi / 3, 0.0)
    u = v.conj().T @ robin_matrix(1.0) @ v
    spec = SystemSpec(Geometry.interval(1.0), u, robin_matrix(2.0), 1.0, 1.0)
    cls = classify_system(spec)
    assert cls.degree == "N1"  # c absorbs any length mismatch when sin(mu) != 0
    u2 = v.conj().T @ SIGMA3 @ v
    spec2 = SystemSpec(Geometry.interval(1.0), u2, -np.eye(2, dtype=complex), 1.0, 1.0)
    assert classify_system(spec2).degree == "none"  # wall theta = pi excluded


def test_line_families():
    cls = classify_system(robin_line(np.pi / 2))
    assert cls.degree == "N2" and cls.goodness == "Good"
    cls = classify_system(robin_line(4.0))
    assert cls.degree == "N2" and cls.goodness == "NotApplicable"
    none = classify_system(SystemSpec(Geometry.line(), np.eye(2, dtype=complex), None, 1.0, 1.0))
    assert none.degree == "none" and not none.charges


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("conjugated", [False, True])
def test_line_theta_near_pi_is_good(eps, conjugated):
    """As theta -> pi the bound state moves off to kappa = tan(theta/2)/L0;
    the spectrum and the charges read the same eigenphase, so the ground
    sits exactly at the SUSY bound -|b|^2."""
    spec = robin_line(np.pi - eps)
    if conjugated:
        u = conjugate(su2_from_euler(0.7, 1.3), spec.U)
        spec = SystemSpec(Geometry.line(), u, None, spec.lam, spec.L0)
    spectrum = solve_spectrum(spec)
    cls = classify_system(spec, spectrum)
    assert cls.degree == "N2" and cls.goodness == "Good"
    ground = spectrum.ground.energy
    assert abs(cls.shift + ground) <= 1e-9 * abs(ground)


@pytest.mark.parametrize("geometry", [Geometry.line(), Geometry.interval(1.0)])
def test_two_distinct_eigenvalues_at_minus_one(geometry):
    """Eigenphases pi -+ 4e-10: both eigenvalues lie within 1e-9 of -1, so
    both read Dirichlet, yet they are 8e-10 apart, more than the 1e-10 that
    makes U degenerate.  Neither eigenvalue is the simple -1 that a charge
    needs, so the degree is none, and neither binds a state."""
    w = su2_from_euler(0.7, 0.3)
    u = w.conj().T @ np.diag(np.exp(1j * (np.pi + np.array([-4e-10, 4e-10])))) @ w
    _, d = diagonalize_u2(u)
    assert abs(d[0, 0] - d[1, 1]) > 1e-10 and np.all(np.abs(np.diag(d) + 1.0) <= 1e-9)
    dl = -np.eye(2) if geometry.is_interval else None
    spec = SystemSpec(geometry, u, dl, 1.0, 1.0)
    spectrum = solve_spectrum(spec, n_levels=2)
    cls = classify_system(spec, spectrum)
    assert cls.degree == "none" and not cls.charges
    assert all(lv.energy > 0.0 for lv in spectrum.levels)
    if not geometry.is_interval:
        assert not spectrum.levels


def _rotation_angle(k1w, k2w, kprime):
    # Frobenius projections; the K matrices are orthogonal with norm^2 = 2
    c = float(np.real(np.trace(k1w.conj().T @ kprime))) / 2.0
    s = float(np.real(np.trace(k2w.conj().T @ kprime))) / 2.0
    return np.arctan2(s, c)


def test_conjugation_covariance(rng):
    base = np.diag([np.exp(0.9j), -1.0]).astype(complex)
    for _ in range(40):
        w = random_unitary_2x2(rng)
        cls = classify_system(SystemSpec(Geometry.line(), base, None, 1.0, 1.0))
        cls2 = classify_system(
            SystemSpec(Geometry.line(), conjugate(w, base), None, 1.0, 1.0)
        )
        assert cls2.degree == "N2"
        k1w = conjugate(w, cls.charges[0].kinetic_matrix)
        k2w = conjugate(w, cls.charges[1].kinetic_matrix)
        b1w = conjugate(w, cls.charges[0].shift_matrix)
        b2w = conjugate(w, cls.charges[1].shift_matrix)
        xi = _rotation_angle(k1w, k2w, cls2.charges[0].kinetic_matrix)
        c, s = np.cos(xi), np.sin(xi)
        pairs = [
            (cls2.charges[0].kinetic_matrix, c * k1w + s * k2w),
            (cls2.charges[0].shift_matrix, c * b1w + s * b2w),
            (cls2.charges[1].kinetic_matrix, -s * k1w + c * k2w),
            (cls2.charges[1].shift_matrix, -s * b1w + c * b2w),
        ]
        for got, want in pairs:
            assert np.linalg.norm(got - want) < 1e-10


def test_b_vanishes_iff_plus_minus_one(rng):
    # theta = 0 (eigenvalues {+1, -1}) is the only N2 point with b = 0
    for _ in range(20):
        w = random_unitary_2x2(rng)
        cls = classify_system(
            SystemSpec(Geometry.line(), conjugate(w, SIGMA3), None, 1.0, 1.0)
        )
        assert cls.degree == "N2"
        assert all(np.linalg.norm(q.b_vec) < 1e-9 for q in cls.charges)
        cls = classify_system(
            SystemSpec(
                Geometry.line(), conjugate(w, np.diag([np.exp(0.4j), -1.0])), None, 1.0, 1.0
            )
        )
        assert all(np.linalg.norm(q.b_vec) > 1e-3 for q in cls.charges)


def test_half_parity_system_involution():
    spec = crossed_robin_interval(-0.5)
    back = half_parity_system(half_parity_system(spec))
    assert np.allclose(back.U, spec.U, atol=1e-14)
    assert np.allclose(back.Dl, spec.Dl, atol=1e-14)


def test_half_parity_system_swaps_families():
    spec = crossed_robin_interval(-0.5)
    image = half_parity_system(spec)
    want = reflected_crossed_interval(-0.5)
    assert np.allclose(image.U, want.U, atol=1e-14)
    assert np.allclose(image.Dl, want.Dl, atol=1e-14)


def test_half_parity_system_matched_robin_flips_theta():
    # both boundary phases are conjugated and swapped, so the matched family
    # maps to itself with theta -> -theta
    spec = matched_robin_interval(0.8)
    image = half_parity_system(spec)
    assert abs(image.U[0, 0] - np.exp(-0.8j)) < 1e-14
    assert abs(image.Dl[0, 0] - np.exp(-0.8j)) < 1e-14


def test_half_parity_system_requires_diagonal_u():
    v = su2_from_euler(1.0, 0.0)
    spec = SystemSpec(
        Geometry.interval(1.0), v.conj().T @ SIGMA3 @ v, SIGMA3, 1.0, 1.0
    )
    with pytest.raises(NotDiagonalError):
        half_parity_system(spec)
    with pytest.raises(GeometryMismatchError):
        half_parity_system(robin_line(1.0))


def test_charge_apply_known_image():
    # q = -i lam d/dx sigma_a + sigma_b on (0, x e^{-x}) with U = sigma3:
    # the image is (i lam (x - 1) e^{-x}, 0) / sqrt(2)
    cls = classify_system(SystemSpec(Geometry.line(), SIGMA3.astype(complex), None, 1.0, 1.0))
    wf = WaveFunction(
        Geometry.line(), "negative", 1.0, np.array([[0.0, 0.0], [0.0, 1.0]]), 1.0
    )
    img = cls.charges[0].apply(wf)
    want = np.array([[-1j, 1j], [0.0, 0.0]]) / np.sqrt(2.0)
    assert np.linalg.norm(img.coeffs - want) < 1e-12


def _charge_matrices_reference(q):
    v_dag = q.conjugator.conj().T
    return conjugate(v_dag, pauli_combination(q.a_vec)), conjugate(v_dag, pauli_combination(q.b_vec))


def test_charge_matrices_are_derived_from_the_fields():
    """kinetic_matrix, shift_matrix and shift are computed once per charge
    and read-only; dataclasses.replace, pickle and deepcopy rebuild them
    from the fields instead of copying them."""
    specs = [
        matched_robin_interval(2.0, l=1.3, L0=0.7),
        simple_charge_interval(0.9, nu=0.4, L0=1.9),
        reflected_crossed_interval(-1.4, lam=1.7, L0=0.3),
        robin_line(0.6, L0=3.1),
    ]
    charges = [q for spec in specs for q in classify_system(spec).charges]
    # computed once: a second read is the cached array, which replace must not carry over
    assert all(
        q.kinetic_matrix is q.kinetic_matrix and q.shift_matrix is q.shift_matrix for q in charges
    )
    tilted = [replace(q, conjugator=su2_from_euler(0.7, 1.9)) for q in charges]
    assert all(
        not np.allclose(t.kinetic_matrix, q.kinetic_matrix) for t, q in zip(tilted, charges)
    )
    charges += tilted + [replace(q, alpha=q.alpha + 0.4, c=0.3) for q in charges]
    for q in charges:
        for other in (q, pickle.loads(pickle.dumps(q)), copy.deepcopy(q)):
            assert other.conjugator.tobytes() == q.conjugator.tobytes()
            for block in (other.kinetic_matrix, other.shift_matrix, other.conjugator):
                assert block.shape == (2, 2) and not block.flags.writeable
            kinetic, shift = _charge_matrices_reference(other)
            assert other.kinetic_matrix.tobytes() == kinetic.tobytes()
            assert other.shift_matrix.tobytes() == shift.tobytes()
            g = other.lam * inverse_robin_length(other.theta, other.L0)
            assert other.shift == float(g * g + other.c * other.c)


def test_reflected_charge_is_the_half_parity_conjugate(rng):
    """A reflected charge acts as half_parity . Q . half_parity of its plain
    twin, bitwise, on every sector."""
    for spec in (reflected_crossed_interval(-0.5), reflected_crossed_interval(-1.4, lam=1.7, L0=0.3)):
        for q in classify_system(spec).charges:
            assert q.reflected
            plain = replace(q, reflected=False)
            for sector in ("positive", "zero", "negative"):
                k = 0.0 if sector == "zero" else rng.uniform(0.3, 3.0)
                coeffs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                wf = WaveFunction(spec.geometry, sector, k, coeffs, spec.lam)
                want = half_parity(plain.apply(half_parity(wf)))
                assert q.apply(wf).coeffs.tobytes() == want.coeffs.tobytes()
