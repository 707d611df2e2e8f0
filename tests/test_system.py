"""Tests for the system layer: geometry, boundary data, wavefunctions."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from singular_susy import (
    IDENTITY,
    Geometry,
    GeometryMismatchError,
    NotDiagonalError,
    NotNormalizableError,
    NotUnitaryError,
    SIGMA1,
    SystemSpec,
    ThetaPiError,
    WaveFunction,
    conjugate,
    inverse_robin_length,
    robin_matrix,
    theta_for_scale,
)

from helpers import (
    connection_residual,
    derivative,
    endpoint_data,
    evaluate,
    half_parity,
    l2_norm,
    normalize,
    random_unitary_2x2,
    robin_length,
    wall_residual,
    wf_inner,
)
from families import (
    crossed_robin_interval,
    matched_robin_interval,
    reflected_crossed_interval,
    robin_line,
    simple_charge_interval,
)


def random_wf(rng, geometry, sector=None):
    sectors = ["positive", "negative"] + (["zero"] if geometry.is_interval else [])
    sector = sector or rng.choice(sectors)
    q = 0.0 if sector == "zero" else rng.uniform(0.3, 3.0)
    coeffs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return WaveFunction(geometry, sector, q, coeffs, lam=1.0)


def test_robin_length_conventions():
    assert np.isinf(robin_length(0.0))
    assert abs(robin_length(np.pi / 2) - 1.0) < 1e-12
    assert abs(inverse_robin_length(np.pi / 2) - 1.0) < 1e-12
    assert inverse_robin_length(0.0) == 0.0
    with pytest.raises(ThetaPiError):
        robin_length(np.pi)
    th = theta_for_scale(-0.5)
    assert abs(robin_length(th) + 0.5) < 1e-12


def test_robin_length_rejects_invalid_input():
    for theta in (np.pi, 3.0 * np.pi):
        with pytest.raises(ThetaPiError):
            inverse_robin_length(theta)
    for L0 in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="L0 must be positive and finite"):
            inverse_robin_length(0.5, L0)
    for theta in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="theta must be finite"):
            inverse_robin_length(theta)


def test_robin_matrix_shape():
    m = robin_matrix(0.8)
    assert abs(m[0, 0] - np.exp(0.8j)) < 1e-12
    assert abs(m[1, 1] + 1.0) < 1e-12
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_system_spec_validation():
    with pytest.raises(NotUnitaryError):
        SystemSpec(Geometry.interval(1.0), 2.0 * np.eye(2), np.eye(2), 1.0, 1.0)
    with pytest.raises(NotDiagonalError):
        SystemSpec(Geometry.interval(1.0), np.eye(2, dtype=complex), SIGMA1, 1.0, 1.0)
    with pytest.raises(GeometryMismatchError):
        SystemSpec(Geometry.line(), np.eye(2, dtype=complex), -np.eye(2), 1.0, 1.0)
    with pytest.raises(ValueError):
        Geometry.interval(-2.0)


def test_evaluate_against_formulas():
    geo = Geometry.interval(2.0)
    wf = WaveFunction(geo, "positive", 1.5, np.array([[2.0, 0.0], [0.0, 1.0]]), 1.0)
    x = 0.7
    vals = evaluate(wf, x)
    assert abs(vals[0] - 2.0 * np.cos(1.5 * x)) < 1e-14
    assert abs(vals[1] - np.sin(1.5 * x)) < 1e-14
    wf = WaveFunction(geo, "negative", 0.8, np.array([[1.0, 0.5], [0.0, 0.0]]), 1.0)
    vals = evaluate(wf, x)
    assert abs(vals[0] - (np.cosh(0.8 * x) + 0.5 * np.sinh(0.8 * x))) < 1e-14
    wf = WaveFunction(Geometry.line(), "negative", 2.0, np.array([[1.0, 3.0], [0.0, 0.0]]), 1.0)
    vals = evaluate(wf, x)
    assert abs(vals[0] - (1.0 + 3.0 * x) * np.exp(-2.0 * x)) < 1e-14


def test_derivative_matches_central_difference(rng):
    h = 1e-5
    for geo in (Geometry.interval(1.7), Geometry.line()):
        for _ in range(20):
            wf = random_wf(rng, geo)
            x = rng.uniform(0.1, 1.5)
            want = (evaluate(wf, x + h) - evaluate(wf, x - h)) / (2.0 * h)
            got = derivative(wf, x)
            scale = np.linalg.norm(got) + 1.0
            assert np.linalg.norm(got - want) / scale < 1e-6


def test_energy():
    geo = Geometry.interval(1.0)
    assert WaveFunction(geo, "positive", 2.0, np.eye(2), 0.5).energy == 0.25 * 4.0
    assert WaveFunction(geo, "negative", 2.0, np.eye(2), 0.5).energy == -0.25 * 4.0
    assert WaveFunction(geo, "zero", 0.0, np.eye(2), 0.5).energy == 0.0


def test_l2_norm_against_quadrature(rng):
    quad = pytest.importorskip("scipy.integrate").quad
    for geo in (Geometry.interval(1.3), Geometry.line()):
        for _ in range(8):
            wf = random_wf(rng, geo, sector="negative" if not geo.is_interval else None)
            upper = geo.l if geo.is_interval else np.inf

            def density(x):
                v = evaluate(wf, x)
                return float(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2)

            want, _ = quad(density, 0.0, upper, limit=200)
            assert abs(l2_norm(wf) ** 2 - want) / want < 1e-8


def test_inner_product_against_quadrature(rng):
    quad = pytest.importorskip("scipy.integrate").quad
    geo = Geometry.interval(1.0)
    w1 = random_wf(rng, geo, "positive")
    w2 = WaveFunction(geo, "positive", w1.wavenumber, np.eye(2), 1.0)

    def component(part):
        def f(x):
            v1, v2 = evaluate(w1, x), evaluate(w2, x)
            z = np.conj(v1) @ v2
            return float(part(z))

        return f

    re, _ = quad(component(np.real), 0.0, geo.l, limit=200)
    im, _ = quad(component(np.imag), 0.0, geo.l, limit=200)
    assert abs(wf_inner(w1, w2) - (re + 1j * im)) < 1e-9


def test_line_positive_norm_rejected():
    wf = WaveFunction(Geometry.line(), "positive", 1.0, np.eye(2), 1.0)
    with pytest.raises(NotNormalizableError):
        l2_norm(wf)


def test_normalize(rng):
    wf = random_wf(rng, Geometry.interval(1.0))
    assert abs(l2_norm(normalize(wf)) - 1.0) < 1e-12


def test_half_parity_involution(rng):
    geo = Geometry.interval(1.4)
    for _ in range(10):
        wf = random_wf(rng, geo)
        back = half_parity(half_parity(wf))
        assert np.linalg.norm(back.coeffs - wf.coeffs) < 1e-12


def test_half_parity_reflects_upper_component(rng):
    geo = Geometry.interval(1.4)
    for _ in range(10):
        wf = random_wf(rng, geo)
        out = half_parity(wf)
        for x in (0.2, 0.9, 1.3):
            v, w = evaluate(wf, x), evaluate(out, x)
            mirrored = evaluate(wf, geo.l - x)
            assert abs(w[0] - mirrored[0]) < 1e-12
            assert abs(w[1] - v[1]) < 1e-12


def test_half_parity_line_rejected():
    wf = WaveFunction(Geometry.line(), "negative", 1.0, np.eye(2), 1.0)
    with pytest.raises(GeometryMismatchError):
        half_parity(wf)


def test_residual_zero_on_matching_state():
    # Robin component e^{-x/L} with L = robin_length(theta) satisfies the
    # origin condition of U = diag(e^{i theta}, -1) exactly
    spec = matched_robin_interval(np.pi / 2)
    kappa = inverse_robin_length(np.pi / 2)
    wf = WaveFunction(
        spec.geometry,
        "negative",
        kappa,
        np.array([[1.0, -1.0], [0.0, 0.0]]),
        spec.lam,
    )
    assert connection_residual(spec, endpoint_data(wf, "origin")) < 1e-14
    mismatched = WaveFunction(
        spec.geometry, "negative", kappa, np.array([[1.0, 1.0], [0.0, 0.0]]), spec.lam
    )
    assert connection_residual(spec, endpoint_data(mismatched, "origin")) > 1e-2


def test_residual_conjugation_covariance(rng):
    # residual of (U, psi) equals residual of (W U W^dag, W psi)
    for _ in range(20):
        u = random_unitary_2x2(rng)
        w = random_unitary_2x2(rng)
        spec = SystemSpec(Geometry.line(), u, None, 1.0, 1.0)
        spec2 = SystemSpec(Geometry.line(), conjugate(w, u), None, 1.0, 1.0)
        wf = random_wf(rng, Geometry.line(), "negative")
        wf2 = WaveFunction(
            Geometry.line(), "negative", wf.wavenumber, w @ wf.coeffs, 1.0
        )
        r1 = connection_residual(spec, endpoint_data(wf, "origin"))
        r2 = connection_residual(spec2, endpoint_data(wf2, "origin"))
        assert abs(r1 - r2) < 1e-10


def test_wall_residual_dirichlet():
    geo = Geometry.interval(1.0)
    spec = SystemSpec(geo, np.eye(2, dtype=complex), -np.eye(2, dtype=complex), 1.0, 1.0)
    wf = WaveFunction(geo, "positive", np.pi, np.array([[0.0, 1.0], [0.0, 1.0]]), 1.0)
    assert wall_residual(spec, endpoint_data(wf, "wall")) < 1e-12


def _form_reference(m, b, L0):
    """The boundary-form residual written out from the boundary matrix m,
    with norms over the last axis as the package takes them on stacks."""
    lhs = (m - IDENTITY) @ b.psi + 1j * L0 * (m + IDENTITY) @ b.dpsi
    scale = max(np.linalg.norm(b.psi, axis=-1), L0 * np.linalg.norm(b.dpsi, axis=-1))
    return float(np.linalg.norm(lhs, axis=-1) / scale)


def test_boundary_form_is_derived_from_the_fields(rng):
    """SystemSpec.form and form_size are derived from U, Dl and L0 and
    cached: dataclasses.replace, pickle and deepcopy rebuild them instead of
    copying them, they are always read-only, and the residuals read from
    them are bitwise the form written from U and Dl."""
    systems = [
        matched_robin_interval(2.0, l=1.3, L0=0.7),
        crossed_robin_interval(-0.7, L0=2.5),
        reflected_crossed_interval(-1.4, lam=1.7, L0=0.3),
        simple_charge_interval(0.9, nu=0.4, L0=1.9),
        robin_line(0.6, L0=3.1),
    ]
    # computed once: a second read is the cached pair, which replace must not carry over
    assert all(s.form is s.form and s.form_size is s.form_size for s in systems)
    systems += [replace(spec, U=random_unitary_2x2(rng), L0=0.45) for spec in systems]
    for spec in systems:
        mats = [spec.U] + ([spec.Dl] if spec.geometry.is_interval else [])
        for other in (spec, pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            minus, plus = other.form
            size_minus, size_plus = other.form_size
            for block in (minus, plus, size_minus, size_plus):
                assert block.shape == (len(mats), 2, 2) and not block.flags.writeable
            for end, m in enumerate(mats):
                assert minus[end].tobytes() == (m - IDENTITY).tobytes()
                assert plus[end].tobytes() == (1j * spec.L0 * (m + IDENTITY)).tobytes()
                assert size_minus[end].tobytes() == np.abs(m - IDENTITY).tobytes()
                assert size_plus[end].tobytes() == (spec.L0 * np.abs(m + IDENTITY)).tobytes()
        for _ in range(10):
            wf = random_wf(rng, spec.geometry)
            b = endpoint_data(wf, "origin")
            assert connection_residual(spec, b) == _form_reference(spec.U, b, spec.L0)
            if spec.geometry.is_interval:
                b = endpoint_data(wf, "wall")
                assert wall_residual(spec, b) == _form_reference(spec.Dl, b, spec.L0)
