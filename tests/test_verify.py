"""Checks of the verification layer on systems with known structure."""

import numpy as np
import pytest

from singular_susy import (
    Geometry,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SystemSpec,
    WaveFunction,
    annihilates,
    boundary_form,
    check_algebra,
    check_degeneracy_pairing,
    check_domain_preservation,
    check_lower_bound,
    classify_system,
    deficiency_indices,
    random_unitary_2x2,
    run_verification,
    solve_interval_spectrum,
    solve_line_bound_states,
    susy_boundary_form,
    witten_parity_search,
)

from families import (
    crossed_robin_interval,
    matched_robin_interval,
    reflected_crossed_interval,
    robin_line,
    simple_charge_interval,
)


def _all_states(spectrum):
    return [st for lv in spectrum.levels for st in lv.states]


def test_apply_supercharge_known_image():
    """On the line with U = sigma3 the sigma1 charge swaps components and
    differentiates: (0, x e^-x) goes to (-i(1-x)e^-x, 0)/sqrt(2)."""
    spec = SystemSpec(Geometry.line(), SIGMA3.copy(), None, 1.0, 1.0)
    cls = classify_system(spec)
    q = next(c for c in cls.charges if np.allclose(c.kinetic_matrix, SIGMA1))
    wf = WaveFunction(spec.geometry, "negative", 1.0, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex), 1.0)
    img = q.apply(wf)
    want = np.array([[-1j, 1j], [0.0, 0.0]]) / np.sqrt(2.0)
    assert np.allclose(img.coeffs, want, atol=1e-14)


def test_ground_state_annihilated_when_good():
    spec = matched_robin_interval(np.pi / 2)
    cls = classify_system(spec)
    assert cls.goodness == "Good"
    # e^-x in the upper component: coefficients of cosh - sinh
    ground = WaveFunction(spec.geometry, "negative", 1.0, np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex), 1.0)
    assert all(annihilates(q, ground) for q in cls.charges)
    sp = solve_interval_spectrum(spec, n_levels=3)
    excited = [st for lv in sp.levels if lv.sector == "positive" for st in lv.states]
    assert excited and not any(annihilates(q, excited[0]) for q in cls.charges)


def test_boundary_form_primitive():
    geo = Geometry.interval(1.0)
    wf1 = WaveFunction(geo, "negative", 1.0, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), 1.0)
    wf2 = WaveFunction(geo, "negative", 1.0, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex), 1.0)
    assert abs(boundary_form(wf1, wf2, SIGMA2, "origin") - (-1j)) < 1e-14
    assert abs(boundary_form(wf2, wf1, SIGMA2, "origin") - 1j) < 1e-14


def test_susy_boundary_form_vanishes_on_eigenstates():
    for spec in (matched_robin_interval(2.5), crossed_robin_interval(-0.5)):
        cls = classify_system(spec)
        sp = solve_interval_spectrum(spec, n_levels=4)
        for st in _all_states(sp):
            for q in cls.charges:
                for at in ("origin", "wall"):
                    assert abs(susy_boundary_form(st, q, at)) < 1e-10
    line = robin_line(np.pi / 2)
    cls = classify_system(line)
    for st in _all_states(solve_line_bound_states(line)):
        for q in cls.charges:
            assert abs(susy_boundary_form(st, q, "origin")) < 1e-10


def test_deficiency_indices(rng):
    for _ in range(10):
        u = random_unitary_2x2(rng)
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
        interval = SystemSpec(Geometry.interval(1.0), u, dl, 1.0, 1.0)
        assert deficiency_indices(interval) == (2, 2)
        line = SystemSpec(Geometry.line(), u, None, 1.0, 1.0)
        assert deficiency_indices(line) == (1, 1)
    with pytest.raises(ValueError):
        deficiency_indices(line, g=0.0)


def test_witten_parity_directions():
    assert np.allclose(witten_parity_search(matched_robin_interval(np.pi / 4)), SIGMA3)
    assert np.allclose(witten_parity_search(crossed_robin_interval(-0.5)), SIGMA3)
    assert np.allclose(witten_parity_search(reflected_crossed_interval(-0.5)), SIGMA3)
    assert np.allclose(witten_parity_search(robin_line(1.2)), SIGMA3)
    # a single charge with tilted boundary axes admits no grading
    assert witten_parity_search(simple_charge_interval(np.pi / 3)) is None


def test_algebra_on_eigenstates():
    systems = [
        matched_robin_interval(np.pi / 2),
        crossed_robin_interval(-0.5),
        simple_charge_interval(np.pi / 3),
    ]
    for spec in systems:
        cls = classify_system(spec)
        sp = solve_interval_spectrum(spec, n_levels=4)
        q1, q2 = cls.charges[0], cls.charges[-1]
        for st in _all_states(sp):
            res = check_algebra(spec, q1, q2, st)
            assert res.passed, res.details


def test_lower_bound_attained_vs_strict():
    spec = matched_robin_interval(np.pi / 2)
    cls = classify_system(spec)
    res = check_lower_bound(spec, cls, solve_interval_spectrum(spec, n_levels=3))
    assert res.passed and "attained" in res.details

    spec = crossed_robin_interval(-0.5)
    cls = classify_system(spec)
    res = check_lower_bound(spec, cls, solve_interval_spectrum(spec, n_levels=3))
    assert res.passed and "strict" in res.details
    assert cls.shift == pytest.approx(4.0)


def test_degeneracy_pairing_families():
    for spec in (matched_robin_interval(np.pi / 4), crossed_robin_interval(-0.7)):
        cls = classify_system(spec)
        sp = solve_interval_spectrum(spec, n_levels=5)
        res = check_degeneracy_pairing(spec, cls, sp)
        assert res.passed, res.details


def test_domain_preservation_annihilated_branch():
    spec = matched_robin_interval(np.pi / 2)
    cls = classify_system(spec)
    ground = WaveFunction(spec.geometry, "negative", 1.0, np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex), 1.0)
    res = check_domain_preservation(spec, cls.charges[0], ground)
    assert res.passed and res.details == "annihilated" and res.residual == 0.0


def test_domain_preservation_fails_off_domain():
    """(0, x e^-x) satisfies the Hamiltonian conditions for U = sigma3 on
    the line, but its charge image picks up a Neumann-violating slope."""
    spec = SystemSpec(Geometry.line(), SIGMA3.copy(), None, 1.0, 1.0)
    cls = classify_system(spec)
    q = next(c for c in cls.charges if np.allclose(c.kinetic_matrix, SIGMA1))
    wf = WaveFunction(spec.geometry, "negative", 1.0, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex), 1.0)
    res = check_domain_preservation(spec, q, wf)
    assert not res.passed
    assert res.residual == pytest.approx(2.0, rel=1e-12)


def test_run_verification_families():
    systems = [
        matched_robin_interval(np.pi / 4),
        crossed_robin_interval(-0.5),
        reflected_crossed_interval(-0.5),
        simple_charge_interval(np.pi / 3),
        robin_line(np.pi / 2),
    ]
    for spec in systems:
        rep = run_verification(spec)
        assert rep.all_passed, [c.as_dict() for c in rep.checks if not c.passed]


def test_report_shape():
    rep = run_verification(matched_robin_interval(np.pi / 4), n_levels=3)
    names = [c.name for c in rep.checks]
    assert names == [
        "classification",
        "domain preservation",
        "algebra",
        "degeneracy pairing",
        "boundary form",
        "lower bound",
        "witten parity",
        "deficiency indices",
    ]
    d = rep.as_dict()
    assert d["all_passed"] is True
    assert all(set(c) == {"name", "passed", "residual", "tolerance", "details"} for c in d["checks"])
