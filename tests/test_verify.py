"""Checks of the verification layer on systems with known structure."""

from dataclasses import replace

import numpy as np
import pytest

from singular_susy import (
    Geometry,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SusyClassification,
    SystemSpec,
    WaveFunction,
    check_algebra,
    check_degeneracy_pairing,
    check_domain_preservation,
    check_lower_bound,
    classify_system,
    deficiency_indices,
    run_verification,
    solve_interval_spectrum,
    solve_line_bound_states,
    solve_spectrum,
    susy_boundary_form,
    pauli_combination,
    pauli_vector,
    robin_matrix,
    su2_from_euler,
    witten_parity_search,
)
from singular_susy import classify, spectra
from singular_susy.classify import _annihilates as annihilates
from singular_susy.matkit import _phase_fixed

from helpers import (
    apply,
    connection_residual,
    endpoint_data,
    half_parity,
    l2_norm,
    random_unitary_2x2,
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


def _all_states(spectrum):
    return [st for lv in spectrum.levels for st in lv.states]


def test_apply_supercharge_known_image():
    """On the line with U = sigma3 the sigma1 charge swaps components and
    differentiates: (0, x e^-x) goes to (-i(1-x)e^-x, 0)/sqrt(2)."""
    spec = SystemSpec(Geometry.line(), SIGMA3.copy(), None, 1.0, 1.0)
    cls = classify_system(spec)
    q = next(c for c in cls.charges if np.allclose(c.kinetic_matrix, SIGMA1))
    wf = WaveFunction(spec.geometry, "negative", 1.0, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex), 1.0)
    img = apply(q, wf)
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


def _boundary_form(wf1, wf2, a_matrix, at="origin"):
    """Per-state reference: the sesquilinear endpoint form Psi_1(x0)^dag A Psi_2(x0)."""
    b1 = endpoint_data(wf1, at)
    b2 = endpoint_data(wf2, at)
    return complex(b1.psi.conj() @ (np.asarray(a_matrix, dtype=complex) @ b2.psi))


def test_boundary_form_primitive():
    geo = Geometry.interval(1.0)
    wf1 = WaveFunction(geo, "negative", 1.0, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), 1.0)
    wf2 = WaveFunction(geo, "negative", 1.0, np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex), 1.0)
    assert abs(_boundary_form(wf1, wf2, SIGMA2, "origin") - (-1j)) < 1e-14
    assert abs(_boundary_form(wf2, wf1, SIGMA2, "origin") - 1j) < 1e-14


def test_susy_boundary_form_vanishes_on_eigenstates():
    for spec in (matched_robin_interval(2.5), crossed_robin_interval(-0.5)):
        cls = classify_system(spec)
        sp = solve_interval_spectrum(spec, n_levels=4)
        for st in _all_states(sp):
            for q in cls.charges:
                for at in ("origin", "wall"):
                    assert abs(susy_boundary_form([st], q, at)) < 1e-10
    line = robin_line(np.pi / 2)
    cls = classify_system(line)
    for st in _all_states(solve_line_bound_states(line)):
        for q in cls.charges:
            assert abs(susy_boundary_form([st], q, "origin")) < 1e-10


def test_deficiency_indices(rng):
    for _ in range(10):
        u = random_unitary_2x2(rng)
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
        interval = SystemSpec(Geometry.interval(1.0), u, dl, 1.0, 1.0)
        assert deficiency_indices(interval) == (2, 2)
        line = SystemSpec(Geometry.line(), u, None, 1.0, 1.0)
        assert deficiency_indices(line) == (1, 1)


def test_witten_parity_directions():
    def parity(spec):
        return witten_parity_search(spec, classify_system(spec))

    assert np.allclose(parity(matched_robin_interval(np.pi / 4)), SIGMA3)
    assert np.allclose(parity(crossed_robin_interval(-0.5)), SIGMA3)
    assert np.allclose(parity(reflected_crossed_interval(-0.5)), SIGMA3)
    assert np.allclose(parity(robin_line(1.2)), SIGMA3)
    # a single charge with tilted boundary axes admits no grading
    assert parity(simple_charge_interval(np.pi / 3)) is None


def _reference_witten(spec, classification):
    """The direction search that witten_parity_search replaced: the Pauli
    axes of U and Dl with a cross-product test, the unit normal of the
    charge vectors when both are scalar, and a diagonal filter for
    reflected charges."""
    if not classification.charges:
        return None
    mats = [spec.U] + ([spec.Dl] if spec.geometry.is_interval else [])

    def direction(vec):
        u = np.real(_phase_fixed(vec))
        return u / np.linalg.norm(u)

    axes = [direction(pauli_vector(m)) for m in mats if np.linalg.norm(pauli_vector(m)) > 1e-10]
    candidates = []
    if axes:
        if all(np.linalg.norm(np.cross(axes[0], a)) < 1e-8 for a in axes[1:]):
            candidates.append(axes[0])
    else:
        rows = [
            direction(pauli_vector(m))
            for q in classification.charges
            for m in (q.kinetic_matrix, q.shift_matrix)
            if np.linalg.norm(pauli_vector(m)) > 1e-10
        ]
        if rows:
            cand = np.linalg.svd(np.array(rows))[2][-1]
            candidates.append(cand if cand[int(np.argmax(np.abs(cand)))] >= 0 else -cand)
    if any(q.reflected for q in classification.charges):
        candidates = [n for n in candidates if abs(abs(n[2]) - 1.0) < 1e-8]
    for n in candidates:
        w = pauli_combination(n / np.linalg.norm(n))
        ok = all(np.max(np.abs(m @ w - w @ m)) <= 1e-10 for m in mats)
        ok &= all(
            np.max(np.abs(m @ w + w @ m)) <= 1e-10
            for q in classification.charges
            for m in (q.kinetic_matrix, q.shift_matrix)
        )
        if ok:
            return w
    return None


def _witten_draws(rng, n):
    """n seeded systems of each family: (family, spec)."""
    for _ in range(n):
        theta, v = rng.uniform(0.0, 2.0 * np.pi), random_unitary_2x2(rng)
        interval = Geometry.interval(rng.uniform(0.5, 2.0))
        yield "line", SystemSpec(Geometry.line(), v.conj().T @ robin_matrix(theta) @ v, None)
        yield "line", SystemSpec(Geometry.line(), v, None)
        frame = su2_from_euler(0.0, rng.uniform(0.0, 2.0 * np.pi))
        u = frame.conj().T @ robin_matrix(theta) @ frame
        yield "matched", SystemSpec(interval, u, robin_matrix(theta))
        yield "anti-matched", SystemSpec(interval, u, np.diag([-1.0, np.exp(-1j * theta)]))
        mu = rng.uniform(0.05, np.pi - 0.05)
        frame = su2_from_euler(mu, rng.uniform(0.0, 2.0 * np.pi))
        u = frame.conj().T @ robin_matrix(theta) @ frame
        yield "tilted", SystemSpec(interval, u, robin_matrix(rng.uniform(0.0, 2.0 * np.pi)))
        # the wall phase whose N1 charge has c = 0: only [W, Dl] rules W out
        theta_l = 2.0 * np.arctan(np.tan(theta / 2.0) * np.cos(mu))
        yield "tilted", SystemSpec(interval, u, robin_matrix(theta_l))
        scalar = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.eye(2)
        yield "scalar", SystemSpec(interval, scalar, -np.eye(2))
        # Dirichlet slots and the phases e^{+-i theta}, so that ends can match
        ends = [rng.choice([-1.0, np.exp(1j * theta), np.exp(-1j * theta)]) for _ in range(4)]
        yield "diagonal", SystemSpec(interval, np.diag(ends[:2]), np.diag(ends[2:]))


def test_witten_parity_is_u_axis():
    """The closed form (U's Pauli axis, sigma3 on a scalar U) agrees with
    the direction search on seeded line, matched, anti-matched, tilted,
    scalar-U and diagonal Dirichlet-slot systems, and a grading exists
    exactly on the N2 ones."""
    seen = set()
    for family, spec in _witten_draws(np.random.default_rng(19), 30):
        degree, charges, notes = classify._degree(spec)
        shift = charges[0].shift if charges else 0.0
        cls = SusyClassification(degree, charges, shift, "NotApplicable", notes)
        got, want = witten_parity_search(spec, cls), _reference_witten(spec, cls)
        assert (got is None) == (want is None), family
        assert (got is not None) == (degree == "N2"), family
        if got is not None:
            assert np.max(np.abs(got - want)) <= 1e-12, family
        seen.add((family, degree, any(q.reflected for q in charges)))
    for want in [
        ("line", "N2", False),
        ("matched", "N2", False),
        ("anti-matched", "N2", False),
        ("tilted", "N1", False),
        ("scalar", "N2", True),
        ("diagonal", "N2", False),
    ]:
        assert want in seen, want


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
            res = check_algebra(spec, q1, q2, [st])
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

    # the bound test is scale-free: |b|^2 = 1.7e7 here, and the ground sits
    # 7.45e-9 below it in absolute terms, 4.4e-16 relative
    spec = matched_robin_interval(np.pi / 4, l=0.1, lam=1000.0, L0=0.1)
    report = run_verification(spec, n_levels=3)
    res = next(c for c in report.checks if c.name == "lower bound")
    assert report.all_passed and res.passed and "attained" in res.details


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
    # the image is rounding junk with no boundary geometry: it reads residual 0
    assert annihilates(cls.charges[0], ground)
    res = check_domain_preservation(spec, cls.charges[:1], [ground])
    assert res.passed and res.details == "1 states x 1 charges" and res.residual == 0.0


def test_domain_preservation_fails_off_domain():
    """(0, x e^-x) satisfies the Hamiltonian conditions for U = sigma3 on
    the line, but its charge image picks up a Neumann-violating slope."""
    spec = SystemSpec(Geometry.line(), SIGMA3.copy(), None, 1.0, 1.0)
    cls = classify_system(spec)
    q = next(c for c in cls.charges if np.allclose(c.kinetic_matrix, SIGMA1))
    wf = WaveFunction(spec.geometry, "negative", 1.0, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex), 1.0)
    res = check_domain_preservation(spec, (q,), [wf])
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


# --- per-state reference for the stacked battery ----------------------------
# The checks as they were written before run_verification stacked its
# states: one Python call chain per (state, charge, end), on the public
# per-state operations.


def _reference_domain(spec, charge, wf):
    image = apply(charge, wf)
    floor = 1e-12 * (
        (charge.lam * (wf.wavenumber + 1.0) + np.sqrt(charge.shift) + 1.0)
        * np.linalg.norm(wf.coeffs)
    )
    if np.linalg.norm(image.coeffs) <= floor:
        return 0.0
    r = connection_residual(spec, endpoint_data(image, "origin"))
    if spec.geometry.is_interval:
        r = max(r, wall_residual(spec, endpoint_data(image, "wall")))
    return r


def _reference_algebra(q1, q2, wf):
    e = wf.energy
    cn = np.linalg.norm(wf.coeffs)
    worst = 0.0
    for q in (q1,) if q1 is q2 else (q1, q2):
        twice = apply(q, apply(q, wf))
        scale = abs(e) + q.shift or wf.lam**2
        worst = max(worst, float(np.linalg.norm(twice.coeffs - 0.5 * (e + q.shift) * wf.coeffs) / (scale * cn)))
    if q1 is not q2:
        cross = apply(q1, apply(q2, wf)).coeffs + apply(q2, apply(q1, wf)).coeffs
        scale = abs(e) + max(q1.shift, q2.shift) or wf.lam**2
        worst = max(worst, float(np.linalg.norm(cross) / (scale * cn)))
    return worst


def _reference_pairing(cls, spectrum):
    worst, annihilated, moved = 0.0, 0, 0
    for level in spectrum.levels:
        for q in cls.charges:
            for st in level.states:
                img = apply(q, st)
                inorm = l2_norm(img)
                if inorm <= 1e-12 * (q.lam * (st.wavenumber + 1.0) + np.sqrt(q.shift) + 1.0):
                    annihilated += 1
                    continue
                moved += 1
                left = img.coeffs.copy()
                for s2 in level.states:
                    left = left - wf_inner(s2, img) * s2.coeffs
                worst = max(worst, float(l2_norm(replace(img, coeffs=left)) / inorm))
    return worst, "%d images in span, %d annihilated" % (moved, annihilated)


def _reference_form(wf, charge, at):
    if charge.reflected:
        wf = half_parity(wf)
    return _boundary_form(wf, wf, charge.kinetic_matrix, at)


def _reference_battery(spec, n_levels, tol=1e-8):
    """(name, passed, residual) of every check, computed state by state."""
    spectrum = solve_spectrum(spec, n_levels)
    cls = classify_system(spec, spectrum)
    states = _all_states(spectrum)
    out = [("classification", True, 0.0)]
    if cls.charges and states:
        r = max(_reference_domain(spec, q, st) for q in cls.charges for st in states)
        out.append(("domain preservation", r <= tol, r))
        r = max(_reference_algebra(cls.charges[0], cls.charges[-1], st) for st in states)
        out.append(("algebra", r <= 1e-10, r))
        r, counts = _reference_pairing(cls, spectrum)
        out.append(("degeneracy pairing", r <= tol, r, counts))
        ends = ("origin", "wall") if spec.geometry.is_interval else ("origin",)
        r = max(abs(_reference_form(st, q, at)) for st in states for q in cls.charges for at in ends)
        out.append(("boundary form", r <= 1e-10, r))
        lower = check_lower_bound(spec, cls, spectrum)
        out += [("lower bound", lower.passed, lower.residual), ("witten parity", True, 0.0)]
    out.append(("deficiency indices", True, 0.0))
    return out


_BATTERY_SYSTEMS = [
    matched_robin_interval(0.0),  # a zero-sector ground
    matched_robin_interval(np.pi / 4),
    matched_robin_interval(2.5, l=1.3, L0=0.7),
    crossed_robin_interval(-0.5),
    reflected_crossed_interval(-0.5),
    reflected_crossed_interval(-1.4, lam=1.7, L0=0.3),
    simple_charge_interval(np.pi / 3),
    simple_charge_interval(0.9, nu=0.4, L0=1.9),
    robin_line(np.pi / 2),
    robin_line(0.6, L0=3.1),
]


@pytest.mark.parametrize("n_levels", [1, 8, 20])
def test_battery_matches_per_state_reference(n_levels):
    for spec in _BATTERY_SYSTEMS:
        got = run_verification(spec, n_levels).checks
        want = _reference_battery(spec, n_levels)
        assert [c.name for c in got] == [w[0] for w in want]
        for c, w in zip(got, want):
            assert c.passed == w[1], (c.name, c.details)
            assert abs(c.residual - w[2]) <= 1e-15, (c.name, c.residual, w[2])
            if c.name == "degeneracy pairing":
                assert c.details.startswith(w[3] + ","), c.details


def test_battery_fails_on_one_foreign_state(rng):
    """One state of another Hamiltonian (coefficients off the boundary
    conditions, kinetic scale 2 where the charges have 1) among good ones,
    one of them annihilated, fails domain preservation and the algebra at
    every position in the batch, with the foreign state's own residual."""
    spec = matched_robin_interval(np.pi / 2)
    cls = classify_system(spec)
    good = _all_states(solve_interval_spectrum(spec, n_levels=4))
    assert annihilates(cls.charges[0], good[0])
    coeffs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    foreign = WaveFunction(spec.geometry, "positive", 2.3, coeffs, 2.0)
    q1, q2 = cls.charges
    for checks in (
        lambda batch: check_domain_preservation(spec, cls.charges, batch),
        lambda batch: check_algebra(spec, q1, q2, batch),
    ):
        assert checks(good).passed
        alone = checks([foreign])
        assert not alone.passed
        for at in range(len(good) + 1):
            res = checks(good[:at] + [foreign] + good[at:])
            assert not res.passed
            assert res.residual == pytest.approx(alone.residual, rel=1e-12), res.details



_BLIND = pytest.mark.xfail(strict=True, reason="ROADMAP: the battery cannot see a missing level")


@pytest.mark.parametrize(
    "drop",
    [(), pytest.param((0,), marks=_BLIND), pytest.param((1,), marks=_BLIND)],
    ids=["complete", "ground-dropped", "first-doublet-dropped"],
)
def test_battery_sees_a_missing_level(monkeypatch, drop):
    """Matched theta = 1 on l = 1 at n_levels = 4: a single ground at
    -tan^2(1/2), then the Dirichlet doublets n^2 pi^2.  A spectrum that
    lost its ground, or its first doublet, contradicts the classification
    and must fail the battery.  Both faults pass it with no failed check,
    because run_verification classifies on the spectrum it is given."""
    spec = matched_robin_interval(1.0)
    levels = solve_spectrum(spec, 4).levels
    assert [lv.multiplicity for lv in levels] == [1, 2, 2, 2]
    assert abs(levels[0].energy + np.tan(0.5) ** 2) < 1e-12
    for n, lv in enumerate(levels[1:], start=1):
        assert abs(lv.energy - (n * np.pi) ** 2) < 1e-9 * lv.energy
    solve = spectra.solve_spectrum

    def lossy(spec, n_levels):
        sp = solve(spec, n_levels)
        return replace(sp, levels=[lv for i, lv in enumerate(sp.levels) if i not in drop])

    monkeypatch.setattr(spectra, "solve_spectrum", lossy)
    assert run_verification(spec, n_levels=4).all_passed == (drop == ())
