"""Acceptance battery: one end-to-end check per documented guarantee.

Each test prints a single verdict line (visible with pytest -s) and uses
the stated tolerance of the guarantee it exercises.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from singular_susy import (
    Geometry,
    SIGMA1,
    SIGMA3,
    SystemSpec,
    WaveFunction,
    annihilates,
    check_algebra,
    check_degeneracy_pairing,
    check_domain_preservation,
    classify_system,
    conjugate,
    deficiency_indices,
    solve_interval_spectrum,
    susy_boundary_form,
    witten_parity_search,
)

from helpers import endpoint_data, random_unitary_2x2
from families import (
    crossed_robin_interval,
    matched_robin_interval,
    reflected_crossed_interval,
    simple_charge_interval,
)
from oracle import oracle_decoupled_roots

THETAS = (np.pi / 4, np.pi / 2, 2.5)
MUS = (0.0, np.pi / 3, np.pi / 2, np.pi)


@contextmanager
def _verdict(label):
    try:
        yield
    except BaseException:
        print("%s: FAIL" % label)
        raise
    print("%s: PASS" % label)


@lru_cache(maxsize=None)
def _solved(kind, param):
    if kind == "matched":
        spec, n = matched_robin_interval(param), 9
    elif kind == "crossed":
        spec, n = crossed_robin_interval(param), 6
    elif kind == "reflected":
        spec, n = reflected_crossed_interval(param), 8
    elif kind == "crossed8":
        spec, n = crossed_robin_interval(param), 8
    else:
        spec, n = simple_charge_interval(param), 8
    return spec, classify_system(spec), solve_interval_spectrum(spec, n_levels=n)


def _family_members():
    for theta in THETAS:
        yield _solved("matched", theta)
    for L in (-0.5, -1.0):
        yield _solved("crossed", L)
    for mu in MUS:
        yield _solved("simple", mu)


def test_good_susy_family():
    with _verdict("acceptance 1 good-susy family"):
        t0 = time.perf_counter()
        for theta in THETAS:
            spec, cls, sp = _solved("matched", theta)
            neg = [lv for lv in sp.levels if lv.sector == "negative"]
            assert len(neg) == 1 and neg[0].multiplicity == 1
            assert abs(neg[0].energy - (-np.tan(theta / 2) ** 2)) < 1e-9
            pos = [lv for lv in sp.levels if lv.sector == "positive"]
            assert len(pos) >= 8
            for n, lv in enumerate(pos[:8], start=1):
                assert abs(lv.wavenumber - n * np.pi) < 1e-9
                assert lv.multiplicity == 2
            ground = sp.levels[0].states[0]
            assert len(cls.charges) == 2
            assert all(annihilates(q, ground) for q in cls.charges)
        assert time.perf_counter() - t0 < 5.0


def test_broken_susy_family():
    with _verdict("acceptance 2 broken-susy family"):
        t0 = time.perf_counter()
        spec, cls, sp = _solved("crossed", -0.5)
        oracle = oracle_decoupled_roots(0.0, -0.5, 1.0)
        neg = [lv for lv in sp.levels if lv.sector == "negative"]
        assert len(neg) == 1
        assert abs(neg[0].wavenumber - oracle.kappa[0]) < 1e-9
        assert sp.levels[0] is neg[0] and neg[0].multiplicity == 2
        assert neg[0].energy > -4.0  # bound not attained
        pos = [lv for lv in sp.levels if lv.sector == "positive"]
        assert len(pos) >= 4
        for lv, k in zip(pos, oracle.k):
            assert abs(lv.wavenumber - k) < 1e-9
            assert lv.multiplicity == 2

        _, _, sp1 = _solved("crossed", -1.0)
        zero = [lv for lv in sp1.levels if lv.sector == "zero"]
        assert len(zero) == 1 and zero[0].multiplicity == 2
        assert time.perf_counter() - t0 < 10.0


def test_simple_charge_family():
    with _verdict("acceptance 3 simple-charge family"):
        for mu in MUS:
            spec, cls, sp = _solved("simple", mu)
            want = sorted(
                {round(abs(n * np.pi + s * mu / 2.0), 12) for n in range(-9, 10) for s in (1, -1)}
            )
            want = [k for k in want if k > 1e-9]
            pos = [lv for lv in sp.levels if lv.sector == "positive"]
            assert len(pos) >= 5
            for lv, k in zip(pos, want):
                assert abs(lv.wavenumber - k) < 1e-9
                assert lv.multiplicity == (2 if mu in (0.0, np.pi) else 1)
            if mu == 0.0:
                assert sp.levels[0].sector == "zero"
                assert sp.levels[0].multiplicity == 1
            res = check_degeneracy_pairing(spec, cls, sp, tol=1e-8)
            assert res.passed, res.details


def _rotation_angle(k1w, k2w, kprime):
    c = float(np.real(np.trace(k1w.conj().T @ kprime))) / 2.0
    s = float(np.real(np.trace(k2w.conj().T @ kprime))) / 2.0
    return np.arctan2(s, c)


def test_classifier_properties():
    with _verdict("acceptance 4 classifier properties"):
        rng = np.random.default_rng(20240822)
        cases = [random_unitary_2x2(rng) for _ in range(1000)]
        # constructed members on both sides of the boundary
        for theta in (0.0, 0.7, 2.0, np.pi - 1e-12, np.pi + 1e-12, 4.5):
            w = random_unitary_2x2(rng)
            cases.append(conjugate(w, np.diag([np.exp(1j * theta), -1.0])))
        cases.extend([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)])
        for u in cases:
            cls = classify_system(SystemSpec(Geometry.line(), u, None, 1.0, 1.0))
            phases = np.sort(np.angle(np.linalg.eigvals(u)) % (2.0 * np.pi))
            near_pi = np.abs(phases - np.pi) <= 1e-9
            assert (cls.degree == "N2") == (int(near_pi.sum()) == 1)
            if cls.degree == "N2":
                theta = float(phases[~near_pi][0]) if (~near_pi).any() else 0.0
                b_zero = all(np.linalg.norm(q.b_vec) < 1e-9 for q in cls.charges)
                assert b_zero == (min(theta, 2.0 * np.pi - theta) <= 1e-9)

        base = np.diag([np.exp(0.9j), -1.0]).astype(complex)
        cls = classify_system(SystemSpec(Geometry.line(), base, None, 1.0, 1.0))
        for _ in range(25):
            w = random_unitary_2x2(rng)
            cls2 = classify_system(
                SystemSpec(Geometry.line(), conjugate(w, base), None, 1.0, 1.0)
            )
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


def test_charge_algebra():
    with _verdict("acceptance 5 charge algebra"):
        for spec, cls, sp in _family_members():
            q1, q2 = cls.charges[0], cls.charges[-1]
            for lv in sp.levels:
                for st in lv.states:
                    res = check_algebra(spec, q1, q2, [st])
                    assert res.passed, res.details


def test_self_adjointness():
    with _verdict("acceptance 6 self-adjointness"):
        for spec, cls, sp in _family_members():
            for lv in sp.levels:
                for st in lv.states:
                    for q in cls.charges:
                        for at in ("origin", "wall"):
                            assert abs(susy_boundary_form([st], q, at)) < 1e-10
            assert deficiency_indices(spec) == (2, 2)
        rng = np.random.default_rng(5)
        u = random_unitary_2x2(rng)
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=2)))
        assert deficiency_indices(SystemSpec(Geometry.interval(2.0), u, dl, 1.0, 1.0)) == (2, 2)
        assert deficiency_indices(SystemSpec(Geometry.line(), u, None, 1.0, 1.0)) == (1, 1)


def test_half_parity_duality():
    with _verdict("acceptance 7 half-parity duality"):
        for L in (-0.3, -0.7):
            _, _, sp_a = _solved("crossed8", L)
            _, _, sp_b = _solved("reflected", L)
            assert len(sp_a.levels) >= 8 and len(sp_b.levels) >= 8
            for a, b in zip(sp_a.levels, sp_b.levels):
                assert abs(a.energy - b.energy) < 1e-9
                assert a.multiplicity == b.multiplicity


def test_witten_parity():
    with _verdict("acceptance 8 witten parity"):
        for theta in THETAS:
            spec, cls, _ = _solved("matched", theta)
            assert np.allclose(witten_parity_search(spec, cls), SIGMA3, atol=1e-10)
        spec, cls, _ = _solved("crossed", -0.5)
        assert np.allclose(witten_parity_search(spec, cls), SIGMA3, atol=1e-10)
        spec, cls, _ = _solved("simple", np.pi / 3)
        assert witten_parity_search(spec, cls) is None


def test_domain_violation_regression():
    """A Hamiltonian-domain element whose charge image leaves the domain:
    the check must fail and report the slope defect at the origin."""
    with _verdict("acceptance 9 domain violation"):
        spec = SystemSpec(Geometry.line(), SIGMA3.copy(), None, 1.0, 1.0)
        cls = classify_system(spec)
        q = next(c for c in cls.charges if np.allclose(c.kinetic_matrix, SIGMA1))
        wf = WaveFunction(
            spec.geometry, "negative", 1.0,
            np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex), 1.0,
        )
        res = check_domain_preservation(spec, (q,), [wf])
        assert not res.passed
        img = q.apply(wf)
        want = np.array([[-1j, 1j], [0.0, 0.0]]) / np.sqrt(2.0)  # i lam (x-1)e^-x up pairing
        assert np.allclose(img.coeffs, want, atol=1e-14)
        assert abs(endpoint_data(img, "origin").dpsi[0]) > 1.0  # Neumann broken
