"""Spectral solver tests, anchored to an independent bisection oracle."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singular_susy import (
    Geometry,
    GeometryMismatchError,
    PrecisionLossError,
    SystemSpec,
    WaveFunction,
    half_parity_system,
    robin_matrix,
    solve_interval_spectrum,
    solve_line_bound_states,
    su2_from_euler,
    theta_for_scale,
)
from singular_susy import spectra
from singular_susy.system import _basis_values, _gram

from helpers import (
    connection_residual,
    endpoint_data,
    l2_norm,
    random_unitary_2x2,
    robin_length,
    secular_matrix,
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
from oracle import oracle_decoupled_roots


def _draw_end(rng):
    """One endpoint condition: (oracle encoding, boundary phase)."""
    kind = rng.choice(["neumann", "dirichlet", "robin"])
    if kind == "neumann":
        return None, 0.0
    if kind == "dirichlet":
        return 0.0, np.pi
    L = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
    return L, theta_for_scale(L)


def _pooled_oracle(ends, l, n_levels):
    """Merge per-component oracle roots into (sector, q, multiplicity) rows."""
    rows = []
    for (l0, _), (l1, _) in ends:
        orc = oracle_decoupled_roots(l0, l1, l, n_levels=n_levels)
        rows += [("positive", k) for k in orc.k]
        rows += [("negative", q) for q in orc.kappa]
        if orc.zero_mode:
            rows.append(("zero", 0.0))
    merged = []
    for sector, q in rows:
        hit = next(
            (m for m in merged if m[0] == sector and abs(m[1] - q) < 1e-6), None
        )
        if hit is None:
            merged.append([sector, q, 1])
        else:
            hit[2] += 1
    return merged


def _min_separation(rows):
    energies = sorted(
        {"positive": 1.0, "zero": 0.0, "negative": -1.0}[s] * q * q for s, q, _ in rows
    )
    gaps = [b - a for a, b in zip(energies, energies[1:])]
    return min(gaps, default=np.inf)


def test_solver_matches_oracle_on_random_diagonal_systems(rng):
    """Pooling two independent scalar problems must reproduce the 4x4 solver."""
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 200:
        attempts += 1
        l = rng.uniform(0.6, 2.0)
        comp0 = (_draw_end(rng), _draw_end(rng))
        comp1 = (_draw_end(rng), _draw_end(rng))
        rows = _pooled_oracle((comp0, comp1), l, n_levels=7)
        if _min_separation(rows) < 1e-3:
            continue  # merging ambiguity: not what this test is about
        u = np.diag([np.exp(1j * comp0[0][1]), np.exp(1j * comp1[0][1])]).astype(complex)
        dl = np.diag([np.exp(1j * comp0[1][1]), np.exp(1j * comp1[1][1])]).astype(complex)
        spec = SystemSpec(Geometry.interval(l), u, dl, 1.0, 1.0)
        got = solve_interval_spectrum(spec, n_levels=5).levels
        want = sorted(
            rows, key=lambda r: {"positive": 1, "zero": 0, "negative": -1}[r[0]] * r[1] ** 2
        )
        assert len(got) >= 5
        for lv, (sector, q, mult) in zip(got, want[: len(got)]):
            assert lv.sector == sector
            assert abs(lv.wavenumber - q) < 1e-9 * max(1.0, q)
            assert lv.multiplicity == mult
        checked += 1
    assert checked == 50


def test_half_parity_spectral_duality(rng):
    for _ in range(10):
        l = rng.uniform(0.7, 1.5)
        ends = ((_draw_end(rng), _draw_end(rng)), (_draw_end(rng), _draw_end(rng)))
        u = np.diag([np.exp(1j * ends[0][0][1]), np.exp(1j * ends[1][0][1])]).astype(complex)
        dl = np.diag([np.exp(1j * ends[0][1][1]), np.exp(1j * ends[1][1][1])]).astype(complex)
        spec = SystemSpec(Geometry.interval(l), u, dl, 1.0, 1.0)
        mirror = half_parity_system(spec)
        a = solve_interval_spectrum(spec, n_levels=4).levels
        b = solve_interval_spectrum(mirror, n_levels=4).levels
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert abs(x.energy - y.energy) < 1e-9 * max(1.0, abs(x.energy))
            assert x.multiplicity == y.multiplicity


def test_matched_robin_explicit():
    sp = solve_interval_spectrum(matched_robin_interval(np.pi / 2), n_levels=8)
    assert sp.ground.sector == "negative"
    assert sp.ground.multiplicity == 1
    assert abs(sp.ground.energy + 1.0) < 1e-12
    pos = [lv for lv in sp.levels if lv.sector == "positive"]
    for n, lv in enumerate(pos[:8], start=1):
        assert abs(lv.wavenumber - n * np.pi) < 1e-9
        assert lv.multiplicity == 2
    assert sp.solver_report["window_exhausted"] is False


def test_crossed_robin_explicit():
    sp = solve_interval_spectrum(crossed_robin_interval(-0.5), n_levels=6)
    neg = [lv for lv in sp.levels if lv.sector == "negative"]
    assert len(neg) == 1
    assert neg[0].multiplicity == 2
    assert abs(neg[0].wavenumber - 1.9150080481545311) < 1e-9
    # strictly above the algebraic bound -(lam/L)^2 = -4
    assert -4.0 < neg[0].energy < 0.0
    pos = [lv for lv in sp.levels if lv.sector == "positive"]
    assert abs(pos[0].wavenumber - 4.2747822714581) < 1e-9
    assert pos[0].multiplicity == 2


def test_crossed_robin_zero_doublet_at_minus_l():
    sp = solve_interval_spectrum(crossed_robin_interval(-1.0), n_levels=4)
    zero = [lv for lv in sp.levels if lv.sector == "zero"]
    assert len(zero) == 1
    assert zero[0].multiplicity == 2
    assert all(lv.sector != "negative" for lv in sp.levels)


def _large_kappa_l(build, L, lost=False):
    marks = [pytest.mark.xfail(strict=True, reason="ROADMAP defect 9")] if lost else []
    return pytest.param(build, L, marks=marks, id="%s%g" % (build.__name__.split("_")[0], L))


@pytest.mark.parametrize(
    "build, L",
    [_large_kappa_l(b, L) for b in (crossed_robin_interval, reflected_crossed_interval) for L in (-0.5, -0.2, -0.15)]
    + [_large_kappa_l(crossed_robin_interval, L, lost=True) for L in (-0.1, -0.08, -0.07)]
    + [_large_kappa_l(reflected_crossed_interval, L, lost=True) for L in (-0.1, -0.08, -0.07, -0.06)],
)
def test_crossed_doublet_at_large_kappa_l(build, L):
    """Crossed Robin and its half-parity image on l = 1 have one negative
    doublet, at the scalar Dirichlet/Robin oracle's kappa, then positive
    doublets.  From kappa l of about 10 on, the solver loses the doublet's
    second state or the whole level (ROADMAP defect 9): those points are
    strict xfails."""
    orc = oracle_decoupled_roots(0.0, L, 1.0, n_levels=3)
    levels = solve_interval_spectrum(build(L), n_levels=3).levels
    assert [lv.sector for lv in levels] == ["negative", "positive", "positive"]
    for lv, q in zip(levels, orc.kappa[:1] + orc.k):
        assert lv.multiplicity == 2
        assert abs(lv.wavenumber - q) < 1e-9 * q


@pytest.mark.parametrize("build", [crossed_robin_interval, reflected_crossed_interval])
def test_cancelled_norm_is_a_clear_error(build):
    """At L = -0.05 (kappa l = 20) the state's Gram norm cancels in the
    cosh/sinh basis: the solve returns the oracle's doublet or raises
    PrecisionLossError naming kappa*l, never a bare ValueError."""
    kappa = oracle_decoupled_roots(0.0, -0.05, 1.0).kappa[0]
    try:
        ground = solve_interval_spectrum(build(-0.05), n_levels=2).levels[0]
    except PrecisionLossError as exc:
        assert "kappa*l = 20 " in str(exc)
        return
    assert ground.sector == "negative" and ground.multiplicity == 2
    assert abs(ground.wavenumber - kappa) < 1e-9 * kappa


def test_simple_charge_level_formula():
    for mu in (0.0, np.pi / 3, np.pi / 2, np.pi):
        sp = solve_interval_spectrum(simple_charge_interval(mu), n_levels=6)
        pos = [lv for lv in sp.levels if lv.sector == "positive"]
        want = sorted(
            {round(abs(n * np.pi + s * mu / 2.0), 12) for n in range(-8, 9) for s in (1, -1)}
            - {0.0}
        )
        want = [k for k in want if k > 1e-9]
        for lv, k in zip(pos, want):
            assert abs(lv.wavenumber - k) < 1e-9
            assert lv.multiplicity == (2 if mu in (0.0, np.pi) else 1)
        if mu == 0.0:
            assert sp.levels[0].sector == "zero"
            assert sp.levels[0].multiplicity == 1


def test_eigenstates_satisfy_conditions(rng):
    spec = crossed_robin_interval(-0.7)
    sp = solve_interval_spectrum(spec, n_levels=4)
    for lv in sp.levels:
        assert len(lv.states) == lv.multiplicity
        for st in lv.states:
            assert abs(l2_norm(st) - 1.0) < 1e-10
            assert connection_residual(spec, endpoint_data(st, "origin")) < 1e-8
            assert wall_residual(spec, endpoint_data(st, "wall")) < 1e-8
        # orthonormal within the level
        for i, a in enumerate(lv.states):
            for b in lv.states[i + 1 :]:
                assert abs(wf_inner(a, b)) < 1e-10


def test_states_keep_one_state_per_independent_eigenvector():
    """_states on a stack of the true eigenvector e^{-x} = cosh x - sinh x
    of matched theta = pi/2 (kappa = 1, upper component), a candidate that
    meets the origin's Dirichlet condition but breaks the wall's (sinh x in
    the lower component), and twice the eigenvector gives one unit,
    phase-fixed state on e^{-x}; the foreign candidate alone gives none."""
    spec = matched_robin_interval(np.pi / 2)
    eigen = np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex)
    foreign = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    stack = np.array([eigen, foreign, 2.0 * eigen])
    (st,) = spectra._states(spec, "negative", 1.0, stack)
    assert (st.sector, st.wavenumber) == ("negative", 1.0)
    c = st.coeffs
    gram = _gram(spec.geometry, "negative", 1.0)
    assert abs(np.sum(np.conj(c) * (c @ gram)) - 1.0) < 1e-12
    top = c.ravel()[np.argmax(np.abs(c))]
    assert top.imag == 0.0 and top.real > 0.0
    assert np.allclose(c / top, eigen, rtol=0.0, atol=1e-12)
    assert connection_residual(spec, endpoint_data(st, "origin")) < 1e-8
    assert wall_residual(spec, endpoint_data(st, "wall")) < 1e-8
    assert spectra._states(spec, "negative", 1.0, stack[1:2]) == ()


def test_spectrum_sorted_and_ground():
    sp = solve_interval_spectrum(matched_robin_interval(2.5), n_levels=5)
    energies = [lv.energy for lv in sp.levels]
    assert energies == sorted(energies)
    assert sp.ground is sp.levels[0]
    assert sp.energies == energies


def test_secular_matrix_rank_drop():
    spec = matched_robin_interval(np.pi / 2)
    on = secular_matrix(spec, np.pi**2)

    def ndet(m):
        norms = np.linalg.norm(m, axis=1)
        return abs(np.linalg.det(m / norms[:, None]))

    assert ndet(on) < 1e-10
    off = secular_matrix(spec, 1.2 * np.pi**2)
    assert ndet(off) > 1e-3
    assert secular_matrix(spec, 0.0).shape == (4, 4)
    assert secular_matrix(spec, -1.0).shape == (4, 4)


def test_secular_matrix_encodes_both_boundary_forms(rng):
    """secular_matrix(spec, E) @ C is the origin form stacked on the wall
    form of the state with coefficients C, for any C, U and diagonal Dl."""
    eye = np.eye(2)
    sign = {"positive": 1.0, "zero": 0.0, "negative": -1.0}
    for trial in range(90):
        l = rng.uniform(0.2, 4.0)
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2)))
        spec = SystemSpec(
            Geometry.interval(l),
            random_unitary_2x2(rng),
            dl,
            rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 5.0),
        )
        sector = ("positive", "zero", "negative")[trial % 3]
        energy = sign[sector] * (spec.lam * rng.uniform(0.01, 30.0) / l) ** 2
        q = np.sqrt(abs(energy)) / spec.lam
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        wf = WaveFunction(spec.geometry, sector, q, c, spec.lam)
        unit = WaveFunction(spec.geometry, sector, q, eye, spec.lam)
        forms, sizes = [], []
        for mat, at in ((spec.U, "origin"), (spec.Dl, "wall")):
            b = endpoint_data(wf, at)
            forms.append((mat - eye) @ b.psi + 1j * spec.L0 * (mat + eye) @ b.dpsi)
            # cancellation-free size of every term that sums into the row
            v = endpoint_data(unit, at)
            sizes.append(
                np.abs(mat - eye) @ np.abs(c) @ np.abs(v.psi)
                + spec.L0 * np.abs(mat + eye) @ np.abs(c) @ np.abs(v.dpsi)
            )
        got = secular_matrix(spec, energy) @ c.reshape(-1)
        err = np.abs(got - np.concatenate(forms))
        assert np.all(err <= 1e-12 * np.concatenate(sizes)), (sector, q * l)


def test_scale_covariance():
    """l, L0 and the Robin length L -> s l, s L0, s L: E -> E / s^2, with the
    same sectors and multiplicities."""
    for s in (0.37, 2.9):
        pairs = [
            (matched_robin_interval(th), matched_robin_interval(th, l=s, L0=s))
            for th in (np.pi / 4, 2.5)
        ] + [
            (crossed_robin_interval(-0.5), crossed_robin_interval(-0.5 * s, l=s, L0=s)),
            (
                reflected_crossed_interval(-0.5),
                reflected_crossed_interval(-0.5 * s, l=s, L0=s),
            ),
            (
                simple_charge_interval(np.pi / 3),
                simple_charge_interval(np.pi / 3, l=s, L0=s),
            ),
        ]
        solved = [
            (solve_interval_spectrum(a, n_levels=6), solve_interval_spectrum(b, n_levels=6))
            for a, b in pairs
        ]
        solved.append(
            (
                solve_line_bound_states(robin_line(np.pi / 2)),
                solve_line_bound_states(robin_line(np.pi / 2, L0=s)),
            )
        )
        for base, scaled in solved:
            assert base.levels
            assert [(lv.sector, lv.multiplicity) for lv in scaled.levels] == [
                (lv.sector, lv.multiplicity) for lv in base.levels
            ]
            np.testing.assert_allclose(
                np.array(scaled.energies) * s**2, base.energies, rtol=1e-9, atol=0.0
            )


def test_geometry_dispatch():
    with pytest.raises(GeometryMismatchError):
        solve_interval_spectrum(robin_line(1.0), n_levels=3)
    with pytest.raises(GeometryMismatchError):
        solve_line_bound_states(matched_robin_interval(1.0))


def test_line_bound_states_closed_form(rng):
    for _ in range(25):
        phis = rng.uniform(0.1, 2.0 * np.pi - 0.1, size=2)
        while np.any(np.abs(phis - np.pi) <= 0.1):
            phis = rng.uniform(0.1, 2.0 * np.pi - 0.1, size=2)
        d = np.diag(np.exp(1j * phis)).astype(complex)
        w = su2_from_euler(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        spec = SystemSpec(Geometry.line(), w.conj().T @ d @ w, None, 1.0, 1.0)
        want = sorted(np.tan(phi / 2.0) for phi in phis if phi < np.pi)
        got = sorted(lv.wavenumber for lv in solve_line_bound_states(spec).levels)
        assert len(got) == len(want)
        for g, t in zip(got, want):
            assert abs(g - t) < 1e-9 * max(1.0, t)
    # near-degenerate pairs kappa2 = kappa1 (1 + r): one doublet up to the
    # merge tolerance, two simple levels beyond it, never a lost state
    w = su2_from_euler(0.7, 1.3)
    for r in (1e-11, 1e-10, 5e-10, 3e-9, 1e-8, 3e-8, 1e-7):
        want = [np.tan(0.6), np.tan(0.6) * (1.0 + r)]
        d = np.diag(np.exp(2j * np.arctan(want))).astype(complex)
        spec = SystemSpec(Geometry.line(), w.conj().T @ d @ w, None, 1.0, 1.0)
        levels = solve_line_bound_states(spec).levels
        got = sorted(lv.wavenumber for lv in levels for _ in range(lv.multiplicity))
        assert len(got) == 2
        for g, t in zip(got, want):
            assert abs(g - t) < 1e-9 * t
        for lv in levels:
            for st in lv.states:
                assert connection_residual(spec, endpoint_data(st, "origin")) < 1e-8


def test_line_scalar_u_gives_doublet():
    spec = SystemSpec(
        Geometry.line(), np.exp(1.2j) * np.eye(2, dtype=complex), None, 1.0, 1.0
    )
    sp = solve_line_bound_states(spec)
    assert len(sp.levels) == 1
    assert sp.levels[0].multiplicity == 2
    assert abs(sp.levels[0].wavenumber - np.tan(0.6)) < 1e-12
    # the doublet states stay orthonormal
    a, b = sp.levels[0].states
    assert abs(wf_inner(a, b)) < 1e-10


def test_line_robin_family():
    sp = solve_line_bound_states(robin_line(np.pi / 2))
    assert len(sp.levels) == 1
    assert abs(sp.levels[0].energy + 1.0) < 1e-12
    assert sp.levels[0].multiplicity == 1


def test_line_no_bound_states():
    for u in (
        np.eye(2, dtype=complex),
        -np.eye(2, dtype=complex),
        np.diag([np.exp(4.0j), -1.0]).astype(complex),
    ):
        sp = solve_line_bound_states(SystemSpec(Geometry.line(), u, None, 1.0, 1.0))
        assert sp.levels == ()


def _oracle_end(theta):
    """Oracle encoding of a boundary phase at L0 = 1: Neumann, Dirichlet or Robin."""
    t = theta % (2.0 * np.pi)
    return None if t == 0.0 else 0.0 if t == np.pi else robin_length(t)


def _diagonal_solve(u_phases, dl_phases, l, n_levels):
    """The solver's spectrum of a diagonal system at L0 = 1, and the lowest
    n_levels oracle rows (sector, q, multiplicity) it must reproduce."""
    u = np.diag(np.exp(1j * np.array(u_phases))).astype(complex)
    dl = np.diag(np.exp(1j * np.array(dl_phases))).astype(complex)
    spec = SystemSpec(Geometry.interval(l), u, dl, 1.0, 1.0)
    ends = [((_oracle_end(a), a), (_oracle_end(b), b)) for a, b in zip(u_phases, dl_phases)]
    want = sorted(
        _pooled_oracle(ends, l, n_levels=n_levels),
        key=lambda r: {"positive": 1, "zero": 0, "negative": -1}[r[0]] * r[1] ** 2,
    )[:n_levels]
    return solve_interval_spectrum(spec, n_levels=n_levels), want


@pytest.mark.parametrize(
    "u_phases, dl_phases, l",
    [
        # a wall-bound state at kappa = tan(1.5) beside a Dirichlet origin
        ((np.pi, np.pi), (-3.0, np.pi), 1.0),
        # a wall-localised ground at kappa l = 6.56 in a |det| notch 1e-4 wide
        ((0.0, 1.5617317901482228), (0.0, -2.5808678030993306), 1.8886081469554097),
    ],
    ids=["wall-bound", "wall-notch"],
)
def test_steep_sign_changes_are_roots(u_phases, dl_phases, l):
    """The bracketed refinement lands on a root where |det| rises too
    steeply for any absolute threshold; the state residuals, not |det|,
    decide."""
    spectrum, want = _diagonal_solve(u_phases, dl_phases, l, n_levels=5)
    assert want[0][0] == "negative"
    got = spectrum.levels
    assert len(got) == 5
    for lv, (sector, q, mult) in zip(got, want):
        assert lv.sector == sector
        assert abs(lv.wavenumber - q) < 1e-9 * max(1.0, q)
        assert lv.multiplicity == mult


def test_refinement_tolerance_is_relative():
    """The refinement width is 1e-13 max(1, q): from q = 512 on, where
    ulp(q) exceeds 1e-13, an absolute width could never be reached and each
    root spent the whole ITP budget.  On l = 0.01 the 20th level sits at
    k = 2827, and the absolute width took 108 evaluations per level."""
    spectrum, want = _diagonal_solve((0.7, 2.0), (-1.1, 0.4), 0.01, n_levels=20)
    got = spectrum.levels
    assert len(got) == 20 and got[-1].wavenumber > 512.0
    for lv, (sector, q, mult) in zip(got, want):
        assert lv.sector == sector
        assert abs(lv.wavenumber - q) < 1e-12 * q
        assert lv.multiplicity == mult
    assert spectrum.solver_report["secular_evaluations"] <= 60 * len(got)


def _binding_rate(phase):
    """tan(phase/2) at L0 = 1 when the phase binds at the origin, else 0;
    a wall phase theta_l binds as the origin phase -theta_l."""
    if phase % (2.0 * np.pi) == np.pi:  # Dirichlet
        return 0.0
    return max(np.tan(phase / 2.0), 0.0)


@pytest.mark.parametrize("binds", ["origin", "wall", "both", "none", "capped"])
def test_kappa_window_is_the_proven_bound(rng, binds):
    """Integrating by parts, h >= lam^2 (|psi'|^2 - r |psi(0)|^2 - r |psi(l)|^2)
    per component, with r the largest binding Robin rate of U and conj(Dl),
    so every bound state has kappa < r + 2/l.  The negative scan covers
    exactly that window, capped at 300/l, and flags the cap."""
    for _ in range(6):
        l, lam = rng.uniform(0.6, 2.0), rng.uniform(0.5, 2.0)

        def end(binding, at_wall):
            if binding:
                phase = np.pi - 1e-3 if binds == "capped" else rng.uniform(0.3, 2.8)
            else:
                phase = rng.choice([0.0, np.pi, rng.uniform(3.5, 6.0)])
            return -phase if at_wall else phase

        u_phases = [end(binds in ("origin", "both", "capped"), False), end(False, False)]
        dl_phases = [end(False, True), end(binds in ("wall", "both"), True)]
        r = max(_binding_rate(a) for a in u_phases + [-b for b in dl_phases])
        assert (r > 0.0) == (binds != "none")
        for a, b in zip(u_phases, dl_phases):
            kappas = oracle_decoupled_roots(_oracle_end(a), _oracle_end(b), l).kappa
            assert all(q < r + 2.0 / l for q in kappas)
        u = np.diag(np.exp(1j * np.array(u_phases)))
        dl = np.diag(np.exp(1j * np.array(dl_phases)))
        spectrum = solve_interval_spectrum(SystemSpec(Geometry.interval(l), u, dl, lam), 1)
        kappa_max = min(r + 2.0 / l, 300.0 / l)
        assert spectrum.scan_window[0] == pytest.approx(-((lam * kappa_max) ** 2), rel=1e-12)
        assert spectrum.solver_report["window_capped"] is (binds == "capped")


def test_oracle_zero_mode_flag():
    assert oracle_decoupled_roots(None, None, 1.0).zero_mode  # Neumann-Neumann
    assert oracle_decoupled_roots(0.25, -0.75, 1.0).zero_mode  # L0 - Ll = l
    assert not oracle_decoupled_roots(0.25, 0.5, 1.0).zero_mode
    assert not oracle_decoupled_roots(0.0, None, 1.0).zero_mode


def test_oracle_known_values():
    # Dirichlet-Dirichlet on length 1: k = n pi, no kappa roots
    orc = oracle_decoupled_roots(0.0, 0.0, 1.0, n_levels=4)
    for n, k in enumerate(orc.k, start=1):
        assert abs(k - n * np.pi) < 1e-10
    assert orc.kappa == ()
    # Dirichlet at 0, Robin L = -0.5 at 1: tanh(kappa) = kappa / 2
    orc = oracle_decoupled_roots(0.0, -0.5, 1.0)
    assert len(orc.kappa) == 1
    assert abs(np.tanh(orc.kappa[0]) - orc.kappa[0] / 2.0) < 1e-11


def _stop_rule_systems(rng):
    """The closed-form families, Haar-random systems, two bound states of
    different kappa, and near-degenerate pairs: two Dirichlet components
    whose wall Robin lengths differ by 2e-6 split each pair by under 1e-6."""
    systems = [
        matched_robin_interval(np.pi / 2),
        matched_robin_interval(2.5, l=1.3),
        crossed_robin_interval(-0.5),
        reflected_crossed_interval(-0.7),
        simple_charge_interval(np.pi / 3),
        simple_charge_interval(0.0, nu=0.4),
    ]
    for _ in range(20):
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2)))
        systems.append(
            SystemSpec(
                Geometry.interval(rng.uniform(0.6, 2.0)),
                random_unitary_2x2(rng),
                dl,
                rng.uniform(0.5, 2.0),
                rng.uniform(0.3, 3.0),
            )
        )
    two_kappas = np.diag(np.exp(1j * np.array([1.2, 2.2])))
    systems.append(SystemSpec(Geometry.interval(1.0), two_kappas, two_kappas))
    split = np.diag(np.exp(1j * np.array([theta_for_scale(1.0), theta_for_scale(1.000002)])))
    systems.append(SystemSpec(Geometry.interval(1.0), -np.eye(2, dtype=complex), split))
    return systems


def test_fewer_levels_are_the_lowest_of_more(rng):
    """solve_interval_spectrum(spec, n) stops refining once n levels are
    certain: it must return exactly the lowest n levels of the n = 20 solve."""
    near_pair = doublet = two_bound = False
    for spec in _stop_rule_systems(rng):
        full = solve_interval_spectrum(spec, n_levels=20).levels
        assert len(full) >= 20
        for n in (1, 2, 3, 5):
            got = solve_interval_spectrum(spec, n_levels=n).levels
            assert len(got) == n
            for lv, want in zip(got, full):
                assert (lv.sector, lv.multiplicity) == (want.sector, want.multiplicity)
                assert abs(lv.wavenumber - want.wavenumber) <= 1e-12 * want.wavenumber
            near_pair |= abs(full[n].wavenumber - full[n - 1].wavenumber) < 1e-6
            doublet |= full[n - 1].multiplicity == 2
        two_bound |= [lv.sector for lv in full[:2]] == ["negative", "negative"]
    assert near_pair and doublet and two_bound


def _padded_matmul_build(spec, sector, qs, magnitudes):
    """The secular stack from zero-padded (q, 2, 4) blocks and matmuls: the
    reference whose entries, signed zeros included, the broadcast build
    reproduces."""
    qs = np.atleast_1d(np.asarray(qs, dtype=float))[:, None]
    ends = np.array([0.0, spec.geometry.l])
    if sector == "zero":
        a, b, d0, d1 = np.ones(2), ends, np.zeros(2), np.ones(2)
    else:
        a, b = _basis_values(spec.geometry, sector, qs, ends)
        d0 = 0.0 * a - qs * b if sector == "positive" else 0.0 * a + qs * b
        d1 = qs * a
    v, d = np.array([a, b]).T, np.array([d0, d1]).T
    eye = np.eye(2, dtype=complex)
    m = np.zeros((len(qs), 4, 4), dtype=complex)
    vals = np.zeros((len(qs), 2, 4), dtype=complex)
    ders = np.zeros((len(qs), 2, 4), dtype=complex)
    for end, (mat, row) in enumerate(((spec.U, 0), (spec.Dl, 2))):
        vals[:, 0, :2] = vals[:, 1, 2:] = v[end]
        ders[:, 0, :2] = ders[:, 1, 2:] = d[end]
        if magnitudes:
            m[:, row : row + 2] = np.abs(mat - eye) @ np.abs(vals) + spec.L0 * np.abs(
                mat + eye
            ) @ np.abs(ders)
        else:
            m[:, row : row + 2] = (mat - eye) @ vals + 1j * spec.L0 * (mat + eye) @ ders
    return m


def test_stacked_secular_matrices_match_single_builds(rng):
    """Each slice of a batched build and its determinant is bitwise the
    single-wavenumber build, in every sector and both modes, and the stack
    is bitwise the zero-padded matmul build, also where a diagonal U leaves
    exact zeros."""
    for trial in range(200):
        l = rng.uniform(0.2, 4.0)
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2)))
        if trial % 4:
            u = random_unitary_2x2(rng)
        else:  # Neumann, Dirichlet or Robin components: exact zeros off the diagonal
            u = np.diag(np.exp(1j * rng.choice([0.0, np.pi, 1.0, -2.0], 2)))
        spec = SystemSpec(
            Geometry.interval(l),
            u,
            dl,
            rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 5.0),
        )
        sector = ("positive", "zero", "negative")[trial % 3]
        qs = np.zeros(1) if sector == "zero" else rng.uniform(1e-4, 30.0, 8) / l
        magnitudes = bool(trial % 2)
        stack = spectra._interval_matrix(spec, sector, qs, magnitudes=magnitudes)
        assert stack.tobytes() == _padded_matmul_build(spec, sector, qs, magnitudes).tobytes()
        dets = spectra._row_normalized_det(stack)
        for i, q in enumerate(qs):
            one = spectra._interval_matrix(spec, sector, q, magnitudes=magnitudes)
            assert stack[i].tobytes() == one[0].tobytes()
            assert dets[i].tobytes() == spectra._row_normalized_det(one)[0].tobytes()


def test_rounding_noise_dips_are_not_refined(monkeypatch):
    """A Dirichlet origin against a wall that is Dirichlet on one component
    and Robin of length -3e-8 on the other: near pairs k = n pi and about
    n pi (1 + 3e-8), and a kappa grid whose |det| is flat to rounding from
    kappa ~ 10 on.  Its strict minima there are noise, not roots.  The wall
    binds a state at kappa ~ 3.3e7, so the kappa window stays at its 300/l
    cap and the plateau is scanned; that state lies past the cap, so only
    the positive levels returned are compared."""
    L = -3e-8
    dl = np.diag([-1.0, np.exp(1j * theta_for_scale(L))])
    spec = SystemSpec(Geometry.interval(1.0), -np.eye(2, dtype=complex), dl)
    builds = []
    original = spectra._interval_matrix

    def spy(*args, **kwargs):
        builds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, "_interval_matrix", spy)
    spectrum = solve_interval_spectrum(spec, n_levels=5)
    want = sorted(
        oracle_decoupled_roots(0.0, 0.0, 1.0, n_levels=5).k
        + oracle_decoupled_roots(0.0, L, 1.0, n_levels=5).k
    )[:5]
    assert spectrum.solver_report["window_capped"] is True
    assert spectrum.scan_window[0] == -(300.0**2)
    positive = [lv for lv in spectrum.levels if lv.sector == "positive"]
    assert len(positive) >= 4 and all(lv.multiplicity == 1 for lv in positive)
    np.testing.assert_allclose(
        [lv.wavenumber for lv in positive], want[: len(positive)], rtol=1e-12, atol=0
    )
    assert spectrum.solver_report["bracket_count"] <= 20
    assert len(builds) <= 1000


def test_solved_spectrum_round_trips_bitwise():
    """Levels and states are slotted dataclasses; pickle, deepcopy and
    dataclasses.replace still reproduce a solved spectrum bit for bit."""
    spectrum = solve_interval_spectrum(crossed_robin_interval(-0.7), n_levels=4)

    def content(sp):
        rows = []
        for lv in sp.levels:
            assert not hasattr(lv, "__dict__")
            for wf in lv.states:
                assert not hasattr(wf, "__dict__")
                rows.append((lv.sector, lv.multiplicity, wf.sector, wf.geometry))
                rows.append(np.array([lv.energy, lv.wavenumber, wf.wavenumber, wf.lam]).tobytes())
                rows.append(wf.coeffs.tobytes())
        return rows, np.array(sp.scan_window).tobytes(), sp.solver_report

    assert any(lv.multiplicity == 2 for lv in spectrum.levels)
    rebuilt = replace(
        spectrum,
        levels=[replace(lv, states=[replace(wf) for wf in lv.states]) for lv in spectrum.levels],
    )
    for other in (pickle.loads(pickle.dumps(spectrum)), copy.deepcopy(spectrum), rebuilt):
        assert content(other) == content(spectrum)


def _counted(g):
    """g, and the list of points it was evaluated at."""
    calls = []

    def f(q):
        calls.append(q)
        return g(q)

    return f, calls


def _bisection_steps(a, b):
    """Steps plain bisection takes to shrink [a, b] to _XTOL."""
    return math.ceil(math.log2((b - a) / spectra._XTOL))


def _itp_on(g, a, b):
    f, calls = _counted(g)
    return spectra._itp_root(f, a, b, g(a), g(b), spectra._XTOL), calls


def test_itp_refines_a_smooth_root_in_few_steps():
    """A smooth simple root in a grid cell 0.06 wide, where bisection takes
    40 steps: superlinear convergence needs at most 15."""
    a, b = 1.0, 1.06
    for root in np.linspace(a, b, 103)[1:-1]:
        q, calls = _itp_on(lambda q: math.exp(q) * math.sin(3.0 * (q - root)), a, b)
        assert abs(q - root) <= spectra._XTOL, root
        assert len(calls) <= 15, root


def test_itp_keeps_bisection_bound_in_a_steep_notch():
    """A notch 1e-4 wide inside the cell defeats interpolation until it is
    resolved: the count stays within one step of bisection's, and once the
    notch is resolved (about log2(0.06 / 1e-4) = 9 steps) the secant
    converges, so no root costs more than 25."""
    a, b = 1.0, 1.06
    for root in np.linspace(a, b, 1001)[1:-1]:
        q, calls = _itp_on(lambda q: math.tanh(1e4 * (q - root)), a, b)
        assert abs(q - root) <= spectra._XTOL, root
        assert len(calls) <= _bisection_steps(a, b) + 1, root
        assert len(calls) <= 25, root


@given(
    a=st.floats(0.0, 50.0),
    log_width=st.floats(-6.0, 0.0),
    at=st.floats(1e-3, 1.0 - 1e-3),
    log_slope=st.floats(0.0, 6.0),
    wall=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_itp_root_stays_in_bracket(a, log_width, at, log_slope, wall):
    """Random brackets around a root of a steep step (tanh) or a one-sided
    exponential wall, where a regula-falsi end can stall: the root is found
    within _XTOL inside [a, b], within one step of bisection's count."""
    b = a + 10.0**log_width
    root, slope = a + at * (b - a), 10.0**log_slope

    def g(q):
        x = slope * (q - root)
        return math.expm1(min(x, 700.0)) if wall else math.tanh(x)

    assume(g(a) < 0.0 < g(b))
    q, calls = _itp_on(g, a, b)
    assert a <= q <= b
    assert abs(q - root) <= spectra._XTOL
    assert len(calls) <= _bisection_steps(a, b) + 1


def test_itp_returns_an_exact_zero_as_is():
    """|g(a)| is so small beside g(b) = e^300 that the regula-falsi point
    rounds onto a; the guard takes the midpoint, where g is exactly zero, and that
    point is returned after one evaluation."""
    a, b = 1.0, 1.06
    mid = 0.5 * (a + b)

    def g(q):
        return math.expm1(1e4 * (q - mid))

    assert (g(b) * a - g(a) * b) / (g(b) - g(a)) == a
    q, calls = _itp_on(g, a, b)
    assert calls == [mid] and q == mid


def test_matched_robin_ground_to_rounding():
    """U = Dl = robin_matrix(theta) has its ground at kappa = tan(theta/2)/L0
    exactly.  The refined root is the end of the final bracket with the
    smaller |g|, which sits within rounding of the root; the midpoint of
    that bracket would be up to half its width (_XTOL) off."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        theta, l = rng.uniform(0.2, 2.6), rng.uniform(0.6, 2.0)
        m = robin_matrix(theta)
        sp = solve_interval_spectrum(SystemSpec(Geometry.interval(l), m, m), n_levels=1)
        exact = math.tan(theta / 2.0)
        assert sp.ground.sector == "negative"
        worst = max(worst, abs(sp.ground.wavenumber - exact) / exact)
    assert worst <= 2e-15
