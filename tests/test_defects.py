"""Known large-kappa*l defects of the interval solver, each registered as
strict xfails beside a passing guard.

The interval solver loses bound states from kappa*l of about 8 on, and
misses the lowest positive doublet of the crossed Robin pair just past
L = -1 (ROADMAP, Open defects 1, 3 and 4, and the line-limit recipe).
Every reference here is independent of the solver: a closed form, the
scalar oracle, the boundary-form count of tests/oracle.py, or the line's
own bound states.  A strict xfail that starts passing fails the suite, so
a fix has to remove its marker.
"""

from functools import lru_cache

import numpy as np
import pytest

from singular_susy import Geometry, SystemSpec, solve_interval_spectrum, solve_line_bound_states

from families import crossed_robin_interval, matched_robin_interval, reflected_crossed_interval
from helpers import energies, random_unitary_2x2
from oracle import count_ground_energy, oracle_decoupled_roots


def _lost(*values, defect):
    return [pytest.param(v, marks=pytest.mark.xfail(strict=True, reason=defect)) for v in values]


@pytest.mark.parametrize("theta", [2.5, 2.9] + _lost(2.95, 3.0, defect="ROADMAP defect 1"))
def test_matched_robin_ground_near_theta_pi(theta):
    """Matched Robin on l = 1 has its ground at -tan^2(theta/2) (the Robin
    component's e^{-kappa x}, exact on any interval).  From theta = 2.95
    (kappa l = 10.4) on, the solver returns the Dirichlet doublet +pi^2."""
    ground = solve_interval_spectrum(matched_robin_interval(theta), n_levels=1).ground
    want = -np.tan(theta / 2.0) ** 2
    assert ground.multiplicity == 1
    assert abs(ground.energy - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("build", [crossed_robin_interval, reflected_crossed_interval])
@pytest.mark.parametrize("L", [-1.1] + _lost(-1.05, -1.2, defect="ROADMAP defect 4"))
def test_crossed_lowest_positive_doublet(build, L):
    """Just past the zero doublet at L = -1, the crossed pair and its
    half-parity image have their lowest level as a positive doublet at the
    scalar oracle's first k.  At L = -1.05 and -1.2 the solver skips it."""
    k = oracle_decoupled_roots(0.0, L, 1.0, n_levels=1).k[0]
    ground = solve_interval_spectrum(build(L), n_levels=2).ground
    assert (ground.sector, ground.multiplicity) == ("positive", 2)
    assert abs(ground.wavenumber - k) <= 1e-9 * k


@lru_cache(maxsize=None)
def _haar_systems() -> tuple:
    """ROADMAP's Haar recipe: 25 interval systems from default_rng(5)."""
    rng = np.random.default_rng(5)
    systems = []
    for _ in range(25):
        l = rng.uniform(0.6, 2.0)
        L0 = rng.uniform(0.5, 2.0)
        u = random_unitary_2x2(rng)
        dl = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2)))
        systems.append(SystemSpec(Geometry.interval(l), u, dl, 1.0, L0))
    return tuple(systems)


HAAR_LOST = (3, 7, 10, 20, 23)  # kappa l = 88, 46, 16, 16 and 1964


def _assert_count_ground(spec):
    want = count_ground_energy(spec)
    ground = solve_interval_spectrum(spec, n_levels=1).ground
    if want is None:
        assert ground.energy >= 0.0
    else:
        assert abs(ground.energy - want) <= 1e-9 * abs(want)


def test_haar_grounds_match_the_count():
    """On the other 20 Haar systems the solver's ground agrees with the
    boundary-form count: the same negative energy, or no negative level."""
    for i, spec in enumerate(_haar_systems()):
        if i not in HAAR_LOST:
            _assert_count_ground(spec)


@pytest.mark.xfail(strict=True, reason="ROADMAP defect 3")
@pytest.mark.parametrize("index", HAAR_LOST)
def test_haar_lost_ground(index):
    """Systems 3, 7, 10, 20 and 23 have a negative ground by the count; the
    solver returns a positive one."""
    _assert_count_ground(_haar_systems()[index])


@lru_cache(maxsize=None)
def _line_limit_systems() -> tuple:
    """ROADMAP's line-limit recipe: of 40 half-line systems from
    default_rng(7), the 29 with bound states, as (U, L0, line levels)."""
    rng = np.random.default_rng(7)
    systems = []
    for _ in range(40):
        u = random_unitary_2x2(rng)
        L0 = rng.uniform(0.5, 2.0)
        levels = solve_line_bound_states(SystemSpec(Geometry.line(), u, None, 1.0, L0)).levels
        if levels:
            systems.append((u, L0, levels))
    assert len(systems) == 29
    return tuple(systems)


def _assert_line_limit(K: float, kappa_l_max: float):
    """Put each line system's U against a Dirichlet wall at l = K / kappa_min.
    A bound state of rate kappa then moves by a relative 4 e^{-2 kappa l} to
    leading order (kappa tanh(kappa l) = rate for a decoupled component), so
    every line level with kappa l <= kappa_l_max must have an interval level
    within 10 e^{-2 kappa l} relative, floored at 1e-9."""
    for u, L0, line_levels in _line_limit_systems():
        l = K / min(lv.wavenumber for lv in line_levels)
        spec = SystemSpec(Geometry.interval(l), u, -np.eye(2), 1.0, L0)
        got = energies(solve_interval_spectrum(spec, n_levels=len(line_levels)))
        for lv in line_levels:
            kappa_l = lv.wavenumber * l
            if kappa_l > kappa_l_max:
                continue
            tol = (10.0 * np.exp(-2.0 * kappa_l) + 1e-9) * abs(lv.energy)
            assert any(abs(e - lv.energy) <= tol for e in got), (lv.energy, got)


def test_line_limit_at_kappa_l_5():
    """Guard: with the wall at kappa_min l = 5 every state with kappa l <= 5
    is found, within the derived tolerance."""
    _assert_line_limit(5.0, 5.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP line-limit recipe")
def test_line_limit_at_kappa_l_25():
    """At kappa_min l = 25 the interval's bound states are the line's to
    within e^{-50}; the solver returns none of them, on all 29 systems."""
    _assert_line_limit(25.0, np.inf)
