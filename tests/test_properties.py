"""Metamorphic properties of the interval solver that need no oracle.

A system and its half-parity image are isospectral, and conjugating U and
Dl by one diagonal unitary, or swapping the two components of both,
changes neither the levels nor the SUSY degree and goodness.  Hypothesis
draws the systems with every boundary rate |tan(phi/2)| l / L0 at most 6,
where the solver keeps every level; at rate * l above 10 it loses bound
states differently in each frame, and those cases are strict xfails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singular_susy import (
    SIGMA1,
    Geometry,
    SystemSpec,
    classify_system,
    half_parity_system,
    solve_interval_spectrum,
    su2_from_euler,
)

from families import crossed_robin_interval
from helpers import energies

N_LEVELS = 3
RATE_L_MAX = 6.0

lengths = st.floats(min_value=0.5, max_value=2.0)
# a boundary eigenvalue by its rate * l on a 0.01 grid, or None for
# Dirichlet (-1); rates near the smallest double are their own xfail below
rates = st.one_of(
    st.none(), st.integers(-100 * int(RATE_L_MAX), 100 * int(RATE_L_MAX)).map(lambda n: n / 100.0)
)
angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)
properties = settings(max_examples=6, deadline=None, derandomize=True)


def _phases(rate_l, l, L0) -> np.ndarray:
    """e^{i phi} with tan(phi/2) = rate_l L0 / l, each None giving -1."""
    return np.array([-1.0 if r is None else np.exp(2j * np.arctan(r * L0 / l)) for r in rate_l])


def _interval(l, L0, u_rates, dl_rates, mu=0.0, nu=0.0) -> SystemSpec:
    """U with the given eigenvalues in the frame su2_from_euler(mu, nu), and
    the diagonal wall Dl."""
    v = su2_from_euler(mu, nu)
    u = v.conj().T @ np.diag(_phases(u_rates, l, L0)) @ v
    return SystemSpec(Geometry.interval(l), u, np.diag(_phases(dl_rates, l, L0)), 1.0, L0)


def _rephased(spec, phi) -> SystemSpec:
    """U and Dl conjugated by diag(1, e^{i phi}); a diagonal Dl is unchanged."""
    v = np.diag([1.0, np.exp(1j * phi)])
    return SystemSpec(spec.geometry, v @ spec.U @ v.conj().T, spec.Dl, spec.lam, spec.L0)


def _swapped(spec) -> SystemSpec:
    """U and Dl with their two components exchanged (conjugation by sigma1)."""
    return SystemSpec(spec.geometry, SIGMA1 @ spec.U @ SIGMA1, SIGMA1 @ spec.Dl @ SIGMA1, spec.lam, spec.L0)


def _assert_same_levels(a, b, l):
    assert [lv.multiplicity for lv in a.levels] == [lv.multiplicity for lv in b.levels]
    np.testing.assert_allclose(energies(a), energies(b), rtol=1e-8, atol=1e-8 / l**2)


def _assert_half_parity_isospectral(spec):
    a = solve_interval_spectrum(spec, N_LEVELS)
    b = solve_interval_spectrum(half_parity_system(spec), N_LEVELS)
    _assert_same_levels(a, b, spec.l)


def _assert_frame_covariant(spec, image):
    a = solve_interval_spectrum(spec, N_LEVELS)
    b = solve_interval_spectrum(image, N_LEVELS)
    _assert_same_levels(a, b, spec.l)
    cls_a, cls_b = classify_system(spec, a), classify_system(image, b)
    assert (cls_a.degree, cls_a.goodness) == (cls_b.degree, cls_b.goodness)


@given(lengths, lengths, st.tuples(rates, rates), st.tuples(rates, rates))
@properties
def test_half_parity_isospectral(l, L0, u_rates, dl_rates):
    _assert_half_parity_isospectral(_interval(l, L0, u_rates, dl_rates))


@given(lengths, lengths, st.tuples(rates, rates), st.tuples(rates, rates), angles, angles, angles)
@properties
def test_diagonal_frame_covariance(l, L0, u_rates, dl_rates, mu, nu, phi):
    spec = _interval(l, L0, u_rates, dl_rates, mu % np.pi, nu)
    _assert_frame_covariant(spec, _rephased(spec, phi))


@given(lengths, lengths, st.tuples(rates, rates), st.tuples(rates, rates), angles, angles)
@properties
def test_component_swap_covariance(l, L0, u_rates, dl_rates, mu, nu):
    spec = _interval(l, L0, u_rates, dl_rates, mu % np.pi, nu)
    _assert_frame_covariant(spec, _swapped(spec))


LARGE_RATE = pytest.mark.xfail(strict=True, reason="bound states lost from rate * l of about 8 on")


@LARGE_RATE
@pytest.mark.parametrize("L", [-0.08, -0.07, -0.06])
def test_half_parity_isospectral_at_large_rate(L):
    """Crossed Robin on l = 1 at rate * l = 1/|L| = 12.5 to 16.7: the
    crossed system keeps its negative level, its half-parity image loses it."""
    _assert_half_parity_isospectral(crossed_robin_interval(L))


@LARGE_RATE
def test_diagonal_frame_covariance_at_large_rate():
    """Origin rates (12, 4) in the frame (mu, nu) = (0.2, 2.5) and wall rates
    (-14, -16) on l = 1: conjugating by diag(1, e^{0.4 i}) finds a level at
    -144 that the system itself misses."""
    spec = _interval(1.0, 1.0, (12.0, 4.0), (-14.0, -16.0), 0.2, 2.5)
    _assert_frame_covariant(spec, _rephased(spec, 0.4))


@LARGE_RATE
def test_component_swap_covariance_at_large_rate():
    """Diagonal U with rates (11, 13) and wall rates (-2, -14) on l = 1: the
    swapped system finds a level at -169 that the system itself misses."""
    spec = _interval(1.0, 1.0, (11.0, 13.0), (-2.0, -14.0))
    _assert_frame_covariant(spec, _swapped(spec))


@pytest.mark.xfail(strict=True, reason="zero mode lost at a wall rate near the smallest double")
# the lost zero mode comes with numpy's divide-by-zero warnings in det: the
# xfail is the missing level, not the warning that the suite turns into an error
@pytest.mark.filterwarnings("default::RuntimeWarning")
@pytest.mark.parametrize("l, rate_l", [(1.0, 5e-324), (2.0, 2.2250738585072014e-308)])
def test_half_parity_isospectral_at_tiny_wall_rate(l, rate_l):
    """A Neumann origin against a wall rate * l of about 1e-308 on the first
    component, Dirichlet on the second: the half-parity image keeps the
    zero mode at E = 0, the system loses it (its determinant scan divides by
    zero)."""
    _assert_half_parity_isospectral(_interval(l, 1.0, (0.0, None), (rate_l, None)))
