"""Test-only helpers: random draws, pointwise evaluation, per-state
boundary values and residuals, inner products, half parity and charge
images, the per-state annihilation rule, level energies, and closed-form
residuals that no module of the package needs.

They are written over the package's own basis and boundary-form
primitives, so a test built on them checks the same conventions the
solver and the classifier use.
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from singular_susy import IDENTITY, GeometryMismatchError, diagonalize_u2, inverse_robin_length
from singular_susy.spectra import _interval_matrix
from singular_susy.system import (
    _basis_values,
    _endpoint,
    _form_residual,
    _gram,
    boundary_data,
    derivative_rep,
    half_parity_coeffs,
)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random U(2) element via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def robin_length(theta: float, L0: float = 1.0) -> float:
    """Robin length L0 cot(theta/2); +inf at the Neumann point theta = 0."""
    inverse_robin_length(theta, L0)  # rejects theta = pi and bad L0, as the package does
    t = float(theta) % (2.0 * np.pi)
    if t == 0.0:
        return np.inf
    return L0 / np.tan(t / 2.0)


def snapped_ends(spec) -> list:
    """U, and then Dl on an interval, as the boundary form reads them: an
    eigenvalue w within 1e-9 of -1 (but not exactly -1) is set to -1, in U
    by subtracting (w + 1) times the projector on its eigenvector from
    diagonalize_u2, in the diagonal Dl by writing -1 in its slot."""
    v, d = diagonalize_u2(spec.U)
    u = spec.U.copy()
    for j in range(2):
        w = d[j, j]
        if abs(w + 1.0) <= 1e-9 and w != -1.0:
            u = u - (w + 1.0) * np.outer(np.conj(v[j]), v[j])
    if spec.Dl is None:
        return [u]
    dl = spec.Dl.copy()
    for j in range(2):
        if abs(dl[j, j] + 1.0) <= 1e-9 and dl[j, j] != -1.0:
            dl[j, j] = -1.0
    return [u, dl]


def evaluate(wf, x: float) -> np.ndarray:
    """Psi(x) as a 2-vector, from the closed-form basis."""
    return wf.coeffs @ _basis_values(wf.geometry, wf.sector, wf.wavenumber, x)


def derivative(wf, x: float) -> np.ndarray:
    """Psi'(x), exact (the basis is differentiated analytically)."""
    vals = _basis_values(wf.geometry, wf.sector, wf.wavenumber, x)
    return (wf.coeffs @ derivative_rep(wf.geometry, wf.sector, wf.wavenumber).T) @ vals


class BoundaryData(NamedTuple):
    """One-sided boundary values (Psi, Psi') of one state at an endpoint."""

    psi: np.ndarray
    dpsi: np.ndarray


def endpoint_data(wf, at: str = "origin") -> BoundaryData:
    """One-sided limits (Psi, Psi') of one state at x -> +0 ("origin") or
    x = l ("wall")."""
    x = _endpoint(wf.geometry, at)
    return BoundaryData(*boundary_data(wf.geometry, wf.sector, wf.wavenumber, wf.coeffs, x))


def connection_residual(spec, b) -> float:
    """Scale-free violation of the singularity condition at x = +0, for the
    BoundaryData b of one state."""
    return float(_form_residual(spec, 0, b.psi, b.dpsi))


def wall_residual(spec, b) -> float:
    """Scale-free violation of the wall condition at x = l."""
    if not spec.geometry.is_interval:
        raise GeometryMismatchError("wall condition exists only on an interval")
    return float(_form_residual(spec, 1, b.psi, b.dpsi))


def wf_inner(wf1, wf2) -> complex:
    """L2 inner product (wf1 conjugated); both states must share a basis."""
    if wf1.geometry != wf2.geometry or wf1.sector != wf2.sector:
        raise ValueError("inner product requires a common sector basis")
    if abs(wf1.wavenumber - wf2.wavenumber) > 1e-9 * max(1.0, wf1.wavenumber):
        raise ValueError("inner product requires equal wavenumbers")
    g = _gram(wf1.geometry, wf1.sector, wf1.wavenumber)
    return complex(np.sum(np.conj(wf1.coeffs) * (wf2.coeffs @ g)))


def l2_norm(wf) -> float:
    """Exact L2 norm; raises NotNormalizableError off the discrete sectors."""
    return float(np.sqrt(max(wf_inner(wf, wf).real, 0.0)))


def normalize(wf):
    n = l2_norm(wf)
    if n < 1e-150:
        raise ValueError("cannot normalize the zero wavefunction")
    return replace(wf, coeffs=wf.coeffs / n)


def half_parity(wf):
    """Reflect the upper component: (psi_+(x), psi_-(x)) -> (psi_+(l-x), psi_-(x)),
    re-expanded in the same sector basis."""
    return replace(
        wf, coeffs=half_parity_coeffs(wf.geometry, wf.sector, wf.wavenumber, wf.coeffs)
    )


def apply(charge, wf):
    """The charge's image of one state; keeps the energy label."""
    return replace(
        wf, coeffs=charge.apply_coeffs(wf.geometry, wf.sector, wf.wavenumber, wf.coeffs)
    )


def annihilates(charge, wf) -> bool:
    """Whether the charge's image of wf vanishes, to 1e-10 relative to the
    charge's size on wf: the per-state rule, applied through apply_coeffs."""
    image = charge.apply_coeffs(wf.geometry, wf.sector, wf.wavenumber, wf.coeffs)
    scale = (
        charge.lam * (wf.wavenumber + 1.0) + np.sqrt(charge.shift)
    ) * np.linalg.norm(wf.coeffs)
    return float(np.linalg.norm(image)) <= 1e-10 * max(scale, 1e-300)


def energies(spectrum) -> list:
    """Level energies of a spectrum, lowest first."""
    return [lv.energy for lv in spectrum.levels]


def secular_matrix(spec, energy: float) -> np.ndarray:
    """4x4 matrix of the interval's matching conditions at the given energy.

    Rows are the two connection conditions followed by the two wall
    conditions; columns multiply the coefficients (A+, B+, A-, B-).
    """
    if energy > 0:
        sector, q = "positive", np.sqrt(energy) / spec.lam
    elif energy == 0:
        sector, q = "zero", 0.0
    else:
        sector, q = "negative", np.sqrt(-energy) / spec.lam
    return _interval_matrix(spec, sector, q)[0]


def point_condition_residual(m, charge) -> float:
    """How far a charge is from preserving the domain of boundary matrix m.

    Zero (to rounding) iff both matrix conditions hold:
      (m + I) K (m + I) = 0
      lam (m - I) K (m - I) + 2 L0 [m, B] = 0
    with K, B the charge's kinetic and shift matrices in the system frame.
    """
    m = np.asarray(m, dtype=complex)
    k = charge.kinetic_matrix
    b = charge.shift_matrix
    c1 = (m + IDENTITY) @ k @ (m + IDENTITY)
    c2 = charge.lam * (m - IDENTITY) @ k @ (m - IDENTITY) + 2.0 * charge.L0 * (
        m @ b - b @ m
    )
    return float(max(np.max(np.abs(c1)), np.max(np.abs(c2))))
