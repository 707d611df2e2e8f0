"""Test-only helpers: random draws, pointwise evaluation and closed-form
residuals that no module of the package needs.

They are written over the package's own basis and boundary-form
primitives, so a test built on them checks the same conventions the
solver and the classifier use.
"""

import numpy as np

from singular_susy import IDENTITY, inverse_robin_length
from singular_susy.spectra import _interval_matrix
from singular_susy.system import _basis_values, derivative_rep


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


def evaluate(wf, x: float) -> np.ndarray:
    """Psi(x) as a 2-vector, from the closed-form basis."""
    return wf.coeffs @ _basis_values(wf.geometry, wf.sector, wf.wavenumber, x)


def derivative(wf, x: float) -> np.ndarray:
    """Psi'(x), exact (the basis is differentiated analytically)."""
    vals = _basis_values(wf.geometry, wf.sector, wf.wavenumber, x)
    return (wf.coeffs @ derivative_rep(wf.geometry, wf.sector, wf.wavenumber).T) @ vals


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
