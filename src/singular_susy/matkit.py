"""Small 2x2 matrix toolkit: Pauli algebra, U(2) diagonalization, Euler angles.

Everything in this module is exact linear algebra on 2x2 complex arrays.
The diagonalization convention is fixed once here and relied on everywhere
else: ``diagonalize_u2(U)`` returns ``(V, D)`` with ``V @ U @ V^dag == D``,
``V`` in SU(2), and an eigenvalue at -1 (when present) placed lower-right.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnitaryError

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
PAULI = (SIGMA1, SIGMA2, SIGMA3)
_TWO_PI = 2.0 * np.pi
_TOL = 1e-10  # unitarity, and eigenvalues closer than this are one
_PHASE_TOL = 1e-9  # an eigenvalue this close to -1 is the Dirichlet one
_DIAGONAL_TOL = 1e-10  # off-diagonal entries up to this read as diagonal


def pauli_combination(v) -> np.ndarray:
    """Return v[0]*sigma1 + v[1]*sigma2 + v[2]*sigma3."""
    v = np.asarray(v, dtype=complex)
    return v[0] * SIGMA1 + v[1] * SIGMA2 + v[2] * SIGMA3


def pauli_vector(m) -> np.ndarray:
    """Pauli components of a 2x2 matrix: (tr(m s_i)/2 for i in 1..3).

    The identity component tr(m)/2 is dropped; callers that need it take
    the trace themselves.
    """
    m = np.asarray(m, dtype=complex)
    return np.array([np.trace(m @ s) / 2.0 for s in PAULI])


def is_unitary(m, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        return False
    return np.max(np.abs(m.conj().T @ m - IDENTITY)) <= tol


def conjugate(w, m) -> np.ndarray:
    """w @ m @ w^dag, the frame change used for boundary matrices."""
    w = np.asarray(w, dtype=complex)
    m = np.asarray(m, dtype=complex)
    return w @ m @ w.conj().T


def _is_diagonal(m) -> bool:
    return max(abs(m[0, 1]), abs(m[1, 0])) <= _DIAGONAL_TOL


def circular_distance(x: float, y: float) -> float:
    """Distance between two angles, in radians, on the circle."""
    return abs((x - y + np.pi) % _TWO_PI - np.pi)


def su2_from_euler(mu: float, nu: float) -> np.ndarray:
    """SU(2) element exp(i mu/2 sigma2) exp(i nu/2 sigma3).

    mu in [0, pi] tilts the third axis, nu rotates about it.  The pair
    is the canonical frame label used for boundary matrices: conjugating
    diag(e^{i theta}, -1) by the inverse of this element sweeps out every
    unitary with those eigenvalues.
    """
    cm, sm = np.cos(mu / 2.0), np.sin(mu / 2.0)
    en = np.exp(0.5j * nu)
    return np.array([[cm * en, sm / en], [-sm * en, cm / en]], dtype=complex)


def euler_angles_of(v) -> tuple[float, float]:
    """Invert su2_from_euler on an SU(2) matrix, with gauge fixing.

    At mu ~ 0 the nu angle only rephases a diagonal conjugation, so it is
    pinned to 0; at mu ~ pi it is read off the surviving off-diagonal entry.
    Returns (mu, nu) with mu in [0, pi] and nu in [0, 2 pi).
    """
    v = np.asarray(v, dtype=complex)
    a, b = v[0, 0], v[0, 1]
    mu = 2.0 * np.arctan2(abs(b), abs(a))
    if abs(b) < 1e-12:
        return 0.0, 0.0
    if abs(a) < 1e-12:
        return np.pi, float((-2.0 * np.angle(b)) % _TWO_PI)
    nu = (np.angle(a) - np.angle(b)) % _TWO_PI
    return float(mu), float(nu)


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's overall phase so its largest entry is real > 0."""
    i = int(np.argmax(np.abs(vec)))
    phase = vec[i] / abs(vec[i])
    return vec / phase


def diagonalize_u2(u):
    """Diagonalize a U(2) matrix: returns (V, D) with V @ u @ V^dag = D.

    V is special unitary.  If exactly one eigenvalue sits at -1 (within
    _PHASE_TOL) it is placed in the lower-right slot; that slot is what the
    Robin-form boundary matrix diag(e^{i theta}, -1) expects.  Degenerate u
    (eigenvalues within _TOL, a multiple of the identity) returns V = I.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, _TOL):
        raise NotUnitaryError("matrix is not unitary within %.1e" % _TOL)
    tr = u[0, 0] + u[1, 1]
    # tr^2 - 4 det without the cancellation when both eigenvalues are close
    disc = np.sqrt((u[0, 0] - u[1, 1]) ** 2 + 4.0 * u[0, 1] * u[1, 0] + 0.0j)
    w1 = (tr + disc) / 2.0
    w2 = (tr - disc) / 2.0
    if abs(w1 - w2) <= _TOL:
        return IDENTITY.copy(), np.diag([w1, w2]).astype(complex)
    # a lone -1 eigenvalue goes last
    if abs(w1 + 1.0) <= _PHASE_TOL and abs(w2 + 1.0) > _PHASE_TOL:
        w1, w2 = w2, w1
    vec1 = _eigvec(u, w1)
    vec2 = np.array([-np.conj(vec1[1]), np.conj(vec1[0])])
    # orient the second vector onto its own eigenvalue's phase convention
    vec2 = _phase_fixed(vec2)
    p = np.column_stack([vec1, vec2])
    v = p.conj().T
    detv = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    v = v * np.exp(-0.5j * np.angle(detv))
    return v, np.diag([w1, w2]).astype(complex)


def _eigvec(u: np.ndarray, w: complex) -> np.ndarray:
    """Unit eigenvector of u for eigenvalue w, phase-fixed."""
    m = u - w * IDENTITY
    rows = [m[0], m[1]]
    norms = [np.linalg.norm(r) for r in rows]
    r = rows[int(np.argmax(norms))]
    if max(norms) < _TOL:
        vec = np.array([1.0, 0.0], dtype=complex)
    else:
        vec = np.array([-r[1], r[0]], dtype=complex)
        vec = vec / np.linalg.norm(vec)
    return _phase_fixed(vec)

