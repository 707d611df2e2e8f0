"""Supersymmetry classification for point-singularity systems.

A first-order charge Q = (-i lam d/dx (V^dag sigma_a V) + V^dag sigma_b V)/sqrt(2)
preserves the domain fixed by a boundary matrix M exactly when M has
eigenvalues {-1, e^{i theta}} with theta != pi and the shift vector is tied
to theta through the Robin length.  One charge finder serves both
geometries: the line is the interval without a wall, so the condition at
x = 0 alone leaves an alpha-family of two charges (N2).  On an interval the
charge must satisfy the wall condition as well; comparing the two
diagonalizing frames through their relative Euler tilt mu decides between
N2, a single charge with a fixed sigma3 shift component (N1), or none.

Interval systems with diagonal U whose boundary matrices lack the pair
(both proportional to the identity arise as reflections of solved ones)
are classified by transporting the charges of the upper-component-reflected
system; such charges carry reflected=True and apply_coeffs() folds the
reflection in.  classify_system builds every classification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import GeometryMismatchError, NotDiagonalError
from .matkit import (
    IDENTITY,
    SIGMA1,
    _PHASE_TOL,
    _TWO_PI,
    _is_diagonal,
    _is_dirichlet,
    circular_distance,
    conjugate,
    diagonalize_u2,
    euler_angles_of,
    is_unitary,
    pauli_combination,
    su2_from_euler,
)
from . import spectra
from .system import (
    SystemSpec,
    WaveFunction,
    _frozen,
    derivative_rep,
    half_parity_coeffs,
    inverse_robin_length,
)

_ANNIHILATE_TOL = 1e-10
_SQRT2 = np.sqrt(2.0)

DEGREES = ("none", "N1", "N2")
GOODNESS = ("Good", "Broken", "NotApplicable")


@dataclass(frozen=True, eq=False)
class SuperchargeSpec:
    """One supercharge: kinetic direction, shift vector, conjugating frame.

    In the frame where the boundary matrix is diag(e^{i theta}, -1) the
    charge reads q(alpha, c; theta) with
        a = (cos alpha, sin alpha, 0),
        b = (lam tan(theta/2)/L0) (sin alpha, -cos alpha, 0) + (0, 0, c),
    and the stored conjugator V carries it to the system frame.
    apply_coeffs() realizes Q = V^dag q V / sqrt(2) on closed-form
    coefficients, so applying twice multiplies an energy-E eigenstate by
    (E + |b|^2)/2.
    """

    alpha: float
    c: float
    theta: float
    lam: float = 1.0
    L0: float = 1.0
    conjugator: np.ndarray | None = None
    reflected: bool = False

    def __post_init__(self):
        t = float(self.theta) % _TWO_PI
        inverse_robin_length(t, self.L0)  # rejects theta = pi and bad L0
        object.__setattr__(self, "theta", t)
        for name in ("alpha", "c", "lam"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError("%s must be finite" % name)
            object.__setattr__(self, name, v)
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        v = IDENTITY.copy() if self.conjugator is None else np.array(self.conjugator, dtype=complex)
        if not is_unitary(v, 1e-9):
            raise ValueError("conjugator must be unitary")
        det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
        if abs(det - 1.0) > 1e-9:
            raise ValueError("conjugator must be special unitary")
        v.setflags(write=False)
        object.__setattr__(self, "conjugator", v)

    def __reduce__(self):
        # rebuild from the fields, so the cached matrices below are never copied
        return (
            type(self),
            (self.alpha, self.c, self.theta, self.lam, self.L0, self.conjugator, self.reflected),
        )

    @property
    def a_vec(self) -> np.ndarray:
        return np.array([np.cos(self.alpha), np.sin(self.alpha), 0.0])

    @property
    def b_vec(self) -> np.ndarray:
        g = self.lam * inverse_robin_length(self.theta, self.L0)
        return np.array(
            [g * np.sin(self.alpha), -g * np.cos(self.alpha), self.c]
        )

    @cached_property
    def shift(self) -> float:
        """|b|^2, the constant by which the algebra shifts H."""
        g = self.lam * inverse_robin_length(self.theta, self.L0)
        return float(g * g + self.c * self.c)

    @cached_property
    def kinetic_matrix(self) -> np.ndarray:
        """V^dag (a . sigma) V, read-only; computed once per charge."""
        return _frozen(conjugate(self.conjugator.conj().T, pauli_combination(self.a_vec)))

    @cached_property
    def shift_matrix(self) -> np.ndarray:
        """V^dag (b . sigma) V, read-only; computed once per charge."""
        return _frozen(conjugate(self.conjugator.conj().T, pauli_combination(self.b_vec)))

    def apply_coeffs(self, geometry, sector: str, q, coeffs) -> np.ndarray:
        """Image coefficients under the charge of states of one sector: q a
        wavenumber and coeffs (2, 2), or q of shape (n,) and coeffs
        (n, 2, 2).  A reflected charge is conjugated by the half parity."""
        if self.reflected:
            coeffs = half_parity_coeffs(geometry, sector, q, coeffs)
        dcoeffs = coeffs @ derivative_rep(geometry, sector, q).swapaxes(-1, -2)
        new = (
            -1j * self.lam * (self.kinetic_matrix @ dcoeffs)
            + self.shift_matrix @ coeffs
        ) / _SQRT2
        if self.reflected:
            new = half_parity_coeffs(geometry, sector, q, new)
        return new


@dataclass(frozen=True)
class SusyClassification:
    degree: str
    charges: tuple
    shift: float
    goodness: str
    notes: tuple = ()

    def __post_init__(self):
        if self.degree not in DEGREES:
            raise ValueError("unknown degree %r" % (self.degree,))
        if self.goodness not in GOODNESS:
            raise ValueError("unknown goodness %r" % (self.goodness,))
        object.__setattr__(self, "charges", tuple(self.charges))
        object.__setattr__(self, "notes", tuple(self.notes))


def admits_susy_at_point(m) -> tuple[float, np.ndarray] | None:
    """(theta, V) if m has eigenvalues {-1, e^{i theta != pi}}, else None.

    V is the SU(2) frame with V m V^dag = diag(e^{i theta}, -1); the -1
    eigenvalue must be simple, so +-identity and every other matrix without
    a -1 eigenvalue are rejected.
    """
    v, d = diagonalize_u2(np.asarray(m, dtype=complex))
    if not _is_dirichlet(d[1, 1]) or _is_dirichlet(d[0, 0]):
        return None
    return float(np.angle(d[0, 0]) % _TWO_PI), v


def _annihilates(charge: SuperchargeSpec, wf: WaveFunction) -> bool:
    """Whether the charge's image of wf vanishes, to _ANNIHILATE_TOL
    relative to the charge's size on wf."""
    image = charge.apply_coeffs(wf.geometry, wf.sector, wf.wavenumber, wf.coeffs)
    scale = (
        charge.lam * (wf.wavenumber + 1.0) + np.sqrt(charge.shift)
    ) * np.linalg.norm(wf.coeffs)
    return float(np.linalg.norm(image)) <= _ANNIHILATE_TOL * max(scale, 1e-300)


def _goodness(
    spec: SystemSpec, charges: tuple, spectrum: spectra.Spectrum | None
) -> str:
    """Good iff the ground level is simple and every charge annihilates it;
    only the ground level is read, so without a spectrum one level is solved."""
    if spectrum is None:
        spectrum = spectra.solve_spectrum(spec, n_levels=1)
    ground = spectrum.ground
    if ground is None:
        return "NotApplicable"
    if ground.multiplicity == 1 and all(
        _annihilates(q, st) for q in charges for st in ground.states
    ):
        return "Good"
    return "Broken"


def _degree(spec: SystemSpec, allow_reflection: bool = True):
    """(degree, charges, notes) of the charges that keep the domain.

    U must admit a charge, which fixes theta and its frame.  The line has
    no wall, so the whole alpha-family survives (N2).  On the interval Dl
    must admit one too; the relative Euler tilt mu between the two frames
    then selects the branch: mu in {0, pi} with matching phases keeps the
    family (N2), and any other tilt fixes alpha = pi/2 and the sigma3
    component c, leaving a single charge (N1).  The frames are rebuilt
    from their Euler angles, which pins the diagonal-phase gauge that
    diagonalizers leave free without disturbing V^dag D V.
    """
    interval = spec.geometry.is_interval
    found_u = admits_susy_at_point(spec.U)
    found_d = admits_susy_at_point(spec.Dl) if interval else found_u
    if found_u is None or found_d is None:
        if not interval:
            return "none", (), ("eigenvalues of U are not {-1, e^{i theta != pi}}",)
        if allow_reflection and _is_diagonal(spec.U):
            mirrored = half_parity_system(spec)
            degree, charges, notes = _degree(mirrored, allow_reflection=False)
            if degree != "none":
                dressed = tuple(replace(q, reflected=True) for q in charges)
                return (
                    degree,
                    dressed,
                    notes + ("charges transported through the upper-component reflection",),
                )
        return "none", (), ("a boundary matrix lacks the {-1, e^{i theta}} pair",)
    theta, v_raw = found_u
    theta_l, _ = found_d
    # normalize the wall frame: a -1 in the upper-left slot is swapped down
    swapped = interval and not _is_dirichlet(spec.Dl[1, 1])
    s = 1j * SIGMA1 if swapped else IDENTITY
    mu, nu = euler_angles_of(v_raw @ s.conj().T)
    v = su2_from_euler(mu, nu) @ s
    if (
        not interval
        or (mu < _PHASE_TOL and circular_distance(theta, theta_l) < _PHASE_TOL)
        or (abs(mu - np.pi) < _PHASE_TOL and circular_distance(theta, -theta_l) < _PHASE_TOL)
    ):
        pair = (
            SuperchargeSpec(0.0, 0.0, theta, spec.lam, spec.L0, v),
            SuperchargeSpec(np.pi / 2.0, 0.0, theta, spec.lam, spec.L0, v),
        )
        return "N2", pair, ("alpha is free; the canonical alpha = 0, pi/2 pair is stored",)
    if min(mu, np.pi - mu) >= _PHASE_TOL:
        inv0 = inverse_robin_length(theta, spec.L0)
        invl = inverse_robin_length(theta_l, spec.L0)
        c = spec.lam * (invl - inv0 * np.cos(mu)) / np.sin(mu)
        charge = SuperchargeSpec(np.pi / 2.0, c, theta, spec.lam, spec.L0, v)
        return "N1", (charge,), ("alpha = -pi/2 yields the same charge up to overall sign",)
    return "none", (), ("frame tilt and boundary phases are incompatible",)


def classify_system(
    spec: SystemSpec, spectrum: spectra.Spectrum | None = None
) -> SusyClassification:
    """SUSY degree (N2 / N1 / none), charges, shift |b|^2 and goodness of a
    line or interval system.  Goodness is read off the ground level of
    spectrum, which is solved when not given."""
    degree, charges, notes = _degree(spec)
    if degree == "none":
        return SusyClassification("none", (), 0.0, "NotApplicable", notes)
    return SusyClassification(
        degree, charges, charges[0].shift, _goodness(spec, charges, spectrum), notes
    )


def half_parity_system(spec: SystemSpec) -> SystemSpec:
    """Boundary pair of the upper-component-reflected system.

    Reflecting psi_+ about the midpoint trades its origin and wall Robin
    scales and flips their signs, which conjugates the upper-left entries
    of U and Dl and swaps them; lower-component entries are untouched.
    Applying it twice returns the original system.
    """
    if not spec.geometry.is_interval:
        raise GeometryMismatchError("the reflection needs an interval")
    if not _is_diagonal(spec.U):
        raise NotDiagonalError("the reflection rule is defined for diagonal U")
    u, d = spec.U, spec.Dl
    new_u = np.diag([np.conj(d[0, 0]), u[1, 1]])
    new_d = np.diag([np.conj(u[0, 0]), d[1, 1]])
    return SystemSpec(spec.geometry, new_u, new_d, spec.lam, spec.L0)
