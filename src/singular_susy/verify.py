"""Numerical verification of the supersymmetry structure.

Every claim the classifier makes is re-checked here on concrete
eigenstates: images of charges stay in the operator domain, applying a
charge twice reproduces (E + |b|^2)/2, distinct charges anticommute,
degenerate levels are mapped into themselves, the kinetic boundary form
vanishes at the endpoints, the spectrum respects the algebraic lower
bound, and the first-order charge has deficiency indices (2,2) on an
interval and (1,1) on a half line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import (
    SuperchargeSpec,
    SusyClassification,
    classify_system,
)
from .matkit import _phase_fixed, pauli_combination, pauli_vector
from . import spectra
from .system import (
    SystemSpec,
    _endpoint,
    _form_residual,
    _gram,
    _gram_norms,
    boundary_data,
    half_parity_coeffs,
)

_ALGEBRA_TOL = 1e-10
_FORM_TOL = 1e-10
_LOWER_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "details": self.details,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
        }


class _Stack:
    """The states of one sector, stacked: wavenumbers, kinetic scales and
    energies of shape (n,), coefficients (n, 2, 2), and index, where each
    state sits in the input sequence."""

    __slots__ = ("geometry", "sector", "q", "lam", "energy", "coeffs", "index")

    def __init__(self, states, index: list):
        members = [states[i] for i in index]
        self.geometry = members[0].geometry
        self.sector = members[0].sector
        self.q = np.array([st.wavenumber for st in members])
        self.lam = np.array([st.lam for st in members])
        self.energy = np.array([st.energy for st in members])
        self.coeffs = np.array([st.coeffs for st in members])
        self.index = np.array(index)

    def image(self, charge: SuperchargeSpec, coeffs=None) -> np.ndarray:
        """Coefficients of charge applied to each state, or to the stacked
        coeffs of the same sector and wavenumbers."""
        c = self.coeffs if coeffs is None else coeffs
        return charge.apply_coeffs(self.geometry, self.sector, self.q, c)


def _stacks(states) -> list:
    """states grouped by sector, since the basis and so every per-state
    matrix depends on the sector."""
    groups = {}
    for i, st in enumerate(states):
        groups.setdefault(st.sector, []).append(i)
    return [_Stack(states, index) for index in groups.values()]


def _frobenius(c: np.ndarray) -> np.ndarray:
    """Frobenius norm of each 2x2 matrix in a (..., 2, 2) stack."""
    return np.linalg.norm(c.reshape(c.shape[:-2] + (4,)), axis=-1)


def _worst(residuals: list) -> float:
    """Largest residual, 0 for none; a NaN anywhere makes it NaN, so a
    broken state fails every tolerance instead of dropping out of the max."""
    return float(np.max(np.concatenate([np.zeros(1)] + residuals)))


def check_domain_preservation(
    spec: SystemSpec, charges, states, tol: float = 1e-8
) -> CheckResult:
    """The images of domain elements must satisfy the same boundary
    conditions; a failure here means a charge is not a symmetry.  An image
    below its rounding floor is the zero element, which trivially
    satisfies the conditions, and reads residual 0."""
    ends = [(0, 0.0)] + ([(1, spec.l)] if spec.geometry.is_interval else [])
    residuals = []
    for st in _stacks(states):
        cnorm = _frobenius(st.coeffs)
        for charge in charges:
            image = st.image(charge)
            floor = 1e-12 * (
                (charge.lam * (st.q + 1.0) + np.sqrt(charge.shift) + 1.0) * cnorm
            )
            # a NaN image is never below the floor, so it is checked below
            moved = ~(_frobenius(image) <= floor)
            for end, x in ends:
                psi, dpsi = boundary_data(
                    st.geometry, st.sector, st.q[moved], image[moved], x
                )
                residuals.append(_form_residual(spec, end, psi, dpsi))
    worst = _worst(residuals)
    details = "%d states x %d charges" % (len(states), len(charges))
    return CheckResult("domain preservation", worst <= tol, worst, tol, details)


def check_algebra(
    spec: SystemSpec,
    q1: SuperchargeSpec,
    q2: SuperchargeSpec,
    states,
) -> CheckResult:
    """On energy-E eigenstates: Q_i(Q_i wf) = ((E + |b|^2)/2) wf for each
    charge, and Q_1 Q_2 + Q_2 Q_1 = 0 when the charges differ."""
    charges = (q1,) if q1 is q2 else (q1, q2)
    residuals = []
    for st in _stacks(states):
        e = st.energy
        cn = _frobenius(st.coeffs)

        def relative(c, shift):
            scale = np.abs(e) + shift
            scale = np.where(scale == 0.0, st.lam**2, scale)
            return _frobenius(c) / (scale * cn)

        images = [st.image(q) for q in charges]
        for q, image in zip(charges, images):
            half = 0.5 * (e + q.shift)[:, None, None]
            residuals.append(relative(st.image(q, image) - half * st.coeffs, q.shift))
        if q1 is not q2:
            cross = st.image(q1, images[1]) + st.image(q2, images[0])
            residuals.append(relative(cross, max(q1.shift, q2.shift)))
    worst = _worst(residuals)
    details = "squares and anticommutator over %d states" % len(states)
    return CheckResult("algebra", worst <= _ALGEBRA_TOL, worst, _ALGEBRA_TOL, details)


def check_degeneracy_pairing(
    spec: SystemSpec,
    classification: SusyClassification,
    spectrum: spectra.Spectrum,
    tol: float = 1e-8,
) -> CheckResult:
    """Charges must map every level into its own span: a doublet is mixed
    internally, a singlet is rescaled or annihilated."""
    states = [st for lv in spectrum.levels for st in lv.states]
    sizes = np.array([len(lv.states) for lv in spectrum.levels], dtype=int)
    level = np.repeat(np.arange(len(sizes)), sizes)
    leaks = []
    annihilated = moved = 0
    for st in _stacks(states):
        gram = _gram(st.geometry, st.sector, st.q)
        # states of one level share its sector and wavenumber, so within a
        # stack the partners of state i are the j of the same level
        partner = level[st.index][:, None] == level[st.index][None, :]
        for q in classification.charges:
            img = st.image(q)
            inorm = _gram_norms(img, gram)
            floor = 1e-12 * (q.lam * (st.q + 1.0) + np.sqrt(q.shift) + 1.0)
            kept = ~(inorm <= floor)
            annihilated += int(np.count_nonzero(~kept))
            moved += int(np.count_nonzero(kept))
            # subtract the projection in coefficient space: the norm of
            # the leftover avoids the sqrt(eps) floor that the variance
            # form inorm^2 - sum |<s, img>|^2 hits through cancellation
            overlap = np.einsum("jab,iab->ij", np.conj(st.coeffs), img @ gram)
            left = img - np.einsum("ij,jab->iab", np.where(partner, overlap, 0.0), st.coeffs)
            leaks.append(_gram_norms(left, gram)[kept] / inorm[kept])
    worst = _worst(leaks)
    details = "%d images in span, %d annihilated, worst leak %.3e" % (
        moved,
        annihilated,
        worst,
    )
    return CheckResult("degeneracy pairing", worst <= tol, worst, tol, details)


def susy_boundary_form(states, charge: SuperchargeSpec, at: str = "origin") -> np.ndarray:
    """Endpoint form Psi^dag K Psi of each state with the charge's own
    kinetic matrix K; vanishes on every domain element when the charge is
    symmetric."""
    forms = np.zeros(len(states), dtype=complex)
    for st in _stacks(states):
        x = _endpoint(st.geometry, at)
        coeffs = st.coeffs
        if charge.reflected:
            coeffs = half_parity_coeffs(st.geometry, st.sector, st.q, coeffs)
        psi, _ = boundary_data(st.geometry, st.sector, st.q, coeffs, x)
        forms[st.index] = np.sum(psi.conj() * (psi @ charge.kinetic_matrix.T), axis=-1)
    return forms


def deficiency_indices(spec: SystemSpec) -> tuple[int, int]:
    """Count square-integrable solutions of q Psi = +- i Psi for the
    sigma2-reduced charge q = -i lam d/dx sigma2.

    Each sigma2 eigenvector v with eigenvalue w forces Psi = v e^{sx} with
    s = -(sign) / (lam w).  For either sign, w = +-1 give one decaying
    and one growing exponential.  On the interval both are integrable; on
    the half line only the decaying one survives.  So the indices are (2, 2)
    and (1, 1), independent of the boundary parameters.
    """
    n = 2 if spec.geometry.is_interval else 1
    return n, n


def check_lower_bound(
    spec: SystemSpec,
    classification: SusyClassification,
    spectrum: spectra.Spectrum,
) -> CheckResult:
    """2Q^2 = H + |b|^2 >= 0 bounds every level by -|b|^2; a ground state
    attaining the bound is the annihilated one."""
    tol = _LOWER_BOUND_TOL
    if not spectrum.levels:
        return CheckResult("lower bound", True, 0.0, tol, "no discrete levels")
    bound = -classification.shift
    e0 = spectrum.levels[0].energy
    residual = max(0.0, bound - e0)
    kind = "attained" if abs(e0 - bound) <= tol else "strict"
    details = "ground %.12g vs bound %.12g (%s)" % (e0, bound, kind)
    return CheckResult("lower bound", residual <= tol, residual, tol, details)


def _real_direction(vec: np.ndarray) -> np.ndarray:
    u = np.real(_phase_fixed(vec))
    return u / np.linalg.norm(u)


def witten_parity_search(
    spec: SystemSpec, classification: SusyClassification
) -> np.ndarray | None:
    """Grading operator W = sigma . n with [W, U] = [W, Dl] = 0 and
    {W, Q} = 0 for every charge, or None when U's own axis does not fit.

    Every charge is a sigma1-sigma2 combination in the frame that
    diagonalizes U (classify._degree), so the one direction that can grade
    the algebra is that frame's sigma3: U's own Pauli axis.  A scalar U
    has no {-1, e^{i theta != pi}} pair, so its charges can only be
    reflected ones, carried through the diagonal half parity, and those
    need a diagonal W: sigma3.  Such a W anticommutes with every charge
    once it commutes with U and Dl, so only the commutators are tested.
    """
    if not classification.charges:
        return None
    vec = pauli_vector(spec.U)
    n = _real_direction(vec) if np.linalg.norm(vec) > 1e-10 else np.array([0.0, 0.0, 1.0])
    w = pauli_combination(n)
    mats = [spec.U] + ([spec.Dl] if spec.geometry.is_interval else [])
    if all(np.max(np.abs(m @ w - w @ m)) <= 1e-10 for m in mats):
        return w
    return None


def _witten_details(w: np.ndarray | None) -> str:
    if w is None:
        return "no compatible direction"
    n = _real_direction(pauli_vector(w))
    return "W = sigma . (%.6g, %.6g, %.6g)" % (n[0], n[1], n[2])


def run_verification(
    spec: SystemSpec, n_levels: int = 8, tol: float = 1e-8
) -> VerificationReport:
    """Solve once, classify on that spectrum, and run the whole battery of
    checks."""
    spectrum = spectra.solve_spectrum(spec, n_levels)
    classification = classify_system(spec, spectrum)
    checks = [
        CheckResult(
            "classification",
            True,
            0.0,
            tol,
            "degree=%s goodness=%s shift=%.12g"
            % (classification.degree, classification.goodness, classification.shift),
        )
    ]
    states = [st for lv in spectrum.levels for st in lv.states]
    charges = classification.charges
    if charges and states:
        checks.append(check_domain_preservation(spec, charges, states, tol))
        checks.append(check_algebra(spec, charges[0], charges[-1], states))
        checks.append(check_degeneracy_pairing(spec, classification, spectrum, tol))
        ends = ("origin", "wall") if spec.geometry.is_interval else ("origin",)
        worst = _worst(
            [np.abs(susy_boundary_form(states, q, at)) for q in charges for at in ends]
        )
        checks.append(
            CheckResult(
                "boundary form",
                worst <= _FORM_TOL,
                worst,
                _FORM_TOL,
                "kinetic form at %s" % " and ".join(ends),
            )
        )
        checks.append(check_lower_bound(spec, classification, spectrum))
        w = witten_parity_search(spec, classification)
        checks.append(
            CheckResult("witten parity", True, 0.0, tol, _witten_details(w))
        )
    indices = deficiency_indices(spec)
    expected = (2, 2) if spec.geometry.is_interval else (1, 1)
    checks.append(
        CheckResult(
            "deficiency indices",
            indices == expected,
            float(abs(indices[0] - expected[0]) + abs(indices[1] - expected[1])),
            0.0,
            "n+ = %d, n- = %d" % indices,
        )
    )
    return VerificationReport(tuple(checks))
