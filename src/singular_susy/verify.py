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

from dataclasses import dataclass, replace

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
    WaveFunction,
    boundary_data,
    connection_residual,
    half_parity,
    l2_norm,
    wall_residual,
    wf_inner,
)

_ALGEBRA_TOL = 1e-10
_FORM_TOL = 1e-10


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


def check_domain_preservation(
    spec: SystemSpec, charge: SuperchargeSpec, wf: WaveFunction, tol: float = 1e-8
) -> CheckResult:
    """The image of a domain element must satisfy the same boundary
    conditions; a failure here means the charge is not a symmetry."""
    image = charge.apply(wf)
    floor = 1e-12 * (
        (charge.lam * (wf.wavenumber + 1.0) + np.sqrt(charge.shift) + 1.0)
        * np.linalg.norm(wf.coeffs)
    )
    if np.linalg.norm(image.coeffs) <= floor:
        # annihilated: the image is the zero element, which trivially
        # satisfies the conditions; its rounding junk carries no geometry
        return CheckResult("domain preservation", True, 0.0, tol, "annihilated")
    r = connection_residual(spec, boundary_data(image, "origin"))
    parts = ["origin %.3e" % r]
    if spec.geometry.is_interval:
        rw = wall_residual(spec, boundary_data(image, "wall"))
        parts.append("wall %.3e" % rw)
        r = max(r, rw)
    return CheckResult("domain preservation", r <= tol, r, tol, ", ".join(parts))


def check_algebra(
    spec: SystemSpec,
    q1: SuperchargeSpec,
    q2: SuperchargeSpec,
    wf: WaveFunction,
    tol: float = _ALGEBRA_TOL,
) -> CheckResult:
    """On an energy-E eigenstate: Q_i(Q_i wf) = ((E + |b|^2)/2) wf for each
    charge, and Q_1 Q_2 + Q_2 Q_1 = 0 when the charges differ."""
    e = wf.energy
    cn = np.linalg.norm(wf.coeffs)
    worst = 0.0
    parts = []
    charges = (q1,) if q1 is q2 else (q1, q2)
    for i, q in enumerate(charges):
        twice = q.apply(q.apply(wf))
        scale = abs(e) + q.shift
        if scale == 0.0:
            scale = wf.lam**2
        r = float(
            np.linalg.norm(twice.coeffs - 0.5 * (e + q.shift) * wf.coeffs)
            / (scale * cn)
        )
        parts.append("square %d: %.3e" % (i + 1, r))
        worst = max(worst, r)
    if q1 is not q2:
        cross = q1.apply(q2.apply(wf)).coeffs + q2.apply(q1.apply(wf)).coeffs
        scale = abs(e) + max(q1.shift, q2.shift)
        if scale == 0.0:
            scale = wf.lam**2
        r = float(np.linalg.norm(cross) / (scale * cn))
        parts.append("anticommutator: %.3e" % r)
        worst = max(worst, r)
    return CheckResult("algebra", worst <= tol, worst, tol, ", ".join(parts))


def check_degeneracy_pairing(
    spec: SystemSpec,
    classification: SusyClassification,
    spectrum: spectra.Spectrum,
    tol: float = 1e-8,
) -> CheckResult:
    """Charges must map every level into its own span: a doublet is mixed
    internally, a singlet is rescaled or annihilated."""
    worst = 0.0
    annihilated = 0
    moved = 0
    for level in spectrum.levels:
        states = level.states
        for q in classification.charges:
            for st in states:
                img = q.apply(st)
                inorm = l2_norm(img)
                floor = 1e-12 * (
                    q.lam * (st.wavenumber + 1.0) + np.sqrt(q.shift) + 1.0
                )
                if inorm <= floor:
                    annihilated += 1
                    continue
                moved += 1
                # subtract the projection in coefficient space: the norm of
                # the leftover avoids the sqrt(eps) floor that the variance
                # form inorm^2 - sum |<s, img>|^2 hits through cancellation
                left = img.coeffs.copy()
                for s2 in states:
                    left = left - wf_inner(s2, img) * s2.coeffs
                leak = l2_norm(replace(img, coeffs=left))
                worst = max(worst, float(leak / inorm))
    details = "%d images in span, %d annihilated, worst leak %.3e" % (
        moved,
        annihilated,
        worst,
    )
    return CheckResult("degeneracy pairing", worst <= tol, worst, tol, details)


def boundary_form(wf1: WaveFunction, wf2: WaveFunction, a_matrix, at: str = "origin") -> complex:
    """Sesquilinear endpoint form Psi_1(x0)^dag A Psi_2(x0)."""
    b1 = boundary_data(wf1, at)
    b2 = boundary_data(wf2, at)
    return complex(b1.psi.conj() @ (np.asarray(a_matrix, dtype=complex) @ b2.psi))


def susy_boundary_form(wf: WaveFunction, charge: SuperchargeSpec, at: str = "origin") -> complex:
    """Endpoint form with the charge's own kinetic matrix; vanishes on
    every pair of domain elements when the charge is symmetric."""
    if charge.reflected:
        wf = half_parity(wf)
    return boundary_form(wf, wf, charge.kinetic_matrix, at)


def deficiency_indices(spec: SystemSpec, g: float = 1.0) -> tuple[int, int]:
    """Count square-integrable solutions of q Psi = +- i g Psi for the
    sigma2-reduced charge q = -i lam d/dx sigma2.

    Each sigma2 eigenvector v with eigenvalue w forces Psi = v e^{sx} with
    s = -(sign) g / (lam w).  For either sign, w = +-1 give one decaying
    and one growing exponential.  On the interval both are integrable; on
    the half line only the decaying one survives.  So the indices are (2, 2)
    and (1, 1), independent of the boundary parameters.
    """
    if g <= 0:
        raise ValueError("g must be positive")
    n = 2 if spec.geometry.is_interval else 1
    return n, n


def check_lower_bound(
    spec: SystemSpec,
    classification: SusyClassification,
    spectrum: spectra.Spectrum,
    tol: float = 1e-9,
) -> CheckResult:
    """2Q^2 = H + |b|^2 >= 0 bounds every level by -|b|^2; a ground state
    attaining the bound is the annihilated one."""
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
    spec: SystemSpec, classification: SusyClassification | None = None
) -> np.ndarray | None:
    """Grading operator W = sigma . n with [W, U] = [W, Dl] = 0 and
    {W, Q} = 0 for every charge, or None when no direction fits.

    Non-scalar boundary matrices pin n to their common Pauli axis;
    identity-proportional ones leave n the unit normal of the span of the
    charge vectors.  Reflection-dressed charges additionally force W to be
    diagonal.  A candidate counts only if every commutator and
    anticommutator vanishes numerically.
    """
    if classification is None:
        classification = classify_system(spec)
    if not classification.charges:
        return None
    mats = [spec.U] + ([spec.Dl] if spec.geometry.is_interval else [])
    axes = []
    for m in mats:
        vec = pauli_vector(m)
        if np.linalg.norm(vec) > 1e-10:
            axes.append(_real_direction(vec))
    candidates = []
    if axes:
        n0 = axes[0]
        if all(np.linalg.norm(np.cross(n0, a)) < 1e-8 for a in axes[1:]):
            candidates.append(n0)
    else:
        rows = []
        for q in classification.charges:
            for m in (q.kinetic_matrix, q.shift_matrix):
                vec = pauli_vector(m)
                if np.linalg.norm(vec) > 1e-10:
                    rows.append(_real_direction(vec))
        if rows:
            _, _, vh = np.linalg.svd(np.array(rows))
            cand = vh[-1]
            j = int(np.argmax(np.abs(cand)))
            candidates.append(cand if cand[j] >= 0 else -cand)
    if any(q.reflected for q in classification.charges):
        candidates = [n for n in candidates if abs(abs(n[2]) - 1.0) < 1e-8]
    for n in candidates:
        w = pauli_combination(n / np.linalg.norm(n))
        ok = all(float(np.max(np.abs(m @ w - w @ m))) <= 1e-10 for m in mats)
        for q in classification.charges:
            for m in (q.kinetic_matrix, q.shift_matrix):
                if float(np.max(np.abs(m @ w + w @ m))) > 1e-10:
                    ok = False
        if ok:
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
    if classification.charges and states:
        worst = max(
            check_domain_preservation(spec, q, st, tol).residual
            for q in classification.charges
            for st in states
        )
        checks.append(
            CheckResult(
                "domain preservation",
                worst <= tol,
                worst,
                tol,
                "%d states x %d charges" % (len(states), len(classification.charges)),
            )
        )
        q1 = classification.charges[0]
        q2 = classification.charges[-1]
        worst = max(check_algebra(spec, q1, q2, st).residual for st in states)
        checks.append(
            CheckResult(
                "algebra",
                worst <= _ALGEBRA_TOL,
                worst,
                _ALGEBRA_TOL,
                "squares and anticommutator over %d states" % len(states),
            )
        )
        checks.append(check_degeneracy_pairing(spec, classification, spectrum, tol))
        ends = ("origin", "wall") if spec.geometry.is_interval else ("origin",)
        worst = max(
            abs(susy_boundary_form(st, q, at))
            for st in states
            for q in classification.charges
            for at in ends
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
