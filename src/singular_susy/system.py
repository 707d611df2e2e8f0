"""Domain model: geometry, boundary matrices, two-component wavefunctions.

The Hamiltonian is H = -lam^2 d^2/dx^2 on two components folded onto x > 0,
with a point singularity at the origin described by a unitary U through

    (U - I) Psi(+0) + i L0 (U + I) Psi'(+0) = 0,

and, on an interval (0, l], a diagonal unitary Dl imposing the same form at
the wall x = l.  Wavefunctions are stored as closed-form coefficients over a
per-sector basis, so evaluation, differentiation, norms and boundary data
are all exact arithmetic on 2x2 coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    GeometryMismatchError,
    NotDiagonalError,
    NotNormalizableError,
    NotUnitaryError,
    ThetaPiError,
)
from .matkit import IDENTITY, _TWO_PI, _is_diagonal, is_unitary

SECTORS = ("positive", "zero", "negative")

_TINY = 5e-324  # the smallest subnormal double


@dataclass(frozen=True)
class Geometry:
    """Half-line ("line") or interval (0, l] ("interval")."""

    kind: str
    l: float | None = None

    def __post_init__(self):
        if self.kind not in ("line", "interval"):
            raise ValueError("kind must be 'line' or 'interval'")
        if self.kind == "interval":
            if self.l is None or not np.isfinite(self.l) or self.l <= 0:
                raise ValueError("interval requires a finite length l > 0")
            object.__setattr__(self, "l", float(self.l))
        elif self.l is not None:
            raise ValueError("line geometry takes no length")

    @classmethod
    def line(cls) -> "Geometry":
        return cls("line")

    @classmethod
    def interval(cls, l: float) -> "Geometry":
        return cls("interval", float(l))

    @property
    def is_interval(self) -> bool:
        return self.kind == "interval"


def _reduced_theta(theta: float, L0: float) -> float:
    """theta reduced to [0, 2 pi), after checking that (theta, L0) has a
    Robin scale: L0 must be positive and finite, and theta = pi is rejected
    because its boundary matrix degenerates (both eigenvalues -1)."""
    if not np.isfinite(L0) or L0 <= 0:
        raise ValueError("L0 must be positive and finite")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    t = float(theta) % _TWO_PI
    if abs(t - np.pi) < 1e-12:
        raise ThetaPiError("theta = pi admits no Robin length scale")
    return t


def inverse_robin_length(theta: float, L0: float = 1.0) -> float:
    """tan(theta/2) / L0, finite on the whole allowed range."""
    return np.tan(_reduced_theta(theta, L0) / 2.0) / L0


def theta_for_scale(L: float, L0: float = 1.0) -> float:
    """Boundary phase with Robin length L: inverts L = L0 cot(theta/2).

    L = +-inf maps to the Neumann point 0; L = 0 maps to pi (Dirichlet),
    which downstream charge constructors reject.
    """
    if np.isinf(L):
        return 0.0
    return float(2.0 * np.arctan2(L0, L))


def robin_matrix(theta: float) -> np.ndarray:
    """diag(e^{i theta}, -1), the canonical single-scale boundary matrix."""
    t = float(theta) % _TWO_PI
    if abs(t - np.pi) < 1e-12:
        raise ThetaPiError("theta = pi degenerates to -identity")
    return np.diag([np.exp(1j * t), -1.0]).astype(complex)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _readonly_complex(arr, shape) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    if out.shape != shape:
        raise ValueError("expected array of shape %s" % (shape,))
    if not np.all(np.isfinite(out)):
        raise ValueError("array entries must be finite")
    return _frozen(out)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A self-adjoint realization of H: geometry, boundary matrices, scales.

    U acts at the singular point x = 0; Dl (interval only) is the diagonal
    wall matrix at x = l.  lam is the kinetic scale in H = -lam^2 d^2/dx^2
    and L0 the reference length in the boundary form.
    """

    geometry: Geometry
    U: np.ndarray
    Dl: np.ndarray | None = None
    lam: float = 1.0
    L0: float = 1.0

    def __post_init__(self):
        u = _readonly_complex(self.U, (2, 2))
        if not is_unitary(u, 1e-10):
            raise NotUnitaryError("U must be unitary within 1e-10")
        object.__setattr__(self, "U", u)
        if self.geometry.is_interval:
            if self.Dl is None:
                raise GeometryMismatchError("interval system requires a wall matrix Dl")
            d = _readonly_complex(self.Dl, (2, 2))
            if not is_unitary(d, 1e-10):
                raise NotUnitaryError("Dl must be unitary within 1e-10")
            if not _is_diagonal(d):
                raise NotDiagonalError("Dl must be diagonal")
            object.__setattr__(self, "Dl", d)
        elif self.Dl is not None:
            raise GeometryMismatchError("line system takes no wall matrix")
        for name in ("lam", "L0"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise ValueError("%s must be positive and finite" % name)
            object.__setattr__(self, name, v)

    def __reduce__(self):
        # rebuild from the fields, so the cached forms below are never copied
        return (type(self), (self.geometry, self.U, self.Dl, self.lam, self.L0))

    def _ends(self) -> np.ndarray:
        """U, and then Dl on an interval, stacked."""
        return np.array([self.U] if self.Dl is None else [self.U, self.Dl])

    @cached_property
    def form(self) -> tuple:
        """The boundary form (M - I) Psi + i L0 (M + I) Psi' at each end,
        M = U and then Dl, as the read-only block stacks
        (M - I, i L0 (M + I)) indexed [end, row, component]; computed once
        per system, on first use."""
        mats = self._ends()
        return _frozen(mats - IDENTITY), _frozen(1j * self.L0 * (mats + IDENTITY))

    @cached_property
    def form_size(self) -> tuple:
        """form with |.| on every factor, (|M - I|, L0 |M + I|): a size
        reference that never cancels."""
        mats = self._ends()
        return _frozen(np.abs(mats - IDENTITY)), _frozen(self.L0 * np.abs(mats + IDENTITY))

    @property
    def l(self) -> float | None:
        return self.geometry.l


def _form_residual(spec: SystemSpec, end: int, psi: np.ndarray, dpsi: np.ndarray):
    """Scale-free violation of the boundary form at one end, for boundary
    values psi, dpsi stacked as (..., 2); 0 where both vanish."""
    minus, plus = spec.form
    lhs = (minus[end] @ psi[..., None] + plus[end] @ dpsi[..., None])[..., 0]
    # psi = dpsi = 0 gives lhs = 0, which the smallest subnormal scale reads as 0
    scale = np.maximum(
        np.maximum(np.linalg.norm(psi, axis=-1), spec.L0 * np.linalg.norm(dpsi, axis=-1)), _TINY
    )
    return np.linalg.norm(lhs, axis=-1) / scale


@dataclass(frozen=True, eq=False, slots=True)
class WaveFunction:
    """Two-component state with closed-form coefficients over a sector basis.

    coeffs[c, j] multiplies basis function j in component c.  The bases are
      positive:  cos(k x), sin(k x)            energy +(lam k)^2
      zero:      1, x                          energy 0
      negative:  cosh(kappa x), sinh(kappa x)  (interval)   -(lam kappa)^2
                 e^{-kappa x}, x e^{-kappa x}  (line)
    wavenumber holds k or kappa (0 in the zero sector).
    """

    geometry: Geometry
    sector: str
    wavenumber: float
    coeffs: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        if self.sector not in SECTORS:
            raise ValueError("unknown sector %r" % (self.sector,))
        q = float(self.wavenumber)
        if self.sector == "zero":
            if q != 0.0:
                raise ValueError("zero sector has wavenumber 0")
        elif not np.isfinite(q) or q <= 0:
            raise ValueError("wavenumber must be positive and finite")
        object.__setattr__(self, "wavenumber", q)
        object.__setattr__(self, "coeffs", _readonly_complex(self.coeffs, (2, 2)))
        lam = float(self.lam)
        if not np.isfinite(lam) or lam <= 0:
            raise ValueError("lam must be positive and finite")
        object.__setattr__(self, "lam", lam)

    @property
    def energy(self) -> float:
        if self.sector == "positive":
            return (self.lam * self.wavenumber) ** 2
        if self.sector == "zero":
            return 0.0
        return -((self.lam * self.wavenumber) ** 2)


def _per_wavenumber(q, a, b, c, d) -> np.ndarray:
    """The 2x2 matrix [[a, b], [c, d]] for each wavenumber in q: the
    entries broadcast against q, giving shape q.shape + (2, 2); a Python
    float q has no shape attribute and gives one (2, 2) matrix."""
    m = np.empty(getattr(q, "shape", ()) + (2, 2))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def derivative_rep(geometry: Geometry, sector: str, q) -> np.ndarray:
    """Matrix M with: coefficients of Psi' = M @ (coefficients of Psi), in
    the sector basis of wavenumber q on the geometry; one matrix per entry
    of an array q, stacked as q.shape + (2, 2).

    Row-major coeffs arrays therefore transform as C -> C @ M.T.
    """
    if sector == "positive":
        return _per_wavenumber(q, 0.0, q, -q, 0.0)
    if sector == "zero":
        return _per_wavenumber(q, 0.0, 1.0, 0.0, 0.0)
    if geometry.is_interval:
        return _per_wavenumber(q, 0.0, q, q, 0.0)
    return _per_wavenumber(q, -q, 1.0, 0.0, -q)


def _basis_values(geometry: Geometry, sector: str, q, x) -> np.ndarray:
    """The two sector basis functions at x (see WaveFunction), stacked
    along the first axis over the broadcast shape of q and x."""
    if sector == "positive":
        return np.array([np.cos(q * x), np.sin(q * x)])
    if sector == "zero":
        one = np.ones(np.broadcast(q, x).shape)
        return np.array([one, one * x])
    if geometry.is_interval:
        return np.array([np.cosh(q * x), np.sinh(q * x)])
    e = np.exp(-q * x)
    return np.array([e, x * e])


def _endpoint(geometry: Geometry, at: str) -> float:
    """x of the end named at: 0 ("origin") or l ("wall")."""
    if at == "origin":
        return 0.0
    if at == "wall":
        if not geometry.is_interval:
            raise GeometryMismatchError("the line has no wall")
        return geometry.l
    raise ValueError("at must be 'origin' or 'wall'")


def boundary_data(geometry: Geometry, sector: str, q, coeffs, x: float) -> tuple:
    """One-sided limits (Psi, Psi') at x (0 for x -> +0, or the wall l) of
    states of one sector: coeffs (2, 2) or a stack (n, 2, 2), and q one
    wavenumber or, for a stack, one per state of shape (n,); values of shape
    (2,) or (n, 2)."""
    vals = _basis_values(geometry, sector, q, x).T[..., None]
    dcoeffs = coeffs @ derivative_rep(geometry, sector, q).swapaxes(-1, -2)
    return (coeffs @ vals)[..., 0], (dcoeffs @ vals)[..., 0]


def _gram(geometry: Geometry, sector: str, q) -> np.ndarray:
    """Exact Gram matrix of the sector basis of wavenumber q on the
    geometry; one per entry of an array q, stacked as q.shape + (2, 2)."""
    if not geometry.is_interval:
        if sector != "negative":
            raise NotNormalizableError(
                "%s-sector states are not square-integrable on the line" % sector
            )
        return _per_wavenumber(
            q, 1.0 / (2 * q), 1.0 / (4 * q**2), 1.0 / (4 * q**2), 1.0 / (4 * q**3)
        )
    l = geometry.l
    if sector == "positive":
        even = l / 2 + np.sin(2 * q * l) / (4 * q)
        odd = l / 2 - np.sin(2 * q * l) / (4 * q)
        cross = np.sin(q * l) ** 2 / (2 * q)
        return _per_wavenumber(q, even, cross, cross, odd)
    if sector == "zero":
        return _per_wavenumber(q, l, l**2 / 2, l**2 / 2, l**3 / 3)
    even = np.sinh(2 * q * l) / (4 * q) + l / 2
    odd = np.sinh(2 * q * l) / (4 * q) - l / 2
    cross = np.sinh(q * l) ** 2 / (2 * q)
    return _per_wavenumber(q, even, cross, cross, odd)


def _gram_norms(coeffs: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """L2 norm of each state of a (..., 2, 2) coefficient stack in the Gram
    metric gram, clipped at 0 where rounding makes the form negative."""
    return np.sqrt(np.maximum(np.sum(np.conj(coeffs) * (coeffs @ gram), axis=(-2, -1)).real, 0.0))


def half_parity_coeffs(geometry: Geometry, sector: str, q, coeffs) -> np.ndarray:
    """Reflect the upper component, (psi_+(x), psi_-(x)) -> (psi_+(l - x),
    psi_-(x)), re-expanded in the same sector basis; an involution on
    coefficients.  q a wavenumber and coeffs (2, 2), or q of shape (n,) and
    coeffs (n, 2, 2) for n states of one sector."""
    if not geometry.is_interval:
        raise GeometryMismatchError("half parity is defined on an interval")
    length = geometry.l
    if sector == "positive":
        c, s = np.cos(q * length), np.sin(q * length)
        t = _per_wavenumber(q, c, s, s, -c)
    elif sector == "zero":
        t = _per_wavenumber(q, 1.0, length, 0.0, -1.0)
    else:
        ch, sh = np.cosh(q * length), np.sinh(q * length)
        t = _per_wavenumber(q, ch, sh, -sh, -ch)
    new = np.array(coeffs)
    new[..., 0, :] = (t @ new[..., 0, :, None])[..., 0]
    return new
