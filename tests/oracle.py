"""Independent eigenvalue oracles that share none of the solver's code.

Each component of a system with diagonal U and Dl is a scalar Robin
problem, solved here by sign-change bisection.  For any interval system,
coupled or not, the ground level below zero is found by bisecting a count
of the levels below each energy: the negative inertia of the quadratic
form on boundary values (Dirichlet-to-Neumann counting).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DecoupledRoots:
    """Oracle output for one scalar component of a diagonal system."""

    k: tuple
    kappa: tuple
    zero_mode: bool


def _robin_functional(L):
    # L encoding: None or +-inf -> Neumann; 0 -> Dirichlet; else psi + L psi'
    if L is None or np.isinf(L):
        return lambda v, d: d
    return lambda v, d: v + L * d


def _bisect(g, a: float, b: float, tol: float = 1e-12) -> float:
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    while b - a > tol:
        mid = 0.5 * (a + b)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (ga < 0) != (gm < 0):
            b, gb = mid, gm
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def _sign_change_roots(g, grid: np.ndarray, floor: float) -> list:
    vals = np.array([g(q) for q in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            if grid[i] > floor:
                roots.append(grid[i])
        elif (vals[i] < 0) != (vals[i + 1] < 0):
            r = _bisect(g, grid[i], grid[i + 1])
            if r > floor:
                roots.append(r)
    return roots


def oracle_decoupled_roots(
    L_left, L_right, l: float, n_levels: int = 10
) -> DecoupledRoots:
    """Independent eigenvalue oracle for one decoupled component.

    The component obeys psi + L psi' = 0 at both ends (L encoded as in
    _robin_functional: 0 Dirichlet, inf Neumann), with the outward-pointing
    x so the same functional applies at x = 0 and x = l.  Roots come from
    sign-change bisection on the scalar 2x2 determinant, which is reliable
    here because scalar Robin eigenvalues are simple.
    """
    fl = _robin_functional(L_left)
    fr = _robin_functional(L_right)

    def gpos(k):
        return fl(1.0, 0.0) * fr(np.sin(k * l), k * np.cos(k * l)) - fl(0.0, k) * fr(
            np.cos(k * l), -k * np.sin(k * l)
        )

    def gneg(q):
        return fl(1.0, 0.0) * fr(np.sinh(q * l), q * np.cosh(q * l)) - fl(0.0, q) * fr(
            np.cosh(q * l), q * np.sinh(q * l)
        )

    k_max = (n_levels + 3) * np.pi / l
    kgrid = np.arange(1e-9, k_max, np.pi / (20.0 * l))
    k_roots = _sign_change_roots(gpos, kgrid, floor=1e-7 / l)[:n_levels]

    scales = [l]
    for L in (L_left, L_right):
        if L is not None and np.isfinite(L) and abs(L) > 1e-12:
            scales.append(abs(L))
    kappa_max = min(4.0 / min(scales) + 2.0 / l, 300.0 / l)
    qgrid = np.arange(1e-9, kappa_max, kappa_max / 2000.0)
    kappa_roots = _sign_change_roots(gneg, qgrid, floor=1e-7 / l)

    both_neumann = all(L is None or np.isinf(L) for L in (L_left, L_right))
    both_finite = all(L is not None and np.isfinite(L) for L in (L_left, L_right))
    zero = both_neumann or (both_finite and abs(L_left - L_right - l) < 1e-12)
    return DecoupledRoots(tuple(k_roots), tuple(kappa_roots), zero)



def _robin_rates(m, L0: float):
    """(eigenvectors as columns, tan(phi/2) / L0) of the eigenvalues
    e^{i phi} of the unitary m that are not Dirichlet (-1)."""
    w, v = np.linalg.eig(m)
    v, _ = np.linalg.qr(v)  # orthonormal; exact eigenvectors unless m is ~scalar
    keep = np.abs(w + 1.0) > 1e-9
    return v[:, keep], np.tan(np.angle(w[keep]) / 2.0) / L0


def level_counter(spec):
    """kappa (scalar or array) -> number of levels of the interval system
    below E = -(lam kappa)^2.

    Below zero no Dirichlet level lies, so the count is the number of
    negative eigenvalues of h - E on E-harmonic functions.  On boundary
    values (psi(0), psi(l)) that form is, per component, the block
    [[a, b], [b, a]] with a = kappa coth(kappa l), b = -kappa csch(kappa l)
    (1/l and -1/l at kappa = 0), plus -tan(phi/2)/L0 on each non-Dirichlet
    eigenvector of U and +tan(phi/2)/L0 on each of Dl, restricted to the
    values the Dirichlet eigenvectors allow.  coth and csch are written in
    e^{-kappa l}, which never overflows.
    """
    l = spec.geometry.l
    v0, t0 = _robin_rates(spec.U, spec.L0)
    vl, tl = _robin_rates(spec.Dl, spec.L0)
    # allowed boundary values: psi(0) = v0 x, psi(l) = vl y
    p0 = np.hstack([v0, np.zeros((2, vl.shape[1]))])
    pl = np.hstack([np.zeros((2, v0.shape[1])), vl])
    diagonal = p0.conj().T @ p0 + pl.conj().T @ pl
    cross = p0.conj().T @ pl + pl.conj().T @ p0
    robin = np.diag(np.concatenate([-t0, tl]))

    def count(kappa):
        kappa = np.asarray(kappa, dtype=float)
        if robin.size == 0:
            return np.zeros(kappa.shape, dtype=int)
        e = np.exp(-kappa * l)
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(kappa == 0.0, 1.0 / l, kappa * (1.0 + e * e) / (1.0 - e * e))
            b = np.where(kappa == 0.0, -1.0 / l, -2.0 * kappa * e / (1.0 - e * e))
        form = a[..., None, None] * diagonal + b[..., None, None] * cross + robin
        return np.sum(np.linalg.eigvalsh(form) < 0.0, axis=-1)

    return count


def count_ground_energy(spec, rtol: float = 1e-13):
    """Lowest energy of an interval system when it is negative, else None.

    The ground kappa is where the count drops to 0; it is bracketed by
    multisection on 17 stacked points per step, from [0, r + 2/l], r the
    largest binding rate of U and conj(Dl), below which every bound state
    lies."""
    count = level_counter(spec)
    if count(0.0) == 0:
        return None
    rates = np.concatenate([_robin_rates(spec.U, spec.L0)[1], -_robin_rates(spec.Dl, spec.L0)[1]])
    lo, hi = 0.0, float(np.max(rates)) + 2.0 / spec.geometry.l
    while hi - lo > rtol * hi:
        kappas = np.linspace(lo, hi, 17)
        i = min(int(np.flatnonzero(count(kappas) > 0)[-1]), 15)
        lo, hi = kappas[i], kappas[i + 1]
    return -((spec.lam * 0.5 * (lo + hi)) ** 2)
