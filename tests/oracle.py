"""Independent scalar eigenvalue oracle for decoupled (diagonal) systems.

Each component of a system with diagonal U and Dl is a scalar Robin
problem, solved here by sign-change bisection, so the 4x4 matrix solver
can be validated against a method that shares none of its code.
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
