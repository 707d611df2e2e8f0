"""Discrete spectra of H by secular-determinant matching.

The general energy-E solution on the interval is a 4-coefficient vector
(A+, B+, A-, B-) over the sector basis; the singularity condition at x = +0
and the wall condition at x = l give four linear constraints.  Eigenvalues
sit where the 4x4 secular matrix drops rank.  The row-normalized
determinant is a fixed phase times a real function of the spectral
parameter (self-adjointness), so simple roots are bracketed by sign
changes of the de-phased samples and refined once each by ITP (bracketed,
at most one step more than bisection), while even-order roots are caught
as dips of the magnitude with no sign change beside them and refined by
golden section; the null space of the column-rescaled matrix then yields
the eigenstates and the multiplicity.  Each scan grid, and each fine
subscan for a twin beside a dip's root, is built and its determinants
taken as one stack of matrices; brackets are refined lowest energy first,
only until the requested number of levels is certain.  On the line each
eigenvector of U with eigenvalue e^{i phi} binds one state e^{-kappa x}
with kappa = tan(phi/2) / L0, read off the system's boundary split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatchError, PrecisionLossError
from .matkit import _phase_fixed
from .system import (
    SystemSpec,
    WaveFunction,
    _basis_values,
    _form_residual,
    _gram,
    _gram_norms,
    boundary_data,
)

_ACCEPT = 1e-10  # at a minimum or at E = 0, normalized |det| below this is a rank drop
_NULL_TOL = 1e-8  # singular values of the rescaled matrix below this are null
_XTOL = 1e-13  # refinement width, relative: _XTOL max(1, q) at the bracket's low end q
# ITP constants: truncation kappa1 / (b - a) and exponent kappa2, slack of n0 steps
_ITP_K1, _ITP_K2, _ITP_N0 = 0.2, 2.0, 1
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, slots=True)
class Level:
    """One discrete level: energy, sector, k or kappa, and its eigenstates."""

    energy: float
    sector: str
    wavenumber: float
    multiplicity: int
    states: tuple


@dataclass(frozen=True)
class Spectrum:
    levels: tuple
    scan_window: tuple
    solver_report: dict

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def ground(self) -> Level | None:
        return self.levels[0] if self.levels else None


def _interval_matrix(
    spec: SystemSpec, sector: str, qs, magnitudes: bool = False
) -> np.ndarray:
    # One 4x4 secular matrix per wavenumber in qs, stacked.  Each end's
    # boundary form (spec.form) gives the row pair
    #   m[:, 2 end + r, 2 c + j] = (M - I)[r, c] v_j + i L0 (M + I)[r, c] d_j
    # from the basis values v and derivatives d at that end.  magnitudes=True
    # puts |.| on every factor (spec.form_size): a cancellation-free size
    # reference for deciding when a column of the true matrix has vanished.
    # Broadcast, not zero-padded blocks and matmuls, at half the cost and
    # with bitwise the same entries (tests/test_spectra.py keeps the matmul
    # build as the reference): the + 0.0 makes an exact zero +0, as a matmul
    # summing from zero does, and signed zeros matter because LAPACK's
    # Householder steps take their sign from the leading entry.
    qs = np.atleast_1d(np.asarray(qs, dtype=float))[:, None]
    ends = np.array([0.0, spec.geometry.l])
    if sector == "zero":  # 1 and x, with derivatives 0 and 1
        a = np.ones((len(qs), 2))
        b, d0, d1 = a * ends, np.zeros_like(a), a
    else:
        # derivative_rep(...).T @ (a, b) written out
        a, b = _basis_values(spec.geometry, sector, qs, ends)
        d0, d1 = (-qs * b if sector == "positive" else qs * b), qs * a
    # basis values and derivatives, indexed [q, end, 1, 1, function]
    v = np.stack([a, b], axis=-1)[:, :, None, None, :]
    d = np.stack([d0, d1], axis=-1)[:, :, None, None, :]
    if magnitudes:
        (minus, plus), v, d = spec.form_size, np.abs(v), np.abs(d)
    else:
        minus, plus = spec.form
    # [q, end, row, component, function] -> [q, 2 end + row, 2 component + function]
    m = np.empty((len(qs), 2, 2, 2, 2), dtype=complex)
    m[...] = minus[..., None] * v + plus[..., None] * d + 0.0
    return m.reshape(len(qs), 4, 4)


def _scaled_for_nullity(m: np.ndarray, scale_m: np.ndarray):
    """Column-rescale m against its cancellation-free magnitude matrix.

    A column whose entries all cancel is a genuine null direction, and at a
    degenerate root every column can cancel at once, so thresholds relative
    to the largest surviving column are wrong in both directions.  The
    magnitude matrix never cancels (a zero column there would need a common
    zero row in both boundary matrices), so it fixes the absolute size:
    vanished columns are frozen at that size, and the rescaled matrix has
    O(1) entries wherever content survives.
    """
    big = float(np.max(np.linalg.norm(scale_m, axis=0)))
    norms = np.linalg.norm(m, axis=0)
    norms = np.where(norms > 1e-12 * big, norms, big)
    return m / norms, norms


def _row_normalized_det(m: np.ndarray) -> np.ndarray:
    """det of each row-normalized matrix in the stack; the scan hunts its zeros.

    Row normalization keeps the value scale-free without hiding roots:
    boundary rows never vanish (that would need a common zero row in both
    M - I and M + I), while a whole column can vanish at a root when a
    component decouples, which is why column scaling is unusable here.

    Self-adjointness of the boundary conditions makes this determinant a
    fixed phase times a real function of the spectral parameter, which is
    what lets the scan bracket simple roots by sign changes.
    """
    return np.linalg.det(m / np.linalg.norm(m, axis=-1)[..., None])


def _golden_min(f, a: float, b: float, xtol: float):
    """Derivative-free minimizer; the objective is V-shaped at simple roots."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    best = (c, fc) if fc <= fd else (d, fd)
    for _ in range(200):
        if b - a <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            if fc < best[1]:
                best = (c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            if fd < best[1]:
                best = (d, fd)
    return best


def _itp_root(g, a: float, b: float, ga: float, gb: float, xtol: float) -> float:
    """Refine a sign change of the real secular value g on [a, b], where
    g(a) = ga and g(b) = gb, by ITP (interpolate, truncate, project;
    Oliveira & Takahashi, ACM TOMS 47 (2020) 5).

    The regula-falsi point is pushed toward the midpoint by
    kappa1 (b - a)^kappa2, then projected into a ball about the midpoint
    whose radius leaves room for only _ITP_N0 steps more than bisection
    would take.  The bracket is kept at every step, at most
    ceil(log2((b - a) / xtol)) + _ITP_N0 values of g are taken, and on a
    smooth g the steps converge superlinearly.  Returns the end of the
    final bracket where |g| is smaller.
    """
    eps = 0.5 * xtol
    kappa1 = _ITP_K1 / (b - a)
    n_max = max(int(np.ceil(np.log2((b - a) / xtol))), 0) + _ITP_N0
    for j in range(n_max):
        width = b - a
        if width <= xtol:
            break
        mid = 0.5 * (a + b)
        xf = (gb * a - ga * b) / (gb - ga)
        if not a < xf < b:  # rounding put the secant point off the bracket
            xf = mid
        sigma = 1.0 if mid >= xf else -1.0
        delta = kappa1 * width**_ITP_K2
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        r = eps * 2.0 ** (n_max - j) - 0.5 * width
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        gx = g(x)
        if gx == 0.0:
            return x
        if (ga < 0.0) == (gx < 0.0):
            a, ga = x, gx
        else:
            b, gb = x, gx
    # both ends bracket the root; the one with the smaller |g| is the closer estimate
    return a if abs(ga) <= abs(gb) else b


def _merged(found: list) -> list:
    """Sorted roots with twins closer than 1e-9 max(1, q) merged into the
    one of smallest |det|: (q, |det|, lowest twin) per distinct root."""
    merged = []
    for q, fq in sorted(found):
        if merged and abs(q - merged[-1][0]) < 1e-9 * max(1.0, q):
            if fq < merged[-1][1]:
                merged[-1] = (q, fq, merged[-1][2])
        else:
            merged.append((q, fq, q))
    return merged


def _sign_changes(g: np.ndarray) -> np.ndarray:
    """Cells (i, i + 1) whose ends are nonzero and of opposite sign."""
    neg = g < 0.0
    return np.flatnonzero((g[:-1] != 0.0) & (g[1:] != 0.0) & (neg[:-1] != neg[1:]))


def _scan_roots(
    spec: SystemSpec, sector: str, grid: np.ndarray, floor: float, need: int, counts: dict
):
    """Locate zeros of the secular determinant over the grid, lowest energy
    first, and build the levels of the lowest `need` of them.

    The whole grid is evaluated in one batch.  The samples are de-phased
    against the largest one, leaving a real function g.  Sign changes of g
    bracket simple roots, which cannot lose one of two nearby roots the way
    dip-hunting on |g| can.  Each sign change is refined by _itp_root from
    the two values of g already taken at its ends; ITP keeps the bracket and
    g is continuous, so its root is kept however steep |g| is there.  A
    strict interior minimum of |g| beside a sign change is that cell's root,
    so the ITP refinement alone refines it; a dip with no sign change on
    either side (an even-order root, or a pair of simple roots inside one
    cell) is refined by golden section, and its minimum is a root only
    below _ACCEPT.  A dip shallower than 1e-12 relative to its neighbours is
    rounding noise and is skipped.  Each root found at a dip gets a fine
    subscan of the dip's bracket on both sides, evaluated as one stack, for
    a hidden twin.

    Brackets are refined in energy order (ascending k, descending kappa),
    and refinement stops before the first bracket lying wholly past the
    need-th level by more than the merge tolerance: nothing there can make
    or merge with a kept root.  Returns the levels of the lowest `need`
    roots that have states.  Adds to counts the brackets
    refined ("bracket_count"), the one-wavenumber determinants taken by ITP
    and golden-section steps and at each root's |det|
    ("secular_evaluations"), and the wavenumbers evaluated in stacks, grid
    and twin subscans ("stacked_evaluations").
    """

    def d(q):
        counts["secular_evaluations"] += 1
        return complex(_row_normalized_det(_interval_matrix(spec, sector, q))[0])

    def stacked(qs):
        counts["stacked_evaluations"] += len(qs)
        return _row_normalized_det(_interval_matrix(spec, sector, qs))

    vals = stacked(grid)
    mags = np.abs(vals)
    top = float(mags.max())
    if top == 0.0:
        return []
    ref = np.conj(vals[int(np.argmax(mags))]) / top

    def greal(q):
        return float(np.real(d(q) * ref))

    def fabs(q):
        return abs(d(q))

    g = np.real(vals * ref)
    found = []

    def keep(q, fq, dip):
        if q <= floor:
            return
        found.append((q, fq))
        if dip is None:
            return
        # the dip may hide a twin root on either side of q
        eps = 1e-11 * max(1.0, q)
        for lo, hi in ((dip[0], q - eps), (q + eps, dip[1])):
            if hi > lo:
                qs = np.linspace(lo, hi, 65)
                hunt(qs, np.real(stacked(qs) * ref))

    def hunt(qs, gs, dip=None):
        for i in _sign_changes(gs):
            counts["bracket_count"] += 1
            q = _itp_root(greal, qs[i], qs[i + 1], gs[i], gs[i + 1], _XTOL * max(1.0, qs[i]))
            keep(q, fabs(q), dip)

    # an edge sample is never refined: next to q = 0 a zero mode's tail
    # already makes |g| tiny without any root inside the grid
    deep = mags[1:-1] < (1.0 - 1e-12) * np.minimum(mags[:-2], mags[2:])
    # (lo, hi, sign-change cell or None, whether [lo, hi] is a dip's bracket)
    cells = {c: (grid[c], grid[c + 1], c, False) for c in _sign_changes(g)}
    dips = []
    for i in 1 + np.flatnonzero(deep):
        # a dip beside a sign change is that cell's root: the cell takes its bracket
        c = i - 1 if i - 1 in cells else i if i in cells else None
        cell = (grid[i - 1], grid[i + 1], c, True)
        if c is None:
            dips.append(cell)
        else:
            cells[c] = cell
    cells = list(cells.values()) + dips
    descending = sector == "negative"
    cells.sort(key=lambda c: -c[1] if descending else c[0])
    built, levels, edge = {}, [], 0.0
    for lo, hi, c, dip in cells:
        if len(levels) == need and (
            hi < edge - 1e-9 * max(1.0, edge) if descending else lo > edge + 1e-9 * max(1.0, lo)
        ):
            break
        bracket = (lo, hi) if dip else None
        if c is None:
            counts["bracket_count"] += 1
            q, fq = _golden_min(fabs, lo, hi, _XTOL * max(1.0, lo))
            if fq < _ACCEPT:
                keep(q, fq, bracket)
        else:
            hunt(grid[c : c + 2], g[c : c + 2], bracket)
        merged = _merged(found)
        levels = []
        for q, _, low in reversed(merged) if descending else merged:
            if q not in built:
                built[q] = _interval_level(spec, sector, q)
            if built[q] is not None:
                levels.append(built[q])
                # kappa: a lower root could still merge into this one's lowest twin
                edge = low if descending else q
                if len(levels) == need:
                    break
    return levels


def _states(spec: SystemSpec, sector: str, q: float, coeffs: np.ndarray) -> tuple:
    """Orthonormal eigenstates of wavenumber q spanned by the (m, 2, 2)
    candidate coefficient stack.  On an interval, candidates that break the
    condition at either end by more than 1e-8 are dropped; a line candidate
    is an eigenvector of U at the kappa its own eigenphase gives, so it
    meets the origin condition by construction.  The rest are normalized,
    then orthonormalized in order by Gram-Schmidt in the exact L2 metric,
    where a remainder of norm 1e-8 or less is dependent and dropped, and
    each kept state is phase-fixed before the next is projected against it."""
    geometry = spec.geometry
    if geometry.is_interval:
        ok = np.ones(len(coeffs), dtype=bool)
        for end, x in ((0, 0.0), (1, geometry.l)):
            psi, dpsi = boundary_data(geometry, sector, q, coeffs, x)
            ok &= ~(_form_residual(spec, end, psi, dpsi) > 1e-8)
        coeffs = coeffs[ok]
    gram = _gram(geometry, sector, q)
    n = _gram_norms(coeffs, gram)
    if np.any(n < 1e-150):  # the Gram form cancelled to the zero wavefunction
        where = "kappa*l = %.6g" % (q * geometry.l) if geometry.is_interval else "kappa = %.6g" % q
        raise PrecisionLossError(
            "state at %s cannot be normalized: its norm cancels in the sector basis" % where
        )
    kept = []
    for c in coeffs / n[:, None, None]:
        for prev in kept:
            c = c - np.sum(np.conj(prev) * (c @ gram)) * prev
        n = _gram_norms(c, gram)
        if n > 1e-8:
            kept.append(_phase_fixed((c / n).ravel()).reshape(2, 2))
    return tuple(WaveFunction(geometry, sector, q, c, spec.lam) for c in kept)


def _interval_level(spec: SystemSpec, sector: str, q: float) -> Level | None:
    meq, colnorms = _scaled_for_nullity(
        _interval_matrix(spec, sector, q)[0],
        _interval_matrix(spec, sector, q, magnitudes=True)[0],
    )
    _, s, vh = np.linalg.svd(meq)
    # absolute count: kept columns have unit norm, so s[0] is O(1) unless the
    # whole matrix vanished, in which case every direction really is null
    nullity = int(np.sum(s < _NULL_TOL)) or 1
    null = (np.conj(vh[len(s) - nullity :]) / colnorms).reshape(-1, 2, 2)
    states = _states(spec, sector, q, null)
    return Level(states[0].energy, sector, q, len(states), states) if states else None


def _grid(step: float, top: float) -> np.ndarray:
    """Scan samples: 12 geometric ones from 1e-4 step to step / 4, where a
    zero mode's tail bends |det| near q = 0, then spacing step to two steps
    past top, so that a root just below top has samples on both sides."""
    near_zero = np.geomspace(step * 1e-4, 0.25 * step, 12)
    return np.unique(np.concatenate([near_zero, np.arange(0.25 * step, top + 2.0 * step, step)]))


def solve_interval_spectrum(spec: SystemSpec, n_levels: int = 10) -> Spectrum:
    """Lowest discrete levels of the interval system, all sectors.

    Scans the negative sector up to kappa = r + 2/l, below which every bound
    state provably lies (r is the largest binding Robin rate, capped at 300/l
    and then flagged in solver_report["window_capped"]), tests E = 0 exactly
    on the polynomial basis when levels are still missing, and walks a k
    grid of step pi/(8 l) for positive levels up to a k that bounds the
    n_levels-th level (fewer levels than asked for are flagged in
    solver_report["window_exhausted"]).  Each scan stops refining once its
    share of the n_levels lowest levels is certain, the positive scan is
    skipped when the bound states already fill n_levels, and at most
    n_levels levels are returned.
    """
    if not spec.geometry.is_interval:
        raise GeometryMismatchError("use solve_line_bound_states on the line")
    if n_levels < 1:
        raise ValueError("n_levels must be at least 1")
    l = spec.geometry.l
    step = np.pi / (8.0 * l)
    floor = 1e-7 / l
    report = {
        "bracket_count": 0,
        "root_method": "itp",
        "secular_evaluations": 0,
        "stacked_evaluations": 0,
        "refinement_tolerance": "%g * max(1, q)" % _XTOL,
        "nullity_method": "scaled-svd",
        "window_exhausted": False,
    }
    # every bound state has kappa < r + 2/l, r the largest binding rate of the
    # split (README, Numerical notes); the 300/l cap keeps cosh(kappa l) finite
    r = max(max(binding) for _, _, _, binding, _ in spec.split)
    report["window_capped"] = bool(r + 2.0 / l > 300.0 / l)
    kappa_max = min(r + 2.0 / l, 300.0 / l)
    grid = _grid(min(step, kappa_max / 256.0), kappa_max)
    levels = _scan_roots(spec, "negative", grid, floor, n_levels, report)

    if len(levels) < n_levels:
        zero_det = _row_normalized_det(_interval_matrix(spec, "zero", 0.0))[0]
        lv = _interval_level(spec, "zero", 0.0) if abs(zero_det) < _ACCEPT else None
        if lv is not None:
            levels.append(lv)

    need = n_levels - len(levels)
    # min-max: level i (from 0, with multiplicity) is at most the Dirichlet
    # level (lam pi ceil((i + 1) / 2) / l)^2, so k_max bounds every level asked for
    k_max = (n_levels + 2) * np.pi / l
    if need > 0:
        grid = _grid(step, k_max)
        pos_levels = _scan_roots(spec, "positive", grid, floor, need, report)
        report["window_exhausted"] = len(pos_levels) < need
        levels.extend(pos_levels)
    levels.sort(key=lambda lv: lv.energy)
    window = (-((spec.lam * kappa_max) ** 2), (spec.lam * k_max) ** 2)
    return Spectrum(tuple(levels), window, report)


def solve_spectrum(spec: SystemSpec, n_levels: int = 10) -> Spectrum:
    """The lowest n_levels interval levels, or every bound state on the line."""
    if spec.geometry.is_interval:
        return solve_interval_spectrum(spec, n_levels=n_levels)
    return solve_line_bound_states(spec)


def solve_line_bound_states(spec: SystemSpec) -> Spectrum:
    """All bound states on the line: decaying solutions e^{-kappa x}.

    An eigenvector w of U with eigenvalue e^{i phi} meets the singularity
    condition as w e^{-kappa x} with kappa = tan(phi/2) / L0, so each
    eigenphase with a positive tangent binds one state.  Eigenvectors and
    rates are the origin's split (SystemSpec.split), which the interval
    window reads too; kappas closer than 1e-9 max(1, kappa) form one level.
    """
    if spec.geometry.is_interval:
        raise GeometryMismatchError("use solve_interval_spectrum on an interval")
    vectors, _, _, binding, _ = spec.split[0]
    found = [(q, np.conj(v)) for q, v in zip(binding, vectors) if q > 0.0]
    groups = []
    for q, w in sorted(found, key=lambda f: f[0]):
        if groups and abs(q - groups[-1][0]) < 1e-9 * max(1.0, q):
            groups[-1][1].append(w)
        else:
            groups.append((q, [w]))
    levels = []
    for q, ws in groups:
        coeffs = np.zeros((len(ws), 2, 2), dtype=complex)
        coeffs[:, :, 0] = ws  # w e^{-kappa x}: no x e^{-kappa x} term
        states = _states(spec, "negative", q, coeffs)
        levels.append(Level(states[0].energy, "negative", q, len(states), states))
    levels.sort(key=lambda lv: lv.energy)
    kappa_max = max((q for q, _ in groups), default=0.0) + 1.0 / spec.L0
    report = {
        "candidate_count": len(groups),
        "root_method": "eigenphase",
        "nullity_method": "eigenvector",
        "window_exhausted": False,
    }
    return Spectrum(tuple(levels), (-((spec.lam * kappa_max) ** 2), 0.0), report)
