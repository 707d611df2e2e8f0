"""Independent references that every benchmark answer is checked against.

Nothing here calls the package under test.  Diagonal interval systems
split into two scalar Robin problems, a psi + b psi' = 0 at each end, whose
secular functions are written out below and solved by sign-change
bisection.  The other references are closed forms: the matched-Robin
ground state e^{-x/L}, the simple-charge levels k = |n pi +- mu/2| / l, and
the half-line Robin bound state kappa = 1/L.  Systems without a closed form
(Haar-random U) are held to the boundary conditions their returned states
must satisfy.

Each check returns a list of problems; an empty list means the answer
agrees with its reference.  An answer that fails is put down to one of the
two open defects only if it shows that defect's own symptom: the reference
level the defect loses (``lost_level``) is missing and everything else
agrees.  Any other problem, on any input, is unexpected.
"""

from __future__ import annotations

import math
import re

import numpy as np

# matched Robin loses its bound state from about this theta on (open defect)
DEFECT_BAND = (2.95, math.pi)
Q_RTOL = 1e-9  # wavenumbers agree within Q_RTOL * max(1, q)
PRINT_RTOL = 1e-9  # values printed with 12 significant digits
RESIDUAL_TOL = 1e-8


def in_defect_band(theta: float) -> bool:
    return DEFECT_BAND[0] <= theta % (2.0 * math.pi) < DEFECT_BAND[1]


def lost_level(defect: str | None, ref: list | None, l: float) -> bool:
    """Whether the lowest reference level is the one the named defect
    loses: "theta-band" the simple negative ground of matched Robin,
    "low-doublet" a positive doublet with k l < 0.75."""
    if not defect or not ref:
        return False
    _, sector, q, mult = ref[0]
    if defect == "theta-band":
        return sector == "negative" and mult == 1
    if defect == "low-doublet":
        return sector == "positive" and mult == 2 and q * l < 0.75
    return False


def _close(got: float, want: float, rtol: float = PRINT_RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


# --- scalar oracle for diagonal interval systems ----------------------------


def end_coefficients(u: complex, L0: float) -> tuple[float, float]:
    """(a, b) with (u - 1) psi + i L0 (u + 1) psi' = 0  <=>  a psi + b psi' = 0.

    u - 1 = 2i e^{i t/2} sin(t/2) and u + 1 = 2 e^{i t/2} cos(t/2) for
    u = e^{i t}, so the common factor drops out.
    """
    t = float(np.angle(u))
    return math.sin(t / 2.0), L0 * math.cos(t / 2.0)


def _bisect_sign_changes(f, grid: np.ndarray) -> list:
    vals = f(grid)
    roots = []
    for i in np.nonzero((vals[:-1] < 0.0) != (vals[1:] < 0.0))[0]:
        a, b, fa = grid[i], grid[i + 1], vals[i]
        while True:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            fm = f(np.array([m]))[0]
            if (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


def component_roots(ends, l: float, k_max: float) -> dict:
    """Wavenumbers of one scalar component with ends ((a0, b0), (a1, b1)).

    Positive sector: psi = A cos kx + B sin kx; negative sector: psi =
    A cosh qx + B sinh qx, divided through by cosh(ql) so that large ql
    cannot overflow.  Both determinants are divided by a positive
    normalisation, which keeps their signs.  Roots below 1e-7 / l are
    dropped, as the solver does.
    """
    (a0, b0), (a1, b1) = ends
    floor = 1e-7 / l

    def f_pos(k):
        s, c = np.sin(k * l), np.cos(k * l)
        det = a0 * (a1 * s + b1 * k * c) - b0 * k * (a1 * c - b1 * k * s)
        return det / ((abs(a0) + abs(b0) * k) * (abs(a1) + abs(b1) * k))

    def f_neg(q):
        t = np.tanh(q * l)
        det = a0 * (a1 * t + b1 * q) - b0 * q * (a1 + b1 * q * t)
        return det / ((abs(a0) + abs(b0) * q) * (abs(a1) + abs(b1) * q))

    k_grid = np.concatenate(
        [np.geomspace(floor, 0.1 / l, 200), np.arange(0.1 / l, k_max, math.pi / (64.0 * l))]
    )
    # for large ql the negative roots approach a0/b0 and -a1/b1: refine there
    edges = [a0 / b0 if abs(b0) > 1e-12 * abs(a0) else 0.0]
    edges.append(-a1 / b1 if abs(b1) > 1e-12 * abs(a1) else 0.0)
    q_top = 2.0 * max(max(edges), 1.0 / l) + 10.0 / l
    q_grid = [np.geomspace(floor, q_top, 4000)]
    for e in edges:
        if e > floor:
            q_grid.append(np.linspace(0.98 * e, 1.02 * e, 4001))
    q_grid = np.unique(np.concatenate(q_grid))
    zero_det = a0 * (a1 * l + b1) - b0 * a1
    zero_scale = (abs(a0) + abs(b0)) * (abs(a1) * (l + 1.0) + abs(b1))
    return {
        "positive": [k for k in _bisect_sign_changes(f_pos, k_grid) if k > floor],
        "negative": [q for q in _bisect_sign_changes(f_neg, q_grid) if q > floor],
        "zero": [0.0] if abs(zero_det) <= 1e-12 * zero_scale else [],
    }


def _merge(qs: list) -> list:
    """Group equal wavenumbers into (q, multiplicity)."""
    out = []
    for q in sorted(qs):
        if out and abs(q - out[-1][0]) <= Q_RTOL * max(1.0, q):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((q, 1))
    return out


def diagonal_levels(U: np.ndarray, Dl: np.ndarray, l: float, L0: float, lam: float, n_levels: int) -> list:
    """Reference levels [(energy, sector, q, multiplicity)] sorted by energy."""
    k_max = (n_levels + 4) * math.pi / l
    roots = {"positive": [], "zero": [], "negative": []}
    for c in range(2):
        ends = (end_coefficients(U[c, c], L0), end_coefficients(Dl[c, c], L0))
        for sector, qs in component_roots(ends, l, k_max).items():
            roots[sector].extend(qs)
    levels = [(-((lam * q) ** 2), "negative", q, m) for q, m in _merge(roots["negative"])]
    if roots["zero"]:
        levels.append((0.0, "zero", 0.0, len(roots["zero"])))
    levels += [((lam * k) ** 2, "positive", k, m) for k, m in _merge(roots["positive"])]
    return sorted(levels)


def simple_charge_levels(mu: float, l: float, lam: float, n_levels: int) -> list:
    """U = V(mu, nu)^dag sigma3 V(mu, nu) against a sigma3 wall, mu in (0, pi):
    the levels are k = |n pi +- mu/2| / l, all positive and simple."""
    ks = sorted(
        abs(n * math.pi + s * mu / 2.0) / l
        for n in range(n_levels + 2)
        for s in ((1.0,) if n == 0 else (1.0, -1.0))
    )
    return [((lam * k) ** 2, "positive", k, 1) for k in ks if k > 1e-7 / l][: n_levels + 2]


def compare_levels(levels, reference: list, n: int) -> list:
    """The lowest n returned levels must match the reference one to one."""
    if len(levels) < n:
        return ["returned %d levels, asked for %d" % (len(levels), n)]
    problems = []
    for i, (lv, (energy, sector, q, mult)) in enumerate(zip(levels[:n], reference)):
        if lv.sector != sector or abs(lv.wavenumber - q) > Q_RTOL * max(1.0, q):
            problems.append(
                "level %d: got %s q=%.15g, want %s q=%.15g" % (i, lv.sector, lv.wavenumber, sector, q)
            )
            break  # later levels are shifted by the first mismatch
        if lv.multiplicity != mult:
            problems.append("level %d: multiplicity %d, want %d" % (i, lv.multiplicity, mult))
    return problems


# --- boundary residuals of returned states ----------------------------------


def _basis(sector: str, q: float, x: float, interval: bool):
    """Values and derivatives of the two basis functions at x."""
    if sector == "positive":
        c, s = math.cos(q * x), math.sin(q * x)
        return np.array([c, s]), np.array([-q * s, q * c])
    if sector == "zero":
        return np.array([1.0, x]), np.array([0.0, 1.0])
    if interval:
        ch, sh = math.cosh(q * x), math.sinh(q * x)
        return np.array([ch, sh]), np.array([q * sh, q * ch])
    e = math.exp(-q * x)
    return np.array([e, x * e]), np.array([-q * e, (1.0 - q * x) * e])


def boundary_residual(m: np.ndarray, L0: float, coeffs: np.ndarray, sector: str, q: float, x: float, interval: bool) -> float:
    vals, ders = _basis(sector, q, x, interval)
    psi, dpsi = coeffs @ vals, coeffs @ ders
    eye = np.eye(2)
    lhs = (m - eye) @ psi + 1j * L0 * (m + eye) @ dpsi
    scale = max(np.linalg.norm(psi), L0 * np.linalg.norm(dpsi))
    return float(np.linalg.norm(lhs) / scale) if scale > 0.0 else 0.0


def state_problems(spec, levels) -> list:
    """Every returned state must satisfy both boundary conditions."""
    interval = spec.Dl is not None
    problems = []
    for i, lv in enumerate(levels):
        for st in lv.states:
            if st.sector != lv.sector:
                problems.append("level %d: state sector %s" % (i, st.sector))
                continue
            coeffs = np.asarray(st.coeffs)
            r = boundary_residual(spec.U, spec.L0, coeffs, st.sector, st.wavenumber, 0.0, interval)
            if interval:
                r = max(r, boundary_residual(spec.Dl, spec.L0, coeffs, st.sector, st.wavenumber, spec.l, True))
            if not r <= RESIDUAL_TOL:
                problems.append("level %d: boundary residual %.3e" % (i, r))
    return problems


# --- per-answer checks -------------------------------------------------------


def reference_levels(expect: dict, spec, n_levels: int) -> list | None:
    family = expect["family"]
    if family == "simple":
        return simple_charge_levels(expect["mu"], spec.l, spec.lam, n_levels)
    if family == "haar":
        return None
    return diagonal_levels(np.asarray(spec.U), np.asarray(spec.Dl), spec.l, spec.L0, spec.lam, n_levels)


def check_spectrum(expect: dict, spec, spectrum, n_levels: int, ref: list | None = None) -> list:
    """ref overrides the family's reference levels (the defect check)."""
    problems = []
    if spectrum.solver_report.get("window_exhausted"):
        problems.append("window exhausted")
    if ref is None:
        ref = reference_levels(expect, spec, n_levels)
    if ref is None:
        if len(spectrum.levels) < n_levels:
            problems.append("returned %d levels, asked for %d" % (len(spectrum.levels), n_levels))
    else:
        problems += compare_levels(spectrum.levels, ref, n_levels)
    return problems + state_problems(spec, spectrum.levels)


_CLASSIFICATION = re.compile(r"degree=(\S+) goodness=(\S+) shift=(\S+)")
_GROUND = re.compile(r"ground (\S+) vs bound")


def _goodness_from_ground(degree: str, shift: float, ref: list) -> str:
    """Good iff the ground level is simple and sits at -|b|^2 (2Q^2 = H + |b|^2)."""
    if degree == "none" or not ref:
        return "NotApplicable"
    energy, _, _, mult = ref[0]
    return "Good" if mult == 1 and _close(energy, -shift) else "Broken"


def spectrum_defect(expect: dict, spec, spectrum, n_levels: int) -> str | None:
    """The open defect a failed spectrum shows, if it shows only that."""
    ref = reference_levels(expect, spec, n_levels)
    if not lost_level(expect.get("defect"), ref, spec.l):
        return None
    return None if check_spectrum(expect, spec, spectrum, n_levels, ref[1:]) else expect["defect"]


def check_verification(expect: dict, spec, report, lost: bool = False) -> list:
    """run_verification answer: the battery passes and the classification
    and ground energy agree with the family's closed form or the oracle.
    With lost, the answer is held to the oracle without its lowest level,
    as the open defects leave it: matched Robin then reads Broken."""
    details = {c.name: c.details for c in report.checks}
    found = _CLASSIFICATION.search(details.get("classification", ""))
    if found is None:
        return ["no classification in the report"]
    degree, goodness, shift = found.group(1), found.group(2), float(found.group(3))
    ground = _GROUND.search(details.get("lower bound", ""))
    ground = float(ground.group(1)) if ground else None
    problems = [] if report.all_passed else ["checks failed: %s" % [c.name for c in report.checks if not c.passed]]
    family = expect["family"]
    if family == "matched":
        bound = (spec.lam * math.tan(expect["theta"] / 2.0) / spec.L0) ** 2
    if family == "haar":
        want = ("none", "NotApplicable")
    elif family == "matched" and not lost:
        want = ("N2", "Good")
        if not _close(shift, bound) or ground is None or not _close(ground, -bound):
            problems.append("ground %s, shift %s; want both at -+%.12g" % (ground, shift, bound))
    else:
        ref = reference_levels(expect, spec, 3)[int(lost):]
        want = {"crossed": ("N2", "Broken"), "reflected": ("N2", "Broken"), "simple": ("N1", "Broken")}.get(family)
        if family == "matched":  # the negative ground lost, so Broken
            want = ("N2", "Broken")
            if not _close(shift, bound):
                problems.append("shift %s, want %.12g" % (shift, bound))
        elif want is None:  # diagonal: no closed-form degree, goodness from the oracle ground
            want = (degree, _goodness_from_ground(degree, shift, ref))
        if ground is None:
            if family == "matched":
                problems.append("no ground energy")
        elif not _close(ground, ref[0][0]):
            problems.append("ground %.12g, oracle %.12g" % (ground, ref[0][0]))
    if (degree, goodness) != want:
        problems.append("classified %s %s, want %s %s" % (degree, goodness, *want))
    return problems


def verification_defect(expect: dict, spec, report) -> str | None:
    """The open defect a failed verification shows, if it shows only that."""
    if not lost_level(expect.get("defect"), reference_levels(expect, spec, 3), spec.l):
        return None
    return None if check_verification(expect, spec, report, lost=True) else expect["defect"]


def scan_rows(text: str) -> list:
    lines = text.strip().split("\n")
    if not lines or lines[0] != "param,value,degree,shift,ground_energy,goodness":
        raise ValueError("unexpected scan header %r" % lines[:1])
    return [line.split(",") for line in lines[1:]]


def expected_scan_row(expect: dict, value: float) -> dict:
    """Closed-form or oracle answer for one scan point: degree, goodness,
    shift, ground energy (None when there is no discrete level)."""
    family = expect["family"]
    lam, L0 = expect["lam"], expect["L0"]
    if family == "simple":
        return {"degree": "N1", "goodness": "Broken", "shift": 0.0, "ground": (lam * value / (2.0 * expect["l"])) ** 2}
    if family == "diagonal":  # theta_l sweep against a fixed origin phase
        U = np.diag([np.exp(1j * expect["theta"]), -1.0])
        Dl = np.diag([np.exp(1j * value), -1.0])
        ref = diagonal_levels(U, Dl, expect["l"], L0, lam, 1)
        return {"degree": "none", "goodness": "NotApplicable", "shift": 0.0, "ground": ref[0][0]}
    # matched Robin on the interval or Robin on the line; the sweep moves
    # theta itself, the Robin length L, or only the frame angle mu
    if expect["param"] == "theta":
        theta = value
    elif expect["param"] == "L":
        theta = 2.0 * math.atan2(L0, value)
    else:
        theta = expect["theta"]
    shift = (lam * math.tan(theta / 2.0) / L0) ** 2
    row = {"degree": "N2", "goodness": "Good", "shift": shift, "ground": -shift, "theta": theta}
    if family == "line" and not 0.0 < theta % (2.0 * math.pi) < math.pi:
        row.update(goodness="NotApplicable", ground=None)  # L < 0: nothing binds
    return row


def _band_row(expect: dict, want: dict) -> dict | None:
    """The answer a theta-band scan point gives with the open defect: the
    negative ground lost, so Broken with the oracle's next level as ground."""
    if expect.get("defect") != "theta-band" or not in_defect_band(want["theta"]):
        return None
    robin = np.diag([np.exp(1j * want["theta"]), -1.0])
    ref = diagonal_levels(robin, robin, expect["l"], expect["L0"], expect["lam"], 2)
    if not lost_level("theta-band", ref, expect["l"]):
        return None
    return dict(want, goodness="Broken", ground=ref[1][0])


def _row_problems(expect: dict, row: list, value: float, want: dict) -> list:
    param, got_value, degree, shift, ground, goodness = row
    bad = []
    if param != expect["param"] or not _close(float(got_value), value):
        bad.append("point %s=%s" % (param, got_value))
    if (degree, goodness) != (want["degree"], want["goodness"]):
        bad.append("%s %s, want %s %s" % (degree, goodness, want["degree"], want["goodness"]))
    if shift == "" or not _close(float(shift), want["shift"]):
        bad.append("shift %s, want %.12g" % (shift, want["shift"]))
    if want["ground"] is None:
        if ground != "":
            bad.append("ground %s, want none" % ground)
    elif ground == "" or not _close(float(ground), want["ground"]):
        bad.append("ground %s, want %.12g" % (ground, want["ground"]))
    return bad


def check_scan(expect: dict, code: int, text: str) -> tuple[list, bool]:
    """Returns (problems, every problem is a theta-band point that shows
    the defect's symptom and nothing else)."""
    if code != 0:
        return ["exit code %d" % code], False
    rows = scan_rows(text)
    values = np.linspace(expect["lo"], expect["hi"], expect["steps"])
    if len(rows) != len(values):
        return ["%d rows, want %d" % (len(rows), len(values))], False
    problems, all_band = [], True
    for row, value in zip(rows, values):
        want = expected_scan_row(expect, float(value))
        bad = _row_problems(expect, row, float(value), want)
        if bad:
            problems.append("%s=%.6g: %s" % (expect["param"], value, "; ".join(bad)))
            band = _band_row(expect, want)
            all_band = all_band and band is not None and not _row_problems(expect, row, float(value), band)
    return problems, all_band
