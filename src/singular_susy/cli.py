"""Command line front end.

Commands: classify, spectrum, verify, scan, half-parity.  Systems are
described by a JSON config; see load_system for the schema.  Output is
JSON or CSV, deterministic for identical input, with floats printed to 12
significant digits in CSV.  Exit codes: 0 on success, 1 on a domain or
verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .classify import classify_system, half_parity_system
from .errors import ParseError, SingularSusyError
from .matkit import su2_from_euler
from . import spectra
from .system import Geometry, SystemSpec, robin_matrix, theta_for_scale
from .verify import run_verification

JSON_ONLY = ("classify", "verify", "half-parity")
SCAN_PARAMS = ("theta", "theta_l", "mu", "L")
_SECTOR_SHORT = {"positive": "pos", "zero": "zero", "negative": "neg"}


def _finite(x) -> bool:
    """True for a JSON number (not a bool) with a finite float value."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer literal past the float range
        return False


def _num(node: dict, key: str, where: str, positive: bool = False) -> float:
    v = node.get(key)
    if not _finite(v) or (positive and not v > 0):
        raise ParseError("%s: finite %snumber required" % (where, "positive " if positive else ""))
    return float(v)


def _entries(node, where: str) -> np.ndarray:
    if (
        not isinstance(node, list)
        or len(node) != 4
        or any(
            not isinstance(p, list)
            or len(p) != 2
            or not all(_finite(x) for x in p)
            for p in node
        )
    ):
        raise ParseError("%s: four [re, im] pairs required (row-major)" % where)
    flat = np.array([complex(p[0], p[1]) for p in node])
    return flat.reshape(2, 2)


def _parse_u(node) -> np.ndarray:
    if not isinstance(node, dict):
        raise ParseError("U: object required")
    form = node.get("form")
    if form == "angles":
        theta = _num(node, "theta", "U.theta")
        mu = _num(node, "mu", "U.mu") if "mu" in node else 0.0
        nu = _num(node, "nu", "U.nu") if "nu" in node else 0.0
        v = su2_from_euler(mu, nu)
        return v.conj().T @ robin_matrix(theta) @ v
    if form == "matrix":
        return _entries(node.get("entries"), "U.entries")
    raise ParseError("U.form: 'angles' or 'matrix' required")


def _parse_dl(node) -> np.ndarray:
    if not isinstance(node, dict):
        raise ParseError("Dl: object required")
    if "theta_l" in node:
        return robin_matrix(_num(node, "theta_l", "Dl.theta_l"))
    if "entries" in node:
        return _entries(node["entries"], "Dl.entries")
    raise ParseError("Dl: theta_l or entries required")


def load_system(text: str) -> SystemSpec:
    """Build a SystemSpec from its JSON description (see system_from_config)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from exc
    return system_from_config(raw)


def system_from_config(raw) -> SystemSpec:
    """Build a SystemSpec from a parsed JSON config.

    Schema:
      geometry: {"type": "line"} or {"type": "interval", "l": length}
      U:  {"form": "angles", "theta": t, "mu": m, "nu": n}
          meaning V(mu, nu)^dag diag(e^{i t}, -1) V(mu, nu), or
          {"form": "matrix", "entries": [[re, im] x 4]} row-major
      Dl: {"theta_l": t} meaning diag(e^{i t}, -1), or {"entries": ...};
          required for intervals, forbidden on the line
      lambda, L0: positive floats, both default 1.0
    Every number must be finite; a bad field raises ParseError naming it.
    """
    if not isinstance(raw, dict):
        raise ParseError("top level: object required")
    geo = raw.get("geometry")
    if not isinstance(geo, dict):
        raise ParseError("geometry: object required")
    kind = geo.get("type")
    if kind == "line":
        geometry = Geometry.line()
    elif kind == "interval":
        geometry = Geometry.interval(_num(geo, "l", "geometry.l", positive=True))
    else:
        raise ParseError("geometry.type: 'line' or 'interval' required")
    if "U" not in raw:
        raise ParseError("U: required")
    u = _parse_u(raw["U"])
    lam = _num(raw, "lambda", "lambda", positive=True) if "lambda" in raw else 1.0
    L0 = _num(raw, "L0", "L0", positive=True) if "L0" in raw else 1.0
    dl = _parse_dl(raw["Dl"]) if raw.get("Dl") is not None else None
    return SystemSpec(geometry, u, dl, lam=lam, L0=L0)


def _matrix_entries(m: np.ndarray) -> list:
    # + 0.0 turns -0.0 into 0.0 so round trips are byte-stable
    return [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in np.asarray(m).reshape(-1)]


def system_to_config(spec: SystemSpec) -> dict:
    """Canonical (matrix-form) JSON description of a system."""
    if spec.geometry.is_interval:
        geo = {"type": "interval", "l": float(spec.geometry.l)}
    else:
        geo = {"type": "line"}
    cfg = {
        "geometry": geo,
        "U": {"form": "matrix", "entries": _matrix_entries(spec.U)},
        "lambda": float(spec.lam),
        "L0": float(spec.L0),
    }
    if spec.Dl is not None:
        cfg["Dl"] = {"entries": _matrix_entries(spec.Dl)}
    return cfg


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell(x) -> str:
    if x is None:
        return ""
    return "%.12g" % x if isinstance(x, float) else str(x)


def _csv(header: tuple, rows: list) -> str:
    """CSV of row dicts in header order: floats to 12 significant digits,
    None as an empty cell."""
    lines = [",".join(header)] + [",".join(_cell(r[k]) for k in header) for r in rows]
    return "\n".join(lines) + "\n"


def _charge_dict(q) -> dict:
    return {
        "alpha": q.alpha,
        "c": q.c,
        "theta": q.theta,
        "lambda": q.lam,
        "L0": q.L0,
        "reflected": q.reflected,
        "conjugator": _matrix_entries(q.conjugator),
        "a": [float(x) for x in q.a_vec],
        "b": [float(x) for x in q.b_vec],
        "shift": q.shift,
    }


def _render_classify(spec: SystemSpec, args) -> tuple[str, int]:
    cls = classify_system(spec)
    payload = {
        "degree": cls.degree,
        "goodness": cls.goodness,
        "shift": cls.shift,
        "charges": [_charge_dict(q) for q in cls.charges],
        "notes": list(cls.notes),
    }
    return _dump_json(payload), 0


def _render_spectrum(spec: SystemSpec, args) -> tuple[str, int]:
    spectrum = spectra.solve_spectrum(spec, args.n_levels)
    rows = [
        {
            "index": i,
            "sector": _SECTOR_SHORT[lv.sector],
            "k_or_kappa": lv.wavenumber,
            "energy": lv.energy,
            "multiplicity": lv.multiplicity,
        }
        for i, lv in enumerate(spectrum.levels[: args.n_levels])
    ]
    if args.fmt == "json":
        payload = {
            "levels": rows,
            "scan_window": list(spectrum.scan_window),
            "solver_report": spectrum.solver_report,
        }
        return _dump_json(payload), 0
    return _csv(("index", "sector", "k_or_kappa", "energy", "multiplicity"), rows), 0


def _render_verify(spec: SystemSpec, args) -> tuple[str, int]:
    report = run_verification(spec, n_levels=args.n_levels, tol=args.tol)
    return _dump_json(report.as_dict()), 0 if report.all_passed else 1


def _scan_configs(spec: SystemSpec, raw: dict, scan: dict):
    param = scan["param"]
    u_node = raw.get("U")
    if not isinstance(u_node, dict) or u_node.get("form") != "angles":
        raise ParseError("scan: angle-form U required")
    interval = spec.geometry.is_interval
    if param == "theta_l" and not interval:
        raise ParseError("scan: theta_l needs an interval system")
    if interval and param in ("theta", "theta_l", "L"):
        dl_node = raw.get("Dl")
        if not isinstance(dl_node, dict) or "theta_l" not in dl_node:
            raise ParseError("scan: theta_l-form Dl required")
    for value in np.linspace(scan["lo"], scan["hi"], scan["steps"]).tolist():
        angle = theta_for_scale(value, raw.get("L0", 1.0)) if param == "L" else value
        # shallow copy: the sweep replaces the U and Dl nodes it sets, so raw
        # and its nested nodes are never written to
        node = dict(raw)
        if param == "mu":
            node["U"] = dict(u_node, mu=value)
        elif param != "theta_l":
            node["U"] = dict(u_node, theta=angle)
        if interval and param != "mu":
            node["Dl"] = dict(raw["Dl"], theta_l=angle)
        yield value, node


def _render_scan(spec: SystemSpec, args) -> tuple[str, int]:
    param = args.scan["param"]
    header = ("param", "value", "degree", "shift", "ground_energy", "goodness")
    rows = []
    # the sweep rewrites the angle-form nodes, which spec no longer holds
    for value, node in _scan_configs(spec, json.loads(args.text), args.scan):
        try:
            point = system_from_config(node)
            spectrum = spectra.solve_spectrum(point, 1)
            cls = classify_system(point, spectrum)
            ground = spectrum.ground.energy if spectrum.ground else None
            row = (param, value, cls.degree, cls.shift, ground, cls.goodness)
        except SingularSusyError:
            row = (param, value, "error", None, None, "error")
        rows.append(dict(zip(header, row)))
    if args.fmt == "json":
        return _dump_json(rows), 0
    return _csv(header, rows), 0


def _render_half_parity(spec: SystemSpec, args) -> tuple[str, int]:
    return _dump_json(system_to_config(half_parity_system(spec))), 0


_RENDER = {
    "classify": _render_classify,
    "spectrum": _render_spectrum,
    "verify": _render_verify,
    "scan": _render_scan,
    "half-parity": _render_half_parity,
}


def _parse_scan_flag(value: str) -> dict:
    parts = value.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected PARAM:FROM:TO:STEPS")
    param, lo, hi, steps = parts
    if param not in SCAN_PARAMS:
        raise argparse.ArgumentTypeError("param must be one of %s" % ", ".join(SCAN_PARAMS))
    try:
        lo = float(lo)
        hi = float(hi)
        steps = int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError("FROM and TO must be numbers, STEPS an integer")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("FROM and TO must be finite")
    if steps < 2:
        raise argparse.ArgumentTypeError("STEPS must be at least 2")
    return {"param": param, "lo": lo, "hi": hi, "steps": steps}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="singular-susy",
        description="Classify, solve, and verify point-singularity SUSY systems.",
    )
    parser.add_argument("command", choices=_RENDER)
    parser.add_argument("--config", required=True, metavar="PATH", help="system JSON")
    parser.add_argument("--n-levels", type=int, default=10, dest="n_levels")
    parser.add_argument("--output", metavar="PATH")
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt")
    parser.add_argument("--scan", type=_parse_scan_flag, metavar="PARAM:FROM:TO:STEPS")
    args = parser.parse_args(argv)
    if args.command == "scan" and not args.scan:
        parser.error("scan requires --scan PARAM:FROM:TO:STEPS")
    if args.command != "scan" and args.scan:
        parser.error("--scan only applies to the scan command")
    if args.command in JSON_ONLY and args.fmt == "csv":
        parser.error("%s output is JSON only" % args.command)
    if args.n_levels < 1:
        parser.error("--n-levels must be at least 1")
    # the renderers read the tolerance and the config text from args
    try:
        args.tol = float(os.environ.get("SINGULAR_SUSY_TOL", "1e-8"))
    except ValueError:
        args.tol = math.nan
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("SINGULAR_SUSY_TOL must be a finite positive number")
    try:
        args.text = Path(args.config).read_text()
    except OSError as exc:
        print("error: cannot read config: %s" % exc, file=sys.stderr)
        return 1
    try:
        text, code = _RENDER[args.command](load_system(args.text), args)
    except SingularSusyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
