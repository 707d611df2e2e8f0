"""End-to-end checks of the command line front end, run in process."""

import json
from pathlib import Path

import numpy as np
import pytest

from singular_susy import (
    Geometry,
    ParseError,
    SystemSpec,
    classify_system,
    cli,
    robin_matrix,
    solve_interval_spectrum,
    su2_from_euler,
)
from singular_susy.cli import load_system, system_to_config

from families import crossed_robin_interval


MATCHED = {
    "geometry": {"type": "interval", "l": 1.0},
    "U": {"form": "angles", "theta": np.pi / 2},
    "Dl": {"theta_l": np.pi / 2},
}
LINE = {
    "geometry": {"type": "line"},
    "U": {"form": "angles", "theta": np.pi / 2},
}

GOLDEN = Path(__file__).parent / "golden" / "classify"
# output file name -> command; the config is GOLDEN / "<first name part>.config.json"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli"
CLI_CASES = {
    "interval-matched-n2.spectrum.csv": ["spectrum", "--format", "csv", "--n-levels", "6"],
    "interval-matched-n2.spectrum.json": ["spectrum", "--format", "json", "--n-levels", "4"],
    "interval-matched-n2.scan-theta_l.csv": ["scan", "--scan", "theta_l:0.5:1.5:5", "--format", "csv"],
    "interval-matched-n2.scan-theta_l.json": ["scan", "--scan", "theta_l:0.5:1.5:5", "--format", "json"],
    "interval-matched-n2.half-parity.json": ["half-parity"],
    "line-tilted.spectrum.csv": ["spectrum", "--format", "csv"],
    "line-tilted.spectrum.json": ["spectrum", "--format", "json"],
    "line-tilted.scan-L.csv": ["scan", "--scan", "L:-1:1:5", "--format", "csv"],
    "line-tilted.scan-L.json": ["scan", "--scan", "L:-1:1:5", "--format", "json"],
}


def _write(tmp_path, obj, name="sys.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_load_system_angles_means_conjugated_robin():
    cfg = dict(MATCHED, U={"form": "angles", "theta": 0.8, "mu": 1.1, "nu": -0.4})
    spec = load_system(json.dumps(cfg))
    v = su2_from_euler(1.1, -0.4)
    assert np.allclose(spec.U, v.conj().T @ robin_matrix(0.8) @ v)
    assert np.allclose(spec.Dl, robin_matrix(np.pi / 2))
    assert spec.lam == 1.0 and spec.L0 == 1.0


def test_load_system_matrix_form_round_trip():
    spec = load_system(json.dumps(MATCHED))
    back = load_system(json.dumps(system_to_config(spec)))
    assert np.array_equal(spec.U, back.U)
    assert np.array_equal(spec.Dl, back.Dl)
    assert back.geometry == Geometry.interval(1.0)


def test_load_system_field_errors():
    with pytest.raises(ParseError, match="U: required"):
        load_system(json.dumps({"geometry": {"type": "line"}}))
    with pytest.raises(ParseError, match="geometry.l"):
        bad = dict(MATCHED, geometry={"type": "interval", "l": -2.0})
        load_system(json.dumps(bad))
    with pytest.raises(ParseError, match="invalid JSON"):
        load_system("{nope")
    with pytest.raises(ParseError, match="U.form"):
        load_system(json.dumps(dict(MATCHED, U={"theta": 1.0})))
    with pytest.raises(ParseError, match="four \\[re, im\\] pairs"):
        load_system(json.dumps(dict(MATCHED, U={"form": "matrix", "entries": [[1, 0]]})))


def test_classify_json(tmp_path, capsys):
    rc = cli.main(["classify", "--config", _write(tmp_path, MATCHED)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degree"] == "N2"
    assert payload["goodness"] == "Good"
    assert payload["shift"] == pytest.approx(1.0)
    assert len(payload["charges"]) == 2


def test_spectrum_csv_schema(tmp_path, capsys):
    rc = cli.main(["spectrum", "--config", _write(tmp_path, MATCHED), "--format", "csv", "--n-levels", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,sector,k_or_kappa,energy,multiplicity"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "neg" and first[4] == "1"
    assert float(first[2]) == pytest.approx(1.0, abs=1e-9)
    assert float(first[3]) == pytest.approx(-1.0, abs=1e-9)
    # doublets at n pi follow
    second = lines[2].split(",")
    assert second[1] == "pos" and second[4] == "2"
    assert float(second[2]) == pytest.approx(np.pi, abs=1e-9)


def test_interval_spectrum_json_reports_the_kappa_window(tmp_path, capsys):
    rc = cli.main(["spectrum", "--config", _write(tmp_path, MATCHED), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solver_report"]["window_capped"] is False
    # -(r + 2/l)^2 with the matched Robin rate r = tan(pi/4) = 1 at both ends
    assert payload["scan_window"][0] == pytest.approx(-9.0, rel=1e-12)


def test_spectrum_json_keys(tmp_path, capsys):
    rc = cli.main(["spectrum", "--config", _write(tmp_path, LINE), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"levels", "scan_window", "solver_report"}
    assert payload["levels"][0]["sector"] == "neg"
    assert payload["levels"][0]["k_or_kappa"] == pytest.approx(1.0)


def test_double_run_is_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, MATCHED)
    cli.main(["classify", "--config", path])
    first = capsys.readouterr().out
    cli.main(["classify", "--config", path])
    assert capsys.readouterr().out == first
    cli.main(["spectrum", "--config", path, "--format", "csv"])
    first = capsys.readouterr().out
    cli.main(["spectrum", "--config", path, "--format", "csv"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "name", sorted(p.name[: -len(".config.json")] for p in GOLDEN.glob("*.config.json"))
)
def test_classify_json_matches_golden(name, capsys):
    """One config per branch of the charge finder (line N2, none, tilted
    frame; interval N2, N1, none, transported and swapped-wall cases):
    classify output is compared byte for byte with the committed JSON."""
    rc = cli.main(["classify", "--config", str(GOLDEN / (name + ".config.json"))])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".classify.json")).read_text()


@pytest.mark.parametrize(
    "name", sorted(p.name[: -len(".config.json")] for p in GOLDEN.glob("*.config.json"))
)
def test_verify_json_matches_golden(name, capsys):
    """verify output of every golden config, byte for byte: the check list,
    each residual and tolerance, and exit code 0."""
    rc = cli.main(["verify", "--config", str(GOLDEN / (name + ".config.json"))])
    assert rc == 0
    assert capsys.readouterr().out == (GOLDEN / (name + ".verify.json")).read_text()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, capsys):
    """spectrum, scan and half-parity output, byte for byte: the matched
    interval and the tilted line with lambda = 1.5 and L0 = 0.7; the line's
    L sweep crosses 0, so it has NotApplicable rows and an error row."""
    config = GOLDEN / (name.split(".")[0] + ".config.json")
    assert cli.main(CLI_CASES[name] + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == (CLI_GOLDEN / name).read_text()


def test_half_parity_round_trip(tmp_path, capsys):
    path = _write(tmp_path, MATCHED)
    assert cli.main(["half-parity", "--config", path]) == 0
    once = capsys.readouterr().out
    again_path = tmp_path / "mirrored.json"
    again_path.write_text(once)
    assert cli.main(["half-parity", "--config", str(again_path)]) == 0
    twice = capsys.readouterr().out
    spec = load_system(json.dumps(MATCHED))
    canonical = json.dumps(system_to_config(spec), indent=2, sort_keys=True) + "\n"
    assert twice == canonical


def test_output_file_matches_stdout(tmp_path, capsys):
    path = _write(tmp_path, MATCHED)
    out = tmp_path / "spec.csv"
    cli.main(["spectrum", "--config", path, "--format", "csv", "--output", str(out)])
    assert capsys.readouterr().out == ""
    cli.main(["spectrum", "--config", path, "--format", "csv"])
    assert out.read_text() == capsys.readouterr().out


def test_verify_exit_zero(tmp_path, capsys):
    assert cli.main(["verify", "--config", _write(tmp_path, MATCHED)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True


def test_scan_csv(tmp_path, capsys):
    path = _write(tmp_path, MATCHED)
    rc = cli.main(["scan", "--config", path, "--scan", "theta:0.5:2.5:5", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "param,value,degree,shift,ground_energy,goodness"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "theta" and cells[2] == "N2" and cells[5] == "Good"
        theta = float(cells[1])
        assert float(cells[3]) == pytest.approx(np.tan(theta / 2) ** 2, rel=1e-9)
        assert float(cells[4]) == pytest.approx(-np.tan(theta / 2) ** 2, rel=1e-6)


def test_scan_json_rows(tmp_path, capsys):
    path = _write(tmp_path, LINE)
    rc = cli.main(["scan", "--config", path, "--scan", "theta:0.4:2.0:3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["value"] for row in payload] == pytest.approx([0.4, 1.2, 2.0])
    assert all(set(row) == {"param", "value", "degree", "shift", "ground_energy", "goodness"} for row in payload)


def test_scan_error_row(tmp_path, capsys):
    """theta = pi cannot build a system: that point becomes an error row
    and the sweep goes on."""
    path = _write(tmp_path, MATCHED)
    rc = cli.main(["scan", "--config", path, "--scan", "theta:0.5:3.141592653589793:2", "--format", "json"])
    assert rc == 0
    good, bad = json.loads(capsys.readouterr().out)
    spec = SystemSpec(Geometry.interval(1.0), robin_matrix(0.5), robin_matrix(0.5))
    cls = classify_system(spec)
    ground = solve_interval_spectrum(spec, n_levels=1).ground.energy
    assert good == {
        "param": "theta",
        "value": 0.5,
        "degree": cls.degree,
        "shift": cls.shift,
        "ground_energy": ground,
        "goodness": cls.goodness,
    }
    assert bad == {
        "param": "theta",
        "value": np.pi,
        "degree": "error",
        "shift": None,
        "ground_energy": None,
        "goodness": "error",
    }


def test_usage_errors_exit_two(tmp_path):
    path = _write(tmp_path, MATCHED)
    for argv in (
        ["classify", "--config", path, "--format", "csv"],
        ["classify", "--config", path, "--scan", "theta:0:1:3"],
        ["scan", "--config", path],
        ["scan", "--config", path, "--scan", "bogus:0:1:3"],
        ["scan", "--config", path, "--scan", "theta:0:1"],
        ["scan", "--config", path, "--scan", "theta:nan:1:3"],
        ["scan", "--config", path, "--scan", "L:0.5:inf:3"],
        ["spectrum", "--config", path, "--n-levels", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_domain_errors_exit_one(tmp_path, capsys):
    bad = dict(MATCHED)
    del bad["U"]
    assert cli.main(["classify", "--config", _write(tmp_path, bad, "a.json")]) == 1
    assert "error:" in capsys.readouterr().err

    not_unitary = dict(MATCHED, U={"form": "matrix", "entries": [[2, 0], [0, 0], [0, 0], [1, 0]]})
    assert cli.main(["classify", "--config", _write(tmp_path, not_unitary, "b.json")]) == 1

    assert cli.main(["classify", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "where, patch",
    [
        ("U.theta", {"U": {"form": "angles", "theta": float("nan")}}),
        ("U.mu", {"U": {"form": "angles", "theta": 1.0, "mu": float("inf")}}),
        ("U.entries", {"U": {"form": "matrix", "entries": [[1, 0], [0, 0], [0, 0], [float("nan"), 0]]}}),
        ("Dl.theta_l", {"Dl": {"theta_l": float("-inf")}}),
        ("geometry.l", {"geometry": {"type": "interval", "l": float("inf")}}),
        ("lambda", {"lambda": 0}),
        ("lambda", {"lambda": float("inf")}),
        ("L0", {"L0": 0}),
        ("L0", {"L0": -1.5}),
        ("U.theta", {"U": {"form": "angles", "theta": 10**400}}),
    ],
    ids=["theta-nan", "mu-inf", "entry-nan", "theta_l-inf", "l-inf", "lambda-0", "lambda-inf",
         "L0-0", "L0-negative", "theta-past-float"],
)
def test_config_values_must_be_finite(tmp_path, capsys, where, patch):
    """A non-finite number, or a lambda, L0 or l that is not positive, is a
    ParseError naming the field, and the CLI prints an error line."""
    text = json.dumps(dict(MATCHED, **patch))
    with pytest.raises(ParseError, match="^%s: " % where):
        load_system(text)
    assert cli.main(["classify", "--config", _write(tmp_path, json.loads(text))]) == 1
    assert capsys.readouterr().err.startswith("error: %s: " % where)


def test_unresolvable_state_is_an_error_line(tmp_path, capsys):
    """Crossed Robin with L = -0.05 on l = 1 binds at kappa*l = 20, where the
    state's norm cancels: spectrum prints the oracle's doublet or an error
    line naming kappa*l, never a traceback."""
    config = system_to_config(crossed_robin_interval(-0.05))
    rc = cli.main(["spectrum", "--config", _write(tmp_path, config), "--format", "csv"])
    out, err = capsys.readouterr()
    if rc == 1:
        assert err.startswith("error: state at kappa*l = 20 ") and out == ""
        return
    assert rc == 0
    first = out.split("\n")[1].split(",")
    assert first[1] == "neg" and first[4] == "2"
    assert float(first[2]) == pytest.approx(20.0, rel=1e-9)


def test_tol_env(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, MATCHED)
    monkeypatch.setenv("SINGULAR_SUSY_TOL", "1e-6")
    assert cli.main(["verify", "--config", path]) == 0
    capsys.readouterr()
    for bad in ("banana", "nan", "inf", "0", "-1e-6"):
        monkeypatch.setenv("SINGULAR_SUSY_TOL", bad)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", path])
        assert exc.value.code == 2
