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


def test_tol_env(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, MATCHED)
    monkeypatch.setenv("SINGULAR_SUSY_TOL", "1e-6")
    assert cli.main(["verify", "--config", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("SINGULAR_SUSY_TOL", "banana")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", path])
    assert exc.value.code == 2
