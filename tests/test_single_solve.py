"""Each request solves its spectrum once, and classification reads it."""

import json

import numpy as np

from singular_susy import classify_system, cli, run_verification, solve_spectrum, spectra

from families import (
    crossed_robin_interval,
    matched_robin_interval,
    reflected_crossed_interval,
    robin_line,
    simple_charge_interval,
)


def test_one_solve_per_request(tmp_path, monkeypatch, capsys):
    calls = []
    original = spectra.solve_interval_spectrum

    def counting(spec, *args, **kwargs):
        calls.append(spec)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(spectra, "solve_interval_spectrum", counting)
    run_verification(matched_robin_interval(np.pi / 2))
    assert len(calls) == 1

    calls.clear()
    cfg = {
        "geometry": {"type": "interval", "l": 1.0},
        "U": {"form": "angles", "theta": np.pi / 2},
        "Dl": {"theta_l": np.pi / 2},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["scan", "--config", str(path), "--scan", "theta:0.5:2.5:3"]) == 0
    capsys.readouterr()
    assert len(calls) == 3

    systems = (
        [matched_robin_interval(t) for t in (0.7, np.pi / 2, 2.5)]
        + [crossed_robin_interval(L) for L in (-0.3, -0.7)]
        + [reflected_crossed_interval(L) for L in (-0.3, -0.7)]
        + [simple_charge_interval(mu, nu=0.4) for mu in (0.0, 0.9, np.pi)]
        + [robin_line(t) for t in (0.6, 2.0, 4.0)]
    )
    for spec in systems:
        alone = classify_system(spec)
        given = classify_system(spec, solve_spectrum(spec, n_levels=8))
        assert (given.degree, given.goodness, given.shift) == (alone.degree, alone.goodness, alone.shift)


def test_bound_states_that_fill_n_levels_skip_the_positive_scan(monkeypatch):
    built = []
    original = spectra._interval_matrix

    def spy(spec, sector, *args, **kwargs):
        built.append(sector)
        return original(spec, sector, *args, **kwargs)

    monkeypatch.setattr(spectra, "_interval_matrix", spy)
    spec = matched_robin_interval(np.pi / 2)
    assert spectra.solve_interval_spectrum(spec, 1).ground.sector == "negative"
    assert "negative" in built and "positive" not in built
    built.clear()
    assert len(spectra.solve_interval_spectrum(spec, 2).levels) == 2
    assert "positive" in built


def test_each_simple_root_is_refined_once(monkeypatch):
    """The |det| dip beside a sign change is the ITP-refined root itself: no
    golden section, and its twin subscans are two stacked builds, which the
    report counts with the grid."""
    sizes, golden = [], []
    build, minimize = spectra._interval_matrix, spectra._golden_min

    def spy_build(spec, sector, qs, *args, **kwargs):
        sizes.append(np.size(qs))
        return build(spec, sector, qs, *args, **kwargs)

    def spy_golden(*args, **kwargs):
        golden.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(spectra, "_interval_matrix", spy_build)
    monkeypatch.setattr(spectra, "_golden_min", spy_golden)
    spectrum = spectra.solve_interval_spectrum(matched_robin_interval(np.pi / 2), 1)
    ground = spectrum.ground
    # matched Robin length L = cot(pi/4) = 1: ground state e^{-x}
    assert ground.sector == "negative" and abs(ground.wavenumber - 1.0) < 1e-12
    assert golden == []
    assert sizes.count(65) == 2
    assert len(sizes) < 25
    # the first build is the kappa grid
    assert spectrum.solver_report["stacked_evaluations"] == sizes[0] + 130


def test_interval_report_names_itp_and_counts_evaluations():
    """The report counts every one-wavenumber determinant: matched Robin
    with theta = pi/2 at n_levels=1 refines one root by ITP and reads its
    |det| once."""
    report = spectra.solve_interval_spectrum(matched_robin_interval(np.pi / 2), 1).solver_report
    assert report["root_method"] == "itp"
    assert 0 < report["secular_evaluations"] <= 15
