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
