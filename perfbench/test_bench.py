"""Self-tests of the benchmark: python3 -m pytest perfbench/test_bench.py"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import singular_susy  # noqa: E402
from singular_susy import spectra  # noqa: E402


def _fingerprint(requests):
    out = []
    for req in requests:
        if req.spec is not None:
            s = req.spec
            out.append((s.U.tobytes(), s.Dl.tobytes(), s.l, json.dumps(req.expect, sort_keys=True)))
        else:
            path = Path(req.argv[req.argv.index("--config") + 1])
            out.append((path.read_bytes(), req.argv[req.argv.index("--scan") + 1]))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic(workload, tmp_path):
    a = workloads.make_requests(workload, 7, singular_susy, tmp_path / "a", n=24)
    b = workloads.make_requests(workload, 7, singular_susy, tmp_path / "b", n=24)
    c = workloads.make_requests(workload, 8, singular_susy, tmp_path / "c", n=24)
    assert _fingerprint(a) == _fingerprint(b)
    assert _fingerprint(a) != _fingerprint(c)


def test_low_doublet_probes_do_not_depend_on_the_seed():
    n = workloads.pool_size("spectrum-deep")
    a, b = (workloads.interval_systems(seed, n, singular_susy) for seed in (7, 8))
    fixed = [(x, y) for x, y in zip(a, b) if x.family in workloads.UNJITTERED]
    assert fixed and all(_fingerprint([x]) == _fingerprint([y]) for x, y in fixed)
    assert any(x.known_defect == "low-doublet" for x, _ in fixed)


def test_gate_counts_pool_requests_not_sends():
    reqs = [workloads.Request("matched", spec=_matched(t), expect={"family": "matched", "theta": t}) for t in (1.0, 1.4)]
    good = [spectra.solve_interval_spectrum(r.spec, n_levels=20) for r in reqs]
    dropped = dataclasses.replace(good[1], levels=good[1].levels[1:])
    # request 1 sent three times, wrong on one send
    records = [(0, 0.1, good[0], None), (1, 0.1, good[1], None), (2, 0.1, good[0], None),
               (3, 0.1, dropped, None), (4, 0.1, good[0], None), (5, 0.1, good[1], None)]
    verdict = run.gate_all("spectrum-deep", reqs, records)
    assert (verdict["attempted"], verdict["sends"], verdict["failed"], verdict["unexpected"]) == (2, 6, 1, 1)


def test_every_interval_workload_keeps_the_defect_band():
    reqs = workloads.interval_systems(1, len(workloads.INTERVAL_FAMILIES), singular_susy)
    assert [r.known_defect for r in reqs].count("theta-band") == 1
    scans = workloads.scan_interval_configs(1, len(workloads.SCAN_INTERVAL_FAMILIES))
    assert any(e.get("defect") == "theta-band" and gate.in_defect_band(e["hi"]) for _, _, _, e in scans)


def _matched(theta, l=1.0):
    m = np.diag([np.exp(1j * theta), -1.0])
    return singular_susy.SystemSpec(singular_susy.Geometry.interval(l), m, m)


def test_gate_counts_a_dropped_ground_state():
    spec = _matched(1.2)
    expect = {"family": "matched", "theta": 1.2}
    spectrum = spectra.solve_interval_spectrum(spec, n_levels=4)
    assert gate.check_spectrum(expect, spec, spectrum, 4) == []
    # the theta >= 2.95 defect: the bound state is missing, the rest is right
    planted = dataclasses.replace(spectrum, levels=spectrum.levels[1:])
    assert gate.check_spectrum(expect, spec, planted, 3)


def test_gate_counts_a_wrong_scan_row():
    expect = {"family": "matched", "param": "theta", "lo": 1.0, "hi": 1.5, "steps": 2,
              "l": 1.0, "lam": 1.0, "L0": 1.0}
    rows = ["param,value,degree,shift,ground_energy,goodness"]
    for theta in (1.0, 1.5):
        shift = np.tan(theta / 2.0) ** 2
        rows.append("theta,%.12g,N2,%.12g,%.12g,Good" % (theta, shift, -shift))
    good = "\n".join(rows) + "\n"
    assert gate.check_scan(expect, 0, good) == ([], True)
    wrong = good.replace("Good\n", "Broken\n", 1)
    problems, _ = gate.check_scan(expect, 0, wrong)
    assert len(problems) == 1


def test_patches_fail_on_a_missing_name():
    from types import SimpleNamespace

    from singular_susy import classify, cli, verify

    renamed = SimpleNamespace(**{k: v for k, v in vars(classify).items() if k != "diagonalize_u2"})
    mods = {"cli": cli, "classify": renamed, "spectra": spectra, "verify": verify}
    with pytest.raises(AttributeError):
        with spans.Patches(spans.SpanRecorder(), mods):
            pass


def _band_request(theta=3.05):
    expect = {"family": "matched", "theta": theta, "defect": "theta-band"}
    return workloads.Request("matched-band", spec=_matched(theta), expect=expect)


def test_band_spectrum_is_excused_only_for_its_own_symptom():
    req = _band_request()
    n = workloads.N_LEVELS["spectrum-deep"]
    spectrum = spectra.solve_interval_spectrum(req.spec, n_levels=n + 1)
    ref = gate.reference_levels(req.expect, req.spec, n)
    assert ref[0][1] == "negative"
    # as the defect leaves it: the negative ground missing, the rest right
    lost = dataclasses.replace(spectrum, levels=[lv for lv in spectrum.levels if lv.sector != "negative"])
    problems, defect = run.check("spectrum-deep", req, lost, None)
    assert problems and defect == "theta-band"
    # a second kind of error on the same band input is unexpected
    levels = list(lost.levels)
    levels[2] = dataclasses.replace(levels[2], multiplicity=levels[2].multiplicity + 1)
    problems, defect = run.check("spectrum-deep", req, dataclasses.replace(lost, levels=levels), None)
    assert problems and defect is None
    problems, defect = run.check("spectrum-deep", req, dataclasses.replace(lost, levels=lost.levels[1:]), None)
    assert problems and defect is None
    # the same symptom outside the defect's region is unexpected too
    outside = workloads.Request("matched", spec=req.spec, expect={"family": "matched", "theta": 3.05})
    assert run.check("spectrum-deep", outside, lost, None)[1] is None


def test_band_verification_is_excused_only_for_its_own_symptom():
    from singular_susy import verify

    req = _band_request()
    report = verify.run_verification(req.spec, n_levels=4)
    problems, defect = run.check("verify-battery", req, report, None)
    if not problems:  # the defect is fixed at this theta
        return
    assert defect == "theta-band"
    failed = [dataclasses.replace(c, passed=False) if c.name == "lower bound" else c for c in report.checks]
    problems, defect = run.check("verify-battery", req, dataclasses.replace(report, checks=failed), None)
    assert problems and defect is None


def test_band_scan_row_is_excused_only_for_its_own_symptom():
    theta, l = 3.05, 1.0
    expect = {"family": "matched", "param": "theta", "lo": 1.0, "hi": theta, "steps": 2,
              "l": l, "lam": 1.0, "L0": 1.0, "defect": "theta-band"}
    shift = lambda t: np.tan(t / 2.0) ** 2  # noqa: E731
    robin = np.diag([np.exp(1j * theta), -1.0])
    next_level = gate.diagonal_levels(robin, robin, l, 1.0, 1.0, 2)[1][0]
    head = "param,value,degree,shift,ground_energy,goodness\ntheta,1,N2,%.12g,%.12g,Good\n" % (shift(1.0), -shift(1.0))
    lost = head + "theta,%.12g,N2,%.12g,%.12g,Broken\n" % (theta, shift(theta), next_level)
    problems, band = gate.check_scan(expect, 0, lost)
    assert len(problems) == 1 and band
    wrong_shift = head + "theta,%.12g,N2,%.12g,%.12g,Broken\n" % (theta, 2.0 * shift(theta), next_level)
    problems, band = gate.check_scan(expect, 0, wrong_shift)
    assert len(problems) == 1 and not band


def test_oracle_matches_closed_forms():
    # matched Robin: e^{-x/L} plus the Dirichlet and Robin ladders
    theta, l = 2.0, 1.3
    U = np.diag([np.exp(1j * theta), -1.0])
    levels = gate.diagonal_levels(U, U, l, 1.0, 1.0, 4)
    assert levels[0][1] == "negative"
    assert abs(levels[0][2] - np.tan(theta / 2.0)) < 1e-12
    # Dirichlet-Dirichlet in both components: doublets at k = n pi / l
    D = -np.eye(2, dtype=complex)
    levels = gate.diagonal_levels(D, D, l, 1.0, 1.0, 4)
    assert [(m, round(q * l / np.pi, 9)) for _, _, q, m in levels[:3]] == [(2, 1.0), (2, 2.0), (2, 3.0)]


def test_self_times_add_up():
    rec = spans.SpanRecorder()

    def leaf(x):
        return sum(range(x))

    counted = rec.leaf("leaf", leaf)
    inner = rec.wrap("inner", lambda: counted(2000))
    outer = rec.wrap("outer", lambda: [inner(), counted(500), inner()])
    for i in range(3):
        rec.request = i
        outer()
    own = rec.self_times()
    assert [s.name for s in rec.spans[:3]] == ["outer", "inner", "inner"]
    for s in rec.spans:
        if s.name == "outer":
            kids = [k for k in rec.spans if k.parent == s.id]
            assert [k.request for k in kids] == [s.request, s.request]
            tree = own[s.id] + sum(own[k.id] for k in kids)
            leaves = sum(t for x in [s] + kids for _, t in x.leaves.values())
            assert tree + leaves == pytest.approx(s.duration, rel=0, abs=1e-12)
            assert s.leaves["leaf"][0] == 1
    assert all(t >= 0.0 for t in own)


def test_patches_are_restored():
    from singular_susy import classify, cli, verify

    mods = {"cli": cli, "classify": classify, "spectra": spectra, "verify": verify}
    before = spectra.solve_interval_spectrum
    rec = spans.SpanRecorder()
    with spans.Patches(rec, mods):
        assert spectra.solve_interval_spectrum is not before
        spectra.solve_interval_spectrum(_matched(1.0), n_levels=1)
    assert spectra.solve_interval_spectrum is before
    assert rec.spans[0].attrs["requested"] == 1
    assert rec.spans[0].leaves["system.boundary_data"][0] > 0


def test_benchmark_json_names_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    layer = set(spans.layer_metrics(spans.SpanRecorder(), 1))
    layer |= {"trace.untraced_rps", "trace.traced_rps", "trace.overhead_pct"}
    assert {m["name"] for m in doc["per_layer"]} == layer
    assert {m["name"] for m in doc["end_to_end"]} == set(run.END_TO_END)


def test_tail_leaves_ten_samples_above():
    lat = run.latency_metrics([i / 1e3 for i in range(30)])
    assert lat["tail"] == 19.0 and lat["samples"] == 30
    assert lat["tail_percentile"] == pytest.approx(100.0 * 20 / 30)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-line", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pool_rate_costs_each_request_once():
    # request 0 sent three times, request 1 twice: one pass costs 1.0 + 3.0 s
    records = [(i, None, None, None) for i in range(5)]
    assert run.pool_rate([None, None], records, [1.0, 3.0, 1.5, 3.0, 0.5]) == pytest.approx(2.0 / 4.0)
