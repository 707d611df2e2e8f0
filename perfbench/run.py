"""Closed-loop benchmark of the singular_susy toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-deep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

One client in one process sends a request, waits for the answer, and sends
the next, for --seconds seconds and at least until every request of the
workload's pool has been sent once.  The pool comes from --seed alone (see
workloads.py).  After the loop every answer is checked against an
independent reference (gate.py).  ``attempted`` counts the requests of the
pool and ``failed`` those whose answer raised or disagreed on any send, so
both depend on the seed's inputs alone, not on how many sends fitted into
the run.

The box this runs on is shared: one request repeated for a minute took
from 145 to 357 ms, and CPU time tracked wall time.  So a fixed reference
kernel of interpreter and small-numpy work is timed before every request
and after the last one, and each request's time is scaled to reference
speed: multiplied by KERNEL_REFERENCE_S over the mean of the kernel times
on either side of it.  throughput_rps is the pool's size over the sum of
its requests' scaled times, each the median over the request's sends.
setup_s, the median of SETUP_REPEATS fresh imports of the package, is
scaled the same way, import by import (setup_seconds).

The median and tail latency are printed beside the gated metrics, with the
sample count, but not gated: request costs cluster by family, and with
about 30 requests a run those order statistics fall between clusters and
spread 0.05-0.11 from seed to seed, where throughput mostly spreads
0.02-0.05.
The unscaled figures, the kernel time and the error rate are printed in
the detail line too.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each request runs twice, untraced and traced, and the metrics
are the per-layer ones (spans.py) plus the tracing overhead between the
two sides.

``correct`` is false when any failure is not one of the two open defects
that the inputs keep on purpose (workloads.py): "theta-band", matched
Robin with theta in [2.95, pi) on l = 1 losing its bound state, and
"low-doublet", the crossed pair with -1.3 < L/l < -1 losing its lowest
doublet.  A failure is put down to a defect only if its input lies in the
defect's region and the answer shows that defect's symptom and nothing
else (gate.py).  Failures put down to a defect still count in ``failed``.

``--workload all`` runs every workload in its own process and prints a
table of the end-to-end metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
KERNEL_REFERENCE_S = 3.0e-3  # the kernel's median time on the 2-core box, unloaded
END_TO_END = ("throughput_rps", "setup_s", "peak_rss_mb")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(repeats: int) -> tuple:
    """Wall times of a fresh interpreter importing the package, as every
    CLI call pays it, each scaled to reference speed by the median of the
    kernel times taken on either side of it (three each: an import is
    some 70 kernels long, so one kernel each side is too noisy a gauge).
    Returns (scaled, unscaled)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference_kernel()  # warm-up: numpy's first-call costs
    raw, kernel = [], [[reference_kernel() for _ in range(3)]]
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import singular_susy"], env=env, cwd=ROOT, check=True)
        raw.append(perf_counter() - t0)
        kernel.append([reference_kernel() for _ in range(3)])
    scaled = [t * KERNEL_REFERENCE_S / statistics.median(kernel[i] + kernel[i + 1]) for i, t in enumerate(raw)]
    return scaled, raw


def _modules() -> dict:
    sys.path.insert(0, str(SRC))
    import singular_susy
    from singular_susy import classify, cli, spectra, verify

    return {"api": singular_susy, "classify": classify, "cli": cli, "spectra": spectra, "verify": verify}


def _executor(workload: str, mods: dict):
    """The call one request makes.  Module attributes are looked up on every
    call, so the traced run's wrappers are seen."""
    if workload == "spectrum-deep":
        n = workloads.N_LEVELS[workload]
        return lambda req: mods["spectra"].solve_interval_spectrum(req.spec, n_levels=n)
    if workload == "verify-battery":
        n = workloads.N_LEVELS[workload]
        return lambda req: mods["verify"].run_verification(req.spec, n_levels=n)

    def scan(req):
        buf = StringIO()
        with redirect_stdout(buf):
            code = mods["cli"].main(req.argv)
        return code, buf.getvalue()

    return scan


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and 4x4 numpy calls,
    the kind of work the package does, to gauge the host's current speed."""
    m = np.eye(4, dtype=complex)
    acc = 0.0
    t0 = perf_counter()
    for i in range(250):
        m[0, 1] = i * 1e-3
        acc += abs(np.linalg.det(m)) + float(np.abs(m @ m).sum())
        acc += sum(x * x for x in range(40))
    return perf_counter() - t0


def closed_loop(requests, execute, seconds):
    """Send requests one after another until `seconds` have passed and
    every request has been sent, with the reference kernel timed before each
    request and after the last.  Returns the records (index, latency s,
    answer, exception) and the kernel time around each request."""
    records, kernel = [], [reference_kernel()]
    start = perf_counter()
    while perf_counter() - start < seconds or len(records) < len(requests):
        i = len(records)
        records.append((i,) + _timed(execute, requests[i % len(requests)]))
        kernel.append(reference_kernel())
    return records, [0.5 * (a + b) for a, b in zip(kernel, kernel[1:])]


def pool_rate(requests, records, times) -> float:
    """Requests per second over one pass of the pool, each request costed
    at the median of its sends, so that the sends past the last whole pass
    do not weigh some requests more than others."""
    sends = {}
    for r, t in zip(records, times):
        sends.setdefault(r[0] % len(requests), []).append(t)
    return len(sends) / math.fsum(statistics.median(ts) for ts in sends.values())


def _timed(execute, req):
    t0 = perf_counter()
    try:
        answer, error = execute(req), None
    except Exception as exc:  # a failed request is counted, not fatal
        answer, error = None, exc
    return perf_counter() - t0, answer, error


def traced_pairs(requests, execute, seconds, recorder, patches):
    """Each request twice, untraced and traced, alternating which goes
    first, so the two sides see the same inputs and the same drift."""
    untraced, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < len(requests):
        i = len(traced)
        req = requests[i % len(requests)]
        for side in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            if side == "untraced":
                untraced.append((i,) + _timed(execute, req))
                continue
            recorder.request = i
            with patches:
                traced.append((i,) + _timed(execute, req))
    return untraced, traced


def check(workload: str, req, answer, error) -> tuple:
    """(problems, known defect) for one answer.  A failure is put down to a
    known defect only if it shows that defect's symptom and nothing else."""
    if error is not None:
        return ["raised %s: %s" % (type(error).__name__, error)], None
    try:
        if workload == "spectrum-deep":
            n = workloads.N_LEVELS[workload]
            problems = gate.check_spectrum(req.expect, req.spec, answer, n)
            defect = problems and gate.spectrum_defect(req.expect, req.spec, answer, n)
        elif workload == "verify-battery":
            problems = gate.check_verification(req.expect, req.spec, answer)
            defect = problems and gate.verification_defect(req.expect, req.spec, answer)
        else:
            problems, band = gate.check_scan(req.expect, *answer)
            defect = req.known_defect if problems and band else None
    except Exception as exc:  # a broken answer must not stop the gate
        return ["gate error %s: %s" % (type(exc).__name__, exc)], None
    return problems, defect or None


def gate_all(workload, requests, records) -> dict:
    """Check every answer.  A request of the pool fails if any of its sends
    failed; the failure is put down to a known defect only if every send
    failed with that defect's symptom alone."""
    verdicts = {}
    for i, _, answer, error in records:
        verdicts.setdefault(i % len(requests), []).append(check(workload, requests[i % len(requests)], answer, error))
    failed = 0
    known = {}
    examples = []
    for j, sends in sorted(verdicts.items()):
        if not any(problems for problems, _ in sends):
            continue
        failed += 1
        defects = {defect if problems else None for problems, defect in sends}
        defect = defects.pop() if len(defects) == 1 else None
        if defect:
            known[defect] = known.get(defect, 0) + 1
        elif len(examples) < 5:
            unexplained = [p for p, d in sends if p and not d]
            problems = unexplained[0] if unexplained else ["the sends of this request disagree"]
            examples.append({"request": j, "family": requests[j].family, "problems": problems[:3]})
    unexpected = failed - sum(known.values())
    return {"attempted": len(verdicts), "sends": len(records), "failed": failed, "known": known,
            "unexpected": unexpected, "examples": examples}


def latency_metrics(latencies) -> dict:
    ms = sorted(1e3 * t for t in latencies)
    n = len(ms)
    tail_i = max(n - TAIL_BEYOND - 1, 0)
    return {
        "p50": statistics.median(ms),
        "tail": ms[tail_i],
        "tail_percentile": 100.0 * (tail_i + 1) / n,
        "samples": n,
    }


def environment(mods) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "package": mods["api"].__version__,
    }


def run_workload(args) -> int:
    if not (SRC / "singular_susy" / "__init__.py").is_file():
        print("error: no package source under %s" % SRC, file=sys.stderr)
        return 2
    setup, setup_raw = ([], []) if args.trace else setup_seconds(SETUP_REPEATS)
    mods = _modules()
    directory = OUT / ("configs-%s-seed%d" % (args.workload, args.seed))
    requests = workloads.make_requests(args.workload, args.seed, mods["api"], directory)
    execute = _executor(args.workload, mods)
    execute(requests[0])  # warm-up: first-call costs of numpy and the package
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        records, around = closed_loop(requests, execute, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = [r[1] for r in records]
        scaled = [t * KERNEL_REFERENCE_S / k for t, k in zip(raw, around)]
        lat = latency_metrics(scaled)
        metrics = {
            "throughput_rps": (pool_rate(requests, records, scaled), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        detail.update(
            latency_p50_ms=lat["p50"],
            latency_tail_ms=lat["tail"],
            latency_tail_percentile=lat["tail_percentile"],
            samples=lat["samples"],
            unscaled_throughput_rps=pool_rate(requests, records, raw),
            unscaled_latency_p50_ms=1e3 * statistics.median(raw),
            kernel_median_ms=1e3 * statistics.median(around),
            unscaled_setup_s=statistics.median(setup_raw),
        )
        sent = records
    else:
        recorder = spans.SpanRecorder()
        patches = spans.Patches(recorder, mods)
        untraced, traced = traced_pairs(requests, execute, args.seconds, recorder, patches)
        path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        recorder.write(path)
        metrics = {name: (value, _unit(name)) for name, value in spans.layer_metrics(recorder, len(traced)).items()}
        busy_u, busy_t = sum(r[1] for r in untraced), sum(r[1] for r in traced)
        metrics["trace.untraced_rps"] = (len(untraced) / busy_u, "1/s")
        metrics["trace.traced_rps"] = (len(traced) / busy_t, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (busy_t / busy_u - 1.0), "%")
        detail.update(spans_file=str(path.relative_to(ROOT)))
        sent = untraced + traced
    verdict = gate_all(args.workload, requests, sent)
    attempted = verdict["attempted"]
    detail.update(
        attempted=attempted,
        sends=verdict["sends"],
        error_rate=verdict["failed"] / attempted,
        failed_known_defect=verdict["known"],
        failed_unexpected=verdict["unexpected"],
        unexpected_examples=verdict["examples"],
        environment=environment(mods),
    )
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6f %s" % (name, value, unit))
    if "samples" in detail:
        print("%-44s %14.6f ms (%d samples)" % ("latency_p50_ms", detail["latency_p50_ms"], detail["samples"]))
        print("%-44s %14.6f ms (p%.1f of %d samples)" % (
            "latency_tail_ms", detail["latency_tail_ms"], detail["latency_tail_percentile"], detail["samples"]))
        print("unscaled: throughput %.4f 1/s, p50 %.2f ms, setup %.4f s; kernel median %.3f ms" % (
            detail["unscaled_throughput_rps"], detail["unscaled_latency_p50_ms"], detail["unscaled_setup_s"],
            detail["kernel_median_ms"]))
    print("error_rate %.6f (%d of %d requests failed, %d sends; known defects %s)" % (
        detail["error_rate"], verdict["failed"], attempted, verdict["sends"], verdict["known"]))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": verdict["unexpected"] == 0,
        "attempted": attempted,
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_per_bracket"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; a table of the results."""
    summary = {}
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0 or not lines[-1].startswith("{"):
            print("%s: exit %d\n%s" % (workload, proc.returncode, proc.stderr), file=sys.stderr)
            status = 1
            continue
        detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
        summary[workload] = {"result": json.loads(lines[-1]), "detail": detail}
    for workload, entry in summary.items():
        res, det = entry["result"], entry["detail"]
        print("== %s (%d requests, %d failed, error_rate %.4f, correct %s)" % (
            workload, res["attempted"], res["failed"], det["error_rate"], res["correct"]))
        for name, m in res["metrics"].items():
            print("  %-44s %14.6f %s" % (name, m["value"], m["unit"]))
        if "samples" in det:
            print("  %-44s %14.6f ms (%d samples)" % ("latency_p50_ms", det["latency_p50_ms"], det["samples"]))
            print("  %-44s %14.6f ms (p%.1f of %d samples)" % (
                "latency_tail_ms", det["latency_tail_ms"], det["latency_tail_percentile"], det["samples"]))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("summary-seed%d-trace%d.json" % (args.seed, args.trace))
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("summary written to %s" % path.relative_to(ROOT))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
