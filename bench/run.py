#!/usr/bin/env python3
"""riccicert benchmark: seeded scenarios through ``run_scenario``.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload and seed make the scenario inputs (``workloads.py``); seed 0 is
the shipped scenario. A run measures in one fresh single-threaded worker
process and starts nothing else in parallel. ``--trace 0`` repeats whole
passes over the inputs for S seconds and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes for S seconds and
reports the per-layer metrics and the tracing overhead. Pass and instance
times are scaled to the reference machine's speed by a calibration kernel
timed during the passes (``calibrate.py``); the raw times are in the
details. Every report is checked: exit code 0, every certificate and check
passed, ``report.json`` bytes identical across passes and across runs of the
same source and input, on seed 0 the search outcomes and certificate
margins equal ``reference.json``, and traced evaluation counts equal those
computed from each certificate's ``GridSpec``.

The last line of standard output is the result object; the line before it
holds the details (machine, failures, tail sample counts). Both are also
written under ``.bench_out/results/``. Exits 2 without a result when the
checkout holds no riccicert source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_SLICE_S, scale
from tracing import LAYER_METRICS
from workloads import TAIL_LEVEL, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
# Every run ends well inside the 180 s the caller allows.
RUN_BUDGET_S = 170.0
# Margins may move by ULPs when numpy replaces libm arithmetic; anything a
# real defect changes moves far more than this.
MARGIN_RTOL = 1e-9

# Times the import, then calibration slices in the same process right after
# it; the benchmark's directory joins the path only once the import is done.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import riccicert.cli; "
    "d = time.perf_counter() - t; sys.path.insert(0, {bench!r}); "
    "import calibrate, statistics; "
    "print(d, statistics.fmean(calibrate.time_slice() for _ in range(12)))")


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(t_start: float) -> float:
    return max(1.0, RUN_BUDGET_S - (perf_counter() - t_start))


def measure_setup(t_start: float) -> list:
    """(seconds a fresh interpreter takes to import ``riccicert.cli``, mean
    calibration slice time right after) per sample."""
    probe = IMPORT_PROBE.format(bench=str(BENCH))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", probe], env=_env(),
                             capture_output=True, text=True, check=True,
                             timeout=_remaining(t_start))
        import_s, slice_s = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(import_s), float(slice_s)))
    return samples


def run_worker(inputs, seconds: float, trace: bool, t_start: float) -> dict:
    """Result of the worker process; on a crash, every instance failed."""
    work = OUT / "work"
    job, result = work / "job.json", work / "result.json"
    job.write_text(json.dumps({
        "inputs": [[label, str(path)] for label, path in inputs],
        "out": str(work / "out"), "seconds": seconds, "trace": trace}))
    started = perf_counter()
    with open(work / "worker-stderr.log", "w") as log:
        try:
            code = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(job),
                 str(result)], env=_env(), stdout=log, stderr=log,
                timeout=_remaining(t_start)).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code == 0 and result.is_file():
        return json.loads(result.read_text())
    crash = f"worker ended with {code}"
    elapsed = perf_counter() - started
    return {"crash": crash, "peak_rss_kb": 0, "layers": [], "grid_checks": [],
            "passes": [{"wall_s": elapsed, "traced": False,
                        "slice_s": REFERENCE_SLICE_S, "records": [
                {"label": label, "exit": None, "error": "WorkerCrash",
                 "message": crash, "latency_s": elapsed}
                for label, _ in inputs]}]}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def reference_values(report: dict) -> dict:
    """Search outcomes and certificate margins of one report, by path."""
    values = {f"certificates.{name}.min_margin": cert["min_margin"]
              for name, cert in report.get("certificates", {}).items()}
    results = report.get("results", {})
    for key in ("nu", "eps"):
        if key in results:
            values[f"results.{key}"] = results[key]
    if "t0" in results.get("params", {}):
        values["results.params.t0"] = results["params"]["t0"]
    return values


def compare_reference(got: dict, want: dict) -> list:
    problems = []
    for path, value in want.items():
        if path not in got:
            problems.append(f"{path} missing")
        elif path.endswith("min_margin"):
            if not math.isclose(got[path], value, rel_tol=MARGIN_RTOL,
                                abs_tol=1e-12):
                problems.append(f"{path} = {got[path]!r}, want {value!r}")
        elif got[path] != value:
            problems.append(f"{path} = {got[path]!r}, want {value!r}")
    return problems


def instance_problems(rec: dict) -> list:
    """Why one instance run failed; empty when it passed."""
    if rec["error"] is not None:
        return [f"{rec['error']}: {rec.get('message', '')}"]
    problems = []
    if rec["exit"] != 0:
        problems.append(f"exit code {rec['exit']}")
    report = rec.get("report")
    if report is not None:
        for name, cert in report.get("certificates", {}).items():
            if not cert["passed"]:
                problems.append(f"certificate {name} failed")
        for chk in report.get("checks", []):
            if not chk["passed"]:
                problems.append(f"check {chk['name']} failed")
        if report.get("passed") is not True:
            problems.append("report not passed")
    if "digest" not in rec:
        problems.append("no report.json")
    return problems


def _tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(passes, inputs) -> list:
    """Report bytes must repeat across passes and earlier runs of the same
    source tree and input file (remembered in .bench_out)."""
    problems = []
    store_path = OUT / "digests.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    tree = _tree_digest()
    for i, (label, path) in enumerate(inputs):
        seen = {p["records"][i]["digest"] for p in passes
                if "digest" in p["records"][i]}
        key = tree + ":" + hashlib.sha256(path.read_bytes()).hexdigest()
        if key in store:
            seen.add(store[key])
        if len(seen) > 1:
            problems.append(f"{label}: report.json differs between runs")
        elif seen:
            store[key] = seen.pop()
    store_path.write_text(json.dumps(store, indent=0, sort_keys=True))
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies, level: float) -> tuple:
    """(value, samples beyond) of the ``level`` percentile, nearest rank."""
    xs = sorted(latencies)
    rank = math.ceil(level * len(xs))
    return xs[rank - 1], len(xs) - rank


def end_to_end(phase: dict, setup: list, attempted: int, failed: int,
               tail_level: float):
    """Metrics and details of an untraced run. Pass and instance times are
    scaled to the reference machine's speed by the calibration slices timed
    during their pass, and each setup sample by the slices timed right
    after it. ``setup`` is ``measure_setup``'s result."""
    passes = phase["passes"]
    walls = [p["wall_s"] * scale(p["slice_s"]) for p in passes]
    lat = [r["latency_s"] * scale(p["slice_s"])
           for p in passes for r in p["records"]]
    tail_s, beyond = tail(lat, tail_level)
    metrics = {
        "run_s": (statistics.median(walls), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(s * scale(sl) for s, sl in setup), "s"),
        "peak_rss_mb": (phase["peak_rss_kb"] / 1024.0, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {"raw_pass_s": [p["wall_s"] for p in passes],
            "raw_run_s": statistics.median(p["wall_s"] for p in passes),
            "raw_setup_s": [s for s, _ in setup],
            "host_speed": [scale(p["slice_s"]) for p in passes],
            "calibration_slices": phase.get("slices", 0),
            "calibration_s": phase.get("sampling_s", 0.0),
            "latency_samples": len(lat),
            "tail_level": tail_level, "tail_samples_beyond": beyond}
    return metrics, info


def per_layer(phase: dict):
    metrics = {name: (statistics.median(m[name] for m in phase["layers"]),
                      unit) for name, unit in LAYER_METRICS.items()}
    walls = {flag: statistics.median(p["wall_s"] for p in phase["passes"]
                                     if p["traced"] is flag)
             for flag in (False, True)}
    metrics["bench.traced_run_s"] = (walls[True], "s")
    metrics["bench.trace_overhead"] = (walls[True] / walls[False], "ratio")
    return metrics


def machine_info(phase: dict) -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": phase.get("numpy", "unknown"),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = perf_counter()
    if not ((ROOT / "src" / "riccicert" / "cli.py").is_file()
            and (ROOT / "scenarios").is_dir()):
        print(f"bench: no riccicert source tree under {ROOT}",
              file=sys.stderr)
        return 2

    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    inputs = []
    for i, (label, scenario) in enumerate(
            generate(args.workload, args.seed, ROOT / "scenarios")):
        path = work / "inputs" / f"{i:03d}-{label}.json"
        path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
        inputs.append((label, path))

    setup = None if args.trace else measure_setup(t_start)
    phase = run_worker(inputs, args.seconds, bool(args.trace), t_start)

    records = [r for p in phase["passes"] for r in p["records"]]
    failures = [{"label": r["label"], "error": r["error"], "problems": probs}
                for r in records for probs in [instance_problems(r)] if probs]
    problems = [f"{f['label']}: {'; '.join(f['problems'])}" for f in failures]
    if "crash" in phase:
        problems.append(phase["crash"])
    problems += check_determinism(phase["passes"], inputs)
    if args.seed == 0:
        want = json.loads((BENCH / "reference.json").read_text())
        for rec in phase["passes"][0]["records"]:
            got = reference_values(rec.get("report") or {})
            ref = want[rec["label"].split("-")[0]]
            problems += [f"{rec['label']}: {p}"
                         for p in compare_reference(got, ref)]
    for chk in phase["grid_checks"]:
        if chk["expected"] != chk["observed"]:
            problems.append(
                f"{chk['quantity_id']}: {chk['observed']} evaluations traced, "
                f"{chk['expected']} from its GridSpec")

    attempted, failed = len(records), len(failures)
    if not args.trace:
        metrics, info = end_to_end(phase, setup, attempted, failed,
                                   TAIL_LEVEL[args.workload])
    elif "crash" not in phase:
        metrics, info = per_layer(phase), {}
    else:  # a crashed worker leaves no layer metrics
        metrics, info = {}, {}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine_info(phase),
        "instances": [label for label, _ in inputs],
        "fail_ratio": failed / attempted,
        "failures": failures[:20], "problems": problems[:50], **info,
        "grid_checks": len(phase["grid_checks"]),
        "total_s": perf_counter() - t_start,
    }
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"detail": detail, "result": result}, indent=1))
    if phase.get("spans"):
        (results / f"{stem}-spans.json").write_text(json.dumps(
            phase["spans"]))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
