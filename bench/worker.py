"""The measuring process of one benchmark run.

Usage: ``python3 bench/worker.py JOB.json RESULT.json`` with ``src`` on
``PYTHONPATH``. The job names the scenario files of one pass, the output
directory, how long to repeat passes and whether to trace. The worker runs
whole passes through ``riccicert.cli.run_scenario`` (``threads=1``) while
another fits in the time, at least once, and writes per-instance records,
pass times, peak memory and, when tracing, per-layer metrics and spans of
every second pass. Untraced, it samples the host's speed with the
calibration kernel throughout (``calibrate.Sampler``), leaves the sampling
time out of every latency, and gives each pass the mean slice time over it.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Sampler
from tracing import Tracer


def run_instance(run, label, scenario, out_dir: Path, tracer=None,
                 clock=perf_counter) -> dict:
    """Run one scenario; any exception is recorded as a failed instance."""
    shutil.rmtree(out_dir, ignore_errors=True)

    def body():
        return run(str(scenario), out_dir, threads=1)

    start = clock()
    try:
        code, report = tracer.instance_span(label, body) if tracer else body()
    except Exception as exc:  # noqa: BLE001 - the harness must outlive it
        latency = clock() - start
        traceback.print_exc()
        return {"label": label, "latency_s": latency, "exit": None,
                "error": type(exc).__name__, "message": str(exc)}
    latency = clock() - start
    record = {"label": label, "latency_s": latency, "exit": code,
              "error": None}
    path = out_dir / "report.json"
    if path.is_file():
        data = path.read_bytes()
        record["digest"] = hashlib.sha256(data).hexdigest()
        record["report_bytes"] = len(data)
        record["report"] = json.loads(data)
    else:  # exit codes 2 and 3 write no file, only an error report
        record["message"] = str(report.get("error"))
    return record


def run_pass(run, inputs, out_root: Path, tracer=None, clock=perf_counter):
    """(seconds inside the instances, instance records) of one pass."""
    records = [run_instance(run, label, path, out_root / str(i), tracer,
                            clock)
               for i, (label, path) in enumerate(inputs)]
    return sum(r["latency_s"] for r in records), records


def run_passes(run, inputs, out_root: Path, job: dict, clock) -> dict:
    """Whole passes while another fits in ``job["seconds"]``, at least one
    (two when tracing), each with its ``perf_counter`` span."""
    # With tracing, passes alternate untraced/traced in this one process, so
    # the overhead ratio compares passes that ran under the same conditions.
    min_passes = 2 if job["trace"] else 1
    passes, layers, spans, grid_checks = [], [], [], []
    deadline = perf_counter() + job["seconds"]
    # Start another pass only while one more fits before the deadline.
    while (len(passes) < min_passes
           or perf_counter() + passes[-1]["span"][1] - passes[-1]["span"][0]
           <= deadline):
        start = perf_counter()
        traced = job["trace"] and len(passes) % 2 == 1
        tracer = Tracer().install() if traced else None
        try:
            wall, records = run_pass(run, inputs, out_root, tracer, clock)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            layers.append(tracer.layer_metrics(
                sum(len((r.get("report") or {}).get("certificates", {}))
                    for r in records),
                sum(r.get("report_bytes", 0) for r in records)))
            grid_checks.extend(tracer.grid_checks)
            spans = spans or tracer.spans
        if passes:  # only the first pass keeps whole reports
            for r in records:
                r.pop("report", None)
        passes.append({"wall_s": wall, "traced": bool(tracer),
                       "span": (start, perf_counter()), "records": records})
    return {"passes": passes, "layers": layers, "grid_checks": grid_checks,
            "spans": spans}


def main(job_path, result_path) -> int:
    job = json.loads(Path(job_path).read_text())
    import numpy
    import riccicert.cli as cli

    inputs = [(label, Path(p)) for label, p in job["inputs"]]
    out_root = Path(job["out"])
    if job["trace"]:  # the layers are timed in plain seconds
        result = run_passes(cli.run_scenario, inputs, out_root, job,
                            perf_counter)
    else:
        with Sampler() as sampler:
            result = run_passes(cli.run_scenario, inputs, out_root, job,
                                sampler.clock)
        for p in result["passes"]:
            p["slice_s"] = sampler.mean_slice(*p["span"])
        result["slices"] = len(sampler.samples)
        result["sampling_s"] = sampler.spent_s
    result["numpy"] = numpy.__version__
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
