"""Tests of the benchmark harness itself: ``python3 -m pytest bench``."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import worker  # noqa: E402
from calibrate import REFERENCE_SLICE_S as REF, Sampler  # noqa: E402
from tracing import LAYER_METRICS, Tracer, expected_evals  # noqa: E402
from workloads import SHIPPED, WORKLOADS, generate  # noqa: E402

from riccicert import cli, verify, warped  # noqa: E402
from riccicert.verify import GridSpec  # noqa: E402

SCENARIOS = ROOT / "scenarios"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert generate(workload, 7, SCENARIOS) == generate(workload, 7, SCENARIOS)
    assert generate(workload, 7, SCENARIOS) != generate(workload, 8, SCENARIOS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_zero_is_the_shipped_scenario(workload):
    shipped = [json.loads((SCENARIOS / n).read_text())
               for n in SHIPPED[workload]]
    scenarios = [s for _, s in generate(workload, 0, SCENARIOS)]
    assert all(s in shipped for s in scenarios)
    assert all(s in scenarios for s in shipped)


def test_raising_scenario_counts_as_failed(tmp_path):
    def explode(*args, **kwargs):
        raise ZeroDivisionError("injected")

    rec = worker.run_instance(explode, "boom", tmp_path / "in.json",
                              tmp_path / "out")
    assert rec["error"] == "ZeroDivisionError"
    assert run.instance_problems(rec)
    phase = {"passes": [{"wall_s": 1.0, "slice_s": REF, "records": [rec]}],
             "peak_rss_kb": 1024}
    metrics, _ = run.end_to_end(phase, [(0.2, REF)], attempted=1,
                                failed=1, tail_level=0.75)
    assert metrics["pass_ratio"][0] == 0.0


def test_concordance_overflow_is_a_failed_instance(tmp_path):
    # Known defect: a larger radius bump drives t0 up until Log.jet
    # overflows, and the OverflowError escapes run_scenario.
    scenario = json.loads((SCENARIOS / "concordance_bump.json").read_text())
    scenario["path"]["amplitude"] = 0.15
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(scenario))
    rec = worker.run_instance(cli.run_scenario, "concordance", path,
                              tmp_path / "out")
    assert rec["error"] == "OverflowError"
    assert run.instance_problems(rec)


@pytest.mark.parametrize("grid", [
    GridSpec.line(0.0, 1.0, 101, depth=3, factor=4),
    GridSpec.box([(0.0, 1.0, 17), (-1.0, 2.0, 23)], depth=2, factor=2),
], ids=["1d", "2d"])
def test_eval_count_formula(grid):
    calls = []

    def margin(*x):
        calls.append(x)
        return sum((v - 0.3) ** 2 for v in x)

    tracer = Tracer().install()  # patches riccicert namespaces only
    try:
        verify.grid_min(margin, grid)
    finally:
        tracer.uninstall()
    coarse, refine, _ = expected_evals(grid)
    (check,) = tracer.grid_checks
    assert check["observed"] == check["expected"] == len(calls)
    assert coarse == check["coarse"] and refine == check["refine"] > 0


def test_tracer_patches_every_namespace_and_restores():
    original = warped.sectional
    tracer = Tracer().install()
    try:
        assert cli.sectional is warped.sectional is not original
        assert cli.sectional.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert cli.sectional is warped.sectional is original
    assert set(tracer.layer_metrics(0, 0)) == set(LAYER_METRICS)


def test_times_are_scaled_by_the_calibration_next_to_them():
    # The host ran at half the reference speed during the second pass and
    # the setup sample: their scaled times equal the first pass's, and half
    # the plain setup time.
    recs = [{"label": "x", "latency_s": t, "exit": 0, "error": None}
            for t in (0.5, 1.0)]
    phase = {"passes": [{"wall_s": 0.5, "slice_s": REF, "records": recs[:1]},
                        {"wall_s": 1.0, "slice_s": 2 * REF,
                         "records": recs[1:]}],
             "peak_rss_kb": 1024}
    metrics, info = run.end_to_end(phase, [(0.4, 2 * REF)], attempted=2,
                                   failed=0, tail_level=0.75)
    assert metrics["run_s"][0] == metrics["latency_p50_s"][0] == 0.5
    assert metrics["setup_s"][0] == 0.2
    assert info["raw_pass_s"] == [0.5, 1.0]
    assert info["host_speed"] == [1.0, 0.5]


def test_sampler_times_slices_and_leaves_them_out_of_the_clock():
    with Sampler() as sampler:
        start, clock_start = perf_counter(), sampler.clock()
        while perf_counter() - start < 0.7:
            sum(range(1000))
        wall, work = perf_counter() - start, sampler.clock() - clock_start
    assert len(sampler.samples) >= 2
    assert work == pytest.approx(wall - sampler.spent_s, abs=1e-3)
    assert sampler.mean_slice(start, start + wall) > 0
    # Long after the last sample, the nearest one stands in.
    last_t, last_s = sampler.samples[-1]
    assert sampler.mean_slice(last_t + 10, last_t + 11) == last_s


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail(range(1, 201), 0.95) == (190, 10)
    assert run.tail([3.0, 1.0, 2.0, 4.0], 0.75) == (3.0, 1)
    assert run.tail([5.0], 0.75) == (5.0, 0)


@pytest.mark.parametrize("name", ["triangle", "spline_demo",
                                  "curvature_round_sphere",
                                  "concordance_bump", "glue_corner"])
def test_seed_zero_report_matches_plain_cli(name, tmp_path):
    subprocess.run([sys.executable, "-m", "riccicert",
                    str(SCENARIOS / f"{name}.json"), "--out",
                    str(tmp_path / "cli")], check=True, capture_output=True,
                   env=run._env())
    want = hashlib.sha256((tmp_path / "cli" / "report.json").read_bytes())
    shipped = json.loads((SCENARIOS / f"{name}.json").read_text())
    workload = next(w for w, files in SHIPPED.items()
                    if f"{name}.json" in files)
    assert shipped in [s for _, s in generate(workload, 0, SCENARIOS)]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(shipped))
    rec = worker.run_instance(cli.run_scenario, name, path, tmp_path / "bench")
    assert rec["digest"] == want.hexdigest()
    assert not run.instance_problems(rec)


def test_refuses_a_directory_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "small-batch", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rec = {"label": "x", "latency_s": 1.0, "exit": 0, "error": None}
    phase = {"passes": [{"wall_s": 1.0, "traced": False, "slice_s": REF,
                         "records": [rec]},
                        {"wall_s": 1.1, "traced": True, "slice_s": REF,
                         "records": [rec]}],
             "peak_rss_kb": 1024,
             "layers": [Tracer().layer_metrics(0, 0)]}
    metrics, _ = run.end_to_end(phase, [(0.2, REF)], attempted=1,
                                failed=0, tail_level=0.75)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(phase))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
