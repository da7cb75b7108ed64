"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Long scenarios (corner gluing, isotopy, concordance) run once
through the CLI driver and are shared between their own criterion and the
determinism criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import ricci_fd, sectional_fd, warped_full_metric, warped_slice_metric
from riccicert.cli import run_scenario
from riccicert.jetcurve import Cos, Jet3, Jet3Curve, Poly, Sin, Sum
from riccicert.spline import hermite_cubic, hermite_quintic
from riccicert.warped import DoublyWarpedMetric, sectional

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def run_cached(cache, name, workers):
    key = (name, workers)
    if key not in cache:
        out = cache["tmp"] / f"{name.replace('.json', '')}_w{workers}"
        start = time.perf_counter()
        code, report = run_scenario(
            json.loads((SCENARIOS / name).read_text()), out, threads=workers)
        cache[key] = (code, report, time.perf_counter() - start,
                      (out / "report.json").read_bytes() if code in (0, 1) else b"")
    return cache[key]


@pytest.fixture(scope="module")
def shared(tmp_path_factory):
    return {"tmp": tmp_path_factory.mktemp("acceptance")}


# ---------------------------------------------------------------------------


def test_criterion_1_spline_exactness_and_asymptotics():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    # endpoint jets reproduced to 1e-9
    worst = 0.0
    for _ in range(20):
        l = Jet3(*rng.uniform(-2, 2, 3), 0.0)
        r = Jet3(*rng.uniform(-2, 2, 3), 0.0)
        eps = float(rng.uniform(0.01, 1.0))
        cub = hermite_cubic(l, r, eps)
        for a, jet in ((-eps, l), (eps, r)):
            got = cub.jet_local(a)
            worst = max(worst, abs(got.value - jet.value), abs(got.d1 - jet.d1))
        qui = hermite_quintic(l, r, eps)
        for a, jet in ((-eps, l), (eps, r)):
            got = qui.jet_local(a)
            worst = max(worst, abs(got.value - jet.value),
                        abs(got.d1 - jet.d1), abs(got.d2 - jet.d2))
    interp_ok = worst < 1e-9

    # 2 eps p''(0) = F+'(0) - F-'(0) = 2 exactly for F = |a|
    spike_ok = True
    for eps in (1.0, 0.1, 0.01):
        seg = hermite_cubic(Jet3(eps, -1.0), Jet3(eps, 1.0), eps)
        spike_ok &= abs(2.0 * eps * seg.jet_local(0.0).d2 - 2.0) < 1e-12

    # O(eps) window bounds with log-log slope >= 0.9 over 3 decades
    curve = Jet3Curve.piecewise(
        [(-1.5, 0.0, Cos(1.0, -1.0)), (0.0, 1.5, Cos(1.0, 1.0))],
        kinks=[(0.0, 1)])
    eps_list = np.geomspace(0.5, 5e-4, 7)
    dev_c, dev_q = [], []
    for eps in eps_list:
        seg = hermite_cubic(curve.jet(-eps), curve.jet(eps), eps)
        dev_c.append(max(abs(seg.jet_local(a).value - curve.value(0.0))
                         for a in np.linspace(-eps, eps, 41)))
        sq = hermite_quintic(curve.jet(-eps), curve.jet(eps), eps)
        cm, cp = curve.jet(-eps).d2, curve.jet(eps).d2
        worst_q = 0.0
        for a in np.linspace(-eps, eps, 41):
            w = 5 * a**3 / (4 * eps**3) - 3 * a / (4 * eps)
            claim = (2 - w) / 4 * cm + (2 + w) / 4 * cp
            worst_q = max(worst_q, abs(sq.jet_local(a).d2 - claim))
        dev_q.append(worst_q)
    slope_c = np.polyfit(np.log(eps_list), np.log(dev_c), 1)[0]
    slope_q = np.polyfit(np.log(eps_list), np.log(dev_q), 1)[0]
    elapsed = time.perf_counter() - start
    criterion(1, "spline exactness/asymptotics",
              interp_ok and spike_ok and slope_c >= 0.9 and slope_q >= 0.9
              and elapsed < 1.0,
              f"jets {worst:.1e}, slopes {slope_c:.2f}/{slope_q:.2f}, "
              f"{elapsed:.2f}s")


def test_criterion_2_curvature_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst_rel = 0.0
    for _ in range(5):
        a0, a1 = rng.uniform(1.2, 2.0), rng.uniform(0.1, 0.35)
        w1, p1 = rng.uniform(0.5, 1.5), rng.uniform(0, 2)
        b0, b1 = rng.uniform(1.0, 1.8), rng.uniform(0.1, 0.3)
        w2, p2 = rng.uniform(0.5, 1.5), rng.uniform(0, 2)

        def kf(s, a0=a0, a1=a1, w1=w1, p1=p1):
            return a0 + a1 * math.sin(w1 * s + p1)

        def hf(s, b0=b0, b1=b1, w2=w2, p2=p2):
            return b0 + b1 * math.cos(w2 * s + p2)

        k = Jet3Curve.from_node(Sum((Poly((a0,)), Sin(a1, w1, p1))), (0.0, 2.0))
        h = Jet3Curve.from_node(Sum((Poly((b0,)), Cos(b1, w2, p2))), (0.0, 2.0))
        g = DoublyWarpedMetric(k, h, 2, 3)
        slice_fn = warped_slice_metric(kf, hf)
        full = warped_full_metric(kf, hf, 2, 3)
        for s in rng.uniform(0.3, 1.7, size=3):
            c = sectional(g, s)
            x3 = np.array([s, 0.6, 0.8])
            x5 = np.array([s, 0.7, 0.4, 0.9, 0.3])
            checks = [
                (c.K_sk, sectional_fd(slice_fn, x3, 0, 1)),
                (c.K_sh, sectional_fd(slice_fn, x3, 0, 2)),
                (c.K_kh, sectional_fd(slice_fn, x3, 1, 2)),
                (c.K_kk, sectional_fd(full, x5, 1, 2)),
                (c.K_hh, sectional_fd(full, x5, 3, 4)),
            ]
            for got, want in checks:
                worst_rel = max(worst_rel,
                                abs(got - want) / max(1e-9, abs(want)))
    sec_ok = worst_rel < 1e-5

    # freeze the Ricci frame weights at (m, n) = (2, 3) and (3, 2)
    weights_ok = True
    for m, n in ((2, 3), (3, 2)):
        def kf(s):
            return 1.6 + 0.25 * math.sin(0.9 * s + 0.4)

        def hf(s):
            return 1.3 + 0.2 * math.cos(1.1 * s + 0.2)

        k = Jet3Curve.from_node(Sum((Poly((1.6,)), Sin(0.25, 0.9, 0.4))),
                                (0.0, 2.0))
        h = Jet3Curve.from_node(Sum((Poly((1.3,)), Cos(0.2, 1.1, 0.2))),
                                (0.0, 2.0))
        g = DoublyWarpedMetric(k, h, m, n)
        full = warped_full_metric(kf, hf, m, n)
        for s in (0.6, 1.4):
            x = np.array([s] + [0.6 + 0.1 * i for i in range(m + n - 1)])
            ric, gm = ricci_fd(full, x), full(x)
            c = sectional(g, s)
            ih = 1 + m
            for got, want in ((c.Ric_s, ric[0, 0] / gm[0, 0]),
                              (c.Ric_k, ric[1, 1] / gm[1, 1]),
                              (c.Ric_h, ric[ih, ih] / gm[ih, ih])):
                weights_ok &= abs(got - want) <= 2e-5 * max(1.0, abs(want))
    elapsed = time.perf_counter() - start
    criterion(2, "curvature oracle equivalence",
              sec_ok and weights_ok and elapsed < 10.0,
              f"worst rel {worst_rel:.2e}, weights frozen, {elapsed:.1f}s")


def test_criterion_3_round_sphere_regression():
    start = time.perf_counter()
    worst = 0.0
    for R in (1.0, 2.0):
        T = 0.5 * math.pi * R
        g = DoublyWarpedMetric(
            Jet3Curve.from_node(Cos(R, 1.0 / R), (0.0, T)),
            Jet3Curve.from_node(Sin(R, 1.0 / R), (0.0, T)),
            3, 3, start_kind="closed_h", end_kind="closed_k")
        for s in np.linspace(0.0, T, 1000):
            c = sectional(g, s)
            for v in (c.K_sk, c.K_sh, c.K_kk, c.K_hh, c.K_kh):
                worst = max(worst, abs(v - 1.0 / R**2))
    elapsed = time.perf_counter() - start
    criterion(3, "round-sphere regression", worst < 1e-8 and elapsed < 1.0,
              f"worst deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_corner_smoothing(shared):
    code, report, elapsed, _ = run_cached(shared, "glue_corner.json", 1)
    ok = (code == 0 and report["passed"]
          and report["results"]["dihedral_angle"] == pytest.approx(2 * math.pi / 3)
          and report["certificates"]["convexity"]["passed"]
          and report["certificates"]["convexity"]["min_margin"] > 1e-6
          and report["certificates"]["convexity"]["grid"]["depth"] == 3
          and any(c["name"] == "locality" and c["passed"]
                  for c in report["checks"]))
    criterion(4, "corner smoothing", ok and elapsed < 30.0,
              f"eps {report['results']['eps']:.4f}, convexity margin "
              f"{report['certificates']['convexity']['min_margin']:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_5_concavity_preservation(shared):
    code, report, elapsed, _ = run_cached(shared, "glue_corner.json", 1)
    # input profiles: hessian < -1e-3 along both faces
    from riccicert.corner import CornerChart, face_profile_hessian
    scenario = json.loads((SCENARIOS / "glue_corner.json").read_text())
    left = CornerChart.from_dict(scenario["left"])
    right = CornerChart.from_dict(scenario["right"])
    inputs_ok = all(
        face_profile_hessian(ch, a) < -1e-3
        for ch in (left, right)
        for a in np.linspace(ch.a_range[0] + 1e-9, ch.a_range[1] - 1e-9, 64))
    ok = (code == 0 and inputs_ok
          and report["certificates"]["concavity"]["passed"]
          and report["certificates"]["concavity"]["min_margin"] > 1e-6)
    criterion(5, "concavity preservation", ok and elapsed < 30.0,
              f"concavity margin "
              f"{report['certificates']['concavity']['min_margin']:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_6_isotopy_stage1(shared):
    code, report, elapsed, _ = run_cached(shared, "isotopy.json", 1)
    conditions = {c["name"]: c["passed"] for c in report["checks"]}
    profile_ok = all(v for k, v in conditions.items()
                     if not k.startswith(("k1_", "h1_", "round_")))
    nu_star = report["results"]["nu"]
    cert = report["certificates"]["stage1_min_ricci"]
    # regression band for the recorded nu*; the bisection tolerance is 1e-3
    nu_ok = 0.018 <= nu_star <= 0.024
    grid_ok = (cert["grid"]["axes"][0][2] == 64
               and cert["grid"]["axes"][1][2] == 256
               and cert["grid"]["depth"] == 2)
    ok = (code == 0 and profile_ok and nu_ok and grid_ok
          and cert["passed"] and cert["min_margin"] > 1e-6)
    criterion(6, "isotopy stage 1", ok and elapsed < 120.0,
              f"nu* = {nu_star:.6f}, margin {cert['min_margin']:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_7_isotopy_stage2(shared):
    start = time.perf_counter()
    code, report, _, _ = run_cached(shared, "isotopy.json", 1)
    cert = report["certificates"]["stage2_min_ricci"]
    round_dev = report["results"]["round_endpoint_deviation"]
    ok = (code == 0 and cert["passed"] and cert["min_margin"] > 1e-6
          and round_dev < 1e-8)
    elapsed = time.perf_counter() - start
    criterion(7, "isotopy stage 2", ok and elapsed < 60.0,
              f"margin {cert['min_margin']:.2e}, round dev {round_dev:.1e}, "
              f"{elapsed:.1f}s")


def test_criterion_8_concordance(shared):
    code, report, elapsed, _ = run_cached(shared, "concordance_bump.json", 1)
    res = report["results"]
    checks = {c["name"]: c for c in report["checks"]}
    ends = res["schedule_endpoints"]
    endpoints_ok = (abs(ends["lambda_t0"]) < 1e-12
                    and abs(ends["lambda_t1"] - 1.0) < 1e-12
                    and abs(ends["rho_t0"] - res["params"]["r1"]) < 1e-12
                    and abs(ends["rho_t1"] - res["params"]["r0"]) < 1e-12)
    ok = (code == 0
          and endpoints_ok
          and res["schedule_residual"] < 1e-10
          and report["certificates"]["ricci_theta_below"]["passed"]
          and report["certificates"]["ricci_theta_above"]["passed"]
          and checks["boundary_t0_end"]["passed"]
          and checks["boundary_t1_end"]["passed"]
          and 0.0 < res["theta0"] < 0.5 * math.pi)

    # FD Ricci spot-check of G on the round instantiation at 20 points
    from riccicert.constructions import (ConcordanceParams,
                                         concordance_schedule)
    params = ConcordanceParams(
        t0=res["params"]["t0"], t1=res["params"]["t1"],
        r0=res["params"]["r0"], r1=res["params"]["r1"],
        nu=res["params"]["nu"], C=res["params"]["C"])
    rho, lam = concordance_schedule(params)

    def w_over_t(t):
        return rho.value(t) * (1.0 + 0.1 * math.sin(math.pi * lam.value(t)))

    rng = np.random.default_rng(99)
    fd_ok = True
    for _ in range(20):
        t_c = math.exp(rng.uniform(math.log(params.t0), math.log(params.t1)))

        def metric(x, t_c=t_c):
            t = t_c * math.exp(x[0])
            wbar = w_over_t(t) * math.exp(x[0])
            return np.diag([math.exp(2 * x[0]), wbar**2,
                            wbar**2 * math.sin(x[1]) ** 2])

        x = np.array([0.0, 0.9, 0.5])
        K_tw = sectional_fd(metric, x, 0, 1)
        K_ww = sectional_fd(metric, x, 1, 2)
        fd_ok &= (3 * K_tw > 0.0) and (K_tw + 2 * K_ww > 0.0)
    criterion(8, "concordance cylinder",
              ok and fd_ok and elapsed < 120.0,
              f"t0 {res['params']['t0']:.3e}, theta0 {res['theta0']:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_9_spherical_triangle():
    start = time.perf_counter()
    from riccicert.constructions import _sin_z, solve_geodesic_triangle
    ok = True
    detail = []
    for r in (math.pi / 16, math.pi / 8, math.pi / 6):
        sol = solve_geodesic_triangle(r)
        ok &= abs(sol.residual) < 1e-10 and sol.x1 > r
        detail.append(f"{abs(sol.residual):.1e}")
    near0, _ = _sin_z(0.5 * math.pi, math.pi - 1e-9, math.pi / 8)
    near1, _ = _sin_z(0.5 * math.pi - 1e-4, 0.5 * math.pi, math.pi / 8)
    ok &= abs(near0 - math.sin(math.pi / 8)) < 1e-6
    ok &= abs(near1 - 1.0) < 1e-6
    elapsed = time.perf_counter() - start
    criterion(9, "spherical triangle", ok and elapsed < 1.0,
              f"residuals {', '.join(detail)}, {elapsed:.2f}s")


def test_criterion_10_determinism(shared):
    identical = True
    details = []
    for name in ("glue_corner.json", "isotopy.json", "concordance_bump.json"):
        _, _, _, bytes_1 = run_cached(shared, name, 1)
        _, _, _, bytes_8 = run_cached(shared, name, 8)
        same = bytes_1 == bytes_8 and len(bytes_1) > 0
        identical &= same
        details.append(f"{name.split('.')[0]}: {'identical' if same else 'DIFFER'}")
    criterion(10, "determinism under workers", identical, "; ".join(details))
