import hashlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (_jet_safe, bisect_dive_center, concordance_bounds_at,
                     concordance_gate, concordance_meshgrid_gate,
                     sectional_fd)
import riccicert.constructions as cons
import riccicert.warped as warped
from riccicert.constructions import (
    ConcordanceParams,
    RoundRadiusPath,
    concordance_schedule,
    concordance_search,
    estimate_C,
    gamma_weight,
    isotopy_stage1,
    isotopy_stage2,
    make_boundary_profile,
    make_isotopy_target,
    solve_geodesic_triangle,
)
from riccicert.errors import ConditionError, PreconditionError, SearchError
from riccicert.jetcurve import Jet3Curve, Poly, Sin, Sum
from riccicert.verify import GridSpec, Level, grid_min
from riccicert.warped import DoublyWarpedMetric, WarpedMetricPath, sectional

R_TEST = 2.0
B1 = 0.795  # keeps the stage-1 dive feasible after T2 at R = 2
NU_SMALL = 0.01


def _profile(R, nu, b1):
    """The boundary profile of (R, nu, b1) on an R-only half of its own."""
    return make_boundary_profile(cons.make_profile_h(R), nu, b1)


@pytest.fixture(scope="module")
def profile():
    return _profile(R_TEST, NU_SMALL, B1)


@pytest.fixture(scope="module")
def target(profile):
    return make_isotopy_target(profile)


# ---------------------------------------------------------------------------
# handle metric
# ---------------------------------------------------------------------------


def test_handle_nu_zero_limit_ricci_values():
    # f = 1 exactly: Ric_s = (n-1)/(16), Ric_k = m-1, Ric_h = (n-1)/16 at R=2
    R, m, n = 2.0, 3, 3
    dom = (0.0, math.pi * R / 3.0)
    g = DoublyWarpedMetric(
        Jet3Curve.from_node(Poly((1.0,)), dom),
        Jet3Curve.from_node(Sin(2.0 * R, 0.5 / R), dom),
        m, n, start_kind="closed_h", end_kind="boundary")
    c = sectional(g, 1.0)
    assert c.Ric_s == pytest.approx((n - 1) / (4.0 * R * R), abs=1e-12)
    assert c.Ric_k == pytest.approx(m - 1.0, abs=1e-12)
    assert c.Ric_h == pytest.approx((n - 1) / (4.0 * R * R), abs=1e-12)


# ---------------------------------------------------------------------------
# boundary-sphere profile
# ---------------------------------------------------------------------------


def test_profile_passes_all_conditions_at_example_params(profile):
    assert profile.report.passed
    for check in profile.report.checks:
        assert check.margin > 0.0, check.name


def test_profile_spec_example_parameters():
    # the nu = 0.05, b1 = pi/6 example: conditions pass (Ricci is separate)
    prof = _profile(2.0, 0.05, math.pi / 6.0)
    assert prof.report.passed
    checks = {c.name: c for c in prof.report.checks}
    assert checks["h_ratio_before_T1"].margin > 0.0
    # quantitative clause: -h''/h > 1/(5R) = 0.1 before T1
    for s in np.linspace(0.05, prof.T1, 100):
        jet = prof.h.jet(s)
        assert -jet.d2 / jet.value > 1.0 / (5.0 * prof.R)


def test_profile_k_closure_exact(profile):
    jet = profile.k.jet(profile.T)
    assert jet.value == pytest.approx(0.0, abs=1e-9)
    assert jet.d1 == pytest.approx(-1.0, abs=1e-9)
    assert jet.d2 == pytest.approx(0.0, abs=1e-9)


def test_profile_total_length_matches_round_path(profile):
    assert profile.T == pytest.approx(0.5 * math.pi * R_TEST, abs=1e-12)


def test_profile_reports_failures():
    # R too large: the h-arc cannot satisfy -h''/h > 1/(5R) while reaching R
    with pytest.raises(PreconditionError):
        _profile(6.0, 0.01, B1)


def _synthesis(R, nu, b1, part=None):
    """The profile and target reports as dicts, or the ConditionError's
    message and report where synthesis refuses; without ``part`` the
    profile is built on a fresh R-only half."""
    try:
        profile = make_boundary_profile(part or cons.make_profile_h(R), nu, b1)
    except ConditionError as exc:
        return str(exc), exc.report.to_dict()
    try:
        target = make_isotopy_target(profile)
    except ConditionError as exc:
        return profile.report.to_dict(), str(exc), exc.report.to_dict()
    return profile.report.to_dict(), target.report.to_dict()


@pytest.mark.parametrize("R, b1", [(2.0, 0.785), (2.0, 0.815), (2.08, 0.785),
                                   (2.08, 0.815), (2.04, 0.8)])
def test_a_shared_h_half_gives_the_fresh_reports(R, b1):
    # An isotopy search builds the R-only half once and hands it to every
    # probe: the corners and the centre of the benchmark box, at three nu.
    part = cons.make_profile_h(R)
    for nu in (1e-4, 0.0125, 0.021183203125):
        assert _synthesis(R, nu, b1, part) == _synthesis(R, nu, b1)


def test_isotopy_search_builds_the_h_half_once(tmp_path, monkeypatch):
    from riccicert.cli import run_scenario
    built, make = [], cons.make_profile_h

    def counted(R):
        built.append(R)
        return make(R)

    monkeypatch.setattr(cons, "make_profile_h", counted)
    scenario = json.loads((Path(__file__).resolve().parent.parent
                           / "scenarios" / "isotopy.json").read_text())
    code, report = run_scenario(scenario, tmp_path)
    assert code == 0 and report["results"]["nu"] == 0.021183203125
    assert built == [2.0]


def test_profile_metric_is_ricci_positive(profile):
    g = DoublyWarpedMetric(profile.k, profile.h, 3, 3, "closed_h", "closed_k")
    cert = g.min_ricci(GridSpec.line(0.0, profile.T, 512, depth=1))
    assert cert.passed


# ---------------------------------------------------------------------------
# stage-1 target and the two isotopy stages
# ---------------------------------------------------------------------------


def test_target_passes_all_conditions(target):
    assert target.report.passed


def test_target_pins_value_at_T1(profile, target):
    assert target.k1.value(profile.T1) == pytest.approx(
        profile.k.value(profile.T1), abs=1e-9)


def test_target_slope_band(profile, target):
    nu_cb = profile.nu * math.cos(profile.b1)
    for s in np.linspace(0.05, profile.T2, 150):
        d1 = target.k1.jet(s).d1
        assert -nu_cb < d1 < 0.0


def test_target_k1_is_the_dives_own_polynomials(target):
    assert all(type(node) is Poly for _, _, node in target.k1.pieces)


@pytest.mark.parametrize("v", [0.0, 0.8, -3.5])
def test_dive_anchored_at_T_moves_the_start_anchored_dive_by_a_constant(v):
    T, gamma = 0.5 * math.pi * R_TEST, 0.004
    shape = ((0.0, (gamma, 0.0, -gamma / T ** 2)), 2.0 * gamma * T / 3.0,
             2.4, cons._BUMP_HALFWIDTH)
    at_start = cons._dive_curve(0.0, T, (0.0, 1.3), *shape)
    at_T = cons._dive_curve(0.0, T, (T, v), *shape)
    s = np.linspace(0.0, T, 1001)
    diff = at_T.value(s) - at_start.value(s)
    tol = 1e-15 * max(1.0, abs(v))  # a few ULPs of the larger curve's values
    assert np.max(np.abs(diff - diff[0])) <= tol
    assert abs(at_T.value(T) - v) <= tol


# ---------------------------------------------------------------------------
# dive centers
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(R=st.floats(2.0, 2.08), b1=st.floats(0.785, 0.815),
       nu=st.floats(1e-4, 0.1))
def test_secant_dive_centers_match_bisection(R, b1, nu):
    # Over the isotopy bench box, each solve of the profile and the target
    # gives the bisected center to 1e-12, or both raise the same type.
    solve, outcomes = cons._solve_dive_center, []

    def both(build, residual, lo, hi, what):
        try:
            want = bisect_dive_center(build, residual, lo, hi, what)
        except Exception as exc:
            want = type(exc)
        try:
            center, curve = solve(build, residual, lo, hi, what)
        except Exception as exc:
            outcomes.append((what, want, type(exc)))
            raise
        outcomes.append((what, want, center))
        return center, curve

    with patch.object(cons, "_solve_dive_center", both):
        try:
            make_isotopy_target(_profile(R, nu, b1))
        except PreconditionError:
            pass
    assert outcomes and outcomes[0][0] == "profile k dive"
    for what, want, got in outcomes:
        if isinstance(want, type) or isinstance(got, type):
            assert want is got, what
        else:
            assert abs(got - want) <= 1e-12, what


def test_dive_center_without_a_sign_change_raises():
    with pytest.raises(ConditionError, match=(
            r"^k1 dive: dive does not fit \(residual 1\.000e\+00 at 0\.0, "
            r"2\.000e\+00 at 1\.0\); the value pin exceeds the room left "
            r"after T2$")):
        cons._solve_dive_center(lambda c: c, lambda c: 1.0 + c, 0.0, 1.0,
                                "k1 dive")


def test_profile_breakpoints_are_python_floats():
    # The k1 bracket starts past T2, so a numpy-scalar T2 would print as
    # np.float64(...) in the message of the nu = 0.2 search probe.
    profile = _profile(R_TEST, 0.2, B1)
    assert type(profile.T1) is float and type(profile.T2) is float
    with pytest.raises(ConditionError, match=(
            r"^k1 dive: dive does not fit \(residual -4\.919e-02 at "
            r"2\.371539564955209, ")):
        make_isotopy_target(profile)


def test_dive_center_of_an_affine_residual_takes_three_builds():
    built = []

    def build(c):
        built.append(c)
        return c

    center, curve = cons._solve_dive_center(build, lambda c: 0.75 - 3.0 * c,
                                            0.0, 1.0, "stub")
    assert center == curve == 0.25 and built == [0.0, 1.0, 0.25]


@pytest.mark.parametrize("residual", [
    lambda c: c ** 3 - 0.125,                         # not affine
    lambda c: math.nan if 0.0 < c < 1.0 else c - 0.5,  # NaN at the root
    lambda c: math.nan,                                # NaN everywhere
    lambda c: math.nan if c == 0.0 else c - 0.5,       # NaN at one end
])
def test_dive_center_refuses_a_residual_the_secant_does_not_solve(residual):
    with pytest.raises(ConditionError, match="^stub: "):
        cons._solve_dive_center(lambda c: c, residual, 0.0, 1.0, "stub")


def test_isotopy_pass_builds_each_dive_at_most_three_times(tmp_path,
                                                           monkeypatch):
    # Ten nu probes solve 20 dives; the probe at nu = 0.2 stops at the k1
    # dive's bracket after two builds.
    from riccicert.cli import run_scenario
    dive_curve, built = cons._dive_curve, []

    def counted(*args):
        built.append(args)
        return dive_curve(*args)

    monkeypatch.setattr(cons, "_dive_curve", counted)
    code, _ = run_scenario(json.loads((Path(__file__).resolve().parent.parent
                                       / "scenarios" / "isotopy.json")
                                      .read_text()), tmp_path)
    assert code == 0
    assert len(built) == 19 * 3 + 2


def test_profile_metric_fails_in_the_known_band_at_the_shipped_nu():
    # At the shipped report's nu, the lambda = 0 end of stage 1 (the profile
    # metric) is Ricci-negative on [1.94786, 1.95022]; a 4,096-point scan
    # finds the band.
    profile = _profile(2.0, 0.021183203125, 0.795)
    g = DoublyWarpedMetric(profile.k, profile.h, 3, 3, "closed_h", "closed_k")
    assert sectional(g, 1.949).Ric_s == pytest.approx(-0.01373, abs=1e-5)
    cert = g.min_ricci(GridSpec.line(0.0, profile.T, 4096, 2, 2))
    assert not cert.passed
    assert 1.94786 <= cert.argmin[0] <= 1.95022


def test_stage1_endpoints_bit_exact(profile, target):
    path = isotopy_stage1(profile, target, 3, 3)
    assert path.k0 is profile.k and path.h0 is profile.h
    assert path.k1 is target.k1 and path.h1 is profile.h


def test_profile_metric_and_stage1_agree_inside_the_guard_bands(profile,
                                                                 target):
    # The lambda = 0 end of stage 1 is the profile metric; strictly inside
    # a closed end's guard band both read the jets at s and take the limits.
    g = DoublyWarpedMetric(profile.k, profile.h, 3, 3, "closed_h", "closed_k")
    path = isotopy_stage1(profile, target, 3, 3)
    guard = 1e-6 * profile.T
    s = np.array([0.25 * guard, 0.5 * guard, profile.T - 0.5 * guard])
    want, got = sectional(g, s), path.sectional(np.zeros_like(s), s)
    for a, b in zip(want.as_row(), got.as_row()):
        assert a.tobytes() == b.tobytes()
    assert sectional(g, float(s[1])) == path.sectional(0.0, float(s[1]))


def test_stage1_ricci_positive(profile, target):
    path = isotopy_stage1(profile, target, 3, 3)
    grid = GridSpec.box([(0.0, 1.0, 24), (0.0, profile.T, 128)], depth=1)
    cert = path.min_ricci(grid)
    assert cert.passed


def test_stage1_refuses_a_target_on_another_domain(profile, target):
    # The path's own warping check compares the four domains.
    k1 = Jet3Curve.from_node(Poly((1.0,)), (0.0, 2.0 * profile.T))
    with pytest.raises(PreconditionError):
        isotopy_stage1(profile, replace(target, k1=k1), 3, 3)


def test_stage2_requires_concavity_and_domain(profile, target):
    with pytest.raises(PreconditionError):
        isotopy_stage2(target.k1, profile.h, 3.0, 3, 3)  # wrong domain for R=3
    convex = Jet3Curve.from_node(Poly((1.0, 0.0, 1.0)), target.k1.domain)
    with pytest.raises(PreconditionError):
        isotopy_stage2(convex, profile.h, R_TEST, 3, 3)


def test_stage2_ricci_positive_and_ends_round(profile, target):
    path = isotopy_stage2(target.k1, profile.h, R_TEST, 3, 3)
    grid = GridSpec.box([(1.0, 2.0, 24), (0.0, profile.T, 128)], depth=1)
    assert path.min_ricci(grid).passed
    g2 = DoublyWarpedMetric(path.k1, path.h1, 3, 3, path.start_kind,
                            path.end_kind)
    for s in np.linspace(0.0, profile.T, 64):
        c = sectional(g2, s)
        for v in (c.K_sk, c.K_sh, c.K_kk, c.K_hh, c.K_kh):
            assert v == pytest.approx(1.0 / R_TEST**2, abs=1e-10)


def test_stage_concatenation_shares_the_metric(profile, target):
    p1 = isotopy_stage1(profile, target, 3, 3)
    p2 = isotopy_stage2(target.k1, profile.h, R_TEST, 3, 3)
    assert p1.k1 is p2.k0 and p1.h1 is p2.h0


def test_stage1_derivative_identities_along_path(profile, target):
    # k_lam'(0) = 0, h_lam'(0) = 1 and k_lam'(T) = -1 for every lambda: the
    # path is affine in lambda, so its two end pairs decide them.
    path = isotopy_stage1(profile, target, 3, 3)
    for k, h in ((path.k0, path.h0), (path.k1, path.h1)):
        assert k.jet(0.0).d1 == pytest.approx(0.0, abs=1e-12)
        assert h.jet(0.0).d1 == pytest.approx(1.0, abs=1e-12)
        assert k.jet(profile.T).d1 == pytest.approx(-1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# concordance schedule and bounds
# ---------------------------------------------------------------------------


def test_alpha_formula_at_e_squared():
    p = ConcordanceParams(t0=math.e, t1=math.e**2, r0=0.05, r1=0.3,
                          nu=0.7, C=1.0)
    assert p.alpha == pytest.approx(0.5, abs=1e-15)


def test_gamma_at_e():
    assert gamma_weight(math.e) == pytest.approx(1.0 / math.e, rel=1e-15)


def test_schedule_bijection_endpoints():
    p = ConcordanceParams(t0=math.e, t1=math.e**2, r0=0.05, r1=0.3,
                          nu=0.7, C=1.0)
    rho, lam = concordance_schedule(p)
    assert lam.value(p.t0) == pytest.approx(0.0, abs=1e-12)
    assert lam.value(p.t1) == pytest.approx(1.0, abs=1e-12)
    assert rho.value(p.t0) == pytest.approx(p.r1, abs=1e-12)
    assert rho.value(p.t1) == pytest.approx(p.r0, abs=1e-12)


def test_sampled_schedule_is_one_array_call_per_curve():
    p = ConcordanceParams(t0=4.0, t1=16.0, r0=0.02, r1=0.2, nu=0.5, C=1.2)
    rho, lam = concordance_schedule(p)
    t, lam_t, rho_t, residual = cons.sample_schedule(p, rho, lam, 200)
    assert t.shape == lam_t.shape == rho_t.shape == residual.shape == (200,)
    assert t[0] == pytest.approx(4.0, rel=1e-15)
    assert t[-1] == pytest.approx(16.0, rel=1e-15)
    assert np.array_equal(lam_t, lam.jet(t).value)
    assert np.array_equal(rho_t, rho.jet(t).value)
    assert np.all(residual < 1e-10)
    # The per-point float path on math is the reference; numpy's exp may
    # differ from libm's in the last bits.
    tol = 8 * np.finfo(float).eps
    for got, curve in ((lam_t, lam), (rho_t, rho)):
        ref = np.array([curve.jet(x).value for x in t.tolist()])
        assert np.allclose(got, ref, rtol=tol, atol=0.0)


def test_schedule_residual_identities():
    p = ConcordanceParams(t0=4.0, t1=16.0, r0=0.02, r1=0.2, nu=0.5, C=1.2)
    rho, lam = concordance_schedule(p)
    for t in np.exp(np.linspace(math.log(4.0), math.log(16.0), 1000)):
        g = gamma_weight(t)
        assert abs(p.alpha * lam.jet(t).d1 - g) < 1e-10
        jr = rho.jet(t)
        assert abs(p.beta * jr.d1 / jr.value + g) < 1e-10


def test_params_invariants():
    with pytest.raises(PreconditionError):
        ConcordanceParams(t0=0.9, t1=2.0, r0=0.1, r1=0.2, nu=0.5, C=0.1)
    with pytest.raises(PreconditionError):
        ConcordanceParams(t0=2.0, t1=4.0, r0=0.3, r1=0.2, nu=0.5, C=0.1)
    with pytest.raises(PreconditionError):
        ConcordanceParams(t0=2.0, t1=4.0, r0=0.1, r1=0.3, nu=0.5, C=2.0)


# ---------------------------------------------------------------------------
# the slice-family constant C
# ---------------------------------------------------------------------------


def test_estimate_C_constant_path_floors():
    path = RoundRadiusPath(Jet3Curve.from_node(Poly((1.0,)), (0.0, 1.0)), 3)
    assert estimate_C(path, GridSpec.line(0.0, 1.0, 101)) == 1e-6


def test_estimate_C_round_bump_matches_hand_formula():
    # r = 1 + 0.1 sin(pi s): sup|II| = max|r'/r|, sup|d_s II| = max|r''/r - (r'/r)^2|
    node = Sum((Poly((1.0,)), Sin(0.1, math.pi)))
    path = RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), 3)
    got = estimate_C(path, GridSpec.line(0.0, 1.0, 2001))
    grid = np.linspace(0.0, 1.0, 20001)
    r = 1.0 + 0.1 * np.sin(math.pi * grid)
    r1 = 0.1 * math.pi * np.cos(math.pi * grid)
    r2 = -0.1 * math.pi**2 * np.sin(math.pi * grid)
    want = 1.1 * max(np.max(np.abs(r1 / r)), np.max(np.abs(r2 / r - (r1 / r) ** 2)))
    assert got == pytest.approx(want, rel=1e-3)


# ---------------------------------------------------------------------------
# the concordance search
# ---------------------------------------------------------------------------


def bump_path(n=3):
    node = Sum((Poly((1.0,)), Sin(0.1, math.pi)))
    return RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), n)


def test_search_constant_path_small_t0():
    path = RoundRadiusPath(Jet3Curve.from_node(Poly((1.0,)), (0.0, 1.0)), 3)
    params, certs, boundary = concordance_search(path, nu=0.1)
    assert params.t0 == 32768.0  # regression baseline: C ~ 0 keeps bounds slack
    assert all(c.passed for c in certs.values())


def test_search_round_bump_certifies():
    params, certs, boundary = concordance_search(bump_path(), nu=0.05)
    assert 2.0 * params.r1 < 0.05
    assert math.log(params.r1) - math.log(params.r0) > params.C
    assert all(c.passed for c in certs.values())
    assert boundary["t0_end_margin"] > 1e-6
    assert boundary["t1_end_margin"] > 1e-6
    assert 0.0 < boundary["theta0"] < 0.5 * math.pi


def test_search_is_deterministic():
    a = concordance_search(bump_path(), nu=0.05)
    b = concordance_search(bump_path(), nu=0.05)
    assert a[0] == b[0]
    assert a[1]["ricci_theta_below"].min_margin == b[1]["ricci_theta_below"].min_margin


def test_theta0_is_bisected_once_per_search(monkeypatch):
    # theta0 does not depend on t0; the shipped search makes 104 doublings.
    real, calls = cons.bisect_param, []

    def counted(*args, **kw):
        calls.append(args[1:])
        return real(*args, **kw)

    monkeypatch.setattr(cons, "bisect_param", counted)
    params, _, boundary = concordance_search(bump_path(), nu=0.05)
    assert params.t0 > 4.0 * 2.0**100
    assert len(calls) == 1
    assert 0.0 < boundary["theta0"] < 0.5 * math.pi


def test_no_theta_split_is_named_not_reported_as_a_doubling_overrun():
    # amplitude -0.8 makes C so large that the time-coefficient inequality
    # fails at theta -> 0: no theta split exists, whatever t0 is.
    node = Sum((Poly((1.0,)), Sin(-0.8, math.pi)))
    path = RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), 3)
    with pytest.raises(SearchError, match=r"no theta split: theta0 = 0"):
        concordance_search(path, nu=0.05)


def test_doubling_trace_records_the_coarse_gate_where_it_ran():
    node = Sum((Poly((1.0,)), Sin(0.3, math.pi)))
    path = RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), 3)
    with pytest.raises(SearchError, match="failed the coarse Ricci gate") as err:
        concordance_search(path, nu=0.05)
    trace = err.value.trace
    # The gate runs only where both end margins hold, and it fails there.
    assert trace[0][3] is None
    for _, margin_t0, margin_t1, gate in trace:
        ends_ok = margin_t0 > 1e-6 and margin_t1 > 1e-6
        assert (gate is not None) == ends_ok
        assert gate is None or gate <= 1e-6


def test_gate_refuses_a_doubling_whose_sampled_certificates_pass_falsely():
    # At amplitude 0.25 and n = 2, t0 = 2**342 cleared the 25 x 33 sampled
    # gate, and its theta-sampled certificates passed (min 8.4e-6), but the
    # bound's exact theta minimum at the t0 end is -4.7e-5. The exact gate
    # refuses it, and the next doubling is certified.
    node = Sum((Poly((1.0,)), Sin(0.25, math.pi)))
    path = RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), 2)
    params, certs, _ = concordance_search(path, nu=0.05)
    assert params.t0 == 2.0**343
    assert all(cert.passed for cert in certs.values())
    consts = _concordance_constants(path, 0.05)
    ell = math.log(2.0**342)
    assert concordance_meshgrid_gate(ell, **consts) > 1e-6
    assert concordance_gate(ell, **consts) < -4e-5


def test_search_rejects_nu_edge_cases():
    with pytest.raises(PreconditionError):
        concordance_search(bump_path(), nu=0.0)


def test_concordance_search_refuses_a_warped_path(profile, target):
    path = isotopy_stage1(profile, target, 3, 3)
    with pytest.raises(PreconditionError, match="unsupported path type WarpedMetricPath"):
        concordance_search(path, nu=0.05)


def cylinder_bound_reference(theta, u, ell, *, n, r1, L, C, sec_min):
    """Per-point t^2-normalized Ricci bound of the concordance cylinder on the
    math module: the loop form of the batched concordance margin."""
    alpha = 0.5 / ell
    beta = alpha / L
    inv_a, inv_b = 1.0 / alpha, 1.0 / beta
    rho = r1 * math.exp(-(1.0 / beta) * (1.0 / ell - 1.0 / u))
    shape = 1.0 / u**2 - 2.0 / u**3
    sec_time = (inv_b - C * inv_a) * shape - 4.0 * (inv_b + C * inv_a) ** 2 / u**4
    b_time = n * sec_time
    sec_space = (sec_min / rho**2 - 1.0
                 - C * ((inv_a + inv_b) / u**2 + (inv_a + inv_b) ** 2 / u**4))
    b_space = sec_time + (n - 1) * sec_space
    b_mixed = C * inv_a / (u * u * rho)
    ct, st = math.cos(theta), math.sin(theta)
    return (ct * ct * b_time - 2.0 * abs(st * ct) * b_mixed
            + st * st * b_space)


def _concordance_constants(path, nu):
    """The constants ``concordance_search`` fixes before doubling t0, by the
    same expressions."""
    path_grid = GridSpec.line(0.0, 1.0, 257)
    ric_min = path.min_ricci(path_grid).min_margin
    sec_min = float(np.min(1.0 / path.r.value(np.linspace(*path_grid.axes[0])) ** 2))
    r1 = 0.9 * min(0.5 * nu, math.sqrt(0.5 * ric_min))
    C = estimate_C(path, path_grid)
    r0 = r1 * math.exp(-(C + 1.0))
    return dict(n=path.n, r1=r1, C=C, sec_min=sec_min,
                L=math.log(r1) - math.log(r0))


def test_batched_concordance_margins_match_per_point_reference(monkeypatch):
    # numpy's exp and power may differ from libm's in the last bits, so the
    # batched margins match the loop form to a tolerance fixed from float64.
    # The separable Ricci margin has the bits of the per-point numpy bound.
    import riccicert.constructions as cons

    path = bump_path()
    scans = []

    def spy(f, grid, **kw):
        assert kw["batched"]

        def record(level):
            values = f(level)
            scans.append((kw["quantity_id"], grid, level.points.copy(), values,
                          f))
            return values

        return grid_min(record, grid, **kw)

    monkeypatch.setattr(cons, "grid_min", spy)
    params, _, _ = concordance_search(path, nu=0.05)
    sec_min = min(1.0 / path.r.value(x) ** 2
                  for x in np.linspace(0.0, 1.0, 257).tolist())
    consts = dict(n=path.n, r1=params.r1, C=params.C, sec_min=sec_min,
                  L=math.log(params.r1) - math.log(params.r0))
    exact = _concordance_constants(path, 0.05)
    assert (params.r1, params.C) == (exact["r1"], exact["C"])
    kinds, ricci_levels = set(), 0
    for qid, grid, points, values, f in scans:
        kinds.add(qid)
        if qid == "path_min_ricci":
            ref = [(path.n - 1) / path.r.jet(lam).value ** 2
                   for lam in points[:, 0].tolist()]
        else:
            ell = grid.axes[1][0]
            ref = [cylinder_bound_reference(th, u, ell, **consts)
                   for th, u in points.tolist()]
            bits = concordance_bounds_at(points[:, 0], points[:, 1], ell,
                                         **exact).tobytes()
            assert values.tobytes() == bits
            # Any list of points is a mesh of one-point boxes.
            assert f(Level.of_points(points)).tobytes() == bits
            ricci_levels += 1
        ref = np.array(ref)
        tol = 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(values - ref) <= tol), qid
    assert kinds == {"path_min_ricci", "ricci_bound_theta_below_t2norm",
                     "ricci_bound_theta_above_t2norm"}
    # The first t0 probe the gate clears passes both sides, two levels each.
    assert ricci_levels == 4


@pytest.mark.parametrize("amplitude,max_doublings,gated", [
    (0.1, 1, 0), (0.1, 33, 27), (0.1, 64, 58), (0.1, 100, 94),
    (0.3, 400, 387), (-0.3, 400, 377), (-0.05, 50, 46)])
def test_coarse_gate_is_bitwise_the_meshgrid_gate(monkeypatch, amplitude,
                                                  max_doublings, gated):
    # The shipped search (amplitude 0.1) needs 104 doublings; stopped
    # earlier, its trace holds the gate of every doubling whose end margins
    # held. Its limits stop it after the first doubling, and after 33, 64
    # and 100, so the gates are cut from the first of their 40-doubling
    # chunks, the second and the third. Amplitudes 0.3 and -0.3 run out of
    # all 400 doublings, and no row raises or warns. -0.05 is certified
    # only at t0 = 4 * 2**55, past its limit of 50 doublings.
    monkeypatch.setattr(cons, "_MAX_DOUBLINGS", max_doublings)
    node = Sum((Poly((1.0,)), Sin(amplitude, math.pi)))
    path = RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SearchError, match=f"exceeded {max_doublings} doublings") as err:
            concordance_search(path, nu=0.05)
    trace = err.value.trace
    assert len(trace) == max_doublings
    # The gate runs exactly where both end margins hold.
    assert all((gate is not None) == (m0 > 1e-6 and m1 > 1e-6)
               for _, m0, m1, gate in trace)
    gates = [(t0, gate) for t0, _, _, gate in trace if gate is not None]
    assert len(gates) == gated
    consts = _concordance_constants(path, 0.05)
    for t0, gate in gates:
        ell = math.log(t0)
        # The closed-form theta minimum and the refined scan agree to 1e-12:
        # in these 989 rows the bound's minimum is a difference of terms of
        # order 1e3, so each side carries rounding of a few 1e-13 (3.8e-13
        # at most). Theta sampling can only miss the minimum, so the gate
        # is never above the sampled one.
        assert abs(gate - concordance_gate(ell, **consts)) <= 1e-12
        assert gate <= concordance_meshgrid_gate(ell, **consts)


def test_exhausted_search_report_bytes_are_pinned(tmp_path):
    # All 400 doublings of amplitude 0.3 fail, so its exit-3 report holds
    # every row's end margins and gate. The digest was taken before the
    # gate was computed chunk by chunk as the search reaches it.
    from riccicert.cli import canonical_json, run_scenario

    scenario = {"command": "concordance", "nu": 0.05,
                "path": {"type": "round_bump", "amplitude": 0.3, "base": 1.0, "n": 3}}
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert len(report["error"]["trace"]) == 400
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == (
        "2dc88c574f30fc5d7ee67cbea60500a5ff80fe71ee4bb2d6ba19d0d83f87b4ff")


def test_shipped_search_gates_only_the_chunks_it_reaches(monkeypatch):
    # The shipped search certifies doubling 104, in the third chunk of 40,
    # so no later chunk is gated (all 400 doublings were, at first). Each
    # chunk gates its rows with one linspace along the last axis.
    gated = []

    class NumpySpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def linspace(self, *args, **kw):
            out = np.linspace(*args, **kw)
            if kw.get("axis") == -1:
                gated.append(out.shape[0])
            return out

    monkeypatch.setattr(cons, "np", NumpySpy())
    params, certs, _ = concordance_search(bump_path(), nu=0.05)
    assert params.t0 == 4.0 * 2.0**104
    assert all(cert.passed for cert in certs.values())
    assert len(gated) == 3
    assert sum(gated) <= 120


def test_concordance_scaled_slices(profile=None):
    # the boundary-scale parameters reproduce iso:00/iso:10: G(nu) scaled by
    # (1 / (t0 r1))^2 has the t0 slice g_0 and the t1 slice R^2 g_1 with
    # R = t1 r0 / (t0 r1)
    params, _, _ = concordance_search(bump_path(), nu=0.05,
                                      t_count=40, theta_count=12)
    scale = 1.0 / (params.t0 * params.r1)
    slice0 = (scale * params.t0 * params.r1) ** 2
    assert slice0 == pytest.approx(1.0, rel=1e-12)
    slice1 = (scale * params.t1 * params.r0) ** 2
    assert slice1 == pytest.approx(params.end_radius_factor ** 2, rel=1e-12)


def test_concordance_round_instantiation_fd_ricci_spot_check():
    # On a round-radius path, G collapses to a singly warped product
    # dt^2 + W^2(t) ds_n^2 with W = t rho(t) r(lambda(t)). Positivity is
    # scale-invariant, so check G/t_c^2 in log-radial coordinates
    # u = ln(t/t_c), where a 3-D slice FD oracle has O(1) inputs.
    params, _, _ = concordance_search(bump_path(), nu=0.05,
                                      t_count=40, theta_count=12)
    rho, lam = concordance_schedule(params)
    n = 3

    def W_over_t(t):
        lam_t = lam.value(t)
        r = 1.0 + 0.1 * math.sin(math.pi * lam_t)
        return rho.value(t) * r

    rng = np.random.default_rng(99)
    for _ in range(20):
        t_c = math.exp(rng.uniform(math.log(params.t0), math.log(params.t1)))

        def metric(x, t_c=t_c):
            # (u, theta, phi): G / t_c^2 = e^{2u}(du^2 + Wbar^2 ds_2^2)
            t = t_c * math.exp(x[0])
            wbar = W_over_t(t) * math.exp(x[0])
            return np.diag([math.exp(2.0 * x[0]), wbar**2,
                            wbar**2 * math.sin(x[1]) ** 2])

        x = np.array([0.0, 0.9, 0.5])
        K_tw = sectional_fd(metric, x, 0, 1)
        K_ww = sectional_fd(metric, x, 1, 2)
        ric_t = n * K_tw
        ric_w = K_tw + (n - 1) * K_ww
        assert ric_t > 0.0
        assert ric_w > 0.0


# ---------------------------------------------------------------------------
# spherical triangle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [math.pi / 16, math.pi / 8, math.pi / 6])
def test_triangle_residual_and_base(r):
    sol = solve_geodesic_triangle(r)
    assert abs(sol.residual) < 1e-10
    assert sol.x1 > r
    assert sol.theta0 < 0.5 * math.pi < sol.theta_r < math.pi


def test_triangle_path_limits():
    # sin z -> sin r at (pi/2, pi) and -> 1 at (pi/2, pi/2)
    from riccicert.constructions import _sin_z
    r = math.pi / 8
    near0, _ = _sin_z(0.5 * math.pi, math.pi - 1e-9, r)
    near1, _ = _sin_z(0.5 * math.pi - 1e-4, 0.5 * math.pi, r)
    assert near0 == pytest.approx(math.sin(r), abs=1e-6)
    assert near1 == pytest.approx(1.0, abs=1e-6)


def test_triangle_rejects_large_r():
    with pytest.raises(PreconditionError):
        solve_geodesic_triangle(1.0)


# ---------------------------------------------------------------------------
# batched path margins
# ---------------------------------------------------------------------------


def _path_min_ric_scalar(path, lam, s):
    """Per-point path margin from math-module jets: the reference form."""
    u = path.weight(lam)
    k = _jet_safe(path.k0, s).scaled(1.0 - u) + _jet_safe(path.k1, s).scaled(u)
    h = _jet_safe(path.h0, s).scaled(1.0 - u) + _jet_safe(path.h1, s).scaled(u)
    lo, hi = path.k0.domain
    guard = 1e-6 * (hi - lo)
    mixed = -(k.d2 * h.d1 + k.d1 * h.d2) / (k.d1 * h.value + k.value * h.d1)
    if s - lo <= guard:  # closed_h start: h collapses
        K_sh = K_hh = -h.d3 / h.d1
        K_sk = -k.d2 / k.value
        K_kk = (1.0 - k.d1 * k.d1) / (k.value * k.value)
        K_kh = mixed
    elif hi - s <= guard:  # closed_k end: k collapses
        K_sk = K_kk = -k.d3 / k.d1
        K_sh = -h.d2 / h.value
        K_hh = (1.0 - h.d1 * h.d1) / (h.value * h.value)
        K_kh = mixed
    else:
        K_sk, K_sh = -k.d2 / k.value, -h.d2 / h.value
        K_kk = (1.0 - k.d1 * k.d1) / (k.value * k.value)
        K_hh = (1.0 - h.d1 * h.d1) / (h.value * h.value)
        K_kh = -(k.d1 * h.d1) / (k.value * h.value)
    m, n = path.m, path.n
    return min(m * K_sk + (n - 1) * K_sh,
               K_sk + (m - 1) * K_kk + (n - 1) * K_kh,
               K_sh + (n - 2) * K_hh + m * K_kh)


def _stage(profile, target, which):
    if which == 1:
        return isotopy_stage1(profile, target, 3, 3)
    return isotopy_stage2(target.k1, profile.h, R_TEST, 3, 3)


def _assert_margins_bitwise(path, lam, s, got):
    one = np.array([path.sectional(a, b).min_ric() for a, b in zip(lam, s)])
    ref = np.array([_path_min_ric_scalar(path, a, b) for a, b in zip(lam, s)])
    assert got.tobytes() == one.tobytes() == ref.tobytes()


@pytest.mark.parametrize("which", [1, 2])
def test_batched_path_margin_on_refinement_cells(profile, target, which):
    path = _stage(profile, target, which)
    a, b = path.lam_range
    blocks = []

    def spy(level):
        points = level.points
        values = path.sectional(points[:, 0], points[:, 1]).min_ric()
        blocks.append((points.copy(), values))
        return values

    grid = GridSpec.box([(a, b, 9), (0.0, profile.T, 33)], depth=2, factor=2)
    cert = grid_min(spy, grid, batched=True)
    assert cert.passed
    points = np.concatenate([p for p, _ in blocks])
    values = np.concatenate([v for _, v in blocks])
    assert len(points) > 9 * 33  # refinement levels were evaluated
    assert {0.0, profile.T} <= set(points[:, 1])
    _assert_margins_bitwise(path, points[:, 0], points[:, 1], values)
    # min_ricci's per-level jets give the same certificate, bit for bit.
    assert path.min_ricci(grid) == replace(cert, quantity_id="path_min_ricci")


@pytest.mark.parametrize("which, distinct", [(1, 3), (2, 4)])
def test_path_certificate_evaluates_each_curve_once_per_level(
        profile, target, monkeypatch, which, distinct):
    # Stage 1 shares h0 and h1 (the profile's h); stage 2 has four curves.
    # Each level evaluates its distinct curves in one bundle: jets drops
    # the repeated curve before the bundle is evaluated.
    import riccicert.jetcurve as jetcurve
    path = _stage(profile, target, which)
    bundle, seen = jetcurve._jets, []

    def counted(curves, x, side):
        seen.append(tuple(map(id, curves)))
        return bundle(curves, x, side)

    monkeypatch.setattr(jetcurve, "_jets", counted)
    a, b = path.lam_range
    path.min_ricci(GridSpec.box([(a, b, 9), (0.0, profile.T, 33)],
                                depth=2, factor=2))
    levels = 3
    assert len(seen) == levels
    assert all(len(set(ids)) == len(ids) == distinct for ids in seen)


@pytest.mark.parametrize("name, certificates", [("isotopy.json", 14),
                                                ("glue_corner.json", 14)])
def test_search_reports_the_winning_probe_without_recomputing(
        tmp_path, monkeypatch, name, certificates):
    # Ten bisection probes; the isotopy probe at nu = 0.2 fails synthesis,
    # and a probe stops at its first failing certificate: stage 1 on 4 of
    # the 9 synthesized nu probes, convexity on 6 of the 10 eps probes. The
    # reported certificates are those of the returned probe.
    import riccicert.constructions as cons
    import riccicert.corner as cor
    import riccicert.warped as warped
    from riccicert.cli import run_scenario

    qids = []

    def counted(f, grid, **kw):
        qids.append(kw["quantity_id"])
        return grid_min(f, grid, **kw)

    for mod in (cons, cor, warped):
        monkeypatch.setattr(mod, "grid_min", counted)
    scenario = json.loads((Path(__file__).resolve().parent.parent
                           / "scenarios" / name).read_text())
    code, _ = run_scenario(scenario, tmp_path)
    assert code == 0
    assert len(qids) == certificates


def _path_margin(path):
    """The margin function ``path.min_ricci`` hands to ``grid_min``."""
    import riccicert.warped as warped
    margins = []
    with patch.object(warped, "grid_min",
                      lambda f, grid, **kw: margins.append(f)):
        path.min_ricci(GridSpec.box([(*path.lam_range, 2), (0.0, 1.0, 2)]))
    return margins[0]


def _formula_counts(grid):
    """Points per scan level of ``grid_min``: the coarse product, then
    ceil(5% of the previous level) cells of (2 factor + 1)^dims points."""
    counts = [math.prod(c for _, _, c in grid.axes)]
    for _ in range(grid.depth):
        cells = max(1, math.ceil(0.05 * counts[-1]))
        counts.append(cells * (2 * grid.factor + 1) ** len(grid.axes))
    return counts


def _spy_tiles(monkeypatch):
    """Record the (lambda, s) pairs of each ``WarpedMetricPath._sample``
    call, one ``(pairs, 2)`` array per tile, in call order."""
    sample, tiles = WarpedMetricPath._sample, []

    def spied(self, jets, lam, s):
        tiles.append(np.stack(np.broadcast_arrays(lam, s), axis=-1)
                     .reshape(-1, 2))
        return sample(self, jets, lam, s)

    monkeypatch.setattr(WarpedMetricPath, "_sample", spied)
    return tiles


def _table(points):
    """Every distinct lambda of ``points`` against every distinct s, in C
    order: the pairs a path margin evaluates for the level."""
    lams, s = np.unique(points[:, 0]), np.unique(points[:, 1])
    return np.stack(np.meshgrid(lams, s, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("which", [1, 2])
def test_path_kernel_sees_each_table_pair_of_a_level_once(
        profile, target, monkeypatch, which):
    import riccicert.warped as warped
    from riccicert.verify import _BLOCK
    path = _stage(profile, target, which)
    tiles, levels = _spy_tiles(monkeypatch), []

    def spied(f, grid, **kw):
        def margin(level):
            del tiles[:]
            values = f(level)
            levels.append((level.points, list(tiles)))
            return values
        return grid_min(margin, grid, **kw)

    monkeypatch.setattr(warped, "grid_min", spied)
    a, b = path.lam_range
    grid = GridSpec.box([(a, b, 9), (0.0, profile.T, 33)], depth=2, factor=2)
    path.min_ricci(grid)
    assert [len(points) for points, _ in levels] == _formula_counts(grid)
    for points, seen in levels:
        # Each distinct lambda against each distinct s, once, in tiles of
        # at most _BLOCK pairs; the level's points are among them.
        assert all(len(tile) <= _BLOCK for tile in seen)
        assert np.concatenate(seen).tobytes() == _table(points).tobytes()
    # Refinement cells overlap, and nothing sorts (lambda, s) pairs.
    assert all(len(np.unique(points, axis=0)) < len(points)
               for points, _ in levels[1:])


def _clipped_level(path, T, copies):
    """Depth-1 cells of a 9 x 33 grid, centred on the four corners of the
    (lambda, s) box, next to two of them and inside, each ``copies``
    times: the corner cells clip at both lambda ends and at s = 0 and
    s = T, and neighbours overlap."""
    a, b = path.lam_range
    lo, hi = np.array([a, 0.0]), np.array([b, T])
    half = (hi - lo) / [8, 32]
    centers = np.repeat(np.array([[a, 0.0], [a, T], [b, 0.0], [b, T],
                                  [a + half[0], 0.0], [b, T - half[1]],
                                  [0.5 * (a + b), 0.5 * T]]), copies, axis=0)
    level = Level.of_boxes(np.maximum(lo, centers - half),
                           np.minimum(hi, centers + half), (5, 5))
    points = level.points
    assert {a, b} <= set(points[:, 0]) and {0.0, T} <= set(points[:, 1])
    assert len(np.unique(points, axis=0)) < len(points)
    return level


@pytest.mark.parametrize("which", [1, 2])
def test_path_margin_on_a_refinement_level_clipped_at_every_edge(
        profile, target, monkeypatch, which):
    # 175 points against a 17 x 17 table: the kernel sees the points, one
    # by one, and gives each the reference bits.
    path = _stage(profile, target, which)
    level = _clipped_level(path, profile.T, 1)
    points = level.points
    margin = _path_margin(path)
    seen = _spy_tiles(monkeypatch)
    values = margin(level)
    assert len(_table(points)) > len(points)
    assert np.concatenate(seen).tobytes() == points.tobytes()
    monkeypatch.undo()
    _assert_margins_bitwise(path, points[:, 0], points[:, 1], values)


@pytest.mark.parametrize("which", [1, 2])
def test_path_table_of_a_refinement_level_clipped_at_every_edge(
        profile, target, monkeypatch, which):
    # The same cells twice over, 350 points: the kernel sees each (distinct
    # lambda, distinct s) pair once, in one tile here, in C order.
    path = _stage(profile, target, which)
    level = _clipped_level(path, profile.T, 2)
    points = level.points
    margin = _path_margin(path)
    seen = _spy_tiles(monkeypatch)
    values = margin(level)
    assert np.concatenate(seen).tobytes() == _table(points).tobytes()
    monkeypatch.undo()
    _assert_margins_bitwise(path, points[:, 0], points[:, 1], values)


@pytest.mark.parametrize("which", [1, 2])
def test_coarse_path_level_with_both_closed_ends_is_the_scalar_reference(
        profile, target, which):
    # A 9 x 33 coarse level holds the s = 0 and s = T guard columns, which
    # take the limit forms, and interior columns, which do not.
    path = _stage(profile, target, which)
    (a, b), T = path.lam_range, profile.T
    level = Level.of_boxes(np.array([[a, 0.0]]), np.array([[b, T]]), (9, 33))
    points = level.points
    values = _path_margin(path)(level)
    ref = np.array([_path_min_ric_scalar(path, lam, s) for lam, s in points])
    assert values.tobytes() == ref.tobytes()


def test_path_margin_splits_an_s_row_longer_than_a_block(
        profile, target, monkeypatch):
    # A coarse level of 3 lambda values x (_BLOCK + 5) s values: the table
    # is split into tiles of all 3 rows by _BLOCK // 3 columns, and a tile
    # of the 6 columns left over.
    from riccicert.verify import _BLOCK
    path = _stage(profile, target, 1)
    (a, b), T = path.lam_range, profile.T
    level = Level.of_boxes(np.array([[a, 0.0]]), np.array([[b, T]]),
                           (3, _BLOCK + 5))
    points = level.points
    margin = _path_margin(path)
    seen = _spy_tiles(monkeypatch)
    values = margin(level)
    cols = _BLOCK // 3
    assert [len(tile) for tile in seen] == [3 * cols] * 3 + [3 * 6]
    pairs = np.concatenate(seen)
    assert len(np.unique(pairs, axis=0)) == len(points) == len(pairs)
    monkeypatch.undo()
    lam, s = points[:, 0], points[:, 1]
    assert values.tobytes() == path.sectional(lam, s).min_ric().tobytes()
    # The reference bits at both ends of every tile, and a stride between.
    ends = np.array([0, cols - 1, cols, 2 * cols - 1, 2 * cols, 3 * cols - 1,
                     3 * cols, _BLOCK + 4])
    pick = np.unique(np.concatenate([
        np.arange(0, len(points), 97),
        (np.arange(3)[:, None] * (_BLOCK + 5) + ends).ravel()]))
    _assert_margins_bitwise(path, lam[pick], s[pick], values[pick])


@pytest.mark.parametrize("which", [1, 2])
def test_path_point_route_takes_the_level_jets_once(profile, target,
                                                   monkeypatch, which):
    # 300 scattered 5 x 5 cells, 7,500 points in two blocks: their table
    # would hold far more pairs than the level has points, so the margin
    # takes the point route, with one jets call at the level's distinct s,
    # and gives path.sectional's bits.
    from riccicert.verify import _BLOCK
    path = _stage(profile, target, which)
    (a, b), T = path.lam_range, profile.T
    rng = np.random.default_rng(7)
    lo, hi = np.array([a, 0.0]), np.array([b, T])
    centers = rng.uniform(lo, hi, (300, 2))
    level = Level.of_boxes(np.maximum(lo, centers - 0.01),
                           np.minimum(hi, centers + 0.01), (5, 5))
    points = level.points
    assert len(_table(points)) > len(points) > _BLOCK
    margin, bundle, calls = _path_margin(path), warped.jets, []

    def counted(curves, x, side=None):
        calls.append(x)
        return bundle(curves, x, side)

    monkeypatch.setattr(warped, "jets", counted)
    values = margin(level)
    assert len(calls) == 1
    assert calls[0].tobytes() == np.unique(points[:, 1]).tobytes()
    assert values.tobytes() == path.sectional(points[:, 0],
                                              points[:, 1]).min_ric().tobytes()
    # The clipped cells once take the point route and twice over the
    # table route; each point gets the same bits from both.
    once, twice = (_clipped_level(path, T, copies) for copies in (1, 2))
    assert len(_table(once.points)) > len(once.points)
    assert len(_table(twice.points)) <= len(twice.points)
    del calls[:]
    point, table = margin(once), margin(twice).reshape(7, 2, 25)
    assert len(calls) == 2
    assert point.tobytes() == table[:, 0].tobytes() == table[:, 1].tobytes()


def test_path_margin_takes_scattered_points_one_by_one(profile, target,
                                                       monkeypatch):
    # 4,096 scattered points as one-point boxes, as grid_min narrows a
    # failing level: their table would hold 4,096^2 pairs, so the kernel
    # sees the points themselves and gives path.sectional's bits.
    from riccicert.verify import _BLOCK
    path = _stage(profile, target, 1)
    rng = np.random.default_rng(5)
    pts = np.stack([rng.uniform(*path.lam_range, _BLOCK),
                    rng.uniform(0.0, profile.T, _BLOCK)], axis=-1)
    margin = _path_margin(path)
    seen = _spy_tiles(monkeypatch)
    values = margin(Level.of_points(pts))
    assert sum(len(tile) for tile in seen) <= _BLOCK
    monkeypatch.undo()
    want = path.sectional(pts[:, 0], pts[:, 1]).min_ric()
    assert values.tobytes() == want.tobytes()


def test_path_table_refuses_a_vanishing_warping_off_the_level_points():
    # k0 = 1 - 2s is negative past s = 0.5, and the level pairs s = 0.75
    # only with lambda = 1 (u = 1, k = k1 = 1): each point is fine, but the
    # table also holds (0, 0.75), where k = k0 = -0.5. Each point is
    # repeated three times, so the table (9 pairs) is no larger than the
    # level and is evaluated. The margin refuses the level with a
    # DomainError (exit 3) naming that s; it is not an IndexError (exit 4).
    from riccicert.errors import DomainError
    from riccicert.verify import _evaluate
    one = Jet3Curve.from_node(Poly((1.0,)), (0.0, 1.0))
    path = WarpedMetricPath(
        k0=Jet3Curve.from_node(Poly((1.0, -2.0)), (0.0, 1.0)), k1=one,
        h0=one, h1=one, m=3, n=3, start_kind="boundary", end_kind="boundary")
    pts = np.repeat(np.array([[0.0, 0.1], [0.5, 0.2], [1.0, 0.75]]), 3, axis=0)
    assert all(math.isfinite(path.sectional(lam, s).min_ric())
               for lam, s in pts)
    message = (r"^warping vanishes at s=0\.75 without a matching closed "
               r"endpoint kind \(k=-0\.5, h=1\.0\)$")
    margin = _path_margin(path)
    with pytest.raises(DomainError, match=message):
        margin(Level.of_points(pts))
    with pytest.raises(DomainError, match=message):
        _evaluate(margin, Level.of_points(pts))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), which=st.sampled_from([1, 2]))
def test_batched_path_margin_matches_scalar_reference(profile, target, seed,
                                                      which):
    path = _stage(profile, target, which)
    rng = np.random.default_rng(seed)
    T = profile.T
    breaks = {a for c in (path.k0, path.k1, path.h0, path.h1)
              for a, _, _ in c.pieces[1:]}
    kinks = {x for c in (path.k0, path.k1, path.h0, path.h1)
             for x, _ in c.kinks}
    assert kinks
    special = sorted({0.0, T} | breaks | kinks)
    s = np.concatenate([special, rng.uniform(0.0, T, 24)])
    a, b = path.lam_range
    lam = rng.choice([a, b, *rng.uniform(a, b, 4)], size=len(s))
    got = path.sectional(lam, s).min_ric()
    _assert_margins_bitwise(path, lam, s, got)
    # The certificate's margin takes these one-point boxes point by point,
    # as their table would hold more pairs than they have points; every
    # copy of a repeated point, in any order, gets the reference bits.
    margin = _path_margin(path)
    pts = np.stack([lam, s], axis=-1)
    assert margin(Level.of_points(pts)).tobytes() == got.tobytes()
    order = rng.permutation(np.concatenate([np.arange(len(s)),
                                            rng.integers(0, len(s), len(s))]))
    pts = np.stack([lam[order], s[order]], axis=-1)
    ref = np.array([_path_min_ric_scalar(path, a, b) for a, b in pts])
    assert margin(Level.of_points(pts)).tobytes() == ref.tobytes()


def test_path_margin_error_names_the_first_failing_point_in_scan_order(
        profile, target):
    from riccicert.errors import EvaluationError
    from riccicert.verify import _evaluate
    path = _stage(profile, target, 1)
    T = profile.T
    # Seven one-point boxes, taken point by point: s = T + 1 fails first
    # in the level's jets, as (0.5, T + 1) comes first in scan order, and
    # is repeated; s = -1 fails too.
    pts = np.array([[0.5, 1.0], [0.5, T + 1.0], [0.0, 0.2], [0.0, -1.0],
                    [0.5, T + 1.0], [0.5, 1.0], [0.0, -1.0]])
    with pytest.raises(EvaluationError) as err:
        _evaluate(_path_margin(path), Level.of_points(pts))
    assert err.value.coords == (0.5, T + 1.0)


def test_concordance_doubling_stops_at_its_first_failing_level(monkeypatch):
    # The gate clears no doubling of the shipped search that then fails a
    # certificate, so a spy fails the first Ricci certificate by lowering
    # its margins by 1e3. That certificate stops at its coarse level, the
    # doubling's second certificate never runs, and the next doubling is
    # certified, both theta regimes at depth 1 (2 levels each).
    import riccicert.verify as verify

    shipped, _, _ = concordance_search(bump_path(), nu=0.05)
    levels, calls = [], []
    evaluate = verify._evaluate

    def counted(f, level):
        levels.append(level.shape[0])
        return evaluate(f, level)

    def spy(f, grid, **kw):
        calls.append((kw["quantity_id"], grid.axes[-1][0]))
        if len(calls) == 2:
            return grid_min(lambda level: f(level) - 1e3, grid, **kw)
        return grid_min(f, grid, **kw)

    monkeypatch.setattr(verify, "_evaluate", counted)
    monkeypatch.setattr(cons, "grid_min", spy)
    params, certs, _ = concordance_search(bump_path(), nu=0.05)
    failed, certified = math.log(shipped.t0), math.log(2.0 * shipped.t0)
    assert calls == [("path_min_ricci", 0.0),
                     ("ricci_bound_theta_below_t2norm", failed),
                     ("ricci_bound_theta_below_t2norm", certified),
                     ("ricci_bound_theta_above_t2norm", certified)]
    assert levels == [257, 7680, 7680, 31104, 7680, 31104]
    assert params.t0 == 2.0 * shipped.t0
    assert all(cert.passed for cert in certs.values())
