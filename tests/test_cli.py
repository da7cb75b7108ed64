import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from riccicert import cli
from riccicert import constructions as cons
from riccicert.cli import canonical_json, main, run_scenario
from riccicert.errors import MAX_SCAN_POINTS, SearchError
from riccicert.jetcurve import Cos, Jet3Curve, Poly

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def load(name):
    return json.loads((SCENARIOS / name).read_text())


def test_triangle_scenario(tmp_path):
    code, report = run_scenario(load("triangle.json"), tmp_path)
    assert code == 0
    assert report["passed"]
    assert len(report["results"]["solutions"]) == 3
    assert (tmp_path / "report.json").exists()


def test_curvature_scenario_round_sphere(tmp_path):
    code, report = run_scenario(load("curvature_round_sphere.json"), tmp_path)
    assert code == 0
    assert report["results"]["min_ricci"] == pytest.approx(1.25, abs=1e-8)
    csv_text = (tmp_path / "curvature.csv").read_text().splitlines()
    assert csv_text[0] == "s,K_sk,K_sh,K_kk,K_hh,K_kh,Ric_s,Ric_k,Ric_h"
    assert len(csv_text) == 201


def test_spline_scenario(tmp_path):
    code, report = run_scenario(load("spline_demo.json"), tmp_path)
    assert code == 0
    assert report["results"]["max_outside_deviation"] == 0.0


def test_failing_certificate_exits_one(tmp_path):
    # flat product metric: margin 0 fails the strict threshold
    dom = (0.0, 1.0)
    scenario = {
        "command": "curvature", "m": 3, "n": 3,
        "k": Jet3Curve.from_node(Poly((1.0,)), dom).to_dict(),
        "h": Jet3Curve.from_node(Poly((1.0,)), dom).to_dict(),
        "grid": {"count": 64},
    }
    code, report = run_scenario(scenario, tmp_path)
    assert code == 1
    assert not report["passed"]


@pytest.mark.parametrize("name, key, failing, passing", [
    ("isotopy.json", "nu", "stage1_min_ricci", "stage2_min_ricci"),
    ("glue_corner.json", "eps", "convexity", "concavity"),
])
def test_explicit_parameter_reports_both_certificates(tmp_path, name, key,
                                                      failing, passing):
    # Without a search nothing stops at the first failing certificate, nor
    # a failing certificate at its first failing scan level.
    scenario = load(name)
    scenario[key] = 0.05
    code, report = run_scenario(scenario, tmp_path)
    assert code == 1
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["certificates"] == report["certificates"]
    assert not report["certificates"][failing]["passed"]
    assert report["certificates"][passing]["passed"]
    depth = scenario["grid"]["depth"]
    for cert in report["certificates"].values():
        assert cert["grid"]["depth"] == depth
        assert [d for d, _ in cert["refinement_trace"]] == list(range(depth + 1))
    assert report["results"][{"nu": "nu_search", "eps": "search"}[key]] is None


def test_unknown_key_exits_two(tmp_path):
    scenario = {"command": "triangle", "r_values": [0.1], "bogus": 1}
    code, report = run_scenario(scenario, tmp_path)
    assert code == 2
    assert "bogus" in report["error"]["message"]


def test_missing_key_exits_two(tmp_path):
    code, report = run_scenario({"command": "isotopy", "R": 2.0}, tmp_path)
    assert code == 2


def test_unknown_command_exits_two(tmp_path):
    code, _ = run_scenario({"command": "nope"}, tmp_path)
    assert code == 2


def test_precondition_violation_exits_three(tmp_path):
    scenario = {"command": "triangle", "r_values": [2.0]}  # r >= pi/4
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"]["kind"] == "PreconditionError"


@pytest.mark.parametrize("nu", [None, 0.02])
def test_isotopy_with_an_invalid_R_exits_three_with_its_own_message(tmp_path, nu):
    # A search builds the R-only half of the profile before it bisects, so
    # an R no probe could take is named, not reported as "no crossing".
    scenario = {**load("isotopy.json"), "R": 0.9}
    if nu is not None:
        scenario["nu"] = nu
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"] == {"kind": "PreconditionError",
                               "message": "R must exceed 1, got 0.9"}


def test_isotopy_search_without_a_crossing_names_why_each_end_failed(tmp_path):
    # No stage-1 margin reaches a threshold of 10: the low end fails its
    # stage-1 certificate, and the high end fails synthesis.
    code, report = run_scenario({**load("isotopy.json"), "threshold": 10.0},
                                tmp_path)
    assert code == 3
    assert report["error"]["kind"] == "SearchError"
    message = report["error"]["message"]
    assert re.match(
        r"predicate agrees at both endpoints \(0\.0001: False, 0\.2: False\); "
        r"no crossing \(at 0\.0001: stage1_min_ricci failed with min_margin "
        r"\S+ at \(1\.0, \S+\); at 0\.2: k1 dive: dive does not fit \(residual ",
        message)
    assert message.endswith("the value pin exceeds the room left after T2)")


@pytest.mark.parametrize("nu", [None, 0.02])
def test_isotopy_refuses_n_below_3_before_any_synthesis(tmp_path, monkeypatch,
                                                        nu):
    # Beyond T3 h is identically R, so Ric_h = (n - 2)/R^2 vanishes there at
    # n = 2: a nu search and an explicit nu are both refused up front.
    monkeypatch.setattr(cons, "make_profile_h", None)
    code, report = run_scenario({**load("isotopy.json"), "n": 2, "nu": nu},
                                tmp_path)
    assert code == 3
    assert report["error"] == {
        "kind": "PreconditionError",
        "message": "isotopy needs n >= 3, got n = 2: beyond T3 h is identically "
                   "R, so Ric_h = (n - 2)/R^2 is not positive there"}


@pytest.mark.parametrize("threshold, why", [
    (1e3, r"at 0\.03: convexity failed with min_margin -1\.1479\d+ at "
          r"\(-0\.0345\d+,\); at 0\.22: convexity failed with min_margin "
          r"0\.1875\d+ at \(-0\.2541\d+,\)"),
    (-1e3, r"at 0\.03: passed; at 0\.22: passed"),
])
def test_glue_corner_search_without_a_crossing_names_both_ends(tmp_path,
                                                               threshold, why):
    code, report = run_scenario({**load("glue_corner.json"),
                                 "threshold": threshold}, tmp_path)
    assert code == 3
    assert report["error"]["kind"] == "SearchError"
    assert re.fullmatch(r"predicate agrees at both endpoints \(0\.03: "
                        r"(True|False), 0\.22: \1\); no crossing \(" + why
                        + r"\)", report["error"]["message"])


def test_glue_corner_search_builds_the_glue_face_once(tmp_path, monkeypatch):
    calls = []
    check = cli.cor._check_glue_face
    monkeypatch.setattr(cli.cor, "_check_glue_face",
                        lambda *args: calls.append(args) or check(*args))
    code, report = run_scenario(load("glue_corner.json"), tmp_path)
    assert code == 0 and report["results"]["search"] is not None
    assert len(calls) == 1


def test_glue_corner_search_smooths_only_the_cornered_curves(tmp_path,
                                                            monkeypatch):
    # mu and the second a-factor are the same node on both charts, so each
    # of the 10 probes smooths only phi and the first a-factor: 20 smooths,
    # not the 40 of smoothing all four face curves.
    calls, charts = [], {}
    smooth, glue = cli.cor.two_stage_smooth, cli.cor.glue_and_smooth
    monkeypatch.setattr(cli.cor, "two_stage_smooth",
                        lambda *args: calls.append(args) or smooth(*args))
    monkeypatch.setattr(cli.cor, "glue_and_smooth",
                        lambda face, eps, delta: charts.setdefault(
                            eps, glue(face, eps, delta)))
    code, report = run_scenario(load("glue_corner.json"), tmp_path)
    assert code == 0 and len(charts) == 10
    assert len(calls) == 20
    chart = charts[report["results"]["eps"]]
    for curve in (chart.mu, chart.H.terms[1][0]):
        assert len(curve.pieces) == 1 and curve.kinks == ()


def _swap_charts(s):
    s["left"], s["right"] = s["right"], s["left"]


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(s):
        for k in path:
            s = s[k]
        s[key] = value
    return edit


def _term_a(side, i):
    return (side, "H", "terms", i, "a", "pieces", 0, "fn", "coeffs")


def _a_factor_mismatch(s):
    # A third term with term 0's b-factor: left f0(0) + f2(0) = 0.9 + 0.1 and
    # right 1.0 + 0.0 give the same H(0, b), but the union of f0 breaks.
    for side, f0, f2 in (("left", 0.9, 0.1), ("right", 1.0, 0.0)):
        terms = s[side]["H"]["terms"]
        extra = copy.deepcopy(terms[0])
        extra["a"]["pieces"][0]["fn"]["coeffs"] = [f2]
        terms[0]["a"]["pieces"][0]["fn"]["coeffs"][0] = f0
        terms.append(extra)


SLOPE = 0.5773502691896258  # of the shipped faces at a = 0; flipped, reflex


@pytest.mark.parametrize("eps", [None, 0.1])
@pytest.mark.parametrize("edits, message", [
    ([_swap_charts], "dihedral_angle expects (left, right) charts"),
    ([_set("left", "phi", "pieces", 0, "fn", "coeffs", 1, -SLOPE),
      _set("right", "phi", "pieces", 0, "fn", "coeffs", 1, SLOPE)],
     "interior dihedral angle 4.188790 exceeds pi; corner cannot be smoothed"),
    ([_set(*_term_a("right", 0), 0, 1.1)],
     "boundary metrics mismatch: max |H_L(0,b) - H_R(0,b)| = 1.000e-01 > 1e-09"),
    ([_a_factor_mismatch],
     "pieces mismatch at breakpoint 0.0: order 0 (0.9 vs 1.0), declared "
     "continuity 0"),
    ([_set(*_term_a("left", 0), 1, 0.0), _set(*_term_a("right", 0), 1, 0.0)],
     "glue-face second-form sum not positive on b-slices (min d_a F jump = "
     "0.000e+00)"),
    ([_set("right", "fiber_dim", 4)], "fiber dimensions differ"),
    ([_set("delta_ratio", 1.0)], "delta_ratio must lie in (0, 1), got 1.0"),
    ([_set("delta_ratio", 0.0)], "delta_ratio must lie in (0, 1), got 0.0"),
], ids=["chart-order", "reflex-angle", "boundary-metrics", "a-factors",
        "second-form-sum", "fiber-dims", "delta-ratio-1", "delta-ratio-0"])
def test_glue_corner_refuses_an_eps_free_precondition_by_its_own_message(
        tmp_path, eps, edits, message):
    # These do not depend on eps: they are checked once, before any eps is
    # tried, and exit 3 with their own message rather than "no crossing".
    scenario = load("glue_corner.json")
    for edit in edits:
        edit(scenario)
    if eps is not None:
        scenario["eps"] = eps
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"] == {"kind": "PreconditionError", "message": message}


def test_search_without_a_crossing_names_a_non_finite_margin():
    # A certificate that fails on a non-finite margin is named by that
    # margin's count and first point, not by its finite minimum, which
    # here clears the threshold.
    from riccicert.verify import GridSpec, PositivityCertificate

    def certify(x, search):
        cert = PositivityCertificate(
            quantity_id="demo", grid=GridSpec.line(0.0, 1.0, 2), threshold=0.0,
            min_margin=0.5, argmin=(x,), refinement_trace=((0, 0.5),),
            passed=False, nonfinite_count=3, nonfinite_at=(x + 0.25,))
        cli._refuse(search, "demo_margin", cert)
        return cert

    with pytest.raises(SearchError) as err:
        cli._searched(certify, None, {"lo": 0.0, "hi": 1.0, "tol": 1e-3})
    assert str(err.value).endswith(
        "no crossing (at 0.0: demo_margin failed with 3 non-finite "
        "margin(s), the first at (0.25,); at 1.0: demo_margin failed with 3 "
        "non-finite margin(s), the first at (1.25,))")


@pytest.mark.parametrize("tilt", [0.0, -1e-4])
def test_triangle_tilt_not_above_zero_exits_three(tmp_path, tilt):
    # The tilt keeps theta0 below pi/2: tilt 0 puts it at pi/2 exactly, and
    # a negative tilt above it.
    code, report = run_scenario({**load("triangle.json"), "tilt": tilt}, tmp_path)
    assert code == 3
    assert report["error"] == {"kind": "PreconditionError",
                               "message": f"tilt must be positive, got {tilt!r}"}


@pytest.mark.parametrize("eps, delta", [(1e-30, 1e-31), (1e-170, 1e-171)])
def test_too_narrow_smoothing_window_exits_three(tmp_path, eps, delta):
    # float64 cannot carry these Hermite solves: the first loses the
    # endpoint data, and in the second delta**5 underflows to 0.
    scenario = dict(load("spline_demo.json"), eps=eps, delta=delta)
    code, report = run_scenario(scenario, tmp_path / "out")
    assert code == 3
    assert report["error"]["kind"] == "PreconditionError"
    assert report["error"]["message"].startswith("smoothing window [")
    assert not (tmp_path / "out").exists()


def test_no_theta_split_exits_three(tmp_path):
    scenario = load("concordance_bump.json")
    scenario["path"]["amplitude"] = -0.8
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"]["kind"] == "SearchError"
    assert report["error"]["message"].startswith("no theta split: theta0 = 0")


def test_r0_underflow_exits_three(tmp_path, capsys):
    # C is about 1,086 here, so r0 = r1 exp(-(C + 1)) is 0.0, and
    # math.log(r0) raised ValueError and exited 4.
    scenario = load("concordance_bump.json")
    scenario["path"]["amplitude"] = 10.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert "r0 = r1 exp(-(C + 1)) underflows to 0 (C = 1.08" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", [0.3, -0.3])
def test_doubling_overrun_reports_its_trace_and_failed_gate(tmp_path,
                                                            amplitude):
    # Each doubling that reaches the coarse Ricci gate fails it; the end
    # margins of the last are positive, so the message must name the gate.
    scenario = load("concordance_bump.json")
    scenario["path"]["amplitude"] = amplitude
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    error = report["error"]
    assert error["kind"] == "SearchError"
    trace = error["trace"]
    assert len(trace) == cons._MAX_DOUBLINGS
    assert trace[0][0] == 4.0 and all(len(row) == 4 for row in trace)
    t0, margin_t0, margin_t1, gate = trace[-1]
    assert margin_t0 > 0.0 and margin_t1 > 0.0 and gate < 0.0
    assert error["message"].endswith(
        f"the last failed the coarse Ricci gate: t0-end margin {margin_t0:.3e}, "
        f"t1-end margin {margin_t1:.3e}, coarse Ricci minimum {gate:.3e}")
    assert json.loads(canonical_json(report)) == report


def test_error_trace_writes_nonfinite_entries_as_null(tmp_path, monkeypatch):
    def overrun(path, nu, **kw):
        raise SearchError("overrun", trace=[(4.0, math.nan, math.inf, None),
                                                 (8.0, -math.inf, 1.0, 0.5)])

    monkeypatch.setattr(cons, "concordance_search", overrun)
    code, report = run_scenario(load("concordance_bump.json"), tmp_path)
    assert code == 3
    assert report["error"]["trace"] == [[4.0, None, None, None],
                                        [8.0, None, 1.0, 0.5]]


def test_schedule_csv_is_the_sampled_schedule(tmp_path):
    code, report = run_scenario(load("concordance_bump.json"), tmp_path)
    assert code == 0
    params = cons.ConcordanceParams(**{k: report["results"]["params"][k]
                                       for k in ("t0", "t1", "r0", "r1", "nu", "C")})
    rho, lam = cons.concordance_schedule(params)
    t, _, _, residual = cons.sample_schedule(params, rho, lam, 200)
    rows = np.loadtxt(tmp_path / "schedule.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], t)
    assert np.array_equal(rows[:, 1], lam.jet(t).value)
    assert np.array_equal(rows[:, 2], rho.jet(t).value)
    assert report["results"]["schedule_residual"] == float(np.max(residual))
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["schedule_residuals"]["margin"] == 1e-10 - np.max(residual)


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_scenario(load("triangle.json"), a)[0] == 0
    assert run_scenario(load("triangle.json"), b)[0] == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_worker_count_does_not_change_report(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_scenario(load("curvature_round_sphere.json"), a, threads=1)[0] == 0
    assert run_scenario(load("curvature_round_sphere.json"), b, threads=8)[0] == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_canonical_json_is_sorted_and_17g():
    text = canonical_json({"b": 1.0 / 3.0, "a": True, "c": [1, 2.5]})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert "0.33333333333333331" in text


def test_main_entry_point(tmp_path):
    out = tmp_path / "out"
    code = main([str(SCENARIOS / "triangle.json"), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()


def test_grid_depth_override(tmp_path):
    scenario = load("curvature_round_sphere.json")
    code, report = run_scenario(scenario, tmp_path, grid_depth=2)
    assert code == 0
    assert report["certificates"]["min_ricci"]["grid"]["depth"] == 2


def test_scenario_curve_round_trip_bit_exact(tmp_path):
    # the scenario file holds serialized curves; a rebuild must be bit-exact
    scenario = load("curvature_round_sphere.json")
    k = Jet3Curve.from_dict(scenario["k"])
    R = 2.0
    ref = Jet3Curve.from_node(Cos(R, 1.0 / R), (0.0, 0.5 * math.pi * R))
    assert k == ref


def test_evaluation_error_exits_three_with_coords(tmp_path):
    # k = (s - c)^2 is positive at the metric's own samples but vanishes at
    # grid point c, where the curvature margin cannot be evaluated.
    c = float(np.linspace(0.0, 1.0, 1000)[500])
    dom = (0.0, 1.0)
    scenario = {
        "command": "curvature", "m": 3, "n": 3,
        "k": Jet3Curve.from_node(Poly((0.0, 0.0, 1.0), c), dom).to_dict(),
        "h": Jet3Curve.from_node(Poly((1.0,)), dom).to_dict(),
    }
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"]["kind"] == "EvaluationError"
    assert report["error"]["coords"] == [c]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name, key, sub", [
    ("curvature_round_sphere.json", "grid", None),
    ("glue_corner.json", "grid", None),
    ("glue_corner.json", "search", None),
    ("isotopy.json", "grid", None),
    ("isotopy.json", "nu_search", None),
    ("concordance_bump.json", "path", None),
    ("concordance_bump.json", "path", {"type": "round_constant", "radius": 1.0}),
])
def test_unknown_sub_key_exits_two(tmp_path, name, key, sub):
    scenario = load(name)
    spec = dict(sub if sub is not None else scenario[key])
    scenario[key] = {**spec, "bogus": 1}
    code, report = run_scenario(scenario, tmp_path)
    assert code == 2
    assert f"unknown {key} keys: ['bogus']" == report["error"]["message"]
    assert not (tmp_path / "report.json").exists()


DROP = object()


def edit(tree, path, value):
    """A copy of the JSON ``tree`` with the entry at ``path`` set to
    ``value`` (DROP deletes it); the empty path replaces the whole tree."""
    if not path:
        return value
    tree = copy.deepcopy(tree)
    cursor = tree
    for key in path[:-1]:
        cursor = cursor[key]
    if value is DROP:
        del cursor[path[-1]]
    else:
        cursor[path[-1]] = value
    return tree


CHART = ("left",)
TERM = ("left", "H", "terms", 0)
PIECE = ("k", "pieces", 0)


@pytest.mark.parametrize("name, path, value", [
    # ill-typed or ill-shaped values
    ("triangle.json", ("r_values",), ["x"]),
    ("triangle.json", ("r_values",), 5),
    ("curvature_round_sphere.json", ("k", "pieces"), DROP),
    ("curvature_round_sphere.json", PIECE + ("fn", "amplitude"), DROP),
    ("curvature_round_sphere.json", ("m",), "3"),
    ("curvature_round_sphere.json", ("m",), 3.5),
    ("triangle.json", ("tilt",), 10**400),
    ("curvature_round_sphere.json", ("k", "domain"), [0.0]),
    ("spline_demo.json", ("curve", "kinks", 0), [0.0]),
    ("glue_corner.json", CHART + ("fiber_dim",), True),
    ("glue_corner.json", TERM + ("a",), 1.0),
    ("concordance_bump.json", ("path",), 1.0),
    # an unknown key at every nested level
    ("spline_demo.json", ("curve", "pieces", 0, "fn", "centre"), 0.5),
    ("curvature_round_sphere.json", PIECE + ("bogus",), 1),
    ("curvature_round_sphere.json", ("k", "bogus"), 1),
    ("glue_corner.json", TERM + ("bogus",), 1),
    ("glue_corner.json", CHART + ("H", "bogus"), 1),
    ("glue_corner.json", CHART + ("bogus",), 1),
])
def test_malformed_scenario_exits_two(tmp_path, name, path, value):
    code, report = run_scenario(edit(load(name), path, value), tmp_path)
    assert code == 2
    assert report["error"]["kind"] == "scenario"
    assert not (tmp_path / "report.json").exists()


def test_null_reads_as_absent(tmp_path):
    plain = run_scenario(load("triangle.json"), tmp_path / "a")[1]
    nulled = run_scenario({**load("triangle.json"), "tilt": None}, tmp_path / "b")
    assert nulled[0] == 0 and nulled[1]["results"] == plain["results"]


def mutations(tree, path=()):
    """(path, value) of each one-site mutation of a JSON tree: an unknown key
    added to an object, an object or list replaced by a number, a number
    replaced by a non-numeric string."""
    if isinstance(tree, dict):
        yield path + ("zz_unknown",), 1
    if isinstance(tree, (dict, list)):
        yield path, 7
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, child in items:
            yield from mutations(child, path + (key,))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path, "x"


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_shipped_scenarios_exit_two(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(p.name for p in SCENARIOS.glob("*.json"))))
    scenario = load(name)
    path, value = data.draw(st.sampled_from(list(mutations(scenario))))
    source = tmp_path / "mutated.json"
    source.write_text(json.dumps(edit(scenario, path, value)))
    code, report = run_scenario(source, tmp_path / "out")
    assert code == 2, (name, path, value)
    assert report["error"]["kind"] == "scenario"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("name, key", [
    ("spline_demo.json", "samples"),
    ("curvature_round_sphere.json", "samples"),
    ("glue_corner.json", "samples"),
    ("isotopy.json", "samples"),
    ("concordance_bump.json", "schedule_samples"),
])
def test_sample_counts_below_one_exit_two(tmp_path, name, key, count):
    code, report = run_scenario({**load(name), key: count}, tmp_path)
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        f"scenario key {key!r}: expected a positive integer, got {count}")}


@pytest.mark.parametrize("name, key", [
    ("curvature_round_sphere.json", "samples"),
    ("concordance_bump.json", "schedule_samples"),
])
def test_sample_counts_above_array_size_exit_two(tmp_path, name, key):
    # Past numpy's array size is past the scan budget too: one rule refuses.
    code, report = run_scenario({**load(name), key: 1e300}, tmp_path)
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        f"scenario key {key!r}: {int(1e300)} points exceed the "
        f"budget of {MAX_SCAN_POINTS} scan points")}


@pytest.mark.parametrize("name, key", [
    ("curvature_round_sphere.json", "samples"),
    ("concordance_bump.json", "schedule_samples"),
])
def test_sample_counts_above_the_scan_budget_exit_two(tmp_path, name, key):
    code, report = run_scenario({**load(name), key: MAX_SCAN_POINTS + 1},
                                tmp_path)
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        f"scenario key {key!r}: {MAX_SCAN_POINTS + 1} points exceed the "
        f"budget of {MAX_SCAN_POINTS} scan points")}


def _assert_over_budget(tmp_path, grid, level):
    scenario = load("curvature_round_sphere.json")
    grid = {"factor": 4, **scenario["grid"], **grid}
    scenario["grid"] = grid
    code, report = run_scenario(scenario, tmp_path)
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        f"grid [{int(grid['count'])}] at depth {grid['depth']}, factor "
        f"{int(grid['factor'])}: a scan level of {level} points exceeds "
        f"the budget of {MAX_SCAN_POINTS} scan points")}
    assert not any(tmp_path.iterdir())


def test_a_grid_count_above_the_scan_budget_exits_two(tmp_path):
    # A count of 10**9 asked numpy for 7.45 GiB and exited 4 (MemoryError).
    _assert_over_budget(tmp_path, {"count": MAX_SCAN_POINTS + 1},
                        MAX_SCAN_POINTS + 1)


def test_grid_sizes_past_array_size_exit_two(tmp_path):
    # A count of 1e19 or 1e300 is past numpy's array size, and a factor of
    # 1e300 refined at depth 1 asked numpy for a 2e300-point linspace: the
    # scan budget refuses each, with the level it would scan.
    huge = int(1e300)
    for grid, level in [
            ({"count": 1e19}, 10**19),
            ({"count": 1e300}, huge),
            ({"count": 100, "depth": 1, "factor": 1e300}, 5 * (2 * huge + 1))]:
        _assert_over_budget(tmp_path, grid, level)


@pytest.mark.pin
def test_a_search_probe_past_the_scan_budget_ends_the_search(tmp_path):
    # 64 x 100,001 coarse points are within the budget, and so is the first
    # refinement level (320,004 cells of 25 points); the second (400,005
    # cells) is not; with 100,000 it would be exactly 10**7 points, within
    # the budget. The nu search's probe at 1e-4 reaches the stage-1
    # certificate and does not swallow the refusal as a failed probe.
    scenario = load("isotopy.json")
    scenario["grid"] = {**scenario["grid"], "s_count": 100_001}
    code, report = run_scenario(scenario, tmp_path)
    assert code == 2
    assert report["error"]["message"] == (
        f"grid [64, 100001] at depth 2, factor 2: a scan level of 10000125 "
        f"points exceeds the budget of {MAX_SCAN_POINTS} scan points")


@pytest.mark.parametrize("key, value, level", [
    ("t_count", 1e8, 4_800_000_000),
    ("theta_count", 1e8, 16_000_000_000),
    ("cert_depth", 9, 33_911_541),
])
@pytest.mark.parametrize("amplitude", [0.1, 0.3])
def test_concordance_refuses_an_over_budget_grid_before_any_doubling(
        tmp_path, key, value, level, amplitude):
    # At amplitude 0.3 no doubling clears the coarse Ricci gate, so a grid
    # checked only when a doubling is certified let the search exhaust
    # (exit 3); at 0.1 the first gated doubling refused it (exit 2).
    scenario = load("concordance_bump.json")
    scenario["path"]["amplitude"] = amplitude
    scenario[key] = value
    counts = {"theta_count": 48, "t_count": 160, "cert_depth": 1, key: int(value)}
    code, report = run_scenario(scenario, tmp_path)
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        f"grid [{counts['theta_count']}, {counts['t_count']}] at depth "
        f"{counts['cert_depth']}, factor 4: a scan level of {level} points "
        f"exceeds the budget of {MAX_SCAN_POINTS} scan points")}


def test_grid_depth_past_float64_exits_three(tmp_path):
    scenario = load("curvature_round_sphere.json")
    scenario["grid"] = {**scenario["grid"], "depth": 1e300}
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"]["kind"] == "PreconditionError"
    assert report["error"]["message"].startswith(
        "refinement depth must be <= 27 with factor 4")


def test_grid_factor_past_array_size_exits_three(tmp_path, capsys):
    # At depth 2 such a factor refines past float64's resolution: the depth
    # bound refuses it before the scan budget's loop runs.
    scenario = load("curvature_round_sphere.json")
    scenario["grid"] = {"count": 100, "depth": 2, "factor": 1e300}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert "refinement depth must be <= 1 with factor" in capsys.readouterr().err


def _wrapped_in_scales(name, depth):
    scenario = load(name)
    fn = scenario["k"]["pieces"][0]["fn"]
    for _ in range(depth):
        fn = {"kind": "scale", "factor": 1.0, "arg": fn}
    scenario["k"]["pieces"][0]["fn"] = fn
    return json.dumps(scenario).encode()


@pytest.mark.parametrize("data, message", [
    (b'{"command": "curvature\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b'{"command": "curvature", "m": ' + b"1" * 4301 + b"}",
     "integer literal of 4301 digits exceeds the limit of 4300 digits"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    (_wrapped_in_scales("curvature_round_sphere.json", 700),
     "scenario nested too deeply"),
], ids=["not-utf8", "4301-digit-integer", "list-nested-100000-deep",
        "k-in-700-scale-nodes"])
def test_an_unreadable_scenario_file_exits_two(tmp_path, capsys, data,
                                               message):
    # Each raised out of run_scenario (UnicodeDecodeError, ValueError, and
    # RecursionError in json.loads or in errors.decode) and exited 4. The
    # over-long integer names the digit limit, not Python's setting of it.
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    assert main([str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert '"kind": "scenario"' in err
    assert message in err
    assert "set_int_max_str_digits" not in err
    assert not (tmp_path / "out").exists()


def test_triangle_without_radii_exits_two(tmp_path):
    # An empty list ran no solve and passed with no checks.
    code, report = run_scenario({**load("triangle.json"), "r_values": []},
                                tmp_path)
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        "scenario key 'r_values': expected 1 or more entries, got []")}
    assert not any(tmp_path.iterdir())


def test_a_kink_off_a_breakpoint_exits_three(tmp_path, capsys):
    scenario = load("spline_demo.json")
    scenario["curve"]["kinks"] = [[0.0, 1], [0.5, 1]]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert ("kink 0.5 is not a breakpoint of the pieces"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    # A breakpoint marked twice was checked by its last order (a corner) and
    # read by its first, and the scenario exited 0.
    scenario["curve"]["kinks"] = [[0.0, 3], [0.0, 1]]
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert ("breakpoint 0.0 is marked as a kink twice: orders 3 and 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("curve", ["k", "h"])
def test_a_frequency_whose_cube_overflows_exits_three(tmp_path, capsys, curve):
    # Sin.jet and Cos.jet took frequency**3 as a float, which raised
    # OverflowError and exited 4; the cube is now a product, which gives
    # +-inf, and the curve refuses the non-finite jet.
    scenario = edit(load("curvature_round_sphere.json"),
                    (curve, "pieces", 0, "fn", "frequency"), 1e300)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite jet at x=" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["recip", "exp_of"])
def test_a_jet_whose_cube_overflows_exits_three(tmp_path, capsys, kind):
    # Recip.jet and ExpOf.jet took u'**3 as a float, which raised
    # OverflowError and exited 4; the infinite jet is now refused.
    scenario = load("curvature_round_sphere.json")
    k = scenario["k"]["pieces"][0]["fn"]
    steep = {"kind": kind, "arg": {"kind": "poly", "coeffs": [1.0, 1e120]}}
    scenario["k"]["pieces"][0]["fn"] = {
        "kind": "sum", "terms": [k, {"kind": "scale", "factor": 1e-300,
                                     "arg": steep}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite jet at x=0.0" in capsys.readouterr().err


@pytest.mark.parametrize("term", [
    {"kind": "scale", "factor": 1e-300,
     "arg": {"kind": "exp_of", "arg": {"kind": "poly", "coeffs": [800.0]}}},
], ids=["exp_of"])
def test_a_jet_whose_exp_overflows_exits_three(tmp_path, capsys, term):
    # ExpOf.jet took math.exp of a float, which raised OverflowError and
    # exited 4; the infinite jet is now refused.
    scenario = load("curvature_round_sphere.json")
    k = scenario["k"]["pieces"][0]["fn"]
    scenario["k"]["pieces"][0]["fn"] = {"kind": "sum", "terms": [k, term]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite jet at x=0.0" in capsys.readouterr().err


@pytest.mark.parametrize("node", [
    lambda k: {"kind": "exp", "amplitude": 1.0, "rate": 0.0},
    lambda k: {"kind": "product", "factors": [k]},
    lambda k: {"kind": "affine_of", "arg": k, "scale": 1.0},
], ids=["exp", "product", "affine_of"])
def test_a_removed_node_kind_exits_two(tmp_path, capsys, node):
    # exp, product and affine_of were node kinds that no construction
    # builds; a scenario that names one is refused as any unknown kind.
    scenario = load("curvature_round_sphere.json")
    piece = scenario["k"]["pieces"][0]
    piece["fn"] = node(piece["fn"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main([str(path), "--out", str(tmp_path / "out")]) == 2
    assert "curve node of no known kind" in capsys.readouterr().err


def test_grid_depth_override_past_float64_exits_three(tmp_path):
    code = main([str(SCENARIOS / "curvature_round_sphere.json"),
                 "--out", str(tmp_path), "--grid-depth", str(10**400)])
    assert code == 3


@pytest.mark.parametrize("name, key, value", [
    ("curvature_round_sphere.json", "threshold", math.nan),
    ("curvature_round_sphere.json", "threshold", math.inf),
    ("concordance_bump.json", "threshold", -math.inf),
    ("triangle.json", "tilt", math.nan),
])
def test_non_finite_numbers_in_a_scenario_file_exit_two(tmp_path, name, key,
                                                        value):
    # Python's json reads NaN, Infinity and -Infinity as floats.
    source = tmp_path / "scenario.json"
    source.write_text(json.dumps({**load(name), key: value}))
    assert ("NaN" if math.isnan(value) else "Infinity") in source.read_text()
    code, report = run_scenario(source, tmp_path / "out")
    assert code == 2
    assert report["error"] == {"kind": "scenario", "message": (
        f"scenario key {key!r}: expected a finite number, got {value!r}")}


def test_concordance_threshold_reaches_every_certificate(tmp_path):
    _, report = run_scenario({**load("concordance_bump.json"),
                              "threshold": 0.001}, tmp_path)
    assert {name: cert["threshold"]
            for name, cert in report["certificates"].items()} == {
        "path_ricci": 0.001, "ricci_theta_below": 0.001,
        "ricci_theta_above": 0.001}


def test_internal_error_exits_four(tmp_path, monkeypatch, capsys):
    # A RecursionError is a scenario error only while the file is read and
    # decoded; raised by a command, it is internal.
    for kind in (RuntimeError, RecursionError):
        def explode(params, ctx):
            raise kind("injected")

        _, fields = cli.COMMANDS["triangle"]
        monkeypatch.setitem(cli.COMMANDS, "triangle", (explode, fields))
        assert main([str(SCENARIOS / "triangle.json"), "--out", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[0]) == {"error": {
            "kind": "internal", "type": kind.__name__, "message": "injected"}}
        assert "Traceback" in err


def test_a_curve_with_a_zero_width_last_piece_exits_three(tmp_path):
    scenario = load("curvature_round_sphere.json")
    end = scenario["h"]["pieces"][-1]
    scenario["h"]["pieces"].append({**end, "lo": end["hi"]})
    code, report = run_scenario(scenario, tmp_path)
    assert code == 3
    assert report["error"] == {"kind": "PreconditionError",
                               "message": "pieces must be contiguous and ordered"}
