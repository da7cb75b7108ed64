import math

import numpy as np
import pytest

import riccicert.spline as spline
from riccicert.errors import DomainError, PreconditionError
from riccicert.jetcurve import Cos, Jet3, Jet3Curve, Poly
from riccicert.spline import (
    SplineSegment,
    hermite_cubic,
    hermite_quintic,
    smooth_c1,
    smooth_c2,
    two_stage_smooth,
)


def absval(lo=-1.0, hi=1.0):
    return Jet3Curve.piecewise(
        [(lo, 0.0, Poly((0.0, -1.0))), (0.0, hi, Poly((0.0, 1.0)))],
        kinks=[(0.0, 1)],
    )


# ---------------------------------------------------------------------------
# closed-form cross-checks (independent route: the hand-derived rationals)
# ---------------------------------------------------------------------------


def cubic_closed_form(l, r, eps):
    D, S = r.value - l.value, r.value + l.value
    S1, D1 = r.d1 + l.d1, r.d1 - l.d1
    c3 = (eps * S1 - D) / (4.0 * eps**3)
    c1 = (3.0 * D - eps * S1) / (4.0 * eps)
    c2 = D1 / (4.0 * eps)
    c0 = S / 2.0 - eps * D1 / 4.0
    return (c0, c1, c2, c3)


def quintic_closed_form(l, r, d):
    S0, D0 = (r.value + l.value) / 2, (r.value - l.value) / 2
    S1p, D1p = (r.d1 - l.d1) / 2, (r.d1 + l.d1) / 2
    S2, D2 = (r.d2 + l.d2) / 2, (r.d2 - l.d2) / 2
    c4 = (S2 - S1p / d) / (8 * d**2)
    c2 = 0.75 * S1p / d - S2 / 4
    c0 = S0 - c2 * d**2 - c4 * d**4
    c5 = (D2 - 3 * (D1p - D0 / d) / d) / (8 * d**3)
    c3 = (D1p - D0 / d - 4 * c5 * d**4) / (2 * d**2)
    c1 = (D0 - c3 * d**3 - c5 * d**5) / d
    return (c0, c1, c2, c3, c4, c5)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.013])
def test_cubic_matches_closed_form(eps):
    rng = np.random.default_rng(7)
    for _ in range(10):
        l = Jet3(*rng.uniform(-2, 2, 2), 0.0, 0.0)
        r = Jet3(*rng.uniform(-2, 2, 2), 0.0, 0.0)
        seg = hermite_cubic(l, r, eps)
        want = cubic_closed_form(l, r, eps)
        assert seg.coefficients == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("delta", [1.0, 0.05])
def test_quintic_matches_closed_form(delta):
    rng = np.random.default_rng(11)
    for _ in range(10):
        l = Jet3(*rng.uniform(-2, 2, 3), 0.0)
        r = Jet3(*rng.uniform(-2, 2, 3), 0.0)
        seg = hermite_quintic(l, r, delta)
        want = quintic_closed_form(l, r, delta)
        assert seg.coefficients == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# spec examples
# ---------------------------------------------------------------------------


def test_cubic_absolute_value_unit_window():
    seg = hermite_cubic(Jet3(1.0, -1.0), Jet3(1.0, 1.0), 1.0)
    assert seg.coefficients == pytest.approx((0.5, 0.0, 0.5, 0.0), abs=1e-14)


def test_cubic_reproduces_cubics():
    p = Poly((0.3, -1.2, 0.7, 2.1))
    for eps in (1.0, 0.2):
        seg = hermite_cubic(p.jet(-eps), p.jet(eps), eps)
        for a in np.linspace(-eps, eps, 21):
            assert seg.jet_local(a).value == pytest.approx(p.jet(a).value,
                                                           rel=1e-12, abs=1e-12)


def test_cubic_curvature_spike():
    # p''(0) = (F+'(0) - F-'(0)) / (2 eps) for F = |a|
    seg = hermite_cubic(Jet3(0.01, -1.0), Jet3(0.01, 1.0), 0.01)
    assert seg.jet_local(0.0).d2 == pytest.approx(100.0, rel=1e-12)


def test_quintic_absolute_value_unit_window():
    seg = hermite_quintic(Jet3(1.0, -1.0, 0.0), Jet3(1.0, 1.0, 0.0), 1.0)
    assert seg.coefficients == pytest.approx(
        (0.375, 0.0, 0.75, 0.0, -0.125, 0.0), abs=1e-14)


def test_quintic_reproduces_quintics():
    p = Poly((0.1, 0.4, -0.3, 0.25, -0.05, 0.6))
    for d in (1.0, 0.31):
        seg = hermite_quintic(p.jet(-d), p.jet(d), d)
        for a in np.linspace(-d, d, 21):
            assert seg.jet_local(a).value == pytest.approx(p.jet(a).value,
                                                           rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("delta", [1e-2, 1e-3])
def test_quintic_equal_second_derivatives(delta):
    # Endpoint data of F = 1 + a/2 + (c/2) a^2 plus a slope wiggle that
    # vanishes at the window ends: equal second derivatives at both ends and
    # a small extra first-derivative mismatch give p''(0) = c + O(delta).
    c, beta = 1.4, 0.8
    l = Jet3(1.0 - 0.5 * delta + 0.5 * c * delta**2,
             0.5 - c * delta - beta * delta**2, c)
    r = Jet3(1.0 + 0.5 * delta + 0.5 * c * delta**2,
             0.5 + c * delta + beta * delta**2, c)
    seg = hermite_quintic(l, r, delta)
    assert seg.jet_local(0.0).d2 == pytest.approx(c, abs=3.0 * beta * delta)


def test_smooth_c1_value_at_kink():
    out = smooth_c1(absval(), 0.0, 0.5)
    assert out.value(0.0) == pytest.approx(0.25, abs=1e-14)
    # C1 everywhere: d1 continuous at the new kinks
    for x in (-0.5, 0.5):
        assert out.jet(x, "left").d1 == pytest.approx(out.jet(x, "right").d1,
                                                      abs=1e-12)


def test_smooth_c1_even_input_gives_even_output():
    out = smooth_c1(absval(), 0.0, 0.5)
    for x in np.linspace(0.0, 0.9, 19):
        assert out.value(x) == pytest.approx(out.value(-x), abs=1e-12)


def test_smooth_c1_near_noop_on_smooth_curve():
    # deviation from a C1 curve is the cubic Taylor remainder, O(eps^2)
    curve = Jet3Curve.from_node(Cos(1.0, 1.3), (-1.0, 1.0))
    devs = []
    for eps in (0.1, 0.05, 0.025):
        out = smooth_c1(curve, 0.0, eps)
        devs.append(max(abs(out.value(x) - curve.value(x))
                        for x in np.linspace(-eps, eps, 101)))
    order = math.log(devs[0] / devs[2], 2.0) / 2.0
    assert order >= 1.9


def test_smooth_c2_second_derivative_continuity():
    stage1 = smooth_c1(absval(), 0.0, 0.5)
    out = smooth_c2(stage1, (-0.5, 0.5), 0.1)
    for x in (-0.6, -0.4, 0.4, 0.6):
        jl, jr = out.jet(x, "left"), out.jet(x, "right")
        assert abs(jl.d2 - jr.d2) < 1e-9
        assert abs(jl.d1 - jr.d1) < 1e-12
        assert abs(jl.value - jr.value) < 1e-12


def test_smooth_c2_uniform_convergence():
    stage1 = smooth_c1(absval(), 0.0, 0.5)
    # off the kinks |F'''| = 6 |c3| on the cubic, 0 outside
    L = 6.0 * abs(stage1.jet(0.0).d3) / 6.0 + 1.0
    for delta in (0.1, 0.05, 0.025):
        out = smooth_c2(stage1, (-0.5, 0.5), delta)
        dev = max(abs(out.value(x) - stage1.value(x))
                  for x in np.linspace(-0.7, 0.7, 401))
        assert dev < 10.0 * delta * L


def test_smooth_c2_noop_order_on_c2_input():
    curve = Jet3Curve.from_node(Cos(1.0, 1.1), (-1.0, 1.0))
    devs = []
    for delta in (0.1, 0.05, 0.025):
        out = smooth_c2(curve, (-0.5, 0.5), delta)
        dev = 0.0
        for x in np.linspace(-0.7, 0.7, 301):
            side = "left" if out.kink_order(x) else None
            dev = max(dev, abs(out.jet(x, side).d2 - curve.jet(x).d2))
        devs.append(dev)
    order = math.log(devs[0] / devs[2], 2.0) / 2.0
    assert order >= 0.9  # O(delta) in the C2 norm


def test_two_stage_locality_and_regularity():
    out = two_stage_smooth(absval(), 0.0, 0.5, 0.1)
    for x in np.linspace(0.6001, 1.0, 41):
        assert out.value(x) == abs(x)  # bit-identical outside the window
        assert out.value(-x) == abs(x)
    # C2 everywhere
    for x, _ in out.kinks:
        jl, jr = out.jet(x, "left"), out.jet(x, "right")
        assert abs(jl.d2 - jr.d2) < 1e-9


def test_two_stage_on_already_c1_kink_is_small():
    # matched one-sided derivatives: stage 1 is a no-op up to O(eps^2)
    left = Poly((0.0, 1.0, -1.0))
    right = Poly((0.0, 1.0, 2.0))  # same value and slope, d2 jumps
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.0, left), (0.0, 1.0, right)], kinks=[(0.0, 2)])
    devs = []
    for eps in (0.1, 0.05):
        out = two_stage_smooth(curve, 0.0, eps, eps / 5.0)
        devs.append(max(abs(out.value(x) - curve.value(x))
                        for x in np.linspace(-0.2, 0.2, 201)))
    assert devs[0] < 0.1**2 * 10.0
    assert devs[1] < devs[0]


# ---------------------------------------------------------------------------
# the first/second-order window asymptotics
# ---------------------------------------------------------------------------


def _kinked_family():
    # (name, curve builder on [-1, 1], slope jump at 0)
    families = []
    families.append(("abs", absval(), 2.0))
    families.append((
        "a_plus_abs",
        Jet3Curve.piecewise(
            [(-1.0, 0.0, Poly((0.0, 0.0))), (0.0, 1.0, Poly((0.0, 2.0)))],
            kinks=[(0.0, 1)]),
        2.0,
    ))
    cosabs = Jet3Curve.piecewise(
        [(-1.0, 0.0, Cos(1.0, -1.0)), (0.0, 1.0, Cos(1.0, 1.0))],
        kinks=[(0.0, 1)])
    families.append(("cos_abs", cosabs, 0.0))
    return families


@pytest.mark.parametrize("name,curve,jump", _kinked_family())
def test_firstorder_item3_spike_is_bounded(name, curve, jump):
    # |2 eps p''(0) - (F+'(0) - F-'(0))| stays O(eps), hence bounded
    worst = 0.0
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        seg = hermite_cubic(curve.jet(-eps), curve.jet(eps), eps)
        worst = max(worst, abs(2.0 * eps * seg.jet_local(0.0).d2 - jump))
    assert worst < 2.0


def test_firstorder_items_1_2_linear_rate():
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.0, Cos(1.0, -1.0)), (0.0, 1.0, Cos(1.0, 1.0))],
        kinks=[(0.0, 1)])
    eps_values = (0.2, 0.1, 0.05, 0.025, 0.0125)
    dev0, dev1 = [], []
    for eps in eps_values:
        seg = hermite_cubic(curve.jet(-eps), curve.jet(eps), eps)
        f0 = curve.value(0.0)
        dl, dr = curve.jet(-eps).d1, curve.jet(eps).d1
        w0 = w1 = 0.0
        for a in np.linspace(-eps, eps, 101):
            jet = seg.jet_local(a)
            w0 = max(w0, abs(jet.value - f0))
            lin = (eps - a) / (2 * eps) * dl + (eps + a) / (2 * eps) * dr
            w1 = max(w1, abs(jet.d1 - lin))
        dev0.append(w0)
        dev1.append(w1)
    for devs in (dev0, dev1):
        slope = np.polyfit(np.log(eps_values), np.log(devs), 1)[0]
        assert slope >= 0.9


def test_secondorder_item3_convex_combination_rate():
    # C1 family with continuous F'' and jumping F''': the quoted weight
    # formula then holds to O(delta).
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.0, Poly((0.1, 0.5, 0.6))),
         (0.0, 1.0, Poly((0.1, 0.5, 0.6, 1.0)))],
        kinks=[(0.0, 3)],
    )
    deltas = (0.2, 0.1, 0.05, 0.025)
    devs = []
    for d in deltas:
        seg = hermite_quintic(curve.jet(-d), curve.jet(d), d)
        cm, cp = curve.jet(-d).d2, curve.jet(d).d2
        worst = 0.0
        for a in np.linspace(-d, d, 101):
            ptilde = 5 * a**3 / (4 * d**3) - 3 * a / (4 * d)
            claim = (2 - ptilde) / 4 * cm + (2 + ptilde) / 4 * cp
            worst = max(worst, abs(seg.jet_local(a).d2 - claim))
        devs.append(worst)
    slope = np.polyfit(np.log(deltas), np.log(devs), 1)[0]
    assert slope >= 0.9


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------


def test_bad_windows_rejected():
    with pytest.raises(PreconditionError):
        hermite_cubic(Jet3(0.0, 0.0), Jet3(0.0, 0.0), -1.0)
    with pytest.raises(PreconditionError):
        smooth_c1(absval(), 0.0, 2.0)  # exits domain
    with pytest.raises(PreconditionError):
        two_stage_smooth(absval(), 0.0, 0.1, 0.2)  # delta >= eps
    stage1 = smooth_c1(absval(), 0.0, 0.5)
    with pytest.raises(PreconditionError):
        smooth_c2(stage1, (-0.5, 0.5), 0.6)  # overlapping windows


def with_marked_point(x):
    """absval() with a declared order-3 kink at ``x``, where it is smooth."""
    pieces = [(-1.0, 0.0, Poly((0.0, -1.0))), (0.0, 1.0, Poly((0.0, 1.0)))]
    i = 0 if x < 0.0 else 1
    (a, b, node), marks = pieces[i], sorted([(0.0, 1), (x, 3)])
    pieces[i:i + 1] = [(a, x, node), (x, b, node)]
    return Jet3Curve.piecewise(pieces, kinks=marks)


@pytest.mark.parametrize("x, center, width", [
    (0.05, 0.0, 0.1),     # stage 1
    (-0.115, -0.1, 0.02),  # stage 2, left
    (0.11, 0.1, 0.02),     # stage 2, right
])
def test_two_stage_refuses_a_foreign_kink_in_each_stage_window(x, center, width):
    window = f"[{center - width!r}, {center + width!r}]"
    with pytest.raises(PreconditionError) as info:
        two_stage_smooth(with_marked_point(x), 0.0, 0.1, 0.02)
    message = str(info.value)
    assert message == (f"smoothing window {window}: foreign kink at {x!r} "
                       "(order 3) lies inside the window")
    assert message.count(window) == 1


@pytest.mark.parametrize("center, width, end", [
    (0.0, 0.1, 0),    # stage 1, left end
    (0.0, 0.1, 1),    # stage 1, right end
    (-0.1, 0.02, 0),  # stage 2, left window's left end
    (0.1, 0.02, 1),   # stage 2, right window's right end
])
def test_two_stage_refuses_a_kink_at_a_stage_window_end(center, width, end):
    window = (center - width, center + width)
    with pytest.raises(PreconditionError) as info:
        two_stage_smooth(with_marked_point(window[end]), 0.0, 0.1, 0.02)
    message = str(info.value)
    assert message.startswith(f"smoothing window [{window[0]!r}, {window[1]!r}] "
                              f"ends on the kink at {window[end]!r}")
    assert "pass side=" not in message


def lossy(solve, k):
    """``solve`` with the order-``k`` coefficient off by 1e-6."""
    def wrapped(left, right, width):
        seg = solve(left, right, width)
        coeffs = list(seg.coefficients)
        coeffs[k] += 1e-6
        return SplineSegment(seg.half_width, tuple(coeffs))
    return wrapped


@pytest.mark.parametrize("name, k, run, window", [
    ("hermite_cubic", 0, lambda: smooth_c1(absval(), 0.0, 0.5), "[-0.5, 0.5]"),
    ("hermite_cubic", 1, lambda: smooth_c1(absval(), 0.0, 0.5), "[-0.5, 0.5]"),
    ("hermite_quintic", 2,
     lambda: smooth_c2(smooth_c1(absval(), 0.0, 0.5), (-0.5, 0.5), 0.1),
     "[-0.6, -0.4]"),
])
def test_a_solve_that_loses_endpoint_data_is_refused(monkeypatch, name, k, run,
                                                     window):
    monkeypatch.setattr(spline, name, lossy(getattr(spline, name), k))
    with pytest.raises(PreconditionError) as info:
        run()
    assert str(info.value).startswith(f"smoothing window {window}: pieces mismatch")
    assert type(info.value) is type(info.value.__cause__) is PreconditionError


def test_a_window_outside_the_domain_names_the_window():
    with pytest.raises(DomainError) as info:
        smooth_c1(absval(), 0.0, 2.0)
    assert str(info.value).startswith("smoothing window [-2.0, 2.0]: ")
    assert type(info.value.__cause__) is DomainError


def test_smooth_c2_rejects_corner_input():
    with pytest.raises(PreconditionError):
        smooth_c2(absval(-2.0, 2.0), (0.0, 1.0), 0.1)  # order-1 kink at 0
