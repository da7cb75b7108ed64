"""Named metric families and the multi-step construction procedures.

Three builds live here:

* the boundary-sphere profile (k, h): a nearly-constant k joined by a
  two-stage-smoothed corner to a cosine arc closing at s = T, and a sine arc
  h flattening to the constant R, with every profile condition checked
  numerically and reported. It is built in two halves: h, its breakpoints
  T2 and T3 and every check that reads only h depend on R alone
  (:func:`make_profile_h`), and k and the checks that read it depend on nu
  and b1 as well (:func:`make_boundary_profile`, which takes the first
  half). An isotopy run builds the first half once, and every probe of a
  nu search builds the second on it;
* the two-stage Ricci-positive isotopy from that profile to the round
  metric, as affine paths of warping functions;
* the concordance cylinder ``dt^2 + t^2 rho^2(t) g_{lambda(t)}`` with its
  closed-form schedule, curvature-bound certificates, and the deterministic
  parameter search (r1, r0, then t0 doubling).

Constructing any object with a violated numeric condition raises
``ConditionError`` carrying the full report; nothing passes silently.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConditionError, PreconditionError, SearchError
from .jetcurve import (
    Cos,
    ExpOf,
    Jet3,
    Jet3Curve,
    Log,
    Poly,
    Recip,
    Scale,
    Sin,
    Sum,
    _first,
    constant,
)
from .spline import hermite_quintic, two_stage_smooth
from .verify import GridSpec, PositivityCertificate, bisect_param, grid_min
from .warped import WarpedMetricPath, closure_defect

__all__ = [
    "ConditionCheck",
    "ConditionReport",
    "ProfileH",
    "make_profile_h",
    "BoundaryProfile",
    "make_boundary_profile",
    "IsotopyTarget",
    "make_isotopy_target",
    "isotopy_stage1",
    "isotopy_stage2",
    "RoundRadiusPath",
    "ConcordanceParams",
    "concordance_schedule",
    "gamma_weight",
    "sample_schedule",
    "estimate_C",
    "concordance_search",
    "TriangleSolution",
    "solve_geodesic_triangle",
]


# ---------------------------------------------------------------------------
# condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    margin: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self))  # flat fields; asdict's deep copy costs 40x


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    def raise_if_failed(self, context: str):
        if not self.passed:
            bad = ", ".join(f"{c.name} (margin {c.margin:.3e})"
                            for c in self.checks if not c.passed)
            raise ConditionError(f"{context}: failed condition(s): {bad}", report=self)


def _check(name, margin, note="") -> ConditionCheck:
    return ConditionCheck(name, float(margin), bool(margin > 0.0), note)


def _grid_extreme(fn, lo, hi, reduce=np.min):
    """``reduce`` of the array function ``fn`` on _CHECK_COUNT points of [lo, hi]."""
    return reduce(fn(np.linspace(lo, hi, _CHECK_COUNT)))


# ---------------------------------------------------------------------------
# piecewise-polynomial assembly for concave dives
# ---------------------------------------------------------------------------


_BUMP_NORM = 256.0 / 315.0  # integral of (1 - x^2)^4 over [-1, 1]


# Piecewise polynomials below are lists of (lo, hi, center, coeffs), with
# coefficients ascending in (s - center), for exact integration.


def _antiderivative(pieces):
    """The continuous antiderivative that vanishes at the first piece's start."""
    out, running = [], 0.0
    for lo, hi, c, coef in pieces:
        anti = [0.0] + [a / (i + 1) for i, a in enumerate(coef)]
        anti[0] += running - Poly(tuple(anti), c).jet(lo).value
        running = Poly(tuple(anti), c).jet(hi).value
        out.append((lo, hi, c, anti))
    return out


def _scaled_shifted(pieces, scale: float, shift: float):
    return [(lo, hi, c, [scale * a + (shift if i == 0 else 0.0)
                         for i, a in enumerate(coef)])
            for lo, hi, c, coef in pieces]


def _bump_coeffs(amplitude: float, width: float):
    """amplitude * (1 - (u / width)^2)^4, ascending in u."""
    out = [0.0] * 9
    for j in range(5):
        out[2 * j] = amplitude * math.comb(4, j) * (-1.0) ** j / width ** (2 * j)
    return out


def _dive_curve(lo: float, T: float, anchor, floor, floor_mass: float,
                bump_center: float, bump_width: float) -> Jet3Curve:
    """Concave k on [lo, T]: k(x) = v at ``anchor = (x, v)``, x being lo or
    T, and k'(lo) = 0, k'(T) = -1, k''(T) = 0.

    Built as a constant minus the double integral of w = floor + bump,
    with ``floor`` one polynomial ``(center, coeffs)`` on all of [lo, T].
    The bump amplitude makes k'(T) = -1, and as the integral of (T - s) *
    bump is (T - c) * mass, the caller's value pin is affine in the bump
    center c, placed by one secant step. The floor keeps k'' < 0 outside it.
    """
    mass = 1.0 - floor_mass
    if mass <= 0.0:
        raise PreconditionError("dive bump mass must be positive")
    c, W = bump_center, bump_width
    fc, fcoef = floor
    bump = _bump_coeffs(mass / (W * _BUMP_NORM), W)
    for i, a in enumerate(_recenter(fcoef, fc, c)):
        bump[i] += a
    w = [(lo, c - W, fc, fcoef), (c - W, min(T, c + W), c, bump)]
    if c + W < T:
        w.append((c + W, T, fc, fcoef))
    w1 = _antiderivative(w)                  # integral of w from lo
    kp = _scaled_shifted(w1, -1.0, 0.0)      # k' = -integral
    k = _antiderivative(kp)
    x, v = anchor
    _, _, ca, coef = k[0] if x == lo else k[-1]
    k = _scaled_shifted(k, 1.0, v - Poly(tuple(coef), ca).jet(x).value)
    return Jet3Curve.piecewise([(a, b, Poly(tuple(coef), center=c))
                                for a, b, c, coef in k])


def _recenter(coeffs, old_center: float, new_center: float):
    """Rewrite sum c_i (s - old)^i in powers of (s - new)."""
    d = new_center - old_center
    out = [0.0] * len(coeffs)
    for i, a in enumerate(coeffs):
        # (s - old)^i = ((s - new) + d)^i
        for j in range(i + 1):
            out[j] += a * math.comb(i, j) * d ** (i - j)
    return out


def _solve_dive_center(build, residual, lo: float, hi: float, what: str):
    """``(center, build(center))`` with the dive meeting its value pin.

    The residual is affine in the center, so one secant step from the
    bracket builds lands on its root; a residual above 1e-12 there raises.
    """
    f_lo, f_hi = residual(build(lo)), residual(build(hi))
    if not (f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo):
        raise ConditionError(
            f"{what}: dive does not fit (residual {f_lo:.3e} at {lo!r}, "
            f"{f_hi:.3e} at {hi!r}); the value pin exceeds the room left "
            "after T2", report=None)
    center = lo if f_lo == 0.0 else lo + (hi - lo) * f_lo / (f_lo - f_hi)
    curve = build(center)
    f = residual(curve)
    if not abs(f) <= 1e-12:  # NaN included
        raise ConditionError(f"{what}: residual {f:.3e} at the secant center "
                             f"{center!r} exceeds 1e-12", report=None)
    return center, curve


# ---------------------------------------------------------------------------
# boundary-sphere profile
# ---------------------------------------------------------------------------


# Window sizes, bump geometry and check insets of the profile synthesis.
# The two-stage spline pipeline smooths only the genuine corner of k at s_c;
# the near-equality pieces (the h flattening and the dives) are C2 by
# construction, because exact Hermite windows overshoot their endpoint
# curvature hulls by a fixed fraction of the spike, which would break the
# h''/h and k'' sign clauses at these scales.
_EPS_K = 0.06
_DELTA_K = 0.012
_H_ARC_CAP = 1.45
_BRIDGE_BACK = 0.11
_BUMP_HALFWIDTH = 0.10  # of the dive bumps of k and of the target's k1
_FLOOR_FRAC = 0.5
_TOL_R_FRAC = 1e-3
_CHECK_COUNT = 384  # points of each sampled condition check
_ONSET_COUNT = 2048  # points of the T1 and T2 onset scans
_INSET_FRAC = 0.01


@dataclass(frozen=True)
class ProfileH:
    """The half of the boundary profile that depends on R alone: h, its
    breakpoints and the checks that read only h.

    ``checks`` maps each check name to its ConditionCheck.
    """

    R: float
    s_j: float
    T2: float
    T3: float
    h: Jet3Curve
    checks: dict


def make_profile_h(R: float) -> ProfileH:
    """Synthesize h on [0, pi R / 2] and run the checks that read only h.

    h is the arc a sin(s/a) flattened onto the constant R by a single C2
    quintic bridge. An isotopy run builds this once and hands it to every
    probe's :func:`make_boundary_profile`.
    """
    if not R > 1.0:
        raise PreconditionError(f"R must exceed 1, got {R!r}")
    T = 0.5 * math.pi * R
    a = min(_H_ARC_CAP * R, 0.92 * math.sqrt(5.0 * R))
    if a <= 1.02 * R:
        raise PreconditionError(
            f"no admissible h arc radius: a = {a!r} vs R = {R!r}"
        )
    s_j = a * math.asin(R / a) - _BRIDGE_BACK
    h_j = a * math.sin(s_j / a)
    slope_j = math.cos(s_j / a)
    w_br = 2.0 * (R - h_j) / slope_j
    T3 = s_j + w_br
    if T3 >= T:
        raise PreconditionError("h bridge exits the domain")
    seg = hermite_quintic(
        Jet3(h_j, slope_j, -math.sin(s_j / a) / a),
        Jet3(R, 0.0, 0.0), 0.5 * w_br)
    h = Jet3Curve.piecewise(
        [(0.0, s_j, Sin(a, 1.0 / a)),
         (s_j, T3, Poly(seg.coefficients, center=0.5 * (s_j + T3))),
         (T3, T, constant(R))],
        kinks=[(s_j, 3), (T3, 3)],
    )
    T2 = _near_R_onset(h, R, _TOL_R_FRAC * R, s_j, T3)
    eta = _INSET_FRAC
    checks = [
        _check("h_closes_at_0",
               1e-9 - closure_defect(h, 0.0, 1.0),
               "h(0)=0, h'(0)=1, h''(0)=0"),
        _check("h_concave_before_T2",
               _grid_extreme(lambda s: -h.jet(s).d2,
                             eta * T2, T2 - eta * (T3 - T2)),
               "h'' < 0 on (0, T2), checked with insets"),
        _check("h_near_R_after_T2",
               _TOL_R_FRAC * R
               - _grid_extreme(lambda s: abs(h.value(s) - R), T2, T,
                               reduce=np.max),
               "|h - R| small beyond T2"),
        _check("h_flat_after_T3",
               1e-12 - _grid_extreme(lambda s: abs(h.value(s) - R), T3, T,
                                     reduce=np.max),
               "h identically R beyond T3"),
        _check("h1_concave_before_T3",
               _grid_extreme(lambda s: -h.jet(s).d2,
                             eta * T3, T3 - eta * (T - T3)),
               "h1'' < 0 on (0, T3), checked with insets"),
    ]
    return ProfileH(R=R, s_j=s_j, T2=T2, T3=T3, h=h,
                    checks={c.name: c for c in checks})


@dataclass(frozen=True)
class BoundaryProfile:
    """Warping functions of the boundary sphere with their condition report;
    ``part`` is the R-only half it was built from."""

    k: Jet3Curve
    h: Jet3Curve
    R: float
    nu: float
    b1: float
    T0: float
    T1: float
    T2: float
    T3: float
    T: float
    s_c: float
    s_j: float
    report: ConditionReport
    part: ProfileH


def make_boundary_profile(part: ProfileH, nu: float, b1: float) -> BoundaryProfile:
    """Synthesize (k, h) on [0, pi R / 2] and verify every profile condition.

    k is cos(b1)(1 + nu (s/s_c)^4) meeting a concave dive at s_c in a genuine
    corner that the two-stage spline pipeline smooths; the dive is a strictly
    concave bump-integral closing with k(T) = 0, k'(T) = -1, even orders
    zero. R, h and the checks that read only h come from ``part``, the
    :func:`make_profile_h` of R. The total length pi R / 2 makes the
    profile concatenable with the round path of radius R.
    """
    R = part.R
    if not 0.0 < nu < 1.0:
        raise PreconditionError(f"nu must lie in (0, 1), got {nu!r}")
    if not 0.0 < b1 < 0.5 * math.pi:
        raise PreconditionError(f"b1 must lie in (0, pi/2), got {b1!r}")

    T = 0.5 * math.pi * R
    cb = math.cos(b1)
    k_c = cb * (1.0 + nu)
    s_c = T - 0.5 * math.pi * k_c
    eps_k, delta_k = _EPS_K, _DELTA_K
    if s_c <= eps_k + delta_k:
        raise PreconditionError(f"k smoothing window does not fit: s_c = {s_c!r}")

    if part.s_j <= s_c - eps_k:
        raise PreconditionError(
            f"h bridge (s_j = {part.s_j!r}) would start before the k corner zone"
        )

    # k: quartic rise to (s_c, k_c), corner onto a strictly concave dive.
    lam = T - s_c
    c_nu = _FLOOR_FRAC * nu * cb
    floor_mass = 0.5 * c_nu * lam
    w0 = _BUMP_HALFWIDTH
    lo_c = s_c + eps_k + delta_k + w0 + 0.01
    hi_c = T - w0
    if lo_c >= hi_c:
        raise PreconditionError("no room for the k dive bump")

    def build_dive(center):
        return _dive_curve(s_c, T, (s_c, k_c), (T, (0.0, -c_nu / lam)),
                           floor_mass, center, w0)

    _, dive = _solve_dive_center(build_dive, lambda kd: kd.jet(T).value,
                                 lo_c, hi_c, "profile k dive")
    flat = Poly((cb, 0.0, 0.0, 0.0, cb * nu / s_c ** 4))
    k_raw = Jet3Curve.piecewise(
        [(0.0, s_c, flat)] + [(plo, phi, n) for plo, phi, n in dive.pieces],
        kinks=[(s_c, 1)],
    )
    k = two_stage_smooth(k_raw, s_c, eps_k, delta_k)

    T0 = s_c - eps_k - delta_k
    T1 = _last_nonneg_d2(k, T0, s_c + eps_k + 2.0 * delta_k) + delta_k

    report = _profile_report(k, part, nu, b1, T0, T1, T)
    profile = BoundaryProfile(k=k, h=part.h, R=R, nu=nu, b1=b1, T0=T0, T1=T1,
                             T2=part.T2, T3=part.T3, T=T, s_c=s_c,
                             s_j=part.s_j, report=report, part=part)
    report.raise_if_failed("boundary profile synthesis")
    return profile


def _last_nonneg_d2(curve: Jet3Curve, lo: float, hi: float) -> float:
    s = np.linspace(lo, hi, _ONSET_COUNT)
    hits = np.flatnonzero(curve.jet(s).d2 >= 0.0)
    worst = float(s[hits[-1]]) if hits.size else lo
    return worst + (hi - lo) / (_ONSET_COUNT - 1)


def _near_R_onset(h: Jet3Curve, R: float, tol: float, lo: float, hi: float) -> float:
    """Smallest s of the sample run down from ``hi`` with |h - R| <= tol."""
    s = np.linspace(hi, lo, _ONSET_COUNT)
    far = np.abs(h.value(s) - R) > tol
    first_far = int(np.argmax(far)) if far.any() else _ONSET_COUNT
    return float(s[first_far - 1]) if first_far else hi


def _profile_report(k, part, nu, b1, T0, T1, T) -> ConditionReport:
    cb = math.cos(b1)
    eta = _INSET_FRAC
    h, R, T2, T3, h_checks = part.h, part.R, part.T2, part.T3, part.checks

    checks = [
        _check("order_T0<T1<T2<T3<T",
               min(T1 - T0, T2 - T1, T3 - T2, T - T3), "breakpoint ordering"),
        _check("k_near_const_before_T0",
               nu * cb * (1.0 + 1e-9)
               - _grid_extreme(lambda s: abs(k.value(s) - cb), 0.0, T0,
                               reduce=np.max),
               "max |k - cos b1| within nu cos b1"),
        _check("k_even_at_0",
               1e-9 - max(abs(k.jet(0.0).d1), abs(k.jet(0.0).d3)),
               "odd derivatives vanish at s=0"),
        _check("k_concave_after_T1",
               _grid_extreme(lambda s: -k.jet(s).d2,
                             T1, T - eta * (T - T1)),
               "k'' < 0 on (T1, T), checked with a 1% inset at T"),
        _check("k_closes_at_T",
               1e-8 - closure_defect(k, T, -1.0),
               "k(T)=0, k'(T)=-1, k''(T)=0"),
        _check("k_slope_bounded",
               1e-9 + 1.0 - _grid_extreme(lambda s: abs(k.jet(s).d1), 0.0, T,
                                          reduce=np.max),
               "|k'| <= 1"),
        h_checks["h_closes_at_0"],
        _check("h_ratio_before_T1",
               _grid_extreme(lambda s: -h.jet(s).d2 / h.value(s) - 1.0 / (5.0 * R),
                             eta * T1, T1),
               "-h''/h > 1/(5R) on (0, T1]"),
        h_checks["h_concave_before_T2"],
        h_checks["h_near_R_after_T2"],
        h_checks["h_flat_after_T3"],
    ]
    return ConditionReport(tuple(checks))


# ---------------------------------------------------------------------------
# stage-1 target (the pair the isotopy interpolates toward)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsotopyTarget:
    """The k1 the stage-1 isotopy deforms the profile's k onto; h stays the
    profile's."""

    k1: Jet3Curve
    report: ConditionReport


# The slope of the target k1's floor reaches this fraction of nu cos b1 at T2.
_SLOPE_FRAC = 0.35


def make_isotopy_target(profile: BoundaryProfile) -> IsotopyTarget:
    """Synthesize k1 for the profile and verify the target conditions.

    k1 is strictly concave by construction: minus the double integral of a
    small even floor (which keeps k1' strictly inside (-nu cos b1, 0) up to
    T2 and k1'' < 0 everywhere) plus a bump after T2 that performs the dive,
    anchored at k1(T) = 0, its center placed by one secant step on the
    residual k1(T1) - k0(T1), which is affine in it. h stays the profile's,
    which already satisfies the stronger concavity clause.
    """
    T, T1, T2 = profile.T, profile.T1, profile.T2
    nu, cb = profile.nu, math.cos(profile.b1)

    gamma = _SLOPE_FRAC * nu * cb / (T2 - T2 ** 3 / (3.0 * T ** 2))
    floor_mass = 2.0 * gamma * T / 3.0
    w_b = _BUMP_HALFWIDTH
    v1 = profile.k.value(T1)
    lo_c = T2 + w_b + 0.01
    hi_c = T - w_b
    if lo_c >= hi_c:
        raise PreconditionError("no room for the k1 dive bump after T2")

    def build(center):
        return _dive_curve(0.0, T, (T, 0.0), (0.0, (gamma, 0.0, -gamma / T ** 2)),
                           floor_mass, center, w_b)

    _, k1 = _solve_dive_center(build, lambda k: k.value(T1) - v1,
                               lo_c, hi_c, "k1 dive")
    report = _target_report(profile, k1, nu, cb)
    target = IsotopyTarget(k1=k1, report=report)
    report.raise_if_failed("isotopy target synthesis")
    return target


def _target_report(profile: BoundaryProfile, k1, nu, cb) -> ConditionReport:
    T, T1, T2 = profile.T, profile.T1, profile.T2
    eta = _INSET_FRAC

    def slope_band(s):
        d1 = k1.jet(s).d1
        return np.minimum(-d1, nu * cb + d1)

    checks = [
        _check("k1_even_at_0",
               1e-9 - max(abs(k1.jet(0.0).d1), abs(k1.jet(0.0).d3)),
               "k1 odd derivatives vanish at 0"),
        _check("k1_closes_at_T",
               1e-8 - closure_defect(k1, T, -1.0),
               "k1(T)=0, k1'(T)=-1, k1''(T)=0"),
        _check("k1_matches_k0_at_T1",
               1e-8 - abs(k1.value(T1) - profile.k.value(T1)),
               "k1(T1) = k0(T1)"),
        _check("k1_concave",
               _grid_extreme(lambda s: -k1.jet(s).d2, 0.0, T - eta * T),
               "k1'' < 0 on [0, T)"),
        _check("k1_slope_band_to_T2",
               _grid_extreme(slope_band, eta * T2, T2),
               "-nu cos b1 < k1' < 0 on (0, T2]"),
        _check("k1_positive",
               _grid_extreme(lambda s: k1.value(s), 0.0, T - eta * T),
               "k1 > 0 before T"),
        profile.part.checks["h1_concave_before_T3"],
    ]
    return ConditionReport(tuple(checks))


# ---------------------------------------------------------------------------
# isotopy stages
# ---------------------------------------------------------------------------


def isotopy_stage1(profile: BoundaryProfile, target: IsotopyTarget,
                   m: int, n: int) -> WarpedMetricPath:
    """Affine path from the profile metric to (k1, h) over lambda in [0, 1]."""
    target.report.raise_if_failed("isotopy stage 1 target")
    return WarpedMetricPath(
        k0=profile.k, k1=target.k1, h0=profile.h, h1=profile.h,
        m=m, n=n, start_kind="closed_h", end_kind="closed_k",
        lam_range=(0.0, 1.0),
    )


def isotopy_stage2(k1: Jet3Curve, h1: Jet3Curve, R: float,
                   m: int, n: int) -> WarpedMetricPath:
    """Affine path from (k1, h1) to the round warpings of radius R.

    Requires the domain [0, pi R/2] and weak concavity of both inputs; the
    round end then forces |k'|, |h'| <= 1 along the whole path.
    """
    T = 0.5 * math.pi * R
    lo, hi = k1.domain
    if abs(lo) > 1e-9 or abs(hi - T) > 1e-9:
        raise PreconditionError(
            f"stage-2 domain must be [0, pi R/2] = [0, {T!r}], got {k1.domain!r}"
        )
    for name, curve in (("k1", k1), ("h1", h1)):
        worst = _grid_extreme(lambda s, c=curve: -c.jet(s).d2,
                              1e-3 * T, T - 1e-3 * T)
        if worst < -1e-9:
            raise PreconditionError(
                f"{name} is not weakly concave: min(-{name}'') = {worst:.3e}"
            )
    k_round = Jet3Curve.from_node(Cos(R, 1.0 / R), (0.0, T))
    h_round = Jet3Curve.from_node(Sin(R, 1.0 / R), (0.0, T))
    return WarpedMetricPath(
        k0=k1, k1=k_round, h0=h1, h1=h_round,
        m=m, n=n, start_kind="closed_h", end_kind="closed_k",
        lam_range=(1.0, 2.0),
    )


# ---------------------------------------------------------------------------
# concordance cylinder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRadiusPath:
    """Slice family r(lam)^2 ds_n^2: round n-spheres of varying radius."""

    r: Jet3Curve
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError(f"need n >= 2, got {self.n}")
        if self.r.domain != (0.0, 1.0):
            raise PreconditionError("radius curve must live on [0, 1]")
        lam = np.linspace(0.0, 1.0, 65)
        bad = _first(~(self.r.value(lam) > 0.0), lam)
        if bad:
            raise PreconditionError(f"radius vanishes at lambda={bad[0]!r}")

    def min_ricci(self, grid: GridSpec,
                  threshold: float = 1e-6) -> PositivityCertificate:
        return grid_min(
            lambda level: (self.n - 1) / self.r.jet(level.points[:, 0]).value ** 2,
            grid, threshold=threshold, quantity_id="path_min_ricci",
            batched=True,
        )


@dataclass(frozen=True)
class ConcordanceParams:
    """Chosen constants of the concordance metric G = dt^2 + t^2 rho^2 g_lam."""

    t0: float
    t1: float
    r0: float
    r1: float
    nu: float
    C: float

    def __post_init__(self):
        if not 1.0 < self.t0 < self.t1:
            raise PreconditionError(f"need 1 < t0 < t1, got {self.t0!r}, {self.t1!r}")
        if not 0.0 < self.r0 < self.r1 < 1.0:
            raise PreconditionError(f"need 0 < r0 < r1 < 1, got {self.r0!r}, {self.r1!r}")
        if not 2.0 * self.r1 < self.nu:
            raise PreconditionError(f"need 2 r1 < nu, got r1={self.r1!r}, nu={self.nu!r}")
        if not math.log(self.r1) - math.log(self.r0) > self.C:
            raise PreconditionError("need ln r1 - ln r0 > C")

    @property
    def alpha(self) -> float:
        return 1.0 / math.log(self.t0) - 1.0 / math.log(self.t1)

    @property
    def beta(self) -> float:
        return self.alpha / (math.log(self.r1) - math.log(self.r0))

    @property
    def end_radius_factor(self) -> float:
        # G scaled by (1 / (t0 r1))^2 makes the t0 slice g_0 and the t1
        # slice R^2 g_1 with R = t1 r0 / (t0 r1).
        return self.t1 * self.r0 / (self.t0 * self.r1)

    def to_dict(self) -> dict:
        return {"t0": self.t0, "t1": self.t1, "r0": self.r0, "r1": self.r1,
                "nu": self.nu, "C": self.C, "alpha": self.alpha,
                "beta": self.beta, "R": self.end_radius_factor}


def gamma_weight(t):
    """Gamma(t) = 1 / (t ln^2 t), the common speed of both schedules."""
    u = np.log(t)
    return 1.0 / (t * u * u)


def sample_schedule(p: ConcordanceParams, rho: Jet3Curve, lam: Jet3Curve,
                    count: int):
    """``(t, lam(t), rho(t), residual)`` at ``count`` log-uniform t on
    [t0, t1], where residual = max(|alpha lam' - Gamma|, |beta rho'/rho + Gamma|)
    is the defect of the schedule ODEs at each point."""
    t = np.exp(np.linspace(math.log(p.t0), math.log(p.t1), count))
    jl, jr, g = lam.jet(t), rho.jet(t), gamma_weight(t)
    residual = np.maximum(np.abs(p.alpha * jl.d1 - g),
                          np.abs(p.beta * jr.d1 / jr.value + g))
    return t, jl.value, jr.value, residual


def concordance_schedule(p: ConcordanceParams):
    """The unique (rho, lambda) bijections with alpha lam' = -beta rho'/rho = Gamma.

    Closed forms: lam(t) = (1/alpha)(1/ln t0 - 1/ln t) and
    ln rho(t) = ln r1 - (1/beta)(1/ln t0 - 1/ln t). Returns (rho, lam) as
    curves on [t0, t1]; the defining residuals are re-checked on a dense
    log-uniform grid and must stay below 1e-10.
    """
    alpha, beta = p.alpha, p.beta
    l0 = math.log(p.t0)
    dom = (p.t0, p.t1)
    lam = Jet3Curve.from_node(
        Sum((Poly((1.0 / (alpha * l0),)),
             Scale(Recip(Log(1.0)), -1.0 / alpha))), dom)
    rho = Jet3Curve.from_node(
        Scale(ExpOf(Scale(Recip(Log(1.0)), 1.0 / beta)),
              p.r1 * math.exp(-1.0 / (beta * l0))), dom)

    worst = float(np.max(sample_schedule(p, rho, lam, 1000)[3]))
    if not worst <= 1e-10:
        raise ConditionError(
            f"schedule residuals {worst:.3e} exceed 1e-10", report=None
        )
    return rho, lam


def estimate_C(path: RoundRadiusPath, grid: GridSpec) -> float:
    """Numerical bound for the slice-family constant C of the cylinder bounds.

    C dominates |II| and |d/ds II| of ds^2 + g_s over the path, in unit
    frames. Round-radius paths have II = r'/r and no mixed Ricci term. The
    supremum over the grid is inflated by 1.1 and floored at 1e-6.
    """
    (lo, hi, count), = grid.axes
    j = path.r.jet(np.linspace(lo, hi, count))
    b = j.d1 / j.value
    db = j.d2 / j.value - b * b
    return max(1.1 * float(max(np.max(np.abs(b)), np.max(np.abs(db)))), 1e-6)


# Doublings of t0 (from 4) before the concordance search gives up.
_MAX_DOUBLINGS = 400


def concordance_search(path: RoundRadiusPath, nu: float, *, t_count: int = 160,
                       theta_count: int = 48, cert_depth: int = 1,
                       threshold: float = 1e-6):
    """Deterministic parameter search for the concordance metric over a
    round-radius slice family; any other path type raises PreconditionError.

    Picks r1 (0.9 of the binding bound among 2 r1 < nu and
    Ric_min > 2 r1^2), r0 = r1 exp(-(C+1)), then doubles t0 until the
    normalized curvature bounds certify positive Ricci over
    (theta, ln t) in both theta regimes split at theta0 (the largest angle
    where the time-coefficient inequality still dominates the mixed term;
    SearchError if there is none) and the boundary principal-curvature
    margins hold: > -nu at the scaled t0 end, > 0 at t1 = t0^2. Returns
    (params, certificates, boundary margins). Certificate grids past the
    scan budget raise ScenarioError before the first doubling.

    All bounds are the Gamma/alpha/beta curvature-bound expressions of the
    cylinder, multiplied by t^2 so margins are O(1); the
    mixed term enters with its polarization factor 2.
    """
    if not isinstance(path, RoundRadiusPath):
        raise PreconditionError(f"unsupported path type {type(path).__name__}")
    if not 0.0 < nu < 1.0:
        raise PreconditionError(f"nu must lie in (0, 1), got {nu!r}")
    # Every doubling certifies theta_count x t_count grids at cert_depth:
    # building one refuses a grid past the scan budget before any doubling.
    GridSpec.box([(0.0, 1.0, theta_count), (0.0, 1.0, t_count)], depth=cert_depth)
    n = path.n
    path_grid = GridSpec.line(0.0, 1.0, 257)

    path_cert = path.min_ricci(path_grid, threshold)
    if not path_cert.passed:
        raise PreconditionError(
            f"slice metrics are not Ricci-positive (min {path_cert.min_margin:.3e})"
        )
    ric_min = path_cert.min_margin
    # Round slices: every sectional curvature is 1/r^2.
    sec_min = float(np.min(1.0 / path.r.value(np.linspace(*path_grid.axes[0])) ** 2))

    r1 = 0.9 * min(0.5 * nu, math.sqrt(0.5 * ric_min))
    C = estimate_C(path, path_grid)
    r0 = r1 * math.exp(-(C + 1.0))
    if not r0 > 0.0:
        raise PreconditionError(
            f"r0 = r1 exp(-(C + 1)) underflows to 0 (C = {C:.3e}, r1 = {r1:.3e})")
    L = math.log(r1) - math.log(r0)  # = C + 1

    # Each bound is a sum of three products of a theta factor and a u
    # factor, so a scan level's open mesh takes the transcendentals once per
    # axis value, not once per point. The factors are computed on arrays
    # only: numpy's array exp, sin, cos and powers give the same bits for
    # any layout of their input, while a scalar power need not.
    def theta_factors(theta):
        ct, st = np.cos(theta), np.sin(theta)
        return ct * ct, 2.0 * np.abs(st * ct), st * st

    def ell_terms(ell):
        """The terms of the bounds that depend on ``ell = ln t0`` alone."""
        alpha = 0.5 / ell
        beta = alpha / L
        inv_a, inv_b = 1.0 / alpha, 1.0 / beta
        return (1.0 / ell, inv_a, inv_b, inv_b - C * inv_a,
                4.0 * (inv_b + C * inv_a) ** 2, inv_a + inv_b, (inv_a + inv_b) ** 2)

    def u_factors(u, terms):
        """(time, mixed, space) bounds at ``u = ln t``, multiplied by t^2,
        from one ``ell_terms`` or from columns of them, one row per t0."""
        inv_ell, inv_a, inv_b, time_lin, time_sq, space_lin, space_sq = terms
        rho = r1 * np.exp(-inv_b * (inv_ell - 1.0 / u))
        shape = 1.0 / u**2 - 2.0 / u**3
        sec_time = time_lin * shape - time_sq / u**4
        b_time = n * sec_time
        sec_space = (sec_min / rho**2 - 1.0
                     - C * (space_lin / u**2 + space_sq / u**4))
        b_space = sec_time + (n - 1) * sec_space
        b_mixed = C * inv_a / (u * u * rho)
        return b_time, b_mixed, b_space

    def bound(a, b):
        """cos^2 b_time - 2 |sin cos| b_mixed + sin^2 b_space, broadcast."""
        return a[0] * b[0] - a[1] * b[1] + a[2] * b[2]

    def split_ok(theta):
        ct, st = math.cos(theta), math.sin(theta)
        return (ct * ct * n * (L - C) - st * ct * C / r0) > (L - C)

    # theta0 does not depend on t0, so it is bisected once, before the doublings.
    if not split_ok(1e-9):
        raise SearchError(
            "no theta split: theta0 = 0, because the time-coefficient inequality "
            f"fails at theta -> 0 (n = {n}, C = {C:.3e}, r0 = {r0:.3e})")
    theta0 = bisect_param(split_ok, 1e-9, 0.5 * math.pi - 1e-9, tol=1e-6)

    # The doublings come in chunks of 40, each taken only when the search
    # reaches it: both end margins of the chunk as arrays, then a cheap
    # Ricci gate where both hold. The gate is the least over 33 u in
    # [ell, 2 ell] of the bound's exact minimum over theta in [0, pi/2]:
    # with phi = 2 theta the bound is c + A cos phi - b_mixed sin phi, where
    # c and A are the half sum and half difference of b_time and b_space,
    # and b_mixed > 0 puts the minimum c - sqrt(A^2 + b_mixed^2) inside the
    # range. A gate row depends on its own doubling alone, so it has the
    # same bits in any chunk. The chunk's doublings that clear all three are
    # certified in order. The trace holds one row per doubling reached: t0,
    # both end margins, and the gate (None where an end margin failed), so
    # an exhausted search has computed and traces every row.
    trace = []
    for start in range(0, _MAX_DOUBLINGS, 40):
        t0s = [4.0 * 2.0**i for i in range(start, min(start + 40, _MAX_DOUBLINGS))]
        ells = np.array([math.log(t) for t in t0s])
        margins_t0 = nu - r1 * (1.0 + 2.0 * (L + C) / ells)
        margins_t1 = 1.0 + (L - C) / (2.0 * ells)
        ends = (margins_t0 > threshold) & (margins_t1 > threshold)
        gated = ells[ends]
        b_time, b_mixed, b_space = u_factors(
            np.linspace(gated, 2.0 * gated, 33, axis=-1), ell_terms(gated[:, None]))
        half_diff = 0.5 * (b_time - b_space)
        gates = np.zeros(len(t0s))
        gates[ends] = np.min(0.5 * (b_time + b_space)
                             - np.sqrt(half_diff * half_diff + b_mixed * b_mixed), axis=1)
        rows = [(t0, m0, m1, gate if end else None)
                for t0, m0, m1, gate, end in zip(t0s, margins_t0.tolist(),
                                                 margins_t1.tolist(), gates.tolist(),
                                                 ends.tolist())]
        trace += rows
        for t0, margin_t0, margin_t1, gate in rows:
            if gate is None or not gate > threshold:
                continue
            ell = math.log(t0)
            certs = {}
            # A doubling stops at its first failing certificate, and that
            # certificate at its first failing scan level: a failing doubling's
            # certificates are discarded.
            for side, th_lo, th_hi in (("below", 0.0, theta0),
                                       ("above", theta0, 0.5 * math.pi)):
                certs[f"ricci_theta_{side}"] = grid_min(
                    lambda level, k=ell_terms(ell): bound(
                        theta_factors(level.mesh[0]),
                        u_factors(level.mesh[1], k)).reshape(-1),
                    GridSpec.box([(th_lo, th_hi, theta_count), (ell, 2.0 * ell, t_count)],
                                 depth=cert_depth),
                    threshold=threshold, quantity_id=f"ricci_bound_theta_{side}_t2norm",
                    batched=True, stop_at_failure=True)
                if not certs[f"ricci_theta_{side}"].passed:
                    break
            else:
                params = ConcordanceParams(t0=t0, t1=t0 * t0, r0=r0, r1=r1,
                                           nu=nu, C=C)
                certs["path_ricci"] = path_cert
                boundary = {
                    "t0_end_margin": margin_t0,
                    "t0_end_requirement": "principal curvatures > -nu after scaling",
                    "t1_end_margin": margin_t1,
                    "t1_end_requirement": "principal curvatures > 0 (t^2-normalized)",
                    "theta0": theta0,
                }
                return params, certs, boundary
    _, margin_t0, margin_t1, gate = trace[-1]
    failed = ("an end margin" if gate is None
              else "the coarse Ricci gate" if not gate > threshold
              else "a Ricci certificate")
    raise SearchError(
        f"concordance search exceeded {_MAX_DOUBLINGS} doublings of t0; "
        f"the last failed {failed}: t0-end margin {margin_t0:.3e}, "
        f"t1-end margin {margin_t1:.3e}, coarse Ricci minimum "
        + ("not reached" if gate is None else f"{gate:.3e}"), trace=trace,
    )


# ---------------------------------------------------------------------------
# spherical triangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleSolution:
    theta0: float
    theta_r: float
    x1: float
    z: float
    residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def _sin_z(theta0: float, theta_r: float, r: float):
    """Law of cosines for the angle theta1, then law of sines for the side z."""
    cos_t1 = (-math.cos(theta_r) * math.cos(theta0)
              + math.sin(theta_r) * math.sin(theta0) * math.cos(r))
    sin_t1 = math.sqrt(max(0.0, 1.0 - cos_t1 * cos_t1))
    return math.sin(theta0) * math.sin(r) / sin_t1, sin_t1


_TRIANGLE_TOL = 1e-13  # bracket width at which the triangle bisection stops


def solve_geodesic_triangle(r: float, tilt: float = 1e-4) -> TriangleSolution:
    """Angles (theta0, theta_r) with sin z = sin 2r, plus the base x1.

    The pair is found by bisecting along the path
    (theta0, theta_r)(tau) = (pi/2 - tilt tau, pi - tau pi/2), whose
    endpoints give sin z -> sin r and sin z -> 1; the tiny tilt keeps
    theta0 strictly below pi/2 at the solution.
    """
    if not 0.0 < r < 0.25 * math.pi:
        raise PreconditionError(f"r must lie in (0, pi/4), got {r!r}")
    if not tilt > 0.0:
        raise PreconditionError(f"tilt must be positive, got {tilt!r}")
    target = math.sin(2.0 * r)

    def angles(tau):
        return 0.5 * math.pi - tilt * tau, math.pi - 0.5 * math.pi * tau

    def residual(tau):
        t0, tr = angles(tau)
        return _sin_z(t0, tr, r)[0] - target

    lo, hi = 1e-9, 1.0 - 1e-9
    f_lo, f_hi = residual(lo), residual(hi)
    if not f_lo < 0.0 < f_hi:
        raise SearchError(
            f"no bracket for the triangle solve at r={r!r}: "
            f"f({lo})={f_lo!r}, f({hi})={f_hi!r}"
        )
    tau = bisect_param(lambda t: residual(t) < 0.0, lo, hi, _TRIANGLE_TOL)
    theta0, theta_r = angles(tau)
    sin_z, sin_t1 = _sin_z(theta0, theta_r, r)
    x1 = math.asin(min(1.0, math.sin(theta_r) * math.sin(r) / sin_t1))
    return TriangleSolution(
        theta0=theta0, theta_r=theta_r, x1=x1,
        z=math.asin(min(1.0, sin_z)), residual=sin_z - target,
    )
