"""Normal-coordinate corner charts: face second forms, gluing, smoothing.

A chart models a neighborhood of a codimension-2 corner in the normal form

    g = da^2 + mu^2(a) db^2 + H^2(a, b) ds_{m-1}^2,

with the boundary face at a = 0 (normalized: mu(0) = 1) and the other face
the graph b = phi(a) (phi(0) = 0) bounding the region b <= phi(a). The
corner sphere is round and nothing depends on the z coordinate, which kills
the sum-over-z terms in the second-form formulas.

With F := H^2, the face's second fundamental form w.r.t. the outward unit
normal has the two scalar values

    II_tau = (-mu phi_aa - phi_a mu_a (mu^2 phi_a^2 + 2))
             / ((1 + (mu phi_a)^2) sqrt(1 + mu^2 phi_a^2))
    II_Z   = (-phi_a F_a mu^2 + F_b) / (2 mu F sqrt(1 + mu^2 phi_a^2))

whose denominator-free numerators (tau_clear, zed_clear) drive the
convexity certificates. Concavity of the face profile is the sign of
d^2/ds^2 F(a(s), b(s)) along the arclength parameterization of the graph in
the 2-D metric da^2 + mu^2 db^2.

The face forms and ``BiWarp`` evaluate at float64 arrays of points, where
jets take the left limit on a marked kink; a float is served as one point
and gives Python floats.

Two charts glue along a = 0 when their boundary data match; the corner is
then smoothed by running the two-stage spline pipeline on those of mu, phi
and the a-factors of H that have a corner there. A curve that is the same
node on both charts is joined as one piece and is not smoothed. The checks
and the joined curves do not depend on the smoothing widths
(:func:`glue_face`); a glue-corner run builds them once, and every probe of
an eps search smooths them (:func:`glue_and_smooth`). H is carried as a sum
of separable terms sum_i f_i(a) g_i(b); the Hermite systems are linear in
the smoothed function's endpoint jets, so smoothing the f_i termwise is
exactly the smoothing of a -> H(a, b) for every b at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, PreconditionError, decode, integer, list_of,
                     text)
from .jetcurve import _MATCH_TOL, BiJet, Jet3Curve, _first, _pointwise, jets
from .spline import two_stage_smooth
from .verify import GridSpec, PositivityCertificate, blockwise, grid_min

__all__ = [
    "BiWarp",
    "CornerChart",
    "FaceSecondForm",
    "face_second_form",
    "face_profile_hessian",
    "dihedral_angle",
    "GlueFace",
    "glue_face",
    "glue_and_smooth",
    "convexity_certificate",
    "concavity_certificate",
]

_CHART_SAMPLES = 24  # per axis, of a chart's face-graph and H > 0 checks
_GLUE_SAMPLES = 33  # b-slices of the glue face a = 0


@dataclass(frozen=True)
class BiWarp:
    """Bivariate warping ``H(a, b) = sum_i f_i(a) g_i(b)``.

    All ``f_i`` share one a-domain and all ``g_i`` one b-domain. Partials
    through order 3 in each variable come from the factor curves' jets.
    """

    terms: tuple  # of (Jet3Curve in a, Jet3Curve in b)

    def __post_init__(self):
        if not self.terms:
            raise PreconditionError("BiWarp needs at least one term")
        fa0, gb0 = self.terms[0]
        for fa, gb in self.terms:
            if fa.domain != fa0.domain or gb.domain != gb0.domain:
                raise PreconditionError("BiWarp factors must share domains")

    @property
    def a_domain(self):
        return self.terms[0][0].domain

    @property
    def b_domain(self):
        return self.terms[0][1].domain

    @_pointwise
    def bijet(self, a: float, b: float) -> BiJet:
        fas, gbs = zip(*self.terms)
        return _bijet(jets(fas, a), jets(gbs, b))

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"a": fa.to_dict(), "b": gb.to_dict()} for fa, gb in self.terms
            ]
        }

    @staticmethod
    def from_dict(d: dict) -> "BiWarp":
        def term(t):
            return tuple(decode(t, {"a": Jet3Curve.from_dict,
                                    "b": Jet3Curve.from_dict}, "term").values())

        return BiWarp(**decode(d, {"terms": list_of(term)}, "H"))


def _bijet(jfs, jgs) -> BiJet:
    """The BiJet of ``sum_i f_i g_i`` from the jets of the ``f_i`` and of the
    ``g_i``, summed term by term."""
    v = da = db = daa = dab = dbb = 0.0
    for jf, jg in zip(jfs, jgs):
        v += jf.value * jg.value
        da += jf.d1 * jg.value
        db += jf.value * jg.d1
        daa += jf.d2 * jg.value
        dab += jf.d1 * jg.d1
        dbb += jf.value * jg.d2
    return BiJet(v, da, db, daa, dab, dbb)


@dataclass(frozen=True)
class CornerChart:
    """One side of a corner (or a glued union) in normal coordinates.

    ``side`` is "left" (a_range ends at 0), "right" (a_range starts at 0), or
    "union" for the output of :func:`glue_and_smooth`, whose a-range spans 0.
    Left/right charts are normalized: mu(0) = 1 and phi(0) = 0 exactly.
    """

    mu: Jet3Curve
    phi: Jet3Curve
    H: BiWarp
    fiber_dim: int
    side: str

    def __post_init__(self):
        if self.side not in ("left", "right", "union"):
            raise PreconditionError(f"side must be left/right/union, got {self.side!r}")
        if self.fiber_dim < 2:
            raise PreconditionError(f"fiber_dim must be >= 2, got {self.fiber_dim}")
        if self.mu.domain != self.phi.domain or self.mu.domain != self.H.a_domain:
            raise PreconditionError("mu, phi and H must share the a-domain")
        lo, hi = self.a_range
        if self.side == "left" and hi != 0.0:
            raise PreconditionError(f"left chart must end at a=0, got {hi!r}")
        if self.side == "right" and lo != 0.0:
            raise PreconditionError(f"right chart must start at a=0, got {lo!r}")
        if self.side == "union" and not (lo < 0.0 < hi):
            raise PreconditionError("union chart must span a=0")
        if self.side != "union":
            if abs(self.mu.value(0.0) - 1.0) > 1e-12:
                raise PreconditionError(f"mu(0) must be 1, got {self.mu.value(0.0)!r}")
            if abs(self.phi.value(0.0)) > 1e-12:
                raise PreconditionError(f"phi(0) must be 0, got {self.phi.value(0.0)!r}")
        self._check_graph_and_positivity()

    def _check_graph_and_positivity(self):
        b_lo, b_hi = self.H.b_domain
        a = np.linspace(*self.a_range, _CHART_SAMPLES)
        b = self.phi.value(a)
        bad = _first(~((b >= b_lo - 1e-12) & (b <= b_hi + 1e-12)), a, b)
        if bad:
            raise DomainError(
                f"face graph exits chart: phi({bad[0]!r}) = {bad[1]!r} not in [{b_lo!r}, {b_hi!r}]"
            )
        # H on the grid a x b: each factor's jets on its own axis, broadcast.
        b = np.linspace(b_lo, b_hi, _CHART_SAMPLES)
        bad = _first(~(self.H.bijet(a[:, None], b).value > 0.0), a[:, None], b)
        if bad:
            raise PreconditionError(f"H <= 0 at (a={bad[0]!r}, b={bad[1]!r})")

    @property
    def a_range(self):
        return self.mu.domain

    def to_dict(self) -> dict:
        return {
            "mu": self.mu.to_dict(),
            "phi": self.phi.to_dict(),
            "H": self.H.to_dict(),
            "fiber_dim": self.fiber_dim,
            "side": self.side,
        }

    @staticmethod
    def from_dict(d: dict) -> "CornerChart":
        return CornerChart(**decode(d, {
            "mu": Jet3Curve.from_dict, "phi": Jet3Curve.from_dict,
            "H": BiWarp.from_dict, "fiber_dim": integer, "side": text}, "chart"))


@dataclass(frozen=True)
class FaceSecondForm:
    """Second-form values of the face b = phi(a) at one a, or equal-shape
    arrays of them at many, with the denominator-free numerators used by the
    certificates."""

    a: float
    II_tau: float
    II_Z: float
    tau_clear: float
    zed_clear: float

    def as_row(self):
        return (self.a, self.II_tau, self.II_Z, self.tau_clear, self.zed_clear)

    CSV_HEADER = ("a", "II_tau", "II_Z", "tau_clear", "zed_clear")


def _chart_data(chart: CornerChart, a: np.ndarray):
    """mu, mu_a, phi_a, phi_aa and the BiJet of H on the face at ``a``: mu,
    phi and the a-factors share one bundle at ``a``, and the b-factors one
    at phi(a), whose jets refuse a face point outside the b-domain."""
    fas, gbs = zip(*chart.H.terms)
    jmu, jphi, *jfs = jets((chart.mu, chart.phi, *fas), a)
    return jmu.value, jmu.d1, jphi.d1, jphi.d2, _bijet(jfs, jets(gbs, jphi.value))


def _clear_numerators(chart: CornerChart, a: np.ndarray):
    """tau_clear and zed_clear at ``a``, and the mu, phi_a and H they were
    formed from."""
    mu, mu_a, phi_a, phi_aa, jH = _chart_data(chart, a)
    Hv = jH.value
    F_a = 2.0 * Hv * jH.da
    F_b = 2.0 * Hv * jH.db
    tau_clear = -mu * phi_aa - phi_a * mu_a * (mu * mu * phi_a * phi_a + 2.0)
    zed_clear = -phi_a * F_a * mu * mu + F_b
    return tau_clear, zed_clear, mu, phi_a, Hv


@_pointwise
def face_second_form(chart: CornerChart, a: float) -> FaceSecondForm:
    """Both scalar second-form values of the face at ``a``."""
    tau_clear, zed_clear, mu, phi_a, Hv = _clear_numerators(chart, a)
    F = Hv * Hv
    q = 1.0 + mu * mu * phi_a * phi_a
    root = np.sqrt(q)
    return FaceSecondForm(
        a=a,
        II_tau=tau_clear / (q * root),
        II_Z=zed_clear / (2.0 * mu * F * root),
        tau_clear=tau_clear,
        zed_clear=zed_clear,
    )


@_pointwise
def face_profile_hessian(chart: CornerChart, a: float) -> float:
    """d^2/ds^2 of F = H^2 along the arclength parameterization of the face.

    With psi'(a) = sqrt(1 + mu^2 phi_a^2) the arclength derivative of the
    graph in da^2 + mu^2 db^2, the chain rule gives

        F_ss = a'' F_a + b'' F_b + a'^2 F_aa + 2 a' b' F_ab + b'^2 F_bb,
        a' = 1/psi', a'' = -psi''/psi'^3,
        b' = phi_a/psi', b'' = phi_aa/psi'^2 - phi_a psi''/psi'^3.

    The powers of psi' are products, which numpy rounds the same at every
    array length, so a float call and every array layout agree bit for bit.
    """
    mu, mu_a, phi_a, phi_aa, jH = _chart_data(chart, a)
    Hv = jH.value

    F_a = 2.0 * Hv * jH.da
    F_b = 2.0 * Hv * jH.db
    F_aa = 2.0 * (jH.da * jH.da + Hv * jH.daa)
    F_ab = 2.0 * (jH.da * jH.db + Hv * jH.dab)
    F_bb = 2.0 * (jH.db * jH.db + Hv * jH.dbb)

    psi1 = np.sqrt(1.0 + mu * mu * phi_a * phi_a)
    psi2 = (mu * mu_a * phi_a * phi_a + mu * mu * phi_a * phi_aa) / psi1
    psi1_2 = psi1 * psi1
    psi1_3 = psi1_2 * psi1
    a1 = 1.0 / psi1
    a2 = -psi2 / psi1_3
    b1 = phi_a / psi1
    b2 = phi_aa / psi1_2 - phi_a * psi2 / psi1_3
    return (a2 * F_a + b2 * F_b + a1 * a1 * F_aa
            + 2.0 * a1 * b1 * F_ab + b1 * b1 * F_bb)


def dihedral_angle(left: CornerChart, right: CornerChart) -> float:
    """Interior dihedral angle of the glued region at the corner.

    With c1 = phi_left'(0) and c2 = phi_right'(0) (one-sided, in the shared
    orientation) the angle between the left face tangent tau_1 and the
    right face normal nu_2 satisfies

        cos(alpha) = (c1 - c2) / (|tau_1| |nu_2|),

    and the interior angle of the region b <= phi is pi/2 + alpha. Gluing
    accepts angles up to pi + 1e-12: below pi the corner can be smoothed
    convexly, and pi means the faces already meet C1.
    """
    if left.side != "left" or right.side != "right":
        raise PreconditionError("dihedral_angle expects (left, right) charts")
    c1 = left.phi.jet(0.0, side="left").d1
    c2 = right.phi.jet(0.0, side="right").d1
    n1 = math.sqrt(1.0 + c1 * c1)
    n2 = math.sqrt(1.0 + c2 * c2)
    cos_alpha = (c1 - c2) / (n1 * n2)
    alpha = math.acos(max(-1.0, min(1.0, cos_alpha)))
    return 0.5 * math.pi + alpha


def _check_glue_face(left: BiWarp, right: BiWarp):
    """The gluing preconditions on the b-slices of the face a = 0, in order:
    the same boundary metric, the same b-factors, a positive second-form sum."""
    bs = np.linspace(*left.b_domain, _GLUE_SAMPLES)
    at = np.zeros_like(bs)
    jl, jr = left.bijet(at, bs), right.bijet(at, bs)
    worst = float(np.max(np.abs(jl.value - jr.value)))
    if not worst <= _MATCH_TOL:
        raise PreconditionError(
            f"boundary metrics mismatch: max |H_L(0,b) - H_R(0,b)| = {worst:.3e} > {_MATCH_TOL}"
        )
    if len(left.terms) != len(right.terms):
        raise PreconditionError(
            f"H term counts differ: {len(left.terms)} vs {len(right.terms)}"
        )
    if left.b_domain != right.b_domain:
        raise PreconditionError(
            f"b-domains differ: {left.b_domain!r} vs {right.b_domain!r}"
        )
    for idx, ((_, gl), (_, gr)) in enumerate(zip(left.terms, right.terms)):
        vl, vr = gl.value(bs), gr.value(bs)
        tol = _MATCH_TOL * np.maximum(1.0, np.maximum(np.abs(vl), np.abs(vr)))
        bad = _first(~(np.abs(vl - vr) <= tol), bs, vl, vr)
        if bad:
            raise PreconditionError(
                f"b-factor {idx} differs between charts at b={bad[0]!r}: {bad[1]!r} vs {bad[2]!r}"
            )
    # Gluing needs the boundary second forms to sum positively; on the
    # b-slices of the glue face that means d_a(H^2) jumps downward at a = 0.
    worst = float(np.min(2.0 * jl.value * jl.da - 2.0 * jr.value * jr.da))
    if not worst > 0.0:
        raise PreconditionError(
            f"glue-face second-form sum not positive on b-slices "
            f"(min d_a F jump = {worst:.3e})"
        )


def _union_curve(cl: Jet3Curve, cr: Jet3Curve) -> Jet3Curve:
    """``cl`` and ``cr`` as one curve, which refuses them unless their values
    match at a = 0. Pieces that meet there with the same node, bit for bit
    (``repr`` tells 0.0 from -0.0), become one; others meet at a corner."""
    (lo, _, node), (_, hi, other) = cl.pieces[-1], cr.pieces[0]
    if repr(node) == repr(other):
        pieces, corner = cl.pieces[:-1] + ((lo, hi, node),) + cr.pieces[1:], ()
    else:
        pieces, corner = cl.pieces + cr.pieces, ((0.0, 1),)
    return Jet3Curve((cl.domain[0], cr.domain[1]), pieces, cl.kinks + corner + cr.kinks)


@dataclass(frozen=True)
class GlueFace:
    """Two charts joined along a = 0, before any smoothing width is chosen.

    ``curves`` holds mu, phi and each H term's a-factor, each joined into one
    curve with a corner at a = 0, or into one piece there when both charts
    hold the same node; ``b_factors`` are the left chart's, which the right
    chart's match. ``angle`` is the interior dihedral angle, at
    most pi + 1e-12 (pi when the faces already meet C1).
    """

    angle: float
    curves: tuple  # of Jet3Curve: mu, phi, then the a-factors
    b_factors: tuple  # of Jet3Curve
    fiber_dim: int


def glue_face(left: CornerChart, right: CornerChart) -> GlueFace:
    """Check that two charts glue along a = 0 and join their curves there.

    Preconditions, in order: equal fiber dimensions, (left, right) order, a
    dihedral angle of at most pi + 1e-12, equal boundary metrics and
    b-factors at a = 0, a positive glue-face second-form sum on the
    b-slices, and a-factors that meet at a = 0. A curve that is the same
    node on both charts becomes one piece, with no corner at a = 0.
    """
    if left.fiber_dim != right.fiber_dim:
        raise PreconditionError("fiber dimensions differ")
    angle = dihedral_angle(left, right)
    # Exactly pi means the faces already meet C1 (e.g. both graphs constant);
    # only genuinely reflex corners are rejected.
    if angle > math.pi + 1e-12:
        raise PreconditionError(
            f"interior dihedral angle {angle:.6f} exceeds pi; corner cannot be smoothed"
        )
    _check_glue_face(left.H, right.H)
    curves = ((c.mu, c.phi, *(fa for fa, _ in c.H.terms)) for c in (left, right))
    return GlueFace(angle, tuple(map(_union_curve, *curves)),
                    tuple(gb for _, gb in left.H.terms), left.fiber_dim)


def glue_and_smooth(face: GlueFace, eps: float, delta: float) -> CornerChart:
    """Smooth the corner of a glue face and the metric across it.

    Smooths only the face curves with a corner at a = 0; the others pass
    through. The second-form jump that :func:`glue_face` requires leaves a
    corner on an a-factor, so ``0 < delta < eps`` is always checked. Needs
    the smoothing windows inside both charts' a-ranges. The output agrees
    with the charts outside ``[-eps - delta, eps + delta]`` bit-identically.
    """
    lo, hi = face.curves[0].domain
    window = eps + delta
    if -window <= lo or window >= hi:
        raise DomainError(f"smoothing window +-{window!r} exits chart ranges "
                          f"{(lo, 0.0)!r} / {(0.0, hi)!r}")
    mu, phi, *fas = (two_stage_smooth(c, 0.0, eps, delta) if c.kink_order(0.0)
                     else c for c in face.curves)
    return CornerChart(mu=mu, phi=phi, H=BiWarp(tuple(zip(fas, face.b_factors))),
                       fiber_dim=face.fiber_dim, side="union")


def convexity_certificate(chart: CornerChart, grid: GridSpec, threshold: float = 1e-6,
                          stop_at_failure: bool = False) -> PositivityCertificate:
    """Certificate that min(tau_clear, zed_clear) > threshold along the face."""

    def margin(a):
        tau_clear, zed_clear, *_ = _clear_numerators(chart, a)
        return np.minimum(tau_clear, zed_clear)

    return grid_min(lambda level: blockwise(margin, level.points[:, 0]), grid,
                    threshold=threshold, quantity_id="face_convexity",
                    batched=True, stop_at_failure=stop_at_failure)


def concavity_certificate(chart: CornerChart, grid: GridSpec, threshold: float = 1e-6,
                          stop_at_failure: bool = False) -> PositivityCertificate:
    """Certificate that -face_profile_hessian > threshold along the face."""
    return grid_min(
        lambda level: blockwise(lambda a: -face_profile_hessian(chart, a),
                                level.points[:, 0]),
        grid, threshold=threshold, quantity_id="face_concavity", batched=True,
        stop_at_failure=stop_at_failure)
