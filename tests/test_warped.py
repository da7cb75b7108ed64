import math
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import ricci_fd, sectional_fd, warped_full_metric, warped_slice_metric
from riccicert.errors import DomainError, PreconditionError
from riccicert.jetcurve import Cos, Jet3, Jet3Curve, Node, Poly, Scale, Sin, Sum
from riccicert.verify import GridSpec
from riccicert.warped import (
    DoublyWarpedMetric,
    WarpedMetricPath,
    sectional,
)


def round_sphere(R, m=3, n=3):
    T = 0.5 * math.pi * R
    return DoublyWarpedMetric(
        Jet3Curve.from_node(Cos(R, 1.0 / R), (0.0, T)),
        Jet3Curve.from_node(Sin(R, 1.0 / R), (0.0, T)),
        m, n, start_kind="closed_h", end_kind="closed_k")


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("R", [1.0, 2.0])
def test_round_sphere_every_sectional(R):
    g = round_sphere(R)
    want = 1.0 / R**2
    for s in np.linspace(0.0, 0.5 * math.pi * R, 101):
        c = sectional(g, s)
        for v in (c.K_sk, c.K_sh, c.K_kk, c.K_hh, c.K_kh):
            assert v == pytest.approx(want, abs=1e-10)


def test_product_cylinder_handle_limit():
    # k = 1, h = 2R sin(s/2R): K_sk = 0, K_kk = 1, K_sh = 1/(4R^2), K_kh = 0
    R = 2.0
    dom = (0.0, math.pi * R / 3.0)
    g = DoublyWarpedMetric(
        Jet3Curve.from_node(Poly((1.0,)), dom),
        Jet3Curve.from_node(Sin(2.0 * R, 0.5 / R), dom),
        3, 3, start_kind="closed_h", end_kind="boundary")
    c = sectional(g, 1.3)
    assert c.K_sk == pytest.approx(0.0, abs=1e-14)
    assert c.K_kk == pytest.approx(1.0, abs=1e-14)
    assert c.K_sh == pytest.approx(1.0 / (4.0 * R * R), abs=1e-14)
    assert c.K_kh == pytest.approx(0.0, abs=1e-14)


def test_closed_end_limits_match_third_derivative():
    # h = sin(s), k = 1 at s = 0: K_sh = K_hh = -h'''(0) = 1
    dom = (0.0, 1.5)
    g = DoublyWarpedMetric(
        Jet3Curve.from_node(Poly((1.0,)), dom),
        Jet3Curve.from_node(Sin(1.0), dom),
        3, 3, start_kind="closed_h", end_kind="boundary")
    c = sectional(g, 0.0)
    assert c.K_sh == pytest.approx(1.0, abs=1e-12)
    assert c.K_hh == pytest.approx(1.0, abs=1e-12)
    assert c.K_kh == pytest.approx(0.0, abs=1e-12)  # k'' = 0 here


def test_interior_samples_converge_to_closed_end_limits():
    g = round_sphere(1.0, m=2, n=3)
    limits = sectional(g, 0.0)
    for dist in (1e-2, 1e-3, 1e-4):
        c = sectional(g, dist)
        for name in ("K_sh", "K_hh", "K_kh"):
            lim = getattr(limits, name)
            assert abs(getattr(c, name) - lim) <= 2.0 * dist * max(1.0, abs(lim))


def test_min_ricci_round_sphere_margin():
    # Ricci of the round metric is (m + n - 1) / R^2 in every direction.
    for m, n in ((3, 3), (2, 4)):
        g = round_sphere(1.0, m, n)
        cert = g.min_ricci(GridSpec.line(0.0, 0.5 * math.pi, 500))
        assert cert.min_margin == pytest.approx(m + n - 1, abs=1e-8)


def test_min_ricci_flat_product_margin_zero():
    dom = (0.0, 1.0)
    g = DoublyWarpedMetric(
        Jet3Curve.from_node(Poly((1.0,)), dom),
        Jet3Curve.from_node(Poly((1.0,)), dom), 3, 3)
    cert = g.min_ricci(GridSpec.line(0.0, 1.0, 101))
    assert cert.min_margin == pytest.approx(0.0, abs=1e-14)
    assert not cert.passed  # strict positivity fails at threshold 1e-6


# ---------------------------------------------------------------------------
# finite-difference oracle equivalence
# ---------------------------------------------------------------------------


def _random_metric_callables(rng):
    a0, a1, w1, p1 = rng.uniform(1.2, 2.0), rng.uniform(0.1, 0.35), \
        rng.uniform(0.5, 1.5), rng.uniform(0, 2)
    b0, b1, w2, p2 = rng.uniform(1.0, 1.8), rng.uniform(0.1, 0.3), \
        rng.uniform(0.5, 1.5), rng.uniform(0, 2)
    c1, c2 = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)

    def kf(s):
        return a0 + a1 * math.sin(w1 * s + p1) + c1 * s

    def hf(s):
        return b0 + b1 * math.cos(w2 * s + p2) + c2 * s

    dom = (0.0, 2.0)
    k = Jet3Curve.from_node(
        Sum((Poly((a0, c1)), Sin(a1, w1, p1))), dom)
    h = Jet3Curve.from_node(
        Sum((Poly((b0, c2)), Cos(b1, w2, p2))), dom)
    return kf, hf, k, h


def test_sectional_matches_fd_oracle_on_random_metrics():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        kf, hf, k, h = _random_metric_callables(rng)
        g = DoublyWarpedMetric(k, h, 3, 3)
        slice_fn = warped_slice_metric(kf, hf)
        for s in rng.uniform(0.3, 1.7, size=4):
            c = sectional(g, s)
            x = np.array([s, 0.6, 0.8])
            pairs = {"K_sk": (0, 1), "K_sh": (0, 2), "K_kh": (1, 2)}
            for name, (i, j) in pairs.items():
                fd = sectional_fd(slice_fn, x, i, j)
                assert getattr(c, name) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_fiber_sectionals_match_fd_oracle():
    # K_kk and K_hh need two angles of the same fiber: use the full metric
    # at (m, n) = (2, 3) where both fibers are 2-spheres.
    rng = np.random.default_rng(7)
    kf, hf, k, h = _random_metric_callables(rng)
    g = DoublyWarpedMetric(k, h, 2, 3)
    full = warped_full_metric(kf, hf, 2, 3)
    for s in (0.5, 1.1):
        x = np.array([s, 0.7, 0.4, 0.9, 0.3])
        c = sectional(g, s)
        assert c.K_kk == pytest.approx(sectional_fd(full, x, 1, 2),
                                       rel=1e-5, abs=1e-7)
        assert c.K_hh == pytest.approx(sectional_fd(full, x, 3, 4),
                                       rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_ricci_frame_weights_against_fd_oracle(m, n):
    """Freezes the integer weights: Ric_s = m K_sk + (n-1) K_sh and the
    fiber traces, arbitrated by the full coordinate-metric FD oracle."""
    rng = np.random.default_rng(42 + m)
    kf, hf, k, h = _random_metric_callables(rng)
    g = DoublyWarpedMetric(k, h, m, n)
    full = warped_full_metric(kf, hf, m, n)
    dim_k = m
    for s in (0.6, 1.4):
        x = np.array([s] + [0.6 + 0.1 * i for i in range(dim_k + n - 1)])
        ric = ricci_fd(full, x)
        gm = full(x)
        c = sectional(g, s)
        assert c.Ric_s == pytest.approx(ric[0, 0] / gm[0, 0], rel=2e-5, abs=1e-6)
        assert c.Ric_k == pytest.approx(ric[1, 1] / gm[1, 1], rel=2e-5, abs=1e-6)
        ih = 1 + dim_k
        assert c.Ric_h == pytest.approx(ric[ih, ih] / gm[ih, ih],
                                        rel=2e-5, abs=1e-6)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine(Node):
    """arg(scale * x + shift), with the chain rule through order 3."""

    arg: Node
    scale: float
    shift: float = 0.0

    def jet(self, x):
        b = self.scale
        u = self.arg.jet(b * x + self.shift)
        return Jet3(u.value, b * u.d1, b * b * u.d2, b**3 * u.d3)


def stretched(curve, c):
    """``c * curve(s / c)`` on the domain scaled by ``c``, piece by piece."""
    pieces = tuple((a * c, b * c, Scale(Affine(node, 1.0 / c), c))
                   for a, b, node in curve.pieces)
    kinks = tuple((x * c, order) for x, order in curve.kinks)
    return Jet3Curve(tuple(x * c for x in curve.domain), pieces, kinks)


def test_scaling_covariance():
    # (k, h, s) -> (c k(s/c), c h(s/c), c s) divides every sectional by c^2.
    g = round_sphere(1.0)
    c = 2.5
    scaled = DoublyWarpedMetric(stretched(g.k, c), stretched(g.h, c), g.m, g.n,
                                g.start_kind, g.end_kind)
    for s in (0.2, 0.9, 1.4):
        a, b = sectional(g, s), sectional(scaled, c * s)
        for name in ("K_sk", "K_sh", "K_kk", "K_hh", "K_kh"):
            assert getattr(b, name) == pytest.approx(
                getattr(a, name) / c**2, rel=1e-12)


def test_role_swap_symmetry():
    dom = (0.0, 2.0)
    k = Sum((Poly((1.5,)), Sin(0.2, 0.9, 0.4)))
    h = Sum((Poly((1.2,)), Cos(0.25, 1.1, 0.2)))
    m, n = 3, 4
    g = DoublyWarpedMetric(Jet3Curve.from_node(k, dom),
                           Jet3Curve.from_node(h, dom), m, n)
    # h and k reflected about s = 1: their jets at 2 - s, odd orders negated
    swapped = DoublyWarpedMetric(Jet3Curve.from_node(Affine(h, -1.0, 2.0), dom),
                                 Jet3Curve.from_node(Affine(k, -1.0, 2.0), dom),
                                 n - 1, m + 1)
    for s in (0.3, 1.0, 1.7):
        a = sectional(g, s)
        b = sectional(swapped, 2.0 - s)
        assert b.K_sk == pytest.approx(a.K_sh, rel=1e-10)
        assert b.K_sh == pytest.approx(a.K_sk, rel=1e-10)
        assert b.K_kk == pytest.approx(a.K_hh, rel=1e-10)
        assert b.K_hh == pytest.approx(a.K_kk, rel=1e-10)
        assert b.K_kh == pytest.approx(a.K_kh, rel=1e-10)
        assert b.Ric_s == pytest.approx(a.Ric_s, rel=1e-10)
        assert b.Ric_k == pytest.approx(a.Ric_h, rel=1e-10)
        assert b.Ric_h == pytest.approx(a.Ric_k, rel=1e-10)


def test_ricci_identity_holds_exactly():
    g = round_sphere(2.0, m=2, n=5)
    for s in (0.1, 1.0, 2.2):
        c = sectional(g, s)
        assert c.Ric_s == g.m * c.K_sk + (g.n - 1) * c.K_sh
        assert c.Ric_k == c.K_sk + (g.m - 1) * c.K_kk + (g.n - 1) * c.K_kh
        assert c.Ric_h == c.K_sh + (g.n - 2) * c.K_hh + g.m * c.K_kh


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------


def test_vanishing_warping_needs_matching_kind():
    # h vanishes at s = 0; evaluating the endpoint without closed_h is an error
    dom = (0.0, 1.5)
    g = DoublyWarpedMetric(
        Jet3Curve.from_node(Poly((1.0,)), dom),
        Jet3Curve.from_node(Sin(1.0), dom), 3, 3)
    with pytest.raises(DomainError):
        sectional(g, 0.0)


@pytest.mark.parametrize("s", [-1.0, -1e-3, 5.0, 0.5 * math.pi + 1e-3,
                               np.array([0.5, -1.0]), np.array([5.0, 0.5])])
def test_closed_ends_refuse_points_outside_the_domain(s):
    # A closed end's guard band takes limit forms only inside [0, pi/2].
    g = round_sphere(1.0)
    path = WarpedMetricPath(k0=g.k, k1=g.k, h0=g.h, h1=g.h, m=3, n=3,
                            start_kind="closed_h", end_kind="closed_k")
    with pytest.raises(DomainError, match="outside domain"):
        sectional(g, s)
    with pytest.raises(DomainError, match="outside domain"):
        path.sectional(np.full_like(s, 0.5) if isinstance(s, np.ndarray)
                       else 0.5, s)


def test_a_float_outside_the_domain_is_named_as_a_float():
    # A float goes through the array kernel as a one-point array; the error
    # names it as the caller wrote it, not as np.float64(-1.0).
    g = round_sphere(1.0)
    path = WarpedMetricPath(k0=g.k, k1=g.k, h0=g.h, h1=g.h, m=3, n=3,
                            start_kind="closed_h", end_kind="closed_k")
    with pytest.raises(DomainError, match=r"^x=-1\.0 outside domain"):
        sectional(g, -1.0)
    with pytest.raises(DomainError, match=r"^x=-1\.0 outside domain"):
        path.sectional(0.5, -1.0)


def test_closure_requires_counterpart_evenness():
    dom = (0.0, 1.5)
    with pytest.raises(PreconditionError):
        # k'(0) != 0 at a closed_h end: the K_kh limit would diverge
        DoublyWarpedMetric(
            Jet3Curve.from_node(Poly((1.0, 0.5)), dom),
            Jet3Curve.from_node(Sin(1.0), dom), 3, 3,
            start_kind="closed_h")


def closed_end_metric(kind, at_end, defect=None):
    """A metric on [0, 1] closed by ``kind`` at one end: the collapsing
    warping is u - u^3/6 in the inward distance u to that end, the other one
    is 1. ``defect`` adds 1e-3 to the collapsing warping's value, slope or
    second derivative there, or to the other warping's slope."""
    x, sign = (1.0, -1.0) if at_end else (0.0, 1.0)
    collapsing = [0.0, sign, 0.0, -sign / 6.0]
    other = [1.0, 0.0]
    if defect == "counterpart slope":
        other[1] += 1e-3
    elif defect is not None:
        collapsing[("value", "slope", "second derivative").index(defect)] += 1e-3
    c = Jet3Curve.from_node(Poly(tuple(collapsing), center=x), (0.0, 1.0))
    o = Jet3Curve.from_node(Poly(tuple(other), center=x), (0.0, 1.0))
    k, h = (c, o) if kind == "closed_k" else (o, c)
    kinds = ("boundary", kind) if at_end else (kind, "boundary")
    return DoublyWarpedMetric(k, h, 3, 3, *kinds)


@pytest.mark.parametrize("kind", ["closed_h", "closed_k"])
@pytest.mark.parametrize("at_end", [False, True])
@pytest.mark.parametrize("defect", ["value", "slope", "second derivative",
                                    "counterpart slope"])
def test_each_closed_end_refuses_each_closure_defect(kind, at_end, defect):
    closed_end_metric(kind, at_end)
    with pytest.raises(PreconditionError, match="endpoint closure violated"):
        closed_end_metric(kind, at_end, defect)


def test_dimension_validation():
    dom = (0.0, 1.0)
    with pytest.raises(PreconditionError):
        DoublyWarpedMetric(
            Jet3Curve.from_node(Poly((1.0,)), dom),
            Jet3Curve.from_node(Poly((1.0,)), dom), 1, 3)


def test_interior_nonpositive_warping_rejected_at_eval():
    # A path validates its curves without evaluating them, so with k0 = k1
    # it carries k = 0.5 - s, negative past s = 0.5, to the kernel.
    dom = (0.0, 1.0)
    k = Jet3Curve.from_node(Poly((0.5, -1.0)), dom)
    h = Jet3Curve.from_node(Poly((1.0,)), dom)
    path = WarpedMetricPath(k0=k, k1=k, h0=h, h1=h, m=3, n=3,
                            start_kind="boundary", end_kind="boundary")
    with pytest.raises(DomainError, match=r"warping vanishes at s=0\.9 "):
        path.sectional(0.0, 0.9)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_path_endpoints_are_bit_exact():
    g0 = round_sphere(1.0)
    g1 = round_sphere(1.0)
    path = WarpedMetricPath(k0=g0.k, k1=g1.k, h0=g0.h, h1=g1.h, m=3, n=3,
                            start_kind="closed_h", end_kind="closed_k")
    assert path.k0 is g0.k and path.h0 is g0.h
    assert path.k1 is g1.k and path.h1 is g1.h


def test_path_sectional_interpolates():
    dom = (0.0, 2.0)
    k0 = Jet3Curve.from_node(Poly((1.0,)), dom)
    k1 = Jet3Curve.from_node(Poly((2.0,)), dom)
    h = Jet3Curve.from_node(Poly((1.5,)), dom)
    path = WarpedMetricPath(k0=k0, k1=k1, h0=h, h1=h, m=2, n=2,
                            start_kind="boundary", end_kind="boundary")
    c = path.sectional(0.5, 1.0)
    assert c.K_kk == pytest.approx(1.0 / 1.5**2, rel=1e-12)


@pytest.mark.parametrize("change, match", [
    ({"start_kind": "closed_x"}, "unknown endpoint kind 'closed_x'"),
    ({"k1": "longer"}, r"k0 and k1 domains differ"),
    ({"m": 1}, "need m, n >= 2"),
    ({"lam_range": (1.0, 0.0)}, r"lambda range out of order: \(1.0, 0.0\)"),
    ({"lam_range": (0.5, 0.5)}, "lambda range out of order"),
])
def test_path_rejects_an_invalid_family(change, match):
    g = round_sphere(1.0)
    T = g.domain[1]
    if change.get("k1") == "longer":
        change = {"k1": Jet3Curve.from_node(Cos(1.0, 1.0), (0.0, T + 0.5))}
    spec = dict(k0=g.k, k1=g.k, h0=g.h, h1=g.h, m=3, n=3,
                start_kind="closed_h", end_kind="closed_k")
    WarpedMetricPath(**spec)
    with pytest.raises(PreconditionError, match=match):
        WarpedMetricPath(**{**spec, **change})

