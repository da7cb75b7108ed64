import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import _jet_safe, face_second_form_fd, profile_hessian_fd
from riccicert import corner
from riccicert.corner import (
    BiWarp,
    CornerChart,
    concavity_certificate,
    convexity_certificate,
    dihedral_angle,
    face_profile_hessian,
    face_second_form,
    glue_and_smooth,
    glue_face,
)
from riccicert.errors import DomainError, EvaluationError, PreconditionError
from riccicert.jetcurve import Cos, ExpOf, Jet3Curve, Poly, Sin
from riccicert.spline import two_stage_smooth
from riccicert.verify import GridSpec, bisect_param, grid_min

SQ3 = math.sqrt(3.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def simple_chart(side, mu, phi, H_terms, a_len=1.0, b_rng=(-1.5, 1.5), fiber=3):
    rng = (-a_len, 0.0) if side == "left" else (0.0, a_len)
    return CornerChart(
        mu=Jet3Curve.from_node(mu, rng),
        phi=Jet3Curve.from_node(phi, rng),
        H=BiWarp(tuple((Jet3Curve.from_node(fa, rng),
                        Jet3Curve.from_node(gb, b_rng))
                       for fa, gb in H_terms)),
        fiber_dim=fiber, side=side)


def corner_pair(a_len=0.5, q=0.2, s=0.05, t=0.1, w1=0.2, w2=-0.1, c=1.0 / SQ3):
    """The mirror-symmetric pair with interior dihedral angle pi/2 + acos stuff.

    H = (1 + sgn s a - t a^2) + (w1 b + w2 b^2) as a two-term separable sum;
    faces are convex and the H-profile along them strictly concave.
    """
    phi_end = -c * a_len - q * a_len**2
    b_rng = (phi_end - 0.35, 0.35)

    def chart(side):
        sgn = 1.0 if side == "left" else -1.0
        rng = (-a_len, 0.0) if side == "left" else (0.0, a_len)
        return CornerChart(
            mu=Jet3Curve.from_node(Poly((1.0,)), rng),
            phi=Jet3Curve.from_node(Poly((0.0, sgn * c, -q)), rng),
            H=BiWarp((
                (Jet3Curve.from_node(Poly((1.0, sgn * s, -t)), rng),
                 Jet3Curve.from_node(Poly((1.0,)), b_rng)),
                (Jet3Curve.from_node(Poly((1.0,)), rng),
                 Jet3Curve.from_node(Poly((0.0, w1, w2)), b_rng)),
            )),
            fiber_dim=3, side=side)

    return chart("left"), chart("right")


# ---------------------------------------------------------------------------
# face second form: examples and the FD oracle
# ---------------------------------------------------------------------------


def test_flat_face_in_product_coordinates():
    # mu = 1, phi = 0, H = H(b): II_tau = 0, II_Z = H_b / H
    ch = simple_chart("left", Poly((1.0,)), Poly((0.0,)),
                      [(Poly((1.0,)), ExpOf(Poly((0.0, 0.4))))])
    form = face_second_form(ch, -0.3)
    assert form.II_tau == pytest.approx(0.0, abs=1e-14)
    assert form.II_Z == pytest.approx(0.4, rel=1e-12)


def test_parabolic_face_unit_curvature():
    ch = simple_chart("left", Poly((1.0,)), Poly((0.0, 0.0, -0.5)),
                      [(Poly((1.0,)), Poly((1.0,)))])
    form = face_second_form(ch, 0.0)
    assert form.II_tau == pytest.approx(1.0, abs=1e-14)
    assert form.II_Z == pytest.approx(0.0, abs=1e-14)


def test_sloped_face_with_expanding_mu():
    ch = simple_chart("left", Poly((1.0, 1.0)), Poly((0.0, -1.0)),
                      [(Poly((1.0,)), Poly((1.0,)))])
    form = face_second_form(ch, 0.0)
    assert form.II_tau == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)), rel=1e-12)


def test_second_form_signs_match_clear_numerators():
    left, _ = corner_pair()
    for a in np.linspace(-0.49, -0.01, 20):
        form = face_second_form(left, a)
        assert math.copysign(1, form.II_tau) == math.copysign(1, form.tau_clear)
        assert math.copysign(1, form.II_Z) == math.copysign(1, form.zed_clear)


def random_charts():
    """Three random left charts with (mu, phi, H) as plain callables too."""
    rng = np.random.default_rng(123)
    for _ in range(3):
        m0, m1 = 1.0, rng.uniform(-0.4, 0.4)
        p1, p2 = rng.uniform(-0.6, 0.6), rng.uniform(-0.5, 0.5)
        ha, hb, hb2 = rng.uniform(-0.25, 0.25), rng.uniform(0.1, 0.4), \
            rng.uniform(-0.2, 0.2)

        def mu_f(a, m1=m1):
            return 1.0 + m1 * a

        def phi_f(a, p1=p1, p2=p2):
            return p1 * a + p2 * a * a

        def H_f(a, b, ha=ha, hb=hb, hb2=hb2):
            return (1.0 + ha * a) * (1.0 + hb * b + hb2 * b * b)

        ch = simple_chart(
            "left", Poly((1.0, m1)), Poly((0.0, p1, p2)),
            [(Poly((1.0, ha)), Poly((1.0, hb, hb2)))],
            a_len=0.8, b_rng=(-1.4, 1.4))
        yield ch, mu_f, phi_f, H_f


def test_face_second_form_matches_fd_oracle_on_random_charts():
    for ch, mu_f, phi_f, H_f in random_charts():
        for a in (-0.5, -0.2):
            form = face_second_form(ch, a)
            fd_tau, fd_z = face_second_form_fd(mu_f, phi_f, H_f, a)
            assert form.II_tau == pytest.approx(fd_tau, rel=1e-5, abs=1e-7)
            assert form.II_Z == pytest.approx(fd_z, rel=1e-5, abs=1e-7)


def face_forms_reference(chart, a: float):
    """(II_tau, II_Z, tau_clear, zed_clear, profile Hessian) at the float ``a``:
    the per-point formulas on per-point math-module jets."""
    jmu, jphi = _jet_safe(chart.mu, a), _jet_safe(chart.phi, a)
    b = jphi.value
    v = da = db = daa = dab = dbb = 0.0
    for fa, gb in chart.H.terms:
        jf, jg = _jet_safe(fa, a), _jet_safe(gb, b)
        v += jf.value * jg.value
        da += jf.d1 * jg.value
        db += jf.value * jg.d1
        daa += jf.d2 * jg.value
        dab += jf.d1 * jg.d1
        dbb += jf.value * jg.d2
    mu, mu_a = jmu.value, jmu.d1
    phi_a, phi_aa = jphi.d1, jphi.d2
    F = v * v
    F_a, F_b = 2.0 * v * da, 2.0 * v * db
    F_aa = 2.0 * (da * da + v * daa)
    F_ab = 2.0 * (da * db + v * dab)
    F_bb = 2.0 * (db * db + v * dbb)
    q = 1.0 + mu * mu * phi_a * phi_a
    root = math.sqrt(q)
    tau_clear = -mu * phi_aa - phi_a * mu_a * (mu * mu * phi_a * phi_a + 2.0)
    zed_clear = -phi_a * F_a * mu * mu + F_b
    psi1 = math.sqrt(1.0 + mu * mu * phi_a * phi_a)
    psi2 = (mu * mu_a * phi_a * phi_a + mu * mu * phi_a * phi_aa) / psi1
    psi1_2 = psi1 * psi1
    psi1_3 = psi1_2 * psi1
    a1, a2 = 1.0 / psi1, -psi2 / psi1_3
    b1 = phi_a / psi1
    b2 = phi_aa / psi1_2 - phi_a * psi2 / psi1_3
    hessian = (a2 * F_a + b2 * F_b + a1 * a1 * F_aa
               + 2.0 * a1 * b1 * F_ab + b1 * b1 * F_bb)
    return (tau_clear / (q * root), zed_clear / (2.0 * mu * F * root),
            tau_clear, zed_clear, hessian)


def assert_face_forms_bitwise(chart, a):
    form = face_second_form(chart, a)
    assert form.a is a
    got = np.stack([form.II_tau, form.II_Z, form.tau_clear, form.zed_clear,
                    face_profile_hessian(chart, a)], axis=1)
    one = np.array([face_second_form(chart, x).as_row()[1:]
                    + (face_profile_hessian(chart, x),) for x in a.tolist()])
    ref = np.array([face_forms_reference(chart, x) for x in a.tolist()])
    assert got.tobytes() == one.tobytes() == ref.tobytes()


def test_face_forms_bitwise_on_random_charts():
    rng = np.random.default_rng(7)
    for ch, *_ in random_charts():
        a = np.concatenate([np.linspace(-0.8, 0.0, 41), rng.uniform(-0.8, 0.0, 40)])
        assert_face_forms_bitwise(ch, a)


@pytest.mark.parametrize("length", [*range(1, 10), 16, 17, 4097])
def test_face_forms_keep_their_bits_at_every_array_length(length):
    # numpy's SIMD loops take a vector body and a scalar tail, whose split
    # moves with the length; each point's forms must not depend on it.
    ch, *_ = next(random_charts())
    a = np.random.default_rng(11).uniform(-0.8, 0.0, 4097)
    full = np.stack([*face_second_form(ch, a).as_row()[1:],
                     face_profile_hessian(ch, a)], axis=1)
    for part in (slice(None, length), slice(-length, None)):
        got = np.stack([*face_second_form(ch, a[part]).as_row()[1:],
                        face_profile_hessian(ch, a[part])], axis=1)
        assert got.tobytes() == full[part].tobytes()
    one = np.array([face_second_form(ch, x).as_row()[1:]
                    + (face_profile_hessian(ch, x),) for x in a[:9].tolist()])
    assert one.tobytes() == full[:9].tobytes()


def test_face_forms_bitwise_on_union_chart_kinks_and_refinement_cells():
    left, right = corner_pair()
    eps, delta = 0.15, 0.03
    glued = glue_and_smooth(glue_face(left, right), eps, delta)
    curves = (glued.mu, glued.phi, *(fa for fa, _ in glued.H.terms))
    marked = {x for c in curves for x, _ in c.kinks}
    assert {eps + delta, -eps - delta} <= marked
    kinks = sorted(marked | {0.0, eps, -eps})
    refined = []

    def spy(level):
        refined.append(level.points[:, 0].copy())
        return -face_profile_hessian(glued, level.points[:, 0])

    grid_min(spy, GridSpec.line(-0.5, 0.5, 41, depth=2), batched=True)
    cells = np.concatenate(refined)
    assert len(cells) > 41  # refinement levels were evaluated
    a = np.concatenate([kinks, np.linspace(-0.5, 0.5, 101), cells])
    assert_face_forms_bitwise(glued, a)


def test_float_calls_return_python_floats():
    left, right = corner_pair()
    glued = glue_and_smooth(glue_face(left, right), 0.15, 0.03)
    for a in (-0.3, 0.0, 0.15, np.float64(0.4)):
        form = face_second_form(glued, a)
        values = (*form.as_row(), face_profile_hessian(glued, a),
                  *dataclasses.astuple(glued.H.bijet(a, 0.1)),
                  glued.H.bijet(a, 0.1).value)
        assert all(type(v) is float for v in values)


# ---------------------------------------------------------------------------
# profile hessian
# ---------------------------------------------------------------------------


def test_profile_hessian_cosine_on_geodesic():
    ch = simple_chart("left", Poly((1.0,)), Poly((0.0,)),
                      [(Cos(1.0), Poly((1.0,)))], a_len=0.9)
    assert face_profile_hessian(ch, 0.0) == pytest.approx(-2.0, abs=1e-12)


def test_profile_hessian_constant_H():
    ch = simple_chart("left", Poly((1.0,)), Poly((0.0, -0.7)),
                      [(Poly((1.0,)), Poly((1.0,)))])
    assert face_profile_hessian(ch, -0.4) == pytest.approx(0.0, abs=1e-13)


def test_profile_hessian_exp_along_sloped_face():
    # H = e^b along b = -a: d^2/ds^2 e^{2 b(s)} with b' = -1/sqrt(2) gives 2
    # (frozen from the FD oracle; the chain rule doubles twice).
    ch = simple_chart("left", Poly((1.0,)), Poly((0.0, -1.0)),
                      [(Poly((1.0,)), ExpOf(Poly((0.0, 1.0))))])
    got = face_profile_hessian(ch, 0.0)
    assert got == pytest.approx(2.0, rel=1e-12)
    fd = profile_hessian_fd(lambda a: 1.0, lambda a: -a,
                            lambda a, b: math.exp(b), 0.0)
    assert got == pytest.approx(fd, rel=1e-4)


def test_profile_hessian_matches_fd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(3):
        m1 = rng.uniform(-0.3, 0.3)
        p1, p2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)
        hb = rng.uniform(0.1, 0.4)
        ch = simple_chart("left", Poly((1.0, m1)), Poly((0.0, p1, p2)),
                          [(Poly((1.0,)), Poly((1.0, hb)))],
                          a_len=0.7, b_rng=(-1.2, 1.2))
        for a in (-0.4, -0.1):
            got = face_profile_hessian(ch, a)
            fd = profile_hessian_fd(lambda x, m1=m1: 1.0 + m1 * x,
                                    lambda x, p1=p1, p2=p2: p1 * x + p2 * x * x,
                                    lambda x, b, hb=hb: 1.0 + hb * b, a)
            assert got == pytest.approx(fd, rel=2e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# dihedral angles
# ---------------------------------------------------------------------------


def flat_pair(c1, c2):
    L = simple_chart("left", Poly((1.0,)), Poly((0.0, c1)),
                     [(Poly((1.0,)), Poly((1.0,)))])
    R = simple_chart("right", Poly((1.0,)), Poly((0.0, c2)),
                     [(Poly((1.0,)), Poly((1.0,)))])
    return L, R


def test_dihedral_straight_face():
    assert dihedral_angle(*flat_pair(0.0, 0.0)) == pytest.approx(math.pi)


def test_dihedral_right_angle_wedge():
    assert dihedral_angle(*flat_pair(1.0, -1.0)) == pytest.approx(math.pi / 2)


def test_glue_refuses_charts_in_the_wrong_order():
    L, R = flat_pair(0.0, 0.0)
    with pytest.raises(PreconditionError, match=r"expects \(left, right\) charts"):
        glue_face(R, L)


def test_dihedral_reflex_corner_rejected_by_glue():
    L, R = flat_pair(-1.0, 1.0)
    assert dihedral_angle(L, R) > math.pi
    with pytest.raises(PreconditionError):
        glue_face(L, R)


# ---------------------------------------------------------------------------
# gluing and smoothing
# ---------------------------------------------------------------------------


def test_glue_locality_is_bit_exact():
    left, right = corner_pair()
    glued = glue_and_smooth(glue_face(left, right), 0.15, 0.03)
    for a in np.linspace(0.181, 0.499, 40):
        assert glued.phi.value(a) == right.phi.value(a)
        assert glued.phi.value(-a) == left.phi.value(-a)
        assert glued.H.bijet(a, 0.1).value == right.H.bijet(a, 0.1).value
        assert glued.H.bijet(-a, 0.1).value == left.H.bijet(-a, 0.1).value


def test_glue_mirror_symmetry():
    left, right = corner_pair()
    glued = glue_and_smooth(glue_face(left, right), 0.15, 0.03)
    for a in np.linspace(0.0, 0.45, 31):
        assert glued.phi.value(a) == pytest.approx(glued.phi.value(-a),
                                                   abs=1e-12)
        assert glued.mu.value(a) == pytest.approx(glued.mu.value(-a),
                                                  abs=1e-12)


def test_glue_output_is_c2():
    left, right = corner_pair()
    glued = glue_and_smooth(glue_face(left, right), 0.15, 0.03)
    for x, _ in glued.phi.kinks:
        jl = glued.phi.jet(x, "left")
        jr = glued.phi.jet(x, "right")
        assert abs(jl.d2 - jr.d2) < 1e-9


def test_smoothed_corner_curvature_blowup_rate():
    # phi_aa on the smoothing window scales like (c2 - c1) / (2 eps)
    left, right = corner_pair()
    c1 = left.phi.jet(0.0, "left").d1
    c2 = right.phi.jet(0.0, "right").d1
    values = []
    eps_list = (0.08, 0.04, 0.02, 0.01)
    face = glue_face(left, right)
    for eps in eps_list:
        glued = glue_and_smooth(face, eps, eps / 5.0)
        values.append(abs(glued.phi.jet(0.0).d2))
    slope = np.polyfit(np.log(eps_list), np.log(values), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)
    assert values[-1] == pytest.approx(abs(c2 - c1) / (2 * 0.01), rel=0.05)


def test_already_c1_faces_need_no_corner():
    # both phi identically 0 near the glue: output phi stays 0
    L = simple_chart("left", Poly((1.0,)), Poly((0.0,)),
                     [(Poly((1.0, 0.1)), Poly((1.0, 0.2)))])
    R = simple_chart("right", Poly((1.0,)), Poly((0.0,)),
                     [(Poly((1.0, -0.1)), Poly((1.0, 0.2)))])
    glued = glue_and_smooth(glue_face(L, R), 0.2, 0.04)
    for a in np.linspace(-0.9, 0.9, 19):
        assert glued.phi.value(a) == pytest.approx(0.0, abs=1e-12)


def shipped_charts():
    scenario = json.loads((SCENARIOS / "glue_corner.json").read_text())
    return (CornerChart.from_dict(scenario["left"]),
            CornerChart.from_dict(scenario["right"]))


def test_one_glue_face_serves_every_eps_as_a_fresh_one_does():
    # glue-corner builds the face once and smooths it at every probe; each
    # union chart, both certificates and the face forms must be the bits of
    # a face built for that eps alone. 0.117578125 is the shipped eps*.
    left, right = shipped_charts()
    shared = glue_face(left, right)
    a = np.linspace(-0.5, 0.5, 200)
    for eps in (0.03, 0.1, 0.22, 0.117578125):
        outs = []
        for face in (shared, glue_face(left, right)):
            glued = glue_and_smooth(face, eps, 0.2 * eps)
            n = max(241, int(8.0 / (0.2 * eps)))
            grid = GridSpec.line(-0.5, 0.5, n, depth=3)
            forms = np.stack([*face_second_form(glued, a).as_row(),
                              face_profile_hessian(glued, a)])
            outs.append((glued.to_dict(), convexity_certificate(glued, grid),
                         concavity_certificate(glued, grid), forms.tobytes()))
        assert outs[0] == outs[1]
    assert shared.angle == dihedral_angle(left, right)


def test_joined_glue_face_keeps_the_bits_of_the_smoothed_union():
    # The shipped mu and second a-factor are Poly((1.0,)) on both charts, so
    # the glue face holds each as one piece and never smooths it. The face
    # forms must keep every bit of the union that joins every curve with an
    # order-1 kink at 0 and runs each through two_stage_smooth.
    left, right = shipped_charts()
    face = glue_face(left, right)
    assert [len(c.pieces) for c in face.curves] == [1, 2, 2, 1]
    pairs = zip((left.mu, left.phi, *(fa for fa, _ in left.H.terms)),
                (right.mu, right.phi, *(fa for fa, _ in right.H.terms)))
    kinked = [Jet3Curve((cl.domain[0], cr.domain[1]), cl.pieces + cr.pieces,
                        cl.kinks + ((0.0, 1),) + cr.kinks) for cl, cr in pairs]
    a = np.linspace(-0.5, 0.5, 4001)

    def bits(chart):
        forms = np.stack([*face_second_form(chart, a).as_row(),
                          face_profile_hessian(chart, a)])
        return forms.view(np.int64)

    for eps in (0.03, 0.1, 0.117578125, 0.22):
        for ratio in (0.195, 0.2, 0.205):
            delta = ratio * eps
            mu, phi, *fas = (two_stage_smooth(c, 0.0, eps, delta) for c in kinked)
            old = CornerChart(mu=mu, phi=phi,
                              H=BiWarp(tuple(zip(fas, face.b_factors))),
                              fiber_dim=3, side="union")
            new = glue_and_smooth(face, eps, delta)
            assert new.mu is face.curves[0] and len(old.mu.pieces) == 5
            assert np.array_equal(bits(new), bits(old))


def c1_pair(second_left=Poly((1.0,)), second_right=Poly((1.0,))):
    """Charts with phi = 0 (angle pi) and the same mu on both sides, whose
    first a-factor alone changes slope at a = 0."""
    g = (Poly((1.0,)), Poly((0.0, 0.2)))
    L = simple_chart("left", Poly((1.0,)), Poly((0.0,)),
                     [(Poly((1.0, 0.1)), g[0]), (second_left, g[1])])
    R = simple_chart("right", Poly((1.0,)), Poly((0.0,)),
                     [(Poly((1.0, -0.1)), g[0]), (second_right, g[1])])
    return L, R


def test_only_the_kinked_a_factor_of_a_c1_pair_is_smoothed():
    face = glue_face(*c1_pair())
    assert dihedral_angle(*c1_pair()) == math.pi
    for curve in (face.curves[0], face.curves[1], face.curves[3]):
        assert len(curve.pieces) == 1 and curve.kinks == ()
    assert face.curves[2].kinks == ((0.0, 1),)
    glued = glue_and_smooth(face, 0.2, 0.04)
    assert glued.mu is face.curves[0] and glued.phi is face.curves[1]
    assert glued.H.terms[1][0] is face.curves[3]
    assert glued.H.terms[0][0].kink_order(0.0) is None
    # The kinked a-factor still checks the widths, with the same message.
    for eps, delta in ((0.1, 0.1), (0.1, 0.2), (0.1, 0.0), (0.1, -0.05),
                       (0.0, 0.0), (-0.1, 0.05)):
        with pytest.raises(PreconditionError, match=r"need 0 < delta < eps"):
            glue_and_smooth(face, eps, delta)


@pytest.mark.parametrize("second_left, second_right", [
    (Poly((0.0,)), Poly((-0.0,))),
    (Poly((1.0,)), Poly((1.0,), 0.5)),
])
def test_a_factor_of_other_bits_keeps_its_corner(second_left, second_right):
    # 0.0 and -0.0, or two centers of one constant, compare equal as values
    # but are different nodes: the union keeps its kink and is smoothed.
    face = glue_face(*c1_pair(second_left, second_right))
    curve = face.curves[3]
    assert len(curve.pieces) == 2 and curve.kinks == ((0.0, 1),)
    glued = glue_and_smooth(face, 0.2, 0.04)
    assert repr(glued.H.terms[1][0]) == repr(two_stage_smooth(curve, 0.0, 0.2, 0.04))


def test_glue_rejects_mismatched_boundaries():
    left, _ = corner_pair()
    _, right_bad = corner_pair(w1=0.25)
    with pytest.raises(PreconditionError):
        glue_face(left, right_bad)


def test_glue_refuses_an_a_factor_mismatch_where_h_agrees():
    # H = f1(a) g(b) + f2(a) g(b): both charts have H(0, b) = g(b), but
    # f1(0) is 0.6 on the left and 0.4 on the right, so the union of f1
    # breaks at a = 0.
    g = Poly((1.0, 0.1))
    L = simple_chart("left", Poly((1.0,)), Poly((0.0,)),
                     [(Poly((0.6, 0.1)), g), (Poly((0.4,)), g)])
    R = simple_chart("right", Poly((1.0,)), Poly((0.0,)),
                     [(Poly((0.4, -0.1)), g), (Poly((0.6,)), g)])
    with pytest.raises(PreconditionError, match=r"0\.6 vs 0\.4"):
        glue_face(L, R)


def test_glue_rejects_nonpositive_second_form_sum():
    # s = 0 makes d_a(H^2) continuous: the b-slice sum is 0, not > 0
    left, right = corner_pair(s=0.0)
    with pytest.raises(PreconditionError):
        glue_face(left, right)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def certify(chart, delta, depth=3):
    lo = chart.a_range[0]
    hi = chart.a_range[1]
    n = max(241, int(8 * (hi - lo) / delta))
    grid = GridSpec.line(lo, hi, n, depth=depth)
    return (convexity_certificate(chart, grid),
            concavity_certificate(chart, grid))


def test_synthetic_convex_chart_has_positive_margin():
    left, _ = corner_pair()
    cert = convexity_certificate(left, GridSpec.line(-0.5, -1e-9, 201, depth=2))
    assert cert.passed
    assert cert.min_margin > 0.2


def test_nan_zed_clear_fails_convexity(monkeypatch):
    # min(tau, nan) is tau in Python; the margin must carry the NaN instead.
    left, _ = corner_pair()
    grid = GridSpec.line(-0.5, -1e-9, 201, depth=2)
    poison = np.linspace(-0.5, -1e-9, 201)[100]
    real = corner._clear_numerators

    def poisoned(chart, a):
        tau_clear, zed_clear, *rest = real(chart, a)
        return (tau_clear, np.where(a == poison, math.nan, zed_clear), *rest)

    monkeypatch.setattr(corner, "_clear_numerators", poisoned)
    cert = convexity_certificate(left, grid)
    assert not cert.passed
    assert cert.nonfinite_count >= 1
    assert cert.nonfinite_at == (poison,)


def test_nan_face_graph_is_refused():
    # phi(a) = nan * a passes the phi(0) = 0 normalization (|nan| > 1e-12 is
    # false) but not the sampled graph check.
    with pytest.raises(DomainError):
        simple_chart("left", Poly((1.0,)), Poly((0.0, math.nan)),
                     [(Poly((1.0,)), Poly((1.0,)))])


def test_flat_chart_zero_margin():
    ch = simple_chart("left", Poly((1.0,)), Poly((0.0,)),
                      [(Poly((1.0,)), Poly((1.0,)))])
    cvx = convexity_certificate(ch, GridSpec.line(-1.0, 0.0, 51))
    ccv = concavity_certificate(ch, GridSpec.line(-1.0, 0.0, 51))
    assert cvx.min_margin == pytest.approx(0.0, abs=1e-14)
    assert ccv.min_margin == pytest.approx(0.0, abs=1e-13)
    assert not cvx.passed and not ccv.passed


def test_glued_certificates_pass_for_bisected_eps():
    face = glue_face(*corner_pair())

    def passes(eps):
        try:
            glued = glue_and_smooth(face, eps, eps / 5.0)
        except PreconditionError:
            return False
        cvx, ccv = certify(glued, eps / 5.0, depth=2)
        return cvx.passed and ccv.passed

    eps = bisect_param(passes, 0.03, 0.22, tol=2e-3)
    glued = glue_and_smooth(face, eps, eps / 5.0)
    cvx, ccv = certify(glued, eps / 5.0)
    assert cvx.passed and ccv.passed
    assert cvx.min_margin > 1e-6
    assert ccv.min_margin > 1e-6


def test_concave_inputs_give_concave_output():
    left, right = corner_pair()
    for a in np.linspace(-0.49, -0.01, 25):
        assert face_profile_hessian(left, a) < -1e-3
    glued = glue_and_smooth(glue_face(left, right), 0.15, 0.03)
    _, ccv = certify(glued, 0.03)
    assert ccv.passed


def test_face_graph_exit_detected():
    # phi(-1) = -3 leaves the b-range: the chart constructor refuses
    with pytest.raises(DomainError):
        simple_chart("left", Poly((1.0,)), Poly((0.0, 3.0)),
                     [(Poly((1.0,)), Poly((1.0,)))], b_rng=(-0.5, 0.5))
    ok_ch = simple_chart("left", Poly((1.0,)), Poly((0.0, 0.3)),
                         [(Poly((1.0,)), Poly((1.0,)))], b_rng=(-0.5, 0.5))
    with pytest.raises(DomainError):
        face_second_form(ok_ch, -10.0)


def test_face_graph_exit_between_the_chart_samples_fails_the_scan():
    # phi = 0.6 sin(23 pi a) vanishes at the 24 points of [-1, 0] that the
    # constructor checks, but reaches +-0.6 between them, outside the
    # b-range [-0.5, 0.5]: the b-factors' jets refuse those face points.
    ch = simple_chart("left", Poly((1.0,)), Sin(0.6, 23.0 * math.pi),
                      [(Poly((1.0,)), Poly((1.0,)))], b_rng=(-0.5, 0.5))
    with pytest.raises(DomainError):
        face_second_form(ch, -0.5 / 23.0)
    for certificate in (convexity_certificate, concavity_certificate):
        with pytest.raises(EvaluationError) as info:
            certificate(ch, GridSpec.line(-1.0, 0.0, 101))
        assert isinstance(info.value.__cause__, DomainError)


def test_chart_names_the_first_grid_point_where_h_dips_to_zero():
    # H = (a + 0.5)^2 + (b - 0.2)^2 - 0.05 is <= 0 on a disk around
    # (-0.5, 0.2) that holds several of the 24 x 24 samples; the chart
    # names the first of them in the order of the meshgrid (a, b) pairs.
    rng, b_rng = (-1.0, 0.0), (-1.5, 1.5)
    H = BiWarp(tuple((Jet3Curve.from_node(fa, rng), Jet3Curve.from_node(gb, b_rng))
                     for fa, gb in ((Poly((1.0,)), Poly((-0.01, -0.4, 1.0))),
                                    (Poly((0.25, 1.0, 1.0)), Poly((1.0,))))))
    a, b = (x.ravel() for x in np.meshgrid(
        np.linspace(*rng, 24), np.linspace(*b_rng, 24), indexing="ij"))
    bad = H.bijet(a, b).value <= 0.0
    assert 1 < bad.sum() and not bad[0]
    i = int(np.argmax(bad))
    with pytest.raises(PreconditionError) as err:
        CornerChart(mu=Jet3Curve.from_node(Poly((1.0,)), rng),
                    phi=Jet3Curve.from_node(Poly((0.0,)), rng), H=H,
                    fiber_dim=3, side="left")
    assert str(err.value) == f"H <= 0 at (a={a[i].item()!r}, b={b[i].item()!r})"


def test_chart_requires_normalization():
    with pytest.raises(PreconditionError):
        simple_chart("left", Poly((1.1,)), Poly((0.0,)),
                     [(Poly((1.0,)), Poly((1.0,)))])
    with pytest.raises(PreconditionError):
        simple_chart("left", Poly((1.0,)), Poly((0.2,)),
                     [(Poly((1.0,)), Poly((1.0,)))])


def test_chart_with_non_finite_mu_is_refused():
    # |nan - 1| > 1e-12 is false: only a finiteness check on mu's jet
    # keeps a NaN mu(0) from passing the normalization check.
    scenario = json.loads((SCENARIOS / "glue_corner.json").read_text())
    left = CornerChart.from_dict(scenario["left"])
    mu = Jet3Curve.from_node(Poly((1.0, math.nan)), left.a_range)
    with pytest.raises(DomainError, match="non-finite jet at x=0.0"):
        dataclasses.replace(left, mu=mu)


def test_serialization_round_trip():
    left, _ = corner_pair()
    clone = CornerChart.from_dict(left.to_dict())
    assert clone == left
