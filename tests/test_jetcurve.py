import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from riccicert.errors import DomainError, KinkSideRequired, PreconditionError
from riccicert.jetcurve import (
    Cos,
    ExpOf,
    Jet3Curve,
    Log,
    Poly,
    Recip,
    Scale,
    Sin,
    Sum,
    _NODE_KINDS,
    _first,
    jets,
    node_from_dict,
)
from oracles import jet_per_piece, poly_jet_loop

STEP_STENCIL = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))


def fd1(node, x, h=1e-4):
    return sum(w * node.jet(x + o * h).value for o, w in STEP_STENCIL) / h


# ---------------------------------------------------------------------------
# spec examples
# ---------------------------------------------------------------------------


def test_cos_jet_at_zero():
    curve = Jet3Curve.from_node(Cos(1.0), (0.0, math.pi))
    assert curve.jet(0.0).as_tuple() == (1.0, 0.0, -1.0, 0.0)


def test_absolute_value_left_jet():
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.0, Poly((0.0, -1.0))), (0.0, 1.0, Poly((0.0, 1.0)))],
        kinks=[(0.0, 1)],
    )
    assert curve.jet(0.0, side="left").as_tuple() == (0.0, -1.0, 0.0, 0.0)
    assert curve.jet(0.0, side="right").as_tuple() == (0.0, 1.0, 0.0, 0.0)


def test_cubic_monomial_jet():
    curve = Jet3Curve.from_node(Poly((0.0, 0.0, 0.0, 1.0)), (0.0, 2.0))
    assert curve.jet(1.0).as_tuple() == (1.0, 3.0, 6.0, 6.0)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def test_out_of_domain():
    curve = Jet3Curve.from_node(Poly((1.0,)), (0.0, 1.0))
    with pytest.raises(DomainError):
        curve.jet(2.0)


def test_kink_requires_side():
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.0, Poly((0.0, -1.0))), (0.0, 1.0, Poly((0.0, 1.0)))],
        kinks=[(0.0, 1)],
    )
    with pytest.raises(KinkSideRequired):
        curve.jet(0.0)
    # values are continuous, so no side is needed for them
    assert curve.value(0.0) == 0.0


def test_piece_mismatch_rejected():
    with pytest.raises(PreconditionError):
        Jet3Curve.piecewise(
            [(0.0, 1.0, Poly((0.0,))), (1.0, 2.0, Poly((5.0,)))]
        )


@pytest.mark.parametrize("make, field", [
    (lambda b: Sin(1.0, b), "frequency"),
    (lambda b: Cos(1.0, b), "frequency"),
    (lambda b: Log(1.0, b, 1.0), "rate"),
])
def test_a_parameter_whose_cube_overflows_is_refused(make, field):
    make(-5e102)  # cubes to -1.25e308, in range
    with pytest.raises(PreconditionError, match=f"node {field} -1e\\+103: its cube"):
        make(-1e103)


def test_nan_piece_at_breakpoint_rejected():
    # abs(1.0 - nan) > tol is false, so a plain comparison accepts the join.
    with pytest.raises(PreconditionError, match="breakpoint 0.5"):
        Jet3Curve.piecewise(
            [(0.0, 0.5, Poly((1.0,))), (0.5, 1.0, Poly((math.nan,)))]
        )


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def _leaf(rng):
    kind = rng.integers(0, 5)
    if kind == 0:
        return Poly(tuple(rng.uniform(-2, 2, size=rng.integers(1, 5))))
    if kind == 1:
        return Cos(rng.uniform(0.5, 2), rng.uniform(0.3, 2), rng.uniform(-1, 1))
    if kind == 2:
        return Sin(rng.uniform(0.5, 2), rng.uniform(0.3, 2), rng.uniform(-1, 1))
    if kind == 3:
        return Scale(ExpOf(Poly((0.0, rng.uniform(-0.8, 0.8)))), rng.uniform(0.5, 1.5))
    return Log(rng.uniform(0.5, 1.5), 1.0, rng.uniform(3.0, 5.0))


def random_node(rng, depth=2):
    if depth == 0:
        return _leaf(rng)
    kind = rng.integers(0, 4)
    if kind == 0:
        return Sum(tuple(random_node(rng, depth - 1) for _ in range(2)))
    if kind == 1:
        return Scale(random_node(rng, depth - 1), rng.uniform(-2, 2))
    if kind == 2:
        # keep the inner range small so exp/recip stay tame
        return ExpOf(Scale(_leaf(rng), 0.2))
    return Recip(Sum((Poly((4.0,)), Scale(_leaf(rng), 0.3))))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_jets_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    node = random_node(rng)
    x = rng.uniform(-1.0, 1.0)
    jet = node.jet(x)
    assert jet.is_finite()
    scale = max(1.0, abs(jet.d1))
    assert fd1(node, x) == pytest.approx(jet.d1, rel=1e-7, abs=1e-7 * scale)


def test_fd_consistency_order_at_least_two():
    # Richardson check: quarter the step, error should drop ~16x (order 4
    # stencil); assert observed order >= 1.9 as the floor.
    node = ExpOf(Sum((Cos(1.3, 1.7, 0.2), Poly((0.0, 0.4)))))
    x = 0.37
    exact = node.jet(x).d1
    e1 = abs(fd1(node, x, h=1e-2) - exact)
    e2 = abs(fd1(node, x, h=5e-3) - exact)
    order = math.log(e1 / e2, 2.0)
    assert order >= 1.9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialization_round_trip_bit_exact():
    left = Sum((Cos(1.5, 2.0, 0.125), Poly((0.5, -0.25))))
    v = left.jet(0.25).value
    right = Scale(ExpOf(Poly((-0.125, 0.5))), v)  # matches value at 0.25
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.25, left), (0.25, 1.0, right)],
        kinks=[(0.25, 1)],
    )
    clone = Jet3Curve.from_dict(curve.to_dict())
    assert clone == curve
    for x in np.linspace(-1.0, 1.0, 17):
        side = "left" if clone.kink_order(x) else None
        assert clone.jet(x, side).as_tuple() == curve.jet(x, side).as_tuple()
    # every node kind, each on its own curve
    nodes = (left, right, Log(0.5, 2.0, 3.0), Scale(Sin(1.0, 3.0, 0.5), -2.0),
             Recip(Poly((2.0, 0.5), 0.125)), ExpOf(Cos(0.25)))
    kinds = set()
    for node in nodes:
        curve = Jet3Curve.from_node(node, (-1.0, 1.0))
        clone = Jet3Curve.from_dict(curve.to_dict())
        assert clone == curve
        x = np.linspace(-1.0, 1.0, 17)
        assert np.array_equal(clone.jet(x).as_tuple(), curve.jet(x).as_tuple())
        todo = [curve.to_dict()["pieces"][0]["fn"]]
        while todo:
            d = todo.pop()
            kinds.add(d["kind"])
            todo += [v for v in d.values() if isinstance(v, dict)]
            todo += [v for vs in d.values() if isinstance(vs, list)
                     for v in vs if isinstance(v, dict)]
    assert kinds == set(_NODE_KINDS)


def test_node_from_dict_rejects_unknown_kind():
    with pytest.raises(PreconditionError):
        node_from_dict({"kind": "nope"})


def test_value_names_the_first_non_finite_point():
    # 1 + 1e308 x overflows to inf from x = 2 on; nothing raises on the way
    curve = Jet3Curve.from_node(Poly((1.0, 1e308)), (0.0, 4.0))
    assert curve.value(1.0) == 1e308
    with pytest.raises(DomainError, match="x=2.0"):
        curve.value(2.0)
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match=r"x=2\.0"):
            curve.value(np.array([0.0, 1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# array jets
# ---------------------------------------------------------------------------


def _exact_leaf(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Poly(tuple(rng.uniform(-2, 2, size=rng.integers(1, 6))),
                    rng.uniform(-0.5, 0.5))
    if kind == 1:
        return Cos(rng.uniform(0.5, 2), rng.uniform(0.3, 2), rng.uniform(-1, 1))
    return Sin(rng.uniform(0.5, 2), rng.uniform(0.3, 2), rng.uniform(-1, 1))


_EXACT_KINDS = {
    "poly": lambda rng: Poly(tuple(rng.uniform(-2, 2, size=5)), 0.25),
    "sin": lambda rng: Sin(1.3, 1.7, 0.2),
    "cos": lambda rng: Cos(0.7, 2.3, -0.4),
    "sum": lambda rng: Sum((_exact_leaf(rng), _exact_leaf(rng))),
    "scale": lambda rng: Scale(_exact_leaf(rng), rng.uniform(-2, 2)),
}

# np.exp, np.log and array ** round differently from math and float **.
_ULP_KINDS = {
    "log": lambda rng: Log(rng.uniform(0.5, 1.5), 1.0, rng.uniform(3.0, 5.0)),
    "recip": lambda rng: Recip(Sum((Poly((4.0,)), Scale(_exact_leaf(rng), 0.3)))),
    "exp_of": lambda rng: ExpOf(Scale(_exact_leaf(rng), 0.2)),
}


def _scalar_jets(curve, xs):
    jets = [curve.jet(x, "left" if curve.kink_order(x) else None) for x in xs]
    return np.array([j.as_tuple() for j in jets]).T


@pytest.mark.parametrize("kind", sorted(_EXACT_KINDS))
def test_array_jets_equal_scalar_jets(kind):
    rng = np.random.default_rng(7)
    curve = Jet3Curve.from_node(_EXACT_KINDS[kind](rng), (-1.0, 1.0))
    xs = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 200)])
    got = np.array(curve.jet(xs).as_tuple())
    assert got.tobytes() == _scalar_jets(curve, xs).tobytes()
    assert curve.value(xs).tobytes() == got[0].tobytes()


@pytest.mark.parametrize("kind", sorted(_ULP_KINDS))
def test_array_jets_match_scalar_jets_to_a_few_ulp(kind):
    rng = np.random.default_rng(11)
    curve = Jet3Curve.from_node(_ULP_KINDS[kind](rng), (-1.0, 1.0))
    xs = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 200)])
    got = np.array(curve.jet(xs).as_tuple())
    want = _scalar_jets(curve, xs)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0,
                                   atol=8 * np.finfo(float).eps * np.max(np.abs(w)))


@pytest.mark.parametrize("node, d3", [(Recip(Poly((1.0, 1e120))), -math.inf),
                                      (ExpOf(Poly((1.0, 1e120))), math.inf)],
                         ids=["recip", "exp_of"])
def test_a_float_jet_whose_cube_overflows_is_infinite(node, d3):
    # u.d1**3 of a float raised OverflowError, where an array gives inf.
    jet = node.jet(0.0)
    assert jet.d3 == d3 and math.isfinite(jet.value)
    with np.errstate(over="ignore"):
        array = node.jet(np.array([0.0]))
    assert array.d3.tolist() == [d3]


@pytest.mark.parametrize("node", [Scale(ExpOf(Poly((709.0, 1.0))), 1e-300)],
                         ids=["exp_of"])
def test_a_jet_whose_exp_overflows_is_refused_at_the_same_point(node):
    # exp(709 + x) overflows past x = 0.78: math.exp raised OverflowError
    # there, where an array gives inf. Both forms now refuse x = 1.0 alike.
    curve = Jet3Curve.from_node(node, (0.0, 2.0))
    assert math.isfinite(curve.jet(0.5).value)
    with pytest.raises(DomainError, match=r"non-finite jet at x=1\.0: "):
        curve.jet(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match=r"non-finite jet at x=1\.0$"):
            curve.jet(np.array([0.0, 0.5, 1.0, 1.5]))


@pytest.mark.parametrize("node, value, order, bad", [
    (ExpOf(Poly((0.0, 1e120))), 1.0, 3, math.inf),
    (Recip(Poly((1e-160, 1.0))), 1e160, 1, -math.inf),
], ids=["exp_of", "recip"])
def test_value_refuses_a_point_whose_jet_is_not_finite(node, value, order, bad):
    # The value is finite but a derivative is not: value reads the
    # right-sided jet, so it refuses the point as jet does.
    assert node.jet(0.0).value == value
    assert node.jet(0.0).as_tuple()[order] == bad
    curve = Jet3Curve.from_node(node, (-1.0, 1.0))
    with pytest.raises(DomainError, match=r"non-finite jet at x=0\.0"):
        curve.value(0.0)
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match=r"non-finite jet at x=0\.0$"):
            curve.value(np.array([0.0]))


def test_array_piece_lookup_follows_scalar_rules():
    # A kink takes the left piece, a smooth breakpoint the right one, and the
    # far end the last piece; values use the right piece even at the kink.
    left, right = Poly((0.0, -1.0)), Poly((0.0, 1.0, 0.5))
    mid = Poly((0.28125, 1.25, 0.5), 0.25)  # `right` recentered at 0.25
    curve = Jet3Curve.piecewise(
        [(-1.0, 0.0, left), (0.0, 0.25, right), (0.25, 1.0, mid)],
        kinks=[(0.0, 1)])
    xs = np.array([-1.0, -0.5, 0.0, 0.1, 0.25, 0.5, 1.0])
    got = np.array(curve.jet(xs).as_tuple())
    assert got.tobytes() == _scalar_jets(curve, xs).tobytes()
    assert curve.jet(np.array([0.0])).d1[0] == -1.0
    assert curve.jet(np.array([0.0]), side="right").d1[0] == 1.0
    values = np.array([curve.value(x) for x in xs])
    assert curve.value(xs).tobytes() == values.tobytes()


def test_array_jet_errors_name_the_first_bad_point():
    curve = Jet3Curve.from_node(Log(1.0, 1.0, 0.0), (-1.0, 1.0))
    with pytest.raises(DomainError,
                       match=r"^log argument -0\.5 <= 0 at x=-0\.5$"):
        curve.jet(np.array([0.5, -0.5, -0.25]))
    with pytest.raises(DomainError, match="outside domain"):
        curve.jet(np.array([0.5, 2.0]))


def test_first_reads_a_2d_mask_in_c_order_through_broadcast_values():
    # A (2, 3) table mask true at [1, 2] and [1, 0] (flat 5 and 3): rows
    # and columns of values broadcast against it, and floats come back.
    bad = np.zeros((2, 3), dtype=bool)
    bad[1, 2] = bad[1, 0] = True
    rows, cols = np.array([[10.0], [20.0]]), np.array([[1.0, 2.0, 3.0]])
    got = _first(bad, rows, cols, rows + cols, 7.0)
    assert got == (20.0, 1.0, 21.0, 7.0)
    assert all(type(v) is float for v in got)
    assert _first(np.zeros((2, 3), dtype=bool), rows) is None


# ---------------------------------------------------------------------------
# the fused Horner pass keeps the bits of per-piece evaluation
# ---------------------------------------------------------------------------

# Signed zeros stress the +0.0 state that zero padding must keep.
_COEFFS = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
_CENTERS = st.floats(-1.5, 0.5)  # |x - center| <= 2 on the domains below


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFFS, min_size=1, max_size=12), _CENTERS,
       st.lists(st.sampled_from([0.0, -0.0, 1e300]) | st.floats(-1.5, 0.5),
                min_size=1, max_size=20))
def test_array_poly_jet_is_the_float_recurrence_bit_for_bit(coeffs, center, xs):
    poly = Poly(tuple(coeffs), center)
    x = np.array(xs)
    with np.errstate(all="ignore"):
        got, want = poly.jet(x), poly_jet_loop(poly, x)
    for g, w in zip(got.as_tuple(), want.as_tuple()):
        assert g.tobytes() == w.tobytes()


def _node(draw, kind, b=None, target=None):
    """A fresh node of ``kind``, shifted to take the value ``target`` at ``b``
    if one is given (a Sin piece then becomes a Sum)."""
    if kind == "const":
        return Poly((draw(_COEFFS) if target is None else target,))
    if kind == "poly":
        coeffs = draw(st.lists(_COEFFS, min_size=2, max_size=12))  # degrees 1-11
        node = Poly(tuple(coeffs), draw(_CENTERS))
        if target is None:
            return node
        coeffs[0] += target - node.jet(b).value
        return Poly(tuple(coeffs), node.center)
    wave = (Sin if kind == "sin" else Cos)(
        draw(st.floats(0.5, 2.0)), draw(st.floats(0.3, 2.0)), draw(st.floats(-1.0, 1.0)))
    return wave if target is None else Sum((wave, Poly((target - wave.jet(b).value,))))


def _twin(node, b):
    """A different node equal to ``node`` through order 3 up to rounding: a
    Poly expanded about ``b`` (rounded once), a Sin or Cos negated half a
    period on."""
    if type(node) is Sum:
        return Sum((_twin(node.terms[0], b),) + node.terms[1:])
    if type(node) in (Sin, Cos):
        return type(node)(-node.amplitude, node.frequency, node.phase + math.pi)
    d = Fraction(b) - Fraction(node.center)
    c = [Fraction(v) for v in node.coeffs]
    return Poly(tuple(float(sum(c[j] * math.comb(j, k) * d ** (j - k)
                                for j in range(k, len(c))))
                      for k in range(len(c))), b)


_DOMAINS = st.floats(-1.5, -0.5).flatmap(
    lambda lo: st.tuples(st.just(lo), st.floats(lo + 0.25, 0.5)))


@st.composite
def mixed_curves(draw, domain=_DOMAINS):
    """A curve of Poly, constant, Sin, Cos and Sum pieces on a domain in
    [-1.5, 0.5]. A breakpoint either starts a value-matched new node at a
    marked order-1 kink, or keeps the previous node or its twin (continuous
    through order 3), marked or not."""
    lo, hi = draw(domain)
    cuts = sorted(set(draw(st.lists(st.floats(lo, hi, exclude_min=True,
                                              exclude_max=True), max_size=5))))
    kinds = st.sampled_from(["poly", "const", "sin", "cos"])
    node = _node(draw, draw(kinds))
    segments, kinks = [], []
    for a, b in zip([lo] + cuts, cuts + [hi]):
        segments.append((a, b, node))
        if b == hi:
            break
        if draw(st.booleans()):
            node = _node(draw, draw(kinds), b, node.jet(b).value)
            kinks.append((b, 1))
            continue
        if draw(st.booleans()):
            node = _twin(node, b)
        if draw(st.booleans()):
            kinks.append((b, 1))
    try:
        return Jet3Curve.piecewise(segments, kinks=sorted(kinks))
    except PreconditionError:
        reject()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_array_jet_matches_per_piece_dispatch_bit_for_bit(data):
    curve = data.draw(mixed_curves())
    lo, hi = curve.domain
    slack = 1e-13 * max(1.0, abs(lo), abs(hi))  # inside the domain check's slack
    marked = [a for a, _, _ in curve.pieces[1:]] + [loc for loc, _ in curve.kinks]
    on_marks = st.sampled_from(marked + [lo, hi, lo - slack, hi + slack])
    xs = data.draw(st.lists(on_marks | st.floats(lo, hi), min_size=1, max_size=40))
    side = data.draw(st.sampled_from([None, "left", "right"]))
    x = np.array(xs)
    got, want = curve.jet(x, side), jet_per_piece(curve, x, side)
    for g, w in zip(got.as_tuple(), want.as_tuple()):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


# ---------------------------------------------------------------------------
# a bundle of curves keeps the bits and the errors of one curve at a time
# ---------------------------------------------------------------------------


def _one_at_a_time(curves, x, side):
    """Each curve's own one-curve jets, or the (class, message) of the first
    error that evaluating them in order raises."""
    try:
        return [jets((curve,), x, side)[0] for curve in curves]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_bundle_has_the_bits_and_first_error_of_its_curves_one_at_a_time(data):
    # Curves on one shared domain share the points unclipped; on their own
    # domains a point may lie outside some of them, which must name the
    # curve that raises first, as a NaN point must.
    domain = st.just(data.draw(_DOMAINS)) if data.draw(st.booleans()) else _DOMAINS
    curves = data.draw(st.lists(mixed_curves(domain), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        curves.append(curves[0])
    marks = {math.nan}
    for curve in curves:
        lo, hi = curve.domain
        slack = 1e-13 * max(1.0, abs(lo), abs(hi))  # inside the domain check's
        marks.update([a for a, _, _ in curve.pieces[1:]], [loc for loc, _ in curve.kinks],
                     [lo, hi, lo - slack, hi + slack])
    span = st.floats(min(c.domain[0] for c in curves), max(c.domain[1] for c in curves))
    xs = data.draw(st.lists(st.sampled_from(sorted(marks, key=repr)) | span,
                            min_size=1, max_size=30))
    side = data.draw(st.sampled_from([None, "left", "right"]))
    x = np.array(xs)
    want = _one_at_a_time(curves, x, side)
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as err:
            jets(tuple(curves), x, side)
        assert str(err.value) == want[1]
        return
    got = jets(tuple(curves), x, side)
    assert len(got) == len(curves)
    for g, w in zip(got, want):
        assert np.array(g.as_tuple()).tobytes() == np.array(w.as_tuple()).tobytes()


def test_a_bundle_refuses_a_bad_side_and_names_the_first_failing_curve():
    inner = Jet3Curve.from_node(Poly((1.0, 2.0)), (-1.0, 1.0))
    outer = Jet3Curve.from_node(Sin(1.0), (-2.0, 2.0))
    with pytest.raises(PreconditionError, match="side must be"):
        jets((inner,), np.array([0.0]), "up")
    # 1.5 lies outside the inner curve's domain only, and the NaN makes
    # every jet non-finite: the curve evaluated first names its own error,
    # though the bundle tests every domain before any jet.
    x = np.array([0.0, math.nan, 1.5])
    with pytest.raises(DomainError, match=r"^x=1\.5 outside domain \[-1\.0, 1\.0\]$"):
        jets((inner, outer), x)
    with pytest.raises(DomainError, match=r"^non-finite jet at x=nan$"):
        jets((outer, inner), x)


def test_a_bundle_evaluates_a_repeated_curve_once(monkeypatch):
    import riccicert.jetcurve as jetcurve
    c = Jet3Curve.from_node(Poly((1.0, 2.0, 3.0)), (-1.0, 1.0))
    d = Jet3Curve.from_node(Sin(1.0), (-1.0, 1.0))
    x = np.linspace(-1.0, 1.0, 9)
    bundle, seen = jetcurve._jets, []

    def counted(curves, x, side):
        seen.append(curves)
        return bundle(curves, x, side)

    monkeypatch.setattr(jetcurve, "_jets", counted)
    got = jets((c, c, d), x)
    assert [tuple(map(id, curves)) for curves in seen] == [(id(c), id(d))]
    assert got[0] is got[1]
    for g, curve in zip(got, (c, c, d)):
        want = np.array(curve.jet(x).as_tuple())
        assert np.array(g.as_tuple()).tobytes() == want.tobytes()
    # A failing bundle re-runs its distinct curves in order and raises
    # the first one's error, as evaluating each position in order does.
    log = Jet3Curve.from_node(Log(1.0, 1.0, 0.0), (-1.0, 1.0))
    short = Jet3Curve.from_node(Poly((1.0,)), (-0.5, 0.5))
    with pytest.raises(DomainError, match=r"^log argument -1\.0 <= 0 at x=-1\.0$"):
        jets((c, log, log, short), x)
    with pytest.raises(DomainError, match=r"^x=-1\.0 outside domain \[-0\.5, 0\.5\]$"):
        jets((short, log, short), x)


def test_a_kink_off_a_breakpoint_is_refused():
    # Such a kink made the two evaluation paths disagree: jet(0.3) asked
    # for a side, while jet(np.array([0.3])) returned a jet.
    message = r"^kink 0\.3 is not a breakpoint of the pieces$"
    with pytest.raises(PreconditionError, match=message):
        Jet3Curve.piecewise([(0, 1, Poly((0, 1)))], kinks=[(0.3, 1)])
    with pytest.raises(PreconditionError, match=message):
        Jet3Curve.piecewise([(0.0, 0.5, Poly((0.0, 1.0))),
                             (0.5, 1.0, Poly((0.5, 1.0), 0.5))],
                            kinks=[(0.3, 1), (0.5, 1)])
    with pytest.raises(PreconditionError, match=r"^kink 0\.0 is not a breakpoint"):
        Jet3Curve.piecewise([(0.0, 1.0, Poly((0.0, 1.0)))], kinks=[(0.0, 1)])


@pytest.mark.parametrize("build", [
    lambda pieces: Jet3Curve((0.0, 1.0), pieces),
    lambda pieces: Jet3Curve.from_dict({
        "domain": [0.0, 1.0],
        "pieces": [{"lo": a, "hi": b, "fn": n.to_dict()} for a, b, n in pieces]}),
])
def test_a_zero_width_last_piece_is_refused(build):
    line = Poly((0.0, 1.0))
    with pytest.raises(PreconditionError, match="^pieces must be contiguous and ordered$"):
        build(((0.0, 1.0, line), (1.0, 1.0, line)))
    # A zero-width first or middle piece was refused already.
    with pytest.raises(PreconditionError, match="^pieces must be contiguous and ordered$"):
        build(((0.0, 0.0, line), (0.0, 1.0, line)))
