"""Piecewise-analytic scalar curves with exact jets through order 3.

A curve is a chain of closed-form pieces (polynomials, sines and cosines,
logarithms, and their scalings, sums, reciprocals and exponentials)
covering a closed interval.
Evaluation returns a :class:`Jet3` -- value and first three derivatives --
propagated analytically through the expression tree, never by finite
differences. A float64 array argument gives a :class:`Jet3` of arrays.
There is one array path, :func:`jets`, which evaluates a bundle of curves
at the same points: one Horner pass covers every point on a ``Poly`` piece
of every curve, and each jet keeps the bits it has when its curve is
evaluated alone, as ``Jet3Curve.jet`` does.

Curves may carry *kinks*: marked breakpoints where some derivative order
jumps. ``order`` is the lowest discontinuous derivative, so order 1 is a
corner (continuous value, slope jump) and order 2 a jump in curvature only.
Smoothing stages downstream assert on these marks to check they received the
regularity they expect.

Everything here is immutable; operations return new curves.
"""

from __future__ import annotations

import bisect as _bisect
import functools
import math
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, KinkSideRequired, PreconditionError,
                     ScenarioError, decode, integer, list_of, number, tuple_of)

__all__ = [
    "Jet3",
    "BiJet",
    "Poly",
    "Cos",
    "Sin",
    "Log",
    "Scale",
    "Sum",
    "Recip",
    "ExpOf",
    "Jet3Curve",
    "jets",
    "node_from_dict",
    "constant",
]

_MATCH_TOL = 1e-9


def _lib(x):
    """``np`` for array arguments, ``math`` (the scalar fast path) otherwise."""
    return np if isinstance(x, np.ndarray) else math


def _first(bad, *values):
    """``values`` where ``bad`` first holds in C order, as Python scalars, or
    None; each of ``values`` broadcasts against ``bad``."""
    if not isinstance(bad, np.ndarray):
        return values if bad else None
    if not bad.any():
        return None
    i = int(np.argmax(bad))  # flat index
    return tuple(np.broadcast_to(v, bad.shape).flat[i].item() for v in values)


def _cube(v):
    """``v**3``; a float whose cube overflows gives +-inf, as an array does
    (Python's float power raises OverflowError instead)."""
    try:
        return v**3
    except OverflowError:
        return math.copysign(math.inf, v)


def _exp(u):
    """``exp(u)``; a float that overflows gives +inf, as an array does
    (``math.exp`` raises OverflowError instead)."""
    try:
        return _lib(u).exp(u)
    except OverflowError:
        return math.inf


_ORDERS = np.array([1.0, 2.0, 3.0])


def _horner_rows(rows, t, sizes=None):
    """Rows ``(v, d1, d2, d3)`` of ``sum(c_d * t**d)`` for an array ``t``,
    where row ``d < n`` of ``rows``, of shape ``(n + 3,) + t.shape``, holds
    ``c_d`` at each point; the last three rows are scratch.

    This is the float recurrence of :meth:`Poly.jet` run on all four rows at
    once, ``state = state * t + (c, 1 v, 2 d1, 3 d2)``: each element sees the
    same IEEE operations in the same order (``1.0 * v == v``), and leading
    zero coefficients keep the state at +0.0, so a zero-padded row gives the
    bits of the unpadded polynomial. So ``sizes``, for a one-axis ``t``
    ordered by descending degree, may skip that padding: degree ``d`` then
    runs on the first ``sizes[d]`` points only, and rows above a point's
    degree are never read.
    """
    orders = _ORDERS.reshape((3,) + (1,) * t.ndim)
    state = np.zeros((4,) + t.shape)
    # Degrees run downwards, so rows d + 1 .. d + 3 are spent when degree d
    # is reached and hold its other three terms: its terms are rows d .. d + 3.
    for d in range(len(rows) - 4, -1, -1):
        some = Ellipsis if sizes is None else slice(sizes[d])
        term, part = rows[d:d + 4, some], state[:, some]
        np.multiply(orders, part[:3], out=term[1:])
        part *= t[some]
        part += term
    return state


def _pointwise(fn):
    """Let ``fn(obj, *xs)``, written for float64 arrays, take floats too: they
    go in as 1-point arrays, and the result (an array, or a dataclass of
    arrays) comes back as Python floats."""

    @functools.wraps(fn)
    def wrapper(obj, *xs):
        if any(isinstance(x, np.ndarray) for x in xs):
            return fn(obj, *xs)
        out = fn(obj, *(np.array([x], dtype=float) for x in xs))
        if isinstance(out, np.ndarray):
            return float(out[0])
        return type(out)(*(float(getattr(out, f.name)[0]) for f in fields(out)))

    return wrapper


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives of a scalar function at a point, or
    at each point of equal-shape arrays."""

    value: float
    d1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0

    def scaled(self, c: float) -> "Jet3":
        return Jet3(c * self.value, c * self.d1, c * self.d2, c * self.d3)

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(
            self.value + other.value,
            self.d1 + other.d1,
            self.d2 + other.d2,
            self.d3 + other.d3,
        )

    def is_finite(self) -> bool:
        return all(map(math.isfinite, (self.value, self.d1, self.d2, self.d3)))

    def as_tuple(self):
        return (self.value, self.d1, self.d2, self.d3)


@dataclass(frozen=True)
class BiJet:
    """Value and partials through order 2 of a bivariate function.

    A single ``dab`` entry: mixed partials are symmetric by construction.
    """

    value: float
    da: float = 0.0
    db: float = 0.0
    daa: float = 0.0
    dab: float = 0.0
    dbb: float = 0.0


# ---------------------------------------------------------------------------
# analytic primitives
# ---------------------------------------------------------------------------


class Node:
    """Base for analytic expression nodes. Subclasses implement ``jet``."""

    kind = "node"
    # The field whose cube the third derivative takes as a float, if any.
    cubed = None

    def __post_init__(self):
        if self.cubed is None:
            return
        b = getattr(self, self.cubed)
        try:
            float(b) ** 3
        except OverflowError:
            raise PreconditionError(
                f"{self.kind} node {self.cubed} {b!r}: its cube, which the "
                "third derivative takes, overflows float64") from None

    def jet(self, x: float) -> Jet3:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The kind and every field; a nested node becomes its dict, a tuple a list."""
        def plain(v):
            if isinstance(v, Node):
                return v.to_dict()
            return [plain(x) for x in v] if isinstance(v, tuple) else v

        return {"kind": self.kind,
                **{f.name: plain(getattr(self, f.name)) for f in fields(self)}}


@dataclass(frozen=True)
class Poly(Node):
    """Polynomial sum(c_i * (x - center)^i) with coefficients in ascending order."""

    coeffs: tuple[float, ...]
    center: float = 0.0

    kind = "poly"

    def jet(self, x: float) -> Jet3:
        t = x - self.center
        if isinstance(t, np.ndarray):
            rows = np.empty((len(self.coeffs) + 3,) + t.shape)
            rows[:len(self.coeffs)] = np.reshape(self.coeffs, (-1,) + (1,) * t.ndim)
            return Jet3(*_horner_rows(rows, t))
        v = d1 = d2 = d3 = 0.0
        # Horner simultaneously for p, p', p'', p'''.
        for c in reversed(self.coeffs):
            d3 = d3 * t + 3.0 * d2
            d2 = d2 * t + 2.0 * d1
            d1 = d1 * t + v
            v = v * t + c
        return Jet3(v, d1, d2, d3)


@dataclass(frozen=True)
class Cos(Node):
    """amplitude * cos(frequency * x + phase)."""

    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0

    kind = "cos"
    cubed = "frequency"

    def jet(self, x: float) -> Jet3:
        a, b = self.amplitude, self.frequency
        u = b * x + self.phase
        lib = _lib(u)
        c, s = lib.cos(u), lib.sin(u)
        return Jet3(a * c, -a * b * s, -a * b * b * c, a * b**3 * s)


@dataclass(frozen=True)
class Sin(Node):
    """amplitude * sin(frequency * x + phase)."""

    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0

    kind = "sin"
    cubed = "frequency"

    def jet(self, x: float) -> Jet3:
        a, b = self.amplitude, self.frequency
        u = b * x + self.phase
        lib = _lib(u)
        c, s = lib.cos(u), lib.sin(u)
        return Jet3(a * s, a * b * c, -a * b * b * s, -a * b**3 * c)


@dataclass(frozen=True)
class Log(Node):
    """amplitude * ln(rate * x + shift); requires rate*x + shift > 0."""

    amplitude: float
    rate: float = 1.0
    shift: float = 0.0

    kind = "log"
    cubed = "rate"

    def jet(self, x: float) -> Jet3:
        a, b = self.amplitude, self.rate
        u = b * x + self.shift
        bad = _first(u <= 0.0, u, x)
        if bad:
            raise DomainError(f"log argument {bad[0]!r} <= 0 at x={bad[1]!r}")
        return Jet3(
            a * _lib(u).log(u),
            a * b / u,
            -a * b * b / (u * u),
            2.0 * a * b**3 / u**3,
        )


@dataclass(frozen=True)
class Scale(Node):
    """factor * arg(x)."""

    arg: Node
    factor: float

    kind = "scale"

    def jet(self, x: float) -> Jet3:
        return self.arg.jet(x).scaled(self.factor)


@dataclass(frozen=True)
class Sum(Node):
    terms: tuple[Node, ...]

    kind = "sum"

    def jet(self, x: float) -> Jet3:
        out = Jet3(0.0)
        for t in self.terms:
            out = out + t.jet(x)
        return out


@dataclass(frozen=True)
class Recip(Node):
    """1 / arg(x); requires arg(x) != 0."""

    arg: Node

    kind = "recip"

    def jet(self, x: float) -> Jet3:
        u = self.arg.jet(x)
        bad = _first(u.value == 0.0, x)
        if bad:
            raise DomainError(f"reciprocal of zero at x={bad[0]!r}")
        w = 1.0 / u.value
        w2 = w * w
        return Jet3(
            w,
            -u.d1 * w2,
            (2.0 * u.d1 * u.d1 * w - u.d2) * w2,
            (-u.d3 + (6.0 * u.d1 * u.d2 - 6.0 * _cube(u.d1) * w) * w) * w2,
        )


@dataclass(frozen=True)
class ExpOf(Node):
    """exp(arg(x)) for a general inner node."""

    arg: Node

    kind = "exp_of"

    def jet(self, x: float) -> Jet3:
        u = self.arg.jet(x)
        e = _exp(u.value)
        return Jet3(
            e,
            u.d1 * e,
            (u.d2 + u.d1 * u.d1) * e,
            (u.d3 + 3.0 * u.d1 * u.d2 + _cube(u.d1)) * e,
        )


_NODE_KINDS = {cls.kind: cls for cls in (Poly, Cos, Sin, Log, Scale, Sum, Recip, ExpOf)}


def node_from_dict(d: dict) -> Node:
    """The node of a :meth:`Node.to_dict` dict; its fields are decoded by
    their annotations, and a malformed dict raises ScenarioError."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if not isinstance(kind, str) or kind not in _NODE_KINDS:
        raise ScenarioError(f"curve node of no known kind: {d!r}")
    cls = _NODE_KINDS[kind]
    table = {f.name: _FIELD_DECODERS[f.type] if f.default is MISSING
             else (_FIELD_DECODERS[f.type], f.default) for f in fields(cls)}
    spec = {k: v for k, v in d.items() if k != "kind"}
    return cls(**decode(spec, table, f"{kind} node"))


_FIELD_DECODERS = {"float": number, "Node": node_from_dict,
                   "tuple[float, ...]": list_of(number),
                   "tuple[Node, ...]": list_of(node_from_dict)}


def constant(c: float) -> Poly:
    return Poly((float(c),))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


class _Layout(NamedTuple):
    """What a curve's array jets read, built once per curve."""

    breaks: np.ndarray  # the interior breakpoints
    smooth: np.ndarray  # those that are not marked kinks
    kinked: np.ndarray  # those that are
    is_poly: np.ndarray  # per piece, whether it is a Poly
    others: tuple  # the indices of the other pieces
    table: np.ndarray  # Poly coefficients, zero-padded: row d, degree d
    centers: np.ndarray  # Poly centres, one per piece


@dataclass(frozen=True)
class Jet3Curve:
    """A scalar function on ``[domain[0], domain[1]]`` made of analytic pieces.

    ``pieces`` is a tuple of ``(lo, hi, node)`` covering the domain without
    gaps. ``kinks`` maps breakpoint -> lowest discontinuous derivative order.
    At a non-kink breakpoint the adjacent pieces must agree through order 3;
    at a kink of order ``w`` they must agree through order ``w - 1``.
    """

    domain: tuple
    pieces: tuple
    kinks: tuple = ()

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < hi):
            raise PreconditionError(f"empty domain {self.domain!r}")
        if not self.pieces:
            raise PreconditionError("curve needs at least one piece")
        if self.pieces[0][0] != lo or self.pieces[-1][1] != hi:
            raise PreconditionError("pieces do not span the domain")
        # Each piece has positive width and ends where the next one starts.
        for (a, b, _), c in zip(self.pieces, [p[0] for p in self.pieces[1:]] + [hi]):
            if b != c or not (a < b):
                raise PreconditionError("pieces must be contiguous and ordered")
        kink_map = dict(self.kinks)
        for x, order in self.kinks:
            if not (lo < x < hi):
                raise PreconditionError(f"kink {x!r} not interior to the domain")
            if order not in (1, 2, 3):
                raise PreconditionError(f"kink order must be 1, 2 or 3, got {order!r}")
        for (a, b, left), (_, c, right) in zip(self.pieces, self.pieces[1:]):
            need = dict.get(kink_map, b, 4)
            jl, jr = left.jet(b).as_tuple(), right.jet(b).as_tuple()
            for k in range(min(need, 4)):
                vl, vr = jl[k], jr[k]
                tol = _MATCH_TOL * max(1.0, abs(vl), abs(vr))
                if not abs(vl - vr) <= tol:  # a NaN fails too
                    raise PreconditionError(
                        f"pieces mismatch at breakpoint {b!r}: order {k} "
                        f"({vl!r} vs {vr!r}), declared continuity {need - 1}"
                    )

    # -- evaluation ---------------------------------------------------------

    def kink_order(self, x: float):
        for loc, order in self.kinks:
            if loc == x:
                return order
        return None

    def _piece_at(self, x: float, side):
        lo, hi = self.domain
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if x < lo - slack or x > hi + slack:
            raise DomainError(f"x={x!r} outside domain [{lo!r}, {hi!r}]")
        x = min(max(x, lo), hi)
        starts = [p[0] for p in self.pieces]
        i = _bisect.bisect_right(starts, x) - 1
        i = max(i, 0)
        # On a shared breakpoint the right piece owns the point unless the
        # caller asked for the left limit.
        if side == "left" and i > 0 and self.pieces[i][0] == x:
            i -= 1
        return x, self.pieces[i][2]

    @functools.cached_property
    def _layout(self) -> "_Layout":
        breaks = np.array([a for a, _, _ in self.pieces[1:]])
        kinked = np.array([self.kink_order(a) is not None for a in breaks], dtype=bool)
        is_poly = np.array([type(n) is Poly for _, _, n in self.pieces])
        table = np.zeros((max((len(n.coeffs) for _, _, n in self.pieces
                               if type(n) is Poly), default=0), len(self.pieces)))
        centers = np.zeros(len(self.pieces))
        for j, (_, _, n) in enumerate(self.pieces):
            if type(n) is Poly:
                table[:len(n.coeffs), j] = n.coeffs
                centers[j] = n.center
        return _Layout(breaks, breaks[~kinked], breaks[kinked], is_poly,
                       tuple(np.flatnonzero(~is_poly).tolist()), table, centers)

    def jet(self, x: float, side: str | None = None) -> Jet3:
        """Jet at ``x``; one-sided at kinks via ``side``.

        For an array ``x`` this is ``jets((self,), x, side)[0]``: points on
        a kink take the left limit unless ``side`` says otherwise (a scan may
        land on one, where higher orders are one-sided), and a non-finite jet
        raises DomainError naming the first such point.
        """
        if isinstance(x, np.ndarray):
            return jets((self,), x, side)[0]
        if side not in (None, "left", "right"):
            raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
        order = self.kink_order(x)
        if order is not None and side is None:
            raise KinkSideRequired(
                f"x={x!r} is a kink of order {order}; pass side='left' or side='right'"
            )
        xc, node = self._piece_at(x, side)
        out = node.jet(xc)
        if not out.is_finite():
            raise DomainError(f"non-finite jet at x={x!r}: {out.as_tuple()!r}")
        return out

    def value(self, x: float) -> float:
        """Value at ``x``, continuous even at kinks: the right-sided jet's, so
        a point whose jet is not finite raises DomainError as ``jet`` does."""
        return self.jet(x, side="right").value

    # -- constructors and transforms ----------------------------------------

    @staticmethod
    def from_node(node: Node, domain) -> "Jet3Curve":
        lo, hi = float(domain[0]), float(domain[1])
        return Jet3Curve((lo, hi), ((lo, hi, node),))

    @staticmethod
    def piecewise(segments, kinks=()) -> "Jet3Curve":
        """Build from ``[(lo, hi, node), ...]`` segments already in order."""
        segs = tuple((float(a), float(b), n) for a, b, n in segments)
        return Jet3Curve((segs[0][0], segs[-1][1]), segs, tuple(kinks))

    def replace_window(self, lo: float, hi: float, node: Node,
                       drop_kinks=(), add_kinks=()) -> "Jet3Curve":
        """Return a copy with ``[lo, hi]`` replaced by ``node``.

        Pieces outside the window are reused unchanged (object-identical), so
        evaluation there is bit-identical to the input.
        """
        d_lo, d_hi = self.domain
        if not (d_lo <= lo < hi <= d_hi):
            raise DomainError(f"window [{lo!r}, {hi!r}] exits domain {self.domain!r}")
        new_pieces = []
        for a, b, n in self.pieces:
            if b <= lo or a >= hi:
                new_pieces.append((a, b, n))
                continue
            if a < lo:
                new_pieces.append((a, lo, n))
            if b > hi:
                new_pieces.append((hi, b, n))
        new_pieces.append((lo, hi, node))
        new_pieces.sort(key=lambda p: p[0])
        dropped = set(drop_kinks)
        kept = [kk for kk in self.kinks if kk[0] not in dropped]
        for loc, order in kept:
            if lo < loc < hi:
                raise PreconditionError(
                    f"foreign kink at {loc!r} (order {order}) lies inside the "
                    "window")
        return Jet3Curve(self.domain, tuple(new_pieces), tuple(kept) + tuple(add_kinks))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "domain": [self.domain[0], self.domain[1]],
            "pieces": [
                {"lo": a, "hi": b, "fn": n.to_dict()} for a, b, n in self.pieces
            ],
            "kinks": [[x, order] for x, order in self.kinks],
        }

    @staticmethod
    def from_dict(d: dict) -> "Jet3Curve":
        def piece(p):
            return tuple(decode(p, {"lo": number, "hi": number,
                                    "fn": node_from_dict}, "piece").values())

        return Jet3Curve(**decode(d, {"domain": tuple_of(number, number),
                                      "pieces": list_of(piece),
                                      "kinks": (list_of(tuple_of(number, integer)), ())},
                                  "curve"))


def jets(curves, x: np.ndarray, side: str | None = None) -> tuple:
    """The jets of each of ``curves`` at the float64 array ``x``, in order.

    Points on a kink take the left limit unless ``side`` says otherwise.
    The curves share one pass: one domain test per distinct domain, one
    piece lookup per curve, one Horner pass over every point of every
    ``Poly`` piece, each other piece by its own node on its own points, and
    one finiteness test of the stacked jets. Each jet has the bits of
    ``jets((curve,), x, side)``, and a failing bundle is re-run one curve
    at a time, so it raises what evaluating the curves in order raises
    first: DomainError naming the first point outside a domain or, after
    any error of a node, the first point with a non-finite jet.
    """
    if side not in (None, "left", "right"):
        raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")
    try:
        return _jets(curves, x, side)
    except Exception:  # noqa: BLE001 - narrowed to its curve, then re-raised
        if len(curves) > 1:
            for curve in curves:
                _jets((curve,), x, side)
        raise


def _jets(curves, x, side):
    """:func:`jets` of a valid ``side``, raising what the bundle meets first."""
    # The bounds of the non-NaN points decide the domain tests (a NaN passes
    # them, as elementwise); the elementwise scan only names a point, and
    # clip runs only where a point lies in the slack outside.
    x_lo, x_hi = ((np.fmin.reduce(x, axis=None), np.fmax.reduce(x, axis=None))
                  if x.size else (math.inf, -math.inf))
    clipped = {}
    for curve in curves:
        if curve.domain in clipped:
            continue
        lo, hi = curve.domain
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if x_lo < lo - slack or x_hi > hi + slack:
            bad = _first((x < lo - slack) | (x > hi + slack), x)
            raise DomainError(f"x={bad[0]!r} outside domain [{lo!r}, {hi!r}]")
        clipped[curve.domain] = x if lo <= x_lo and x_hi <= hi else x.clip(lo, hi)
    # A curve of one piece is that node's jet, unless it is a Poly that can
    # share the Horner pass with other curves; the rest are stacked.
    out, stacked = [None] * len(curves), []
    for c, curve in enumerate(curves):
        node = curve.pieces[0][2]
        if len(curve.pieces) == 1 and (len(curves) == 1 or type(node) is not Poly):
            out[c] = node.jet(clipped[curve.domain])
        else:
            stacked.append(c)
    checks = [jet.as_tuple() for jet in out if jet is not None]
    if stacked:
        # Highest degree first, so each Horner step runs on a prefix.
        stacked.sort(key=lambda c: -len(curves[c]._layout.table))
        parts = _stacked_rows([curves[c] for c in stacked],
                              [clipped[curves[c].domain] for c in stacked], side)
        checks.append(parts)
        v, d1, d2, d3 = parts
        for row, c in enumerate(stacked):
            out[c] = Jet3(v[row], d1[row], d2[row], d3[row])
    for rows in checks:
        finite = np.isfinite(rows)
        if not finite.all():
            bad = _first(~finite.reshape((-1,) + x.shape).all(axis=0), x)
            raise DomainError(f"non-finite jet at x={bad[0]!r}")
    return tuple(out)


def _stacked_rows(curves, xs, side):
    """The jet rows, shaped ``(4, len(curves)) + x.shape``, of ``curves`` at
    their clipped points ``xs``. The curves come in order of descending
    degree (rows of their ``Poly`` table): the points of their ``Poly``
    pieces are stacked curve after curve, so each Horner step runs on a
    prefix of the stack."""
    shape, size = xs[0].shape, xs[0].size
    parts = None
    segments = []  # per curve: where its Poly points go, them, their pieces
    for c, (curve, x) in enumerate(zip(curves, xs)):
        x = x.ravel()
        breaks, smooth, kinked, is_poly, others, table, centers = curve._layout
        # A point's piece is the number of breakpoints at or below it; the
        # left piece owns a breakpoint for side="left", and a marked kink
        # for side=None.
        if side == "left":
            i = breaks.searchsorted(x, side="left")
        elif side == "right" or not len(kinked):
            i = breaks.searchsorted(x, side="right")
        else:
            i = smooth.searchsorted(x, side="right") + kinked.searchsorted(x, side="left")
        where = slice(None)
        if others:
            # Each other piece in use is evaluated by its own node.
            if parts is None:
                parts = np.empty((4, len(curves), size))
            for j in others:
                sel = i == j
                if sel.any():
                    for dest, v in zip(parts[:, c], curve.pieces[j][2].jet(x[sel]).as_tuple()):
                        dest[sel] = v
            where = is_poly[i]
            x, i = x[where], i[where]
        segments.append((c, where, x, i, table, centers))
    # Every point of a Poly piece takes one Horner pass, which skips the
    # zero padding above each curve's own degree.
    top = len(segments[0][4])
    sizes, total = [0] * top, sum(len(seg[2]) for seg in segments)
    t, rows = np.empty(total), np.empty((top + 3, total))
    end = 0
    for _, _, x, i, table, centers in segments:
        start, end = end, end + len(x)
        np.subtract(x, centers[i], out=t[start:end])
        table.take(i, axis=1, out=rows[:len(table), start:end], mode="clip")
        sizes[:len(table)] = [end] * len(table)
    state = _horner_rows(rows, t, sizes)
    if parts is None:
        return state.reshape((4, len(curves)) + shape)
    end = 0
    for c, where, x, _, _, _ in segments:
        start, end = end, end + len(x)
        parts[:, c, where] = state[:, start:end]
    return parts.reshape((4, len(curves)) + shape)
