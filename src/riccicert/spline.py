"""Hermite polynomial splines and the two-stage smoothing pipeline.

The workhorse is the unique degree-(2k+1) polynomial matching derivatives
through order k at both ends of a symmetric window, for k = 1 (cubic) and
k = 2 (quintic). A kinked curve is smoothed in two stages: a C1 stage on
``[kink - eps, kink + eps]`` that trades the corner for a pair of curvature
jumps at the window ends, then a C2 stage on ``delta``-windows around those
two points. The output agrees with the input outside the windows,
bit-identically.

The receiving :class:`Jet3Curve` checks each window: its jets refuse an end
outside the domain or on a marked kink, ``replace_window`` refuses a foreign
kink inside the window, and its seams must match through the declared order,
so a Hermite solve that loses its endpoint data is refused there.

Segment coefficients are found by solving the Hermite system in the scaled
local variable a/width, where the matrix is constant and perfectly
conditioned; the closed-form rational expressions live in the test suite as
a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KinkSideRequired, PreconditionError
from .jetcurve import Jet3, Jet3Curve, Poly

__all__ = [
    "SplineSegment",
    "hermite_cubic",
    "hermite_quintic",
    "smooth_c1",
    "smooth_c2",
    "two_stage_smooth",
]

# Hermite systems in the scaled variable t = a / half_width, rows ordered
# value(-1), t-deriv(-1), [t2-deriv(-1)], value(+1), ...
_CUBIC_MATRIX = np.array(
    [
        [1.0, -1.0, 1.0, -1.0],
        [0.0, 1.0, -2.0, 3.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 1.0, 2.0, 3.0],
    ]
)
_QUINTIC_MATRIX = np.array(
    [
        [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
        [0.0, 1.0, -2.0, 3.0, -4.0, 5.0],
        [0.0, 0.0, 2.0, -6.0, 12.0, -20.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        [0.0, 0.0, 2.0, 6.0, 12.0, 20.0],
    ]
)


@dataclass(frozen=True)
class SplineSegment:
    """Polynomial on ``[-half_width, half_width]`` in the window-centered
    variable ``a``; ``coefficients`` are ascending powers of ``a``."""

    half_width: float
    coefficients: tuple

    def jet_local(self, a: float) -> Jet3:
        return Poly(self.coefficients).jet(a)


def _hermite(left: Jet3, right: Jet3, width: float, order: int,
             name: str) -> SplineSegment:
    """The polynomial matching derivatives through ``order`` (1 or 2) of the
    jets ``left`` at ``-width`` and ``right`` at ``+width``."""
    if not width > 0.0:
        raise PreconditionError(f"{name} must be positive, got {width!r}")
    if not (left.is_finite() and right.is_finite()):
        raise PreconditionError("endpoint jets must be finite")
    scale = (1.0, width, width * width)[:order + 1]
    rhs = [c * v for jet in (left, right) for c, v in zip(scale, jet.as_tuple())]
    matrix = _CUBIC_MATRIX if order == 1 else _QUINTIC_MATRIX
    scaled = np.linalg.solve(matrix, np.asarray(rhs, dtype=float))
    try:
        coeffs = tuple(float(scaled[j]) / width**j for j in range(len(scaled)))
    except (ZeroDivisionError, OverflowError) as exc:
        raise PreconditionError(
            f"half-width {width!r} out of range for the Hermite solve: {exc}"
        ) from exc
    return SplineSegment(width, coeffs)


def hermite_cubic(left: Jet3, right: Jet3, eps: float) -> SplineSegment:
    """Unique cubic with p(+-eps) = F(+-eps), p'(+-eps) = F'(+-eps).

    Jets are taken in the window-centered coordinate: ``left`` is the jet at
    ``-eps``, ``right`` at ``+eps``; :func:`smooth_c1` places the segment at
    its kink.
    """
    return _hermite(left, right, eps, 1, "eps")


def hermite_quintic(left: Jet3, right: Jet3, delta: float) -> SplineSegment:
    """Unique quintic matching value, first and second derivatives at +-delta."""
    return _hermite(left, right, delta, 2, "delta")


def _smooth_window(hermite, curve: Jet3Curve, center: float, width: float,
                   new_order: int) -> Jet3Curve:
    """``curve`` with ``center +- width`` replaced by the ``hermite``
    polynomial through its jets at the window ends, which become kinks of
    ``new_order``; a kink marked at ``center`` is dropped. The curve refuses
    any other kink in the window: its jets one at either end, and
    ``replace_window`` one inside. A failed jet, solve, seam or kink check
    raises its own error class, with the window named; a kink at an end
    raises PreconditionError naming the window and the kink."""
    lo, hi = center - width, center + width
    drop = (center,) if curve.kink_order(center) is not None else ()
    try:
        seg = hermite(curve.jet(lo), curve.jet(hi), width)
        return curve.replace_window(lo, hi, Poly(seg.coefficients, center=center),
                                    drop_kinks=drop,
                                    add_kinks=((lo, new_order), (hi, new_order)))
    except KinkSideRequired:
        end = lo if curve.kink_order(lo) is not None else hi
        raise PreconditionError(
            f"smoothing window [{lo!r}, {hi!r}] ends on the kink at {end!r} "
            f"(order {curve.kink_order(end)})") from None
    except PreconditionError as exc:
        raise type(exc)(f"smoothing window [{lo!r}, {hi!r}]: {exc}") from exc


def smooth_c1(curve: Jet3Curve, kink: float, eps: float) -> Jet3Curve:
    """C1 smoothing: replace ``[kink - eps, kink + eps]`` by the Hermite cubic.

    The input may have a corner (order-1 kink) at ``kink``, a milder declared
    kink, or be smooth there (then the cubic reproduces the curve's own jets
    and the output deviates by the Taylor remainder, O(eps^2)). The result is
    C1 everywhere and smooth except for curvature jumps at ``kink +- eps``.
    """
    if not eps > 0.0:
        raise PreconditionError(f"eps must be positive, got {eps!r}")
    return _smooth_window(hermite_cubic, curve, kink, eps, 2)


def smooth_c2(curve: Jet3Curve, kinks, delta: float) -> Jet3Curve:
    """C2 smoothing of two curvature kinks via quintic windows.

    ``kinks`` is the pair of locations left by :func:`smooth_c1`. The input
    must be C1 there (declared order >= 2, or smooth); the windows must be
    disjoint and inside the domain.
    """
    if not delta > 0.0:
        raise PreconditionError(f"delta must be positive, got {delta!r}")
    x1, x2 = sorted(kinks)
    if x1 + delta >= x2 - delta:
        raise PreconditionError(
            f"delta windows around {x1!r} and {x2!r} overlap (delta={delta!r})"
        )
    out = curve
    for x in (x1, x2):
        order = out.kink_order(x)
        if order is not None and order < 2:
            raise PreconditionError(
                f"kink at {x!r} has order {order}; smooth_c2 needs C1 input"
            )
        out = _smooth_window(hermite_quintic, out, x, delta, 3)
    return out


def two_stage_smooth(curve: Jet3Curve, kink: float, eps: float, delta: float) -> Jet3Curve:
    """C1 stage then C2 stage around one kink; returns a C2 curve.

    Requires ``delta < eps`` so the second-stage windows are disjoint, and
    ``[kink - eps - delta, kink + eps + delta]`` inside the domain with no
    other kinks; the three stage windows cover it and each checks its part.
    """
    if not 0.0 < delta < eps:
        raise PreconditionError(f"need 0 < delta < eps, got eps={eps!r}, delta={delta!r}")
    stage1 = smooth_c1(curve, kink, eps)
    return smooth_c2(stage1, (kink - eps, kink + eps), delta)
