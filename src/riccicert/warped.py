"""Curvature kernel for doubly warped product metrics.

The metric is ``ds^2 + k^2(s) g_{S^m} + h^2(s) g_{S^(n-1)}`` on an interval
``[0, T]``: an m-sphere fiber warped by ``k`` and an (n-1)-sphere fiber
warped by ``h``. The five sectional curvatures have the classical closed
forms

    K(ds, k-fiber)   = -k''/k
    K(ds, h-fiber)   = -h''/h
    K(k, k)          = (1 - k'^2) / k^2
    K(h, h)          = (1 - h'^2) / h^2
    K(k-fiber, h)    = -(k' h') / (k h)

and the Ricci tensor is diagonal in this frame with values

    Ric_s = m K_sk + (n-1) K_sh
    Ric_k = K_sk + (m-1) K_kk + (n-1) K_kh
    Ric_h = K_sh + (n-2) K_hh + m K_kh

(the integer weights are frozen against a finite-difference Riemann oracle
in the test suite). At an end where a fiber collapses the 0/0 forms are
replaced by their limits: for h(0) = 0, h'(0) = 1 both K_sh and K_hh tend to
-h'''(0) and K_kh tends to -k''(0)/k(0); symmetrically with k''' at a
collapsing k end. The limits require the non-collapsing warping to be even
at that end (k'(0) = 0), which validation enforces.

One kernel, :func:`curvature_from_jets`, evaluates all of this on arrays of
points. :func:`sectional` and :meth:`WarpedMetricPath.sectional` serve it
for a float64 array of points, and wrap it for a single float. Both take
the limit forms within a guard band (1e-6 of the domain length) of a closed
end, with the jets read at the point itself. The warping curves check their
own domain and seams: their jets refuse a point outside the domain. A path
certificate runs the kernel on each scan level's table of distinct lambda
against distinct s, or point by point where that table would outgrow the
level (see :meth:`WarpedMetricPath.min_ricci`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .jetcurve import Jet3, Jet3Curve, _first, _pointwise, jets
from .verify import _BLOCK, GridSpec, PositivityCertificate, blockwise, grid_min

__all__ = [
    "DoublyWarpedMetric",
    "CurvatureSample",
    "WarpedMetricPath",
    "curvature_from_jets",
    "sectional",
    "closure_defect",
]

ENDPOINT_KINDS = ("closed_k", "closed_h", "boundary")
_CLOSE_TOL = 1e-6
# Guard band of a closed end, as a fraction of the domain length.
_GUARD_FRAC = 1e-6
_POSITIVITY_SAMPLES = 64  # interior points where k and h are checked positive


@dataclass(frozen=True)
class CurvatureSample:
    """Sectional and frame-diagonal Ricci values at one parameter value, or
    equal-shape arrays of them at many."""

    s: float
    K_sk: float
    K_sh: float
    K_kk: float
    K_hh: float
    K_kh: float
    Ric_s: float
    Ric_k: float
    Ric_h: float

    def min_ric(self):
        # np.minimum propagates NaN, so a degenerate point cannot hide.
        return np.minimum(np.minimum(self.Ric_s, self.Ric_k), self.Ric_h)

    @property
    def sectionals(self):
        return (self.K_sk, self.K_sh, self.K_kk, self.K_hh, self.K_kh)

    def as_row(self):
        return (self.s, self.K_sk, self.K_sh, self.K_kk, self.K_hh, self.K_kh,
                self.Ric_s, self.Ric_k, self.Ric_h)

    CSV_HEADER = ("s", "K_sk", "K_sh", "K_kk", "K_hh", "K_kh",
                  "Ric_s", "Ric_k", "Ric_h")


@dataclass(frozen=True)
class DoublyWarpedMetric:
    """``ds^2 + k^2 ds_m^2 + h^2 ds_{n-1}^2`` with endpoint closure tags."""

    k: Jet3Curve
    h: Jet3Curve
    m: int
    n: int
    start_kind: str = "boundary"
    end_kind: str = "boundary"

    def __post_init__(self):
        _check_warpings({"k": self.k, "h": self.h}, self.m, self.n,
                        self.start_kind, self.end_kind)
        self._check_closure()
        self._check_positivity()

    @property
    def domain(self):
        return self.k.domain

    def _check_closure(self):
        for x, kind, slope in zip(self.domain, (self.start_kind, self.end_kind),
                                  (1.0, -1.0)):
            if kind == "boundary":
                continue
            c, o = "kh" if kind == "closed_k" else "hk"
            defect = max(closure_defect(getattr(self, c), x, slope),
                         abs(getattr(self, o).jet(x).d1))
            if defect > _CLOSE_TOL:
                raise PreconditionError(
                    f"endpoint closure violated at s={x!r}: {kind} needs {c} = 0, "
                    f"{c}' = {slope:+g}, {c}'' = 0 and {o}' = 0, off by "
                    f"{defect:.3e} > {_CLOSE_TOL}")

    def _check_positivity(self):
        lo, hi = self.domain
        guard = _GUARD_FRAC * (hi - lo)
        s = np.linspace(lo + guard, hi - guard, _POSITIVITY_SAMPLES)
        bad = _first((self.k.value(s) <= 0.0) | (self.h.value(s) <= 0.0), s)
        if bad:
            raise PreconditionError(
                f"nonpositive warping at interior point s={bad[0]!r}"
            )

    def min_ricci(self, grid: GridSpec, threshold: float = 1e-6) -> PositivityCertificate:
        """Certificate that min(Ric_s, Ric_k, Ric_h) > threshold over the domain."""
        return grid_min(
            lambda level: blockwise(lambda s: sectional(self, s).min_ric(),
                                    level.points[:, 0]),
            grid,
            threshold=threshold,
            quantity_id="min_ricci",
            batched=True,
        )


def closure_defect(curve: Jet3Curve, x: float, slope: float) -> float:
    """How far ``curve`` is from closing its fiber smoothly at ``x``:
    max(|c(x)|, |c'(x) - slope|, |c''(x)|), with slope +1 at a start and -1
    at an end."""
    j = curve.jet(x)
    return max(abs(j.value), abs(j.d1 - slope), abs(j.d2))


def _check_warpings(curves: dict, m: int, n: int, start_kind: str,
                    end_kind: str):
    """PreconditionError unless the named ``curves`` share one domain,
    m, n >= 2 and both endpoint kinds are known. Evaluates no jets."""
    (first, a), *rest = curves.items()
    for name, c in rest:
        if c.domain != a.domain:
            raise PreconditionError(
                f"{first} and {name} domains differ: {a.domain!r} vs {c.domain!r}"
            )
    if m < 2 or n < 2:
        raise PreconditionError(f"need m, n >= 2, got m={m}, n={n}")
    for kind in (start_kind, end_kind):
        if kind not in ENDPOINT_KINDS:
            raise PreconditionError(f"unknown endpoint kind {kind!r}")


def _closed_ends(s, domain, start_kind: str, end_kind: str):
    """Masks of the points of ``s`` in the guard band of a closed start / end."""
    lo, hi = domain
    guard = _GUARD_FRAC * (hi - lo)
    at_start = (s - lo <= guard) & (start_kind != "boundary")
    at_end = (hi - s <= guard) & ~at_start & (end_kind != "boundary")
    return at_start, at_end


def curvature_from_jets(jk, jh, m: int, n: int, start_kind: str, end_kind: str,
                        *, s, at_start, at_end) -> CurvatureSample:
    """Sectional and diagonal Ricci values from array jets of k and h at ``s``.

    Points flagged in ``at_start`` / ``at_end`` take the closed-end limits of
    ``start_kind`` / ``end_kind``. The others need both warpings positive;
    the first point where one is not raises DomainError. A degenerate limit
    form gives a non-finite value, which certificates reject.
    """
    kv, hv = jk.value, jh.value
    vanish = ~(at_start | at_end) & ((kv <= 0.0) | (hv <= 0.0))
    bad = _first(vanish, s, kv, hv)
    if bad:
        raise DomainError(
            f"warping vanishes at s={bad[0]!r} without a matching closed "
            f"endpoint kind (k={bad[1]!r}, h={bad[2]!r})"
        )
    with np.errstate(all="ignore"):
        K_sk, K_sh = -jk.d2 / kv, -jh.d2 / hv
        K_kk = (1.0 - jk.d1 * jk.d1) / (kv * kv)
        K_hh = (1.0 - jh.d1 * jh.d1) / (hv * hv)
        K_kh = -(jk.d1 * jh.d1) / (kv * hv)
        for mask, kind in ((at_start, start_kind), (at_end, end_kind)):
            if not mask.any():
                continue
            # L'Hopital limits of the 0/0 forms of the collapsing warping.
            K_kh = np.where(mask, -(jk.d2 * jh.d1 + jk.d1 * jh.d2)
                            / (jk.d1 * hv + kv * jh.d1), K_kh)
            if kind == "closed_h":
                lim = -jh.d3 / jh.d1
                K_sh, K_hh = np.where(mask, lim, K_sh), np.where(mask, lim, K_hh)
            else:
                lim = -jk.d3 / jk.d1
                K_sk, K_kk = np.where(mask, lim, K_sk), np.where(mask, lim, K_kk)
    return CurvatureSample(
        s=s,
        K_sk=K_sk, K_sh=K_sh, K_kk=K_kk, K_hh=K_hh, K_kh=K_kh,
        Ric_s=m * K_sk + (n - 1) * K_sh,
        Ric_k=K_sk + (m - 1) * K_kk + (n - 1) * K_kh,
        Ric_h=K_sh + (n - 2) * K_hh + m * K_kh,
    )


@_pointwise
def sectional(g: DoublyWarpedMetric, s: float) -> CurvatureSample:
    """All five sectional curvatures and the diagonal Ricci values at ``s``.

    A float64 array ``s`` gives a sample of arrays, one entry per point.
    """
    at_start, at_end = _closed_ends(s, g.domain, g.start_kind, g.end_kind)
    return curvature_from_jets(g.k.jet(s), g.h.jet(s), g.m, g.n,
                               g.start_kind, g.end_kind,
                               s=s, at_start=at_start, at_end=at_end)


@dataclass(frozen=True)
class WarpedMetricPath:
    """Affine family g_lam with k_lam = (1-u) k0 + u k1 (same for h), where
    u = (lam - lam_range[0]) / (lam_range[1] - lam_range[0]).

    Owns path-wise positivity queries; the end metrics are those of
    (k0, h0) and (k1, h1).
    """

    k0: Jet3Curve
    k1: Jet3Curve
    h0: Jet3Curve
    h1: Jet3Curve
    m: int
    n: int
    start_kind: str
    end_kind: str
    lam_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        _check_warpings({"k0": self.k0, "k1": self.k1, "h0": self.h0,
                         "h1": self.h1}, self.m, self.n,
                        self.start_kind, self.end_kind)
        a, b = self.lam_range
        if not a < b:
            raise PreconditionError(
                f"lambda range out of order: {self.lam_range!r}")

    def weight(self, lam: float) -> float:
        a, b = self.lam_range
        bad = _first((lam < a - 1e-12) | (lam > b + 1e-12), lam)
        if bad:
            raise DomainError(f"lambda={bad[0]!r} outside {self.lam_range!r}")
        return (lam - a) / (b - a)

    def _sample(self, jets, lam, s) -> CurvatureSample:
        """Curvature at (``lam``, ``s``) from the jets of k0, k1, h0, h1 at
        ``s``; a ``(rows, 1)`` ``lam`` and a ``(1, cols)`` ``s`` give a table."""
        u = self.weight(lam)
        at_start, at_end = _closed_ends(s, self.k0.domain, self.start_kind,
                                        self.end_kind)
        # Jets combine linearly in u; third derivatives are read only by
        # the closed-end limits.
        orders = 4 if at_start.any() or at_end.any() else 3
        w = 1.0 - u

        def mix(j0, j1):
            return Jet3(*(w * a + u * b for a, b in zip(j0.as_tuple()[:orders],
                                                        j1.as_tuple()[:orders])))

        jk0, jk1, jh0, jh1 = jets
        return curvature_from_jets(mix(jk0, jk1), mix(jh0, jh1),
                                   self.m, self.n, self.start_kind, self.end_kind,
                                   s=s, at_start=at_start, at_end=at_end)

    @_pointwise
    def sectional(self, lam: float, s: float) -> CurvatureSample:
        """Curvature of the metric at ``lam`` at ``s``; equal-shape float64
        arrays ``lam`` and ``s`` give a sample of arrays, one entry per point."""
        return self._sample(jets((self.k0, self.k1, self.h0, self.h1), s), lam, s)

    def min_ricci(self, grid: GridSpec, threshold: float = 1e-6,
                  stop_at_failure: bool = False) -> PositivityCertificate:
        """Grid is (lambda, s); margin is the worst diagonal Ricci value.

        Each scan level takes its distinct lambda and s values from the
        axes of its open mesh and evaluates the endpoint curves once at the
        distinct s. The kernel then runs on the table of every distinct
        lambda against every distinct s, and each point reads its value
        from the table: refinement cells overlap, so most of a refinement
        level's points repeat. A tile of the table holds at most ``_BLOCK``
        pairs: every distinct lambda against a run of consecutive s. So the
        guard-band columns of the closed ends, the first and the last s,
        fall in the first and the last tile, and only those take the limit
        forms and mix third derivatives. After the jets the kernel only
        adds, multiplies, divides, compares and selects, elementwise, so a
        point's value does not depend on the points it is tabled with. A
        level whose table would hold more pairs than it has points (one-point
        boxes, as when ``grid_min`` narrows a failing level, or a refinement
        level of scattered cells) is evaluated point by point instead,
        ``_BLOCK`` points at a time: each block reads its lambda and s by
        :meth:`Level.coords` and its jets from those at the level's distinct
        s. ``stop_at_failure`` is ``grid_min``'s.
        """
        def margin(level):
            mesh = level.mesh
            (lams, i), (x, j) = (_index(m.ravel()) for m in mesh)
            at_x = jets((self.k0, self.k1, self.h0, self.h1), x)
            if len(lams) * len(x) > level.shape[0]:
                def block(flat):
                    lam, s = level.coords(flat).T
                    c = np.searchsorted(x, s)
                    at = [Jet3(*(v[c] for v in jet.as_tuple())) for jet in at_x]
                    return self._sample(at, lam, s).min_ric()

                return blockwise(block, np.arange(level.shape[0]))
            rows = min(len(lams), _BLOCK)
            cols, table = _BLOCK // rows, np.empty((len(lams), len(x)))
            for c in range(0, len(x), cols):
                at = [Jet3(*(v[None, c:c + cols] for v in jet.as_tuple()))
                      for jet in at_x]
                for r in range(0, len(lams), rows):
                    table[r:r + rows, c:c + cols] = self._sample(
                        at, lams[r:r + rows, None], x[None, c:c + cols]).min_ric()
            # The points are the broadcast mesh in C order.
            return table[i.reshape(mesh[0].shape), j.reshape(mesh[1].shape)].ravel()

        return grid_min(margin, grid, threshold=threshold,
                        quantity_id="path_min_ricci", batched=True,
                        stop_at_failure=stop_at_failure)


def _index(v):
    """The sorted distinct values of ``v`` and the index of each entry of
    ``v`` among them; ``np.unique`` hashes floats and imports ``numpy.ma``
    (0.5 MB) to do so."""
    x = np.sort(v)
    x = x[np.concatenate(([True], x[1:] != x[:-1]))]
    return x, np.searchsorted(x, v)

