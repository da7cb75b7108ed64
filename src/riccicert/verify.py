"""Grid-based positivity certification and monotone parameter bisection.

Certification here is a falsification-resistant heuristic, not interval
arithmetic: a margin function is scanned on a fixed grid, the worst cells are
refined a configurable number of times, and the whole trace is reported so a
reviewer can judge margin stability. Every scan level (the coarse grid,
then each refinement depth) is a :class:`Level`: a set of boxes, each
sampled on a product grid taken by one ``np.linspace`` per axis over all of
the level's boxes, and held as their open mesh: the coarse level is one
box, a refinement level its cells. Every riccicert margin is batched: it
takes one level per call, so it can share work across the level's points,
repeated points included (refinement cells overlap): a separable margin
can evaluate each axis value once, and a table margin each combination of
distinct axis values once. A level stacks its points only when a margin
reads them (a one-axis level's points are a view of its axis), and
``grid_min`` reads the few coordinates it reports or refines around from
the mesh. A curvature kernel inside a margin runs on at most ``_BLOCK``
points at a time, through :func:`blockwise` or in table tiles, which
bounds its temporaries. A scalar margin, one point per call, is made a
batched one at ``grid_min``'s entry, so every level takes one evaluation
path; grids are fixed up front and the min is order-independent, so both
forms give identical certificates. Any non-finite margin fails the
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_SCAN_POINTS, EvaluationError, PreconditionError, ScenarioError,
                     SearchError)

__all__ = ["GridSpec", "Level", "PositivityCertificate", "grid_min",
           "bisect_param", "blockwise"]

# Points per kernel call (a blockwise slice or a table tile), which bounds
# its temporaries, and per call when a failing scan level is re-run.
_BLOCK = 4096


def _cells(n: int) -> int:
    """Cells refined after a scan level of ``n`` points: the lowest 5%."""
    return max(1, math.ceil(0.05 * n))


@dataclass(frozen=True)
class GridSpec:
    """Axes are ``(lo, hi, count)`` triples; refinement re-grids the worst cells.

    A grid with a scan level (see :func:`grid_min`) past MAX_SCAN_POINTS
    points raises ScenarioError, so every GridSpec can be scanned.
    """

    axes: tuple
    depth: int = 0
    factor: int = 4

    def __post_init__(self):
        if not self.axes:
            raise PreconditionError("GridSpec needs at least one axis")
        for lo, hi, count in self.axes:
            if not (lo < hi):
                raise PreconditionError(f"axis bounds out of order: ({lo!r}, {hi!r})")
            if count < 2:
                raise PreconditionError("axis counts must be >= 2")
        if self.depth < 0:
            raise PreconditionError("refinement depth must be >= 0")
        if self.factor < 2:
            raise PreconditionError("refinement factor must be >= 2")
        # Level d's cells are factor**(d - 1) times finer than the coarse
        # step; past 2**52 they only re-sample the same float64 points.
        # Compared as logarithms, so no power of a huge depth is built.
        deepest = 1 + math.floor(52 / math.log2(self.factor))
        if self.depth > deepest:
            raise PreconditionError(
                f"refinement depth must be <= {deepest} with factor {self.factor}: "
                "deeper levels re-sample the same float64 points")
        # Checked after the depth bound, which keeps this loop short.
        level = math.prod(count for _, _, count in self.axes)
        for _ in range(self.depth):
            if level > MAX_SCAN_POINTS:
                break
            level = _cells(level) * (2 * self.factor + 1) ** len(self.axes)
        if level > MAX_SCAN_POINTS:
            raise ScenarioError(
                f"grid {[c for _, _, c in self.axes]} at depth {self.depth}, factor "
                f"{self.factor}: a scan level of {level} points exceeds the "
                f"budget of {MAX_SCAN_POINTS} scan points")

    @staticmethod
    def line(lo: float, hi: float, count: int, depth: int = 0, factor: int = 4) -> "GridSpec":
        return GridSpec(((float(lo), float(hi), int(count)),), depth, factor)

    @staticmethod
    def box(axes, depth: int = 0, factor: int = 4) -> "GridSpec":
        return GridSpec(tuple((float(a), float(b), int(c)) for a, b, c in axes), depth, factor)

    def to_dict(self) -> dict:
        return {
            "axes": [[lo, hi, count] for lo, hi, count in self.axes],
            "depth": self.depth,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class PositivityCertificate:
    """Outcome of a grid scan of a margin function.

    ``passed`` iff every sampled margin is finite and the final minimum
    margin exceeds ``threshold``. The minimum, its argmin and the refinement
    trace (running minimum per depth, non-increasing) are over the finite
    margins (inf if none). ``nonfinite_count`` counts the others and
    ``nonfinite_at`` is the first of them in scan order.
    """

    quantity_id: str
    grid: GridSpec
    threshold: float
    min_margin: float
    argmin: tuple
    refinement_trace: tuple
    passed: bool
    nonfinite_count: int = 0
    nonfinite_at: tuple = ()

    def to_dict(self) -> dict:
        out = {
            "quantity_id": self.quantity_id,
            "grid": self.grid.to_dict(),
            "threshold": self.threshold,
            "min_margin": _finite_or_none(self.min_margin),
            "argmin": list(self.argmin),
            "refinement_trace": [[d, _finite_or_none(m)]
                                 for d, m in self.refinement_trace],
            "passed": self.passed,
        }
        if self.nonfinite_count:
            out["nonfinite"] = {"count": self.nonfinite_count,
                                "first": list(self.nonfinite_at)}
        return out


def _finite_or_none(x):
    return x if math.isfinite(x) else None


class Level:
    """One scan level: the boxes of an open mesh, each sampled on its
    product grid.

    ``mesh`` holds one array per axis: axis ``d`` holds its ``n_d``
    coordinates per box, shaped ``(boxes, 1, ..., n_d, ..., 1)``. The
    level's points are the broadcast mesh flattened in C order: box after
    box, last axis fastest. ``shape`` is ``(count, dims)``, the shape of
    ``points``, which holds one row per point and is stacked when first
    read; a one-axis level's points are a view of its axis.
    """

    def __init__(self, mesh, points=None):
        self.mesh = mesh
        self._grid = (len(mesh[0]),) + tuple(x.shape[1 + d]
                                              for d, x in enumerate(mesh))
        self.shape = (math.prod(self._grid), len(mesh))
        if points is None and len(mesh) == 1:
            points = mesh[0].reshape(-1, 1)
        self._points = points

    @staticmethod
    def of_boxes(a, b, counts) -> "Level":
        """The boxes ``a[c] .. b[c]`` (``(boxes, dims)`` corners), sampled
        at ``counts[d]`` points on axis ``d`` by one ``np.linspace`` over
        all boxes."""
        boxes, dims = a.shape
        return Level(tuple(
            np.linspace(a[:, d], b[:, d], n, axis=-1)
            .reshape((boxes,) + (1,) * d + (-1,) + (1,) * (dims - 1 - d))
            for d, n in enumerate(counts)))

    @staticmethod
    def of_points(points) -> "Level":
        """``points`` (``(count, dims)``) as a level of one-point boxes:
        axis ``d`` is ``points[:, d]`` shaped ``(count, 1, ..., 1)``."""
        count, dims = points.shape
        return Level(tuple(points[:, d].reshape((count,) + (1,) * dims)
                           for d in range(dims)), points)

    @property
    def points(self) -> np.ndarray:
        if self._points is None:
            self._points = np.stack(np.broadcast_arrays(*self.mesh),
                                    axis=-1).reshape(self.shape)
        return self._points

    def coords(self, flat) -> np.ndarray:
        """``points[flat]`` for a flat point index or an array of them,
        read from the mesh axes unless the points are stacked."""
        if self._points is not None:
            return self._points[flat]
        box, *at = np.unravel_index(flat, self._grid)
        return np.stack([x.reshape(len(x), -1)[box, i]
                         for x, i in zip(self.mesh, at)], axis=-1)


def _call(f, pt) -> float:
    try:
        return float(f(Level.of_points(pt[None, :]))[0])
    except Exception as exc:  # noqa: BLE001 - context added, then re-raised
        raise EvaluationError(
            f"margin function failed at {tuple(pt)!r}: {exc}", coords=tuple(pt)
        ) from exc


def _evaluate(f, level: Level) -> np.ndarray:
    count = level.shape[0]
    try:
        result = f(level)
    except Exception:  # noqa: BLE001 - re-raised for the failing point
        # Re-run the level block by block, and a failing block point by
        # point, so the error names the first failing point in scan order.
        for start in range(0, count, _BLOCK):
            block = Level.of_points(level.coords(
                np.arange(start, min(start + _BLOCK, count))))
            try:
                f(block)
            except Exception:  # noqa: BLE001 - narrowed to its point
                for pt in block.points:
                    _call(f, pt)
        raise
    if np.shape(result) != (count,):
        raise ValueError(
            f"margin returned {np.size(result)} value(s), shape {np.shape(result)}, "
            f"for {count} points; a batched margin returns one value per point")
    return np.asarray(result, dtype=float)


def blockwise(fn, *arrays) -> np.ndarray:
    """``fn(*arrays)``, run on consecutive slices of at most ``_BLOCK``
    points of the equal-length ``arrays`` and concatenated; a lone slice's
    result is returned as it is."""
    n = len(arrays[0])
    if n <= _BLOCK:
        return fn(*arrays)
    return np.concatenate([fn(*(a[i:i + _BLOCK] for a in arrays))
                           for i in range(0, n, _BLOCK)])


def _lowest(values: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` smallest of ``values`` (no NaN), ties in index
    order: ``np.argsort(values, kind="stable")[:n]`` without sorting it all."""
    kth = np.partition(values, n - 1)[n - 1]
    candidates = np.flatnonzero(values <= kth)
    return candidates[np.argsort(values[candidates], kind="stable")[:n]]


def grid_min(f, grid: GridSpec, threshold: float = 1e-6,
             quantity_id: str = "margin", batched: bool = False,
             stop_at_failure: bool = False) -> PositivityCertificate:
    """Certificate for ``min f > threshold`` over the grid's box.

    A ``batched`` margin ``f(level) -> values``, the form of every
    riccicert certificate, is called once per scan level with the
    :class:`Level` of all of the level's points. ``values`` must hold
    exactly one value per point, value ``i`` for ``level.points[i]``; any
    other size raises ValueError. A margin reads the level as its open
    ``mesh`` or as its ``points``, which are stacked only when read.
    Bounding its temporaries is the margin's own job (see
    :func:`blockwise`). When a level fails, it is re-run on blocks and then
    single points, each as a :meth:`Level.of_points` level of one-point
    boxes, so the error names the first failing point in scan order. A
    scalar margin ``f(*point) -> float`` (``batched`` false) is wrapped, on
    entry, as a batched margin that calls it once per point of the level;
    it takes the same evaluation and narrowing path. After the coarse scan,
    the cells holding the bottom 5% of margins are re-sampled
    ``grid.factor`` times finer, ``grid.depth`` times over, at
    ``2 * grid.factor + 1`` points per axis; the argmin, the first
    non-finite point and the cell centers are read from the level's mesh by
    :meth:`Level.coords`. With ``stop_at_failure`` the scan stops after the
    first level at which the certificate has failed, which no deeper level
    can undo; its grid then records the depth reached, so it describes the
    points scanned.
    """
    if not batched:
        scalar = f

        def f(level):
            return np.array([float(scalar(*pt)) for pt in level.points])
    lo = np.array([a for a, _, _ in grid.axes])
    hi = np.array([b for _, b, _ in grid.axes])
    steps = np.array([(b - a) / (count - 1) for a, b, count in grid.axes])
    best_val, best_at, trace = math.inf, None, []
    bad_count, bad_at = 0, ()
    for depth in range(grid.depth + 1):
        if depth == 0:
            level = Level.of_boxes(lo[None], hi[None],
                                   tuple(c for _, _, c in grid.axes))
        else:
            centers = level.coords(_lowest(values, _cells(len(values))))
            half = steps / grid.factor**(depth - 1)
            a = np.maximum(lo, centers - half)
            b = np.minimum(hi, centers + half)
            same = a == b
            a = np.where(same, np.maximum(lo, a - 1e-15), a)
            b = np.where(same, np.minimum(hi, b + 1e-15), b)
            level = Level.of_boxes(a, b, (2 * grid.factor + 1,) * len(grid.axes))
        values = _evaluate(f, level)
        finite = np.isfinite(values)
        if not finite.all():
            if not bad_count:
                bad_at = tuple(level.coords(int(np.argmin(finite))))
            bad_count += int(np.count_nonzero(~finite))
            values = np.where(finite, values, math.inf)
        i = int(np.argmin(values))
        if best_at is None or values[i] < best_val:
            best_val, best_at = float(values[i]), tuple(level.coords(i))
        trace.append((depth, best_val))
        if stop_at_failure and (bad_count or not best_val > threshold):
            grid = GridSpec(grid.axes, depth, grid.factor)
            break

    return PositivityCertificate(
        quantity_id=quantity_id,
        grid=grid,
        threshold=threshold,
        min_margin=best_val,
        argmin=best_at,
        refinement_trace=tuple(trace),
        passed=bad_count == 0 and best_val > threshold,
        nonfinite_count=bad_count,
        nonfinite_at=bad_at,
    )


def bisect_param(pred, lo: float, hi: float, tol: float) -> float:
    """Threshold of a monotone predicate, returned on the passing side.

    ``pred(lo)`` and ``pred(hi)`` must differ; monotonicity is the caller's
    assertion. The bracket is narrowed to ``tol`` and the endpoint where the
    predicate last held is returned, so callers can use the result directly.
    """
    if not tol > 0.0:
        raise PreconditionError(f"tol must be positive, got {tol!r}")
    p_lo, p_hi = bool(pred(lo)), bool(pred(hi))
    if p_lo == p_hi:
        raise SearchError(
            f"predicate agrees at both endpoints ({lo!r}: {p_lo}, {hi!r}: {p_hi}); no crossing"
        )
    passing, failing = (lo, hi) if p_lo else (hi, lo)
    for _ in range(200):  # at most 200 halvings, a factor 2**-200
        if abs(passing - failing) <= tol:
            break
        mid = 0.5 * (passing + failing)
        if bool(pred(mid)):
            passing = mid
        else:
            failing = mid
    return passing
