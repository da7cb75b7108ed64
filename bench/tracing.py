"""Tracing of a scenario run from outside the program.

``Tracer.install()`` replaces public functions of the riccicert modules with
timing wrappers. A wrapped name is patched in every riccicert module
namespace that bound it (``cli`` and ``constructions`` import ``sectional``
under their own names), and methods are patched on their class.

Coarse boundaries (instance, ``run_scenario``, syntheses,
``glue_and_smooth``, ``grid_min``, ``bisect_param``, ``canonical_json``,
``_write_csv``) become spans with a parent and the instance id. Per-point
functions (``sectional``, face forms, ``Jet3Curve.jet``) only add to per-key
counters: calls, self time, and total time. Self time is a call's duration
minus the time of wrapped calls made inside it. The margin ``f`` handed to
``grid_min`` is counted, not timed, so the body of a margin closure is part
of ``grid_min``'s self time (``verify.scan_self_s``), and the kernels it
calls make up ``verify.margin_s``. Everything stays in memory until
``spans`` and ``layer_metrics`` are read.
"""

from __future__ import annotations

import math
import sys
import types
from time import perf_counter

__all__ = ["Tracer", "expected_evals", "LAYER_METRICS"]


def expected_evals(grid) -> tuple:
    """(coarse evals, refinement evals, refined cells) of one ``grid_min``.

    The coarse scan is the product of the axis counts. Each refinement depth
    re-grids ``ceil(0.05 * previous level's points)`` cells with
    ``(2 * factor + 1) ** dims`` points each.
    """
    dims = len(grid.axes)
    coarse = math.prod(int(count) for _, _, count in grid.axes)
    refine = cells = 0
    previous = coarse
    for _ in range(grid.depth):
        n_cells = max(1, math.ceil(0.05 * previous))
        previous = n_cells * (2 * grid.factor + 1) ** dims
        cells += n_cells
        refine += previous
    return coarse, refine, cells


def _points_in(args) -> int:
    # A scalar margin takes one point per call; a batched margin takes an
    # array whose leading axis runs over points.
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if shape else 1


# (module, qualified name, counter key, span name or None)
_TARGETS = (
    ("jetcurve", "Jet3Curve.jet", "jetcurve.jet", None),
    ("jetcurve", "Jet3Curve.value", "jetcurve.value", None),
    ("spline", "two_stage_smooth", "spline.smooth", None),
    ("spline", "smooth_c1", "spline.other", None),
    ("spline", "smooth_c2", "spline.other", None),
    ("spline", "hermite_cubic", "spline.other", None),
    ("spline", "hermite_quintic", "spline.other", None),
    ("warped", "sectional", "warped.sectional", None),
    ("warped", "WarpedMetricPath.sectional", "warped.path", None),
    ("corner", "face_second_form", "corner.form", None),
    ("corner", "face_profile_hessian", "corner.form", None),
    ("corner", "glue_and_smooth", "corner.glue", "glue_and_smooth"),
    ("constructions", "make_boundary_profile", "constructions.synthesis",
     "make_boundary_profile"),
    ("constructions", "make_isotopy_target", "constructions.synthesis",
     "make_isotopy_target"),
    ("constructions", "isotopy_stage1", "constructions.synthesis",
     "isotopy_stage1"),
    ("constructions", "isotopy_stage2", "constructions.synthesis",
     "isotopy_stage2"),
    ("constructions", "concordance_schedule", "constructions.synthesis",
     "concordance_schedule"),
    ("constructions", "solve_geodesic_triangle", "constructions.synthesis",
     "solve_geodesic_triangle"),
    ("constructions", "concordance_search", "constructions.search",
     "concordance_search"),
    ("verify", "grid_min", "verify.grid_min", "grid_min"),
    ("verify", "bisect_param", "verify.bisect", "bisect_param"),
    ("jetcurve", "Jet3Curve.from_dict", "cli.parse", None),
    ("corner", "CornerChart.from_dict", "cli.parse", None),
    ("cli", "run_scenario", "cli.run_scenario", "run_scenario"),
    ("cli", "canonical_json", "cli.serialize", "canonical_json"),
    ("cli", "_write_csv", "cli.serialize", "_write_csv"),
)

# Keys whose nested calls fold into the outermost one: canonical_json
# recurses, and CornerChart.from_dict calls Jet3Curve.from_dict.
_MERGED = frozenset({"cli.parse", "cli.serialize"})

# Per-layer metric name -> unit. The layers are the riccicert module names.
LAYER_METRICS = {
    "jetcurve.jet_calls": "count",
    "jetcurve.self_s": "s",
    "spline.smooth_calls": "count",
    "spline.self_s": "s",
    "warped.sectional_calls": "count",
    "warped.self_s": "s",
    "warped.ns_per_point": "ns",
    "corner.form_calls": "count",
    "corner.self_s": "s",
    "corner.glue_calls": "count",
    "corner.glue_self_s": "s",
    "constructions.synthesis_calls": "count",
    "constructions.synthesis_self_s": "s",
    "constructions.search_self_s": "s",
    "verify.certificates": "count",
    "verify.evals_coarse": "count",
    "verify.evals_refine": "count",
    "verify.refine_cells": "count",
    "verify.margin_s": "s",
    "verify.scan_self_s": "s",
    "verify.bisect_probes": "count",
    "verify.cert_useful_ratio": "ratio",
    "cli.parse_s": "s",
    "cli.serialize_s": "s",
    "cli.report_bytes": "bytes",
}


class Tracer:
    """Counters and spans for one traced pass; not thread-safe."""

    def __init__(self):
        self.stats = {}        # key -> [calls, self_s, outermost_s]
        self.spans = []
        self.grid_checks = []  # one dict per grid_min call
        self.instance = None
        self._frames = [[0.0]]  # child time of each active wrapped call
        self._open_spans = []
        self._active = set()
        self._restore = []
        self._next_id = 0

    # -- wrappers -----------------------------------------------------------

    def counter(self, key, fn):
        """``fn`` with its calls, self time and total time added to ``key``.

        This is the per-point path, run millions of times in one pass, so it
        keeps to local names.
        """
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                frames[-1][0] += elapsed
                st[0] += 1
                st[1] += elapsed - frame[0]
                st[2] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, key, fn, span=None, hook=None):
        """``counter(key, fn)`` with a span, a hook and nesting rules.

        For the keys in ``_MERGED``, a call made while another call of the
        same key is active (recursion, or one parser calling another) runs
        unwrapped and counts as part of the outer call. ``span`` names a span
        recorded per call. ``hook(args, kwargs)`` returns new arguments and a
        callback that receives the result.
        """
        timed = self.counter(key, fn)
        st = self.stats[key]
        merged = key in _MERGED
        active, open_spans = self._active, self._open_spans

        def wrapper(*args, **kwargs):
            if merged and key in active:
                return fn(*args, **kwargs)
            after = None
            if hook:
                args, kwargs, after = hook(args, kwargs)
            if merged:
                active.add(key)
            if span:
                span_id = self._next_id
                self._next_id += 1
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            self_before, start = st[1], perf_counter()
            try:
                result = timed(*args, **kwargs)
            finally:
                active.discard(key)
                if span:
                    open_spans.pop()
                    self.spans.append({
                        "id": span_id, "parent": parent, "name": span,
                        "instance": self.instance, "start": start,
                        "end": perf_counter(), "self_s": st[1] - self_before})
            if after:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def instance_span(self, instance, body):
        """Run ``body()`` inside an ``instance`` span tagged ``instance``."""
        self.instance = instance
        try:
            return self.wrap("bench.instance", body, span="instance")()
        finally:
            self.instance = None

    # -- hooks --------------------------------------------------------------

    def _grid_min_hook(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        seen = [0]

        # Counted but not timed: per-call timing would double the cost of
        # cheap margin closures. Their own time stays in grid_min's self time.
        def margin(*a, **k):
            seen[0] += _points_in(a)
            return f(*a, **k)

        args = (margin,) + tuple(args[1:])

        def after(cert):
            coarse, refine, cells = expected_evals(cert.grid)
            self.grid_checks.append({
                "quantity_id": cert.quantity_id, "grid": cert.grid.to_dict(),
                "expected": coarse + refine, "observed": seen[0],
                "coarse": coarse, "refine": refine, "cells": cells})

        return args, kwargs, after

    def _bisect_hook(self, args, kwargs):
        pred = args[0] if args else kwargs.pop("pred")
        args = (self.counter("verify.probe", pred),) + tuple(args[1:])
        return args, kwargs, None

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch the loaded riccicert modules; undo with ``uninstall``."""
        import json as _json

        mods = {name.rsplit(".", 1)[-1]: mod
                for name, mod in sys.modules.items()
                if name.startswith("riccicert.") and mod is not None}
        hooks = {"verify.grid_min": self._grid_min_hook,
                 "verify.bisect": self._bisect_hook}
        for mod_name, qualname, key, span in _TARGETS:
            owner = mods[mod_name]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            if span or key in hooks or key in _MERGED:
                new = self.wrap(key, func, span, hooks.get(key))
            else:
                new = self.counter(key, func)
            if cls_path:
                if isinstance(raw, staticmethod):
                    new = staticmethod(new)
                self._set(owner, attr, new)
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, name, new)

        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(_json))
        proxy.loads = self.wrap("cli.parse", _json.loads)
        self._set(mods["cli"], "json", proxy)
        return self

    def _set(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, report_certificates: int, report_bytes: int):
        """Per-layer metric values of everything traced so far."""
        def st(key, i):
            return self.stats.get(key, [0, 0.0, 0.0])[i]

        def calls(*keys):
            return sum(st(k, 0) for k in keys)

        def self_s(*keys):
            return sum(st(k, 1) for k in keys)

        coarse = sum(c["coarse"] for c in self.grid_checks)
        refine = sum(c["refine"] for c in self.grid_checks)
        cells = sum(c["cells"] for c in self.grid_checks)
        n_sec = calls("warped.sectional")
        warped_self = self_s("warped.sectional", "warped.path")
        n_certs = len(self.grid_checks)
        return {
            "jetcurve.jet_calls": calls("jetcurve.jet"),
            "jetcurve.self_s": self_s("jetcurve.jet", "jetcurve.value"),
            "spline.smooth_calls": calls("spline.smooth"),
            "spline.self_s": self_s("spline.smooth", "spline.other"),
            "warped.sectional_calls": n_sec,
            "warped.self_s": warped_self,
            "warped.ns_per_point": 1e9 * warped_self / n_sec if n_sec else 0.0,
            "corner.form_calls": calls("corner.form"),
            "corner.self_s": self_s("corner.form"),
            "corner.glue_calls": calls("corner.glue"),
            "corner.glue_self_s": self_s("corner.glue"),
            "constructions.synthesis_calls": calls("constructions.synthesis"),
            "constructions.synthesis_self_s":
                self_s("constructions.synthesis"),
            "constructions.search_self_s": self_s("constructions.search"),
            "verify.certificates": n_certs,
            "verify.evals_coarse": coarse,
            "verify.evals_refine": refine,
            "verify.refine_cells": cells,
            "verify.margin_s": (st("verify.grid_min", 2)
                                - self_s("verify.grid_min")),
            "verify.scan_self_s": self_s("verify.grid_min"),
            "verify.bisect_probes": calls("verify.probe"),
            "verify.cert_useful_ratio": (report_certificates / n_certs
                                         if n_certs else 0.0),
            "cli.parse_s": st("cli.parse", 2),
            "cli.serialize_s": st("cli.serialize", 2),
            "cli.report_bytes": report_bytes,
        }
