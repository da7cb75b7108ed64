"""Scenario-driven command line: run constructions, emit reports and CSV.

A scenario is one JSON file with a ``command`` key and the fields of that
command's table, by which ``errors.decode`` reads it whole before the
command runs. Each run writes ``report.json`` plus CSV sample files into the
output directory. Exit codes: 0 all certificates passed, 1 a certificate
failed, 2 scenario error (unreadable, unknown or missing key, wrong type or
shape, at any depth), 3 precondition violation, including a margin that
fails to evaluate, 4 internal error (``main`` only). Reports are
byte-reproducible: floats are serialized with 17 significant digits, keys are
sorted, and no timestamps are included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import constructions as cons
from . import corner as cor
from .errors import (EvaluationError, PreconditionError, ScenarioError,
                     SearchError, decode, integer, list_of, number, positive_int, text)
from .jetcurve import Jet3Curve, Poly, Sin, Sum, jets
from .spline import two_stage_smooth
from .verify import GridSpec, bisect_param
from .warped import CurvatureSample, DoublyWarpedMetric, sectional

COMMANDS = {}


def command(name, **fields):
    """Register ``fn(params, ctx)`` for ``name``; ``params`` holds the values
    of the scenario decoded by the field table ``fields`` (``errors.decode``)."""
    def wrap(fn):
        COMMANDS[name] = (fn, fields)
        return fn
    return wrap


def _from_dict(cls):
    # Looked up per call, so that a patched ``from_dict`` is the one used.
    return lambda d: cls.from_dict(d)


def _grid(count, depth, factor=4):
    return {"count": (integer, count), "depth": (integer, depth),
            "factor": (integer, factor)}


def _search(lo, hi, tol=1e-3):
    return {"lo": (number, lo), "hi": (number, hi), "tol": (number, tol)}


class _ProbeFailed(Exception):
    """A search probe's certificate failed; the message says which and where."""


def _refuse(search, name, cert):
    """End a search probe at its first failing certificate ``cert``, named
    by its first non-finite margin if it has one, else by its minimum."""
    if not search or cert.passed:
        return
    if cert.nonfinite_count:
        why = (f"{cert.nonfinite_count} non-finite margin(s), the first at "
               f"{tuple(float(x) for x in cert.nonfinite_at)!r}")
    else:
        why = (f"min_margin {cert.min_margin!r} at "
               f"{tuple(float(x) for x in cert.argmin)!r}")
    raise _ProbeFailed(f"{name} failed with {why}")


def _searched(certify, value, search):
    """``(value, certify(value, False))``, or with ``value`` None the probe
    that bisecting over ``search`` returns, which passed. A search probe
    ``certify(x, True)`` stops at its first failing certificate through
    :func:`_refuse`, so only complete, passing probes are kept. When no
    crossing is found, the SearchError names why each end of the bracket
    failed: its PreconditionError or its first failing certificate. A
    ScenarioError (a grid past the scan-point budget) is no failed probe:
    it ends the search."""
    if value is not None:
        return value, certify(value, False)
    probed, failed = {}, {}

    def passes(x):
        try:
            probed[x] = certify(x, True)
        except ScenarioError:
            raise
        except (PreconditionError, _ProbeFailed) as exc:
            failed[x] = str(exc)
            return False
        return True

    lo, hi = search["lo"], search["hi"]
    try:
        value = bisect_param(passes, lo, hi, search["tol"])
    except SearchError as exc:
        why = "; ".join(f"at {x!r}: {failed.get(x, 'passed')}" for x in (lo, hi))
        raise SearchError(f"{exc} ({why})") from None
    return value, probed[value]


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError(f"non-finite float in report: {x!r}")
        return format(float(x), ".17g")
    raise TypeError(type(x))


def canonical_json(obj, indent=0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{inner}"{key}": {canonical_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


# Cells per formatted block: bounds every temporary of `_format_cells` to a
# few tens of KB, so a table's size does not grow the heap.
_CSV_BLOCK = 2048

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter
_ASCII = 0x3030303030303030
_E8, _E16, _E17 = 10 ** 8, 10 ** 16, 10 ** 17
_NO_DOT = 18  # dot position meaning "no dot"
# Fast cells lie in [1e-280, 1e280], where log10 gives |X| <= 280, and its
# decade and the carry corrections move X by one: every decimal exponent X
# met has |X| <= 281, and its table row is X + _X0.
_X0 = 281


def _pow10(p: int):
    """10**p as a double-double: hi correctly rounded, lo its rounded rest."""
    if p >= 0:
        hi = float(10 ** p)
        return hi, float(10 ** p - int(hi))
    den = 10 ** -p
    hi = 1 / den
    m, d = hi.as_integer_ratio()
    return hi, (d - m * den) / (d * den)


def _byte_words(mask: int):
    """The 24-byte integer ``mask`` as words 1-3 of a cell slot's four
    uint64 words; word 0 (separator, sign, lead) is left clear."""
    return [0] + [(mask >> 64 * w) & 0xFFFFFFFFFFFFFFFF for w in range(3)]


@functools.cache
def _tables():
    """Constants of ``_format_cells``, built once, on first use. Per row X:
    10**(16 - X) split for Dekker's product, and the lead ``0.000`` of
    fixed form, the ``e±XX`` tail of exponent form and the dot position;
    per (significant digits, dot): the digit-field masks."""
    rows = 2 * _X0 + 1
    t = SimpleNamespace(scale=np.zeros((4, rows)))  # hi, hi's split halves, lo
    t.lead, t.tail, t.dot_at = np.zeros((3, rows), np.int64)
    for r in range(rows):
        x = r - _X0
        hi_p, lo_p = _pow10(16 - x)
        c = _SPLIT * hi_p
        h = c - (c - hi_p)
        t.scale[:, r] = hi_p, h, hi_p - h, lo_p
        if 0 <= x < 17:
            t.dot_at[r] = x + 1
        elif -4 <= x < 0:
            t.lead[r] = int.from_bytes(b"0.000"[:1 - x], "little") << 24
            t.dot_at[r] = _NO_DOT
        else:
            t.tail[r] = int.from_bytes(b"e%+03d" % x, "little") << 16
            t.dot_at[r] = 1
    keep_d, keep_s, dot = [], [], []
    for sig in range(18):
        for at in range(_NO_DOT + 1):
            # Digits kept: the significant ones and, in fixed form, the
            # integer part's zeros; a dot only before a kept digit.
            keep = sig if at == _NO_DOT else max(sig, at)
            k = at if sig > at else _NO_DOT
            keep_d.append(_byte_words((1 << 8 * min(k, keep)) - 1))
            keep_s.append(_byte_words((1 << 8 * (keep + 1)) - (1 << 8 * (k + 1))
                                      if k < keep else 0))
            dot.append(_byte_words(0x2E << 8 * k if k < _NO_DOT else 0))
    t.keep_d, t.keep_s, t.dot = (np.array(m, np.uint64) for m in (keep_d, keep_s, dot))
    return t


def _scaled(a, rows, scale):
    """``a * 10**(16 - X)`` as (integer part, fraction): Dekker's exact
    product with the table's hi, plus ``a * lo``; the error is about 1e-14."""
    hi, hh, hl, lo = (t.take(rows) for t in scale)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    r = ah * hh
    r -= p
    r += ah * hl
    r += al * hh
    r += al * hl
    r += a * lo
    whole = np.floor(r)
    r -= whole
    i = p.astype(np.int64)
    i += whole.astype(np.int64)
    return i, r


def _format_cells(v, seps) -> bytes:
    """The cells ``v`` (flat float64), each led by its separator word in
    ``seps``, as the bytes of ``format(x, ".17g")``.

    Each cell fills a 32-byte slot (separator, sign, lead; 17 digits and a
    dot; tail) whose unused bytes are NUL, and one ``bytes.translate``
    drops them. The 17-digit integer is rounded from a double-double
    product; a cell whose fraction lies within 1e-6 of 1/2, whose
    magnitude lies outside [1e-280, 1e280] or that is not finite is
    formatted by Python's ``%.17g`` instead."""
    t = _tables()
    n = len(v)
    a = np.abs(v)
    fast = a >= 1e-280
    fast &= a <= 1e280
    a = np.where(fast, a, 1.0)
    rows = np.floor(np.log10(a)).astype(np.intp)
    rows += _X0
    i, f = _scaled(a, rows, t.scale)
    # log10 can land one decade off next to a power of ten.
    off = (i - _E16).view(np.uint64) >= _E17 - _E16
    if off.any():
        w = np.flatnonzero(off)
        rows[w] += np.where(i[w] < _E16, -1, 1)
        i[w], f[w] = _scaled(a[w], rows[w], t.scale)
    i += f > 0.5
    f -= 0.5
    fast &= np.abs(f) > 1e-6
    carry = i == _E17
    if carry.any():
        i[carry] = _E16
        rows[carry] += 1
    zero = v == 0.0
    if zero.any():
        i[zero] = 0
        fast |= zero
    # The leading digit, then digits 2-9 and 10-17 as ASCII bytes, eight to
    # a uint64: split in 32-, 16- and 8-bit lanes by multiply-shift division.
    hi9 = i // _E8
    x = np.empty((2, n), np.uint64)
    np.subtract(i, hi9 * _E8, out=x[1].view(np.int64))
    d0 = hi9 // _E8
    np.subtract(hi9, d0 * _E8, out=x[0].view(np.int64))
    q = x * 109951163
    q >>= 40
    x <<= 32
    x -= q * ((10000 << 32) - 1)
    q = x * 5243
    q >>= 19
    q &= 0x0000007F0000007F
    x <<= 16
    x -= q * ((100 << 16) - 1)
    q = x * 103
    q >>= 10
    q &= 0x000F000F000F000F
    x <<= 8
    x -= q * ((10 << 8) - 1)
    mid, low = x
    # Significant digits from the top nonzero byte of each word, read off
    # the exponent of the word converted to float.
    top = x.astype(np.float64).view(np.int64)
    top += 1 << 52
    top >>= 55
    sig = np.maximum(top[0] - 126, top[1] - 118)
    np.maximum(sig, 1, out=sig)
    sig *= _NO_DOT + 1
    sig += t.dot_at.take(rows)
    # Slot words 1-3 hold the digits; `s` is them one byte later, so the
    # masks take the digits before the dot from `d` and the rest from `s`.
    d = np.empty((n, 4), np.uint64)
    d[:, 0] = 0
    np.left_shift(mid, 8, out=d[:, 1])
    d[:, 1] |= d0.view(np.uint64)
    np.right_shift(mid, 56, out=d[:, 2])
    d[:, 2] |= low << 8
    np.right_shift(low, 56, out=d[:, 3])
    d |= _ASCII
    s = d << 8
    s[:, 2] |= d[:, 1] >> 56
    s[:, 3] |= d[:, 2] >> 56
    d &= t.keep_d.take(sig, axis=0)
    s &= t.keep_s.take(sig, axis=0)
    d |= s
    d |= t.dot.take(sig, axis=0)
    d[:, 3] |= t.tail.take(rows).view(np.uint64)
    w0 = np.signbit(v) * (0x2D << 16)
    w0 |= t.lead.take(rows)
    w0 |= seps
    d[:, 0] = w0
    if not fast.all():
        slow = np.flatnonzero(~fast)
        slots = d.view(np.uint8)
        slots[slow, 2:] = 0
        slots[slow, 2:26] = np.array(
            [b"%.17g" % c for c in v[slow].tolist()], "S24").view(np.uint8).reshape(-1, 24)
    return d.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def _write_csv(path: Path, header, columns):
    """Write equal-length float ``columns`` under ``header``: comma
    separators, CRLF line ends, no quoting, and cells that are byte for
    byte ``format(float(v), ".17g")``, the bytes of ``csv.writer`` rows
    (``tests/oracles.py::write_csv_rows``). Cells are formatted in numpy
    (see :func:`_format_cells`); ties, magnitudes outside [1e-280, 1e280]
    and non-finite cells fall back to Python's ``%.17g``."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    nrows = len(columns[0])
    if len(header) != len(columns) or any(len(c) != nrows for c in columns):
        raise ValueError(f"CSV {path.name}: {len(header)} header names for "
                         f"columns of lengths {[len(c) for c in columns]}")
    step = max(1, _CSV_BLOCK // len(columns))
    # Each cell carries the separator before it: CRLF ends the previous line.
    seps = np.tile(np.array([0x0A0D] + [0x2C] * (len(columns) - 1), np.int64),
                   min(step, nrows))
    with path.open("wb") as fh:
        fh.write(",".join(header).encode())
        for i in range(0, nrows, step):
            cells = np.column_stack([c[i:i + step] for c in columns]).reshape(-1)
            fh.write(_format_cells(cells, seps[:len(cells)]))
        fh.write(b"\r\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


@command("spline-demo", curve=_from_dict(Jet3Curve), kink=number, eps=number,
         delta=number, samples=(positive_int, 512))
def _run_spline_demo(p, ctx):
    curve, kink, eps, delta = p["curve"], p["kink"], p["eps"], p["delta"]
    smoothed = two_stage_smooth(curve, kink, eps, delta)

    lo, hi = curve.domain
    x = np.linspace(lo, hi, p["samples"])
    a, b = curve.jet(x), smoothed.jet(x)  # left limits at kinks
    ctx.csv("spline.csv",
            ("x", "in_value", "in_d1", "in_d2", "out_value", "out_d1", "out_d2"),
            (x, a.value, a.d1, a.d2, b.value, b.d1, b.d2))

    seam = 0.0
    for x, _ in smoothed.kinks:
        jl, jr = smoothed.jet(x, side="left"), smoothed.jet(x, side="right")
        seam = max(seam, abs(jl.value - jr.value), abs(jl.d1 - jr.d1),
                   abs(jl.d2 - jr.d2))
    x = np.linspace(lo, hi, 257)
    x = x[(x < kink - eps - delta) | (x > kink + eps + delta)]
    local = float(np.max(np.abs(smoothed.value(x) - curve.value(x))))
    ctx.check("c2_seams", 1e-9 - seam, "worst jump of value/d1/d2 at seams")
    ctx.check("locality", 1e-12 - local, "output equals input outside windows")
    return {"window": [kink - eps - delta, kink + eps + delta],
            "max_seam_jump": seam, "max_outside_deviation": local}


@command("curvature", m=integer, n=integer, k=_from_dict(Jet3Curve),
         h=_from_dict(Jet3Curve), start_kind=(text, "boundary"),
         end_kind=(text, "boundary"), grid=_grid(1000, 0),
         threshold=(number, 1e-6), samples=(positive_int, 200),
         expect_constant=(number, None))
def _run_curvature(p, ctx):
    g = DoublyWarpedMetric(p["k"], p["h"], p["m"], p["n"], p["start_kind"],
                           p["end_kind"])
    lo, hi = g.domain
    grid = p["grid"]
    cert = g.min_ricci(GridSpec.line(lo, hi, grid["count"], ctx.depth(grid["depth"]),
                                     grid["factor"]),
                       threshold=p["threshold"])
    ctx.certificate("min_ricci", cert)

    samples = sectional(g, np.linspace(lo, hi, p["samples"]))
    ctx.csv("curvature.csv", CurvatureSample.CSV_HEADER, samples.as_row())
    results = {"domain": [lo, hi], "min_ricci": cert.min_margin}
    if p["expect_constant"] is not None:
        want = p["expect_constant"]
        dev = float(max(np.max(np.abs(K - want)) for K in samples.sectionals))
        ctx.check("constant_curvature", 1e-8 - dev,
                  f"all sectional values within 1e-8 of {want!r}")
        results["max_constant_deviation"] = dev
    return results


@command("glue-corner", left=_from_dict(cor.CornerChart),
         right=_from_dict(cor.CornerChart), eps=(number, None),
         delta_ratio=(number, 0.2), search=_search(0.02, None),
         grid=_grid(241, 3), threshold=(number, 1e-6), samples=(positive_int, 200))
def _run_glue_corner(p, ctx):
    left, right = p["left"], p["right"]
    threshold, ratio = p["threshold"], p["delta_ratio"]
    if not 0.0 < ratio < 1.0:
        raise PreconditionError(f"delta_ratio must lie in (0, 1), got {ratio!r}")
    # The eps-free half of the gluing is checked and built once, for every probe.
    face = cor.glue_face(left, right)
    a_lo, a_hi = left.a_range[0], right.a_range[1]
    count, factor = p["grid"]["count"], p["grid"]["factor"]
    depth = ctx.depth(p["grid"]["depth"])

    def certify(e, search):
        chart = cor.glue_and_smooth(face, e, ratio * e)
        n = max(count, int(8.0 * (a_hi - a_lo) / (ratio * e)))
        grid = GridSpec.line(a_lo, a_hi, n, depth, factor)
        cvx = cor.convexity_certificate(chart, grid, threshold, search)
        _refuse(search, "convexity", cvx)
        ccv = cor.concavity_certificate(chart, grid, threshold, search)
        _refuse(search, "concavity", ccv)
        return chart, cvx, ccv

    searched = None
    if p["eps"] is None:
        searched = dict(p["search"])
        if searched["hi"] is None:
            searched["hi"] = 0.45 * min(-left.a_range[0], right.a_range[1])
    eps, (glued, cvx, ccv) = _searched(certify, p["eps"], searched)
    delta = ratio * eps
    ctx.certificate("convexity", cvx)
    ctx.certificate("concavity", ccv)

    a = np.linspace(a_lo, a_hi, p["samples"])
    ctx.csv("face_forms.csv",
            cor.FaceSecondForm.CSV_HEADER + ("profile_hessian",),
            (*cor.face_second_form(glued, a).as_row(),
             cor.face_profile_hessian(glued, a)))

    a = np.linspace(a_lo, a_hi, 257)
    a = a[np.abs(a) > eps + delta]
    inputs = np.concatenate([left.phi.value(a[a < 0]), right.phi.value(a[a >= 0])])
    local = float(np.max(np.abs(glued.phi.value(a) - inputs)))
    ctx.check("locality", 1e-15 if local == 0.0 else -local,
              "glued phi bit-identical to inputs outside windows")
    return {"dihedral_angle": face.angle, "eps": eps, "delta": delta,
            "search": searched, "convexity_margin": cvx.min_margin,
            "concavity_margin": ccv.min_margin}


@command("isotopy", R=number, m=integer, n=integer, b1=number,
         nu=(number, None), nu_search=_search(1e-4, 0.2),
         grid={"lambda_count": (integer, 64), "s_count": (integer, 256),
               "depth": (integer, 2), "factor": (integer, 2)},
         threshold=(number, 1e-6), samples=(positive_int, 400))
def _run_isotopy(p, ctx):
    R, m, n, b1, threshold = p["R"], p["m"], p["n"], p["b1"], p["threshold"]
    lam_count, s_count = p["grid"]["lambda_count"], p["grid"]["s_count"]
    depth, factor = ctx.depth(p["grid"]["depth"]), p["grid"]["factor"]
    if n < 3:
        raise PreconditionError(
            f"isotopy needs n >= 3, got n = {n}: beyond T3 h is identically R, "
            "so Ric_h = (n - 2)/R^2 is not positive there")
    # The nu-free half of the profile is built once, for every probe.
    part = cons.make_profile_h(R)

    def stage_certs(nu, search):
        profile = cons.make_boundary_profile(part, nu, b1)
        target = cons.make_isotopy_target(profile)
        stage1 = cons.isotopy_stage1(profile, target, m, n)
        grid1 = GridSpec.box([(*stage1.lam_range, lam_count),
                              (0.0, profile.T, s_count)], depth, factor)
        cert1 = stage1.min_ricci(grid1, threshold, search)
        _refuse(search, "stage1_min_ricci", cert1)
        stage2 = cons.isotopy_stage2(target.k1, profile.h, R, m, n)
        grid2 = GridSpec.box([(*stage2.lam_range, lam_count),
                              (0.0, profile.T, s_count)], depth, factor)
        cert2 = stage2.min_ricci(grid2, threshold, search)
        _refuse(search, "stage2_min_ricci", cert2)
        return profile, target, stage1, stage2, cert1, cert2

    searched = None if p["nu"] is not None else p["nu_search"]
    nu, (profile, target, stage1, stage2, cert1, cert2) = _searched(
        stage_certs, p["nu"], searched)
    ctx.certificate("stage1_min_ricci", cert1)
    ctx.certificate("stage2_min_ricci", cert2)
    ctx.checks += profile.report.checks + target.report.checks

    g_end = DoublyWarpedMetric(stage2.k1, stage2.h1, m, n, stage2.start_kind,
                               stage2.end_kind)
    c = sectional(g_end, np.linspace(0.0, profile.T, 400))
    dev = float(max(np.max(np.abs(K - 1.0 / R**2)) for K in c.sectionals))
    ctx.check("round_endpoint", 1e-8 - dev,
              "lambda=2 metric has constant curvature 1/R^2")

    s = np.linspace(0.0, profile.T, p["samples"])
    # Each column is its curve's value, the right-sided jet's.
    curves = (profile.k, profile.h, target.k1, stage2.k1, stage2.h1)
    ctx.csv("warping.csv", ("s", "k0", "h0", "k1", "k_round", "h_round"),
            (s, *(j.value for j in jets(curves, s, side="right"))))
    return {"nu": nu, "nu_search": searched,
            "breakpoints": {"T0": profile.T0, "T1": profile.T1,
                            "T2": profile.T2, "T3": profile.T3,
                            "T": profile.T},
            "stage1_margin": cert1.min_margin,
            "stage2_margin": cert2.min_margin,
            "round_endpoint_deviation": dev}


def _round_radius_path(spec):
    """The concordance ``path`` object: a radius r(lambda) on [0, 1]."""
    kind = spec.get("type") if isinstance(spec, dict) else None
    common = {"type": text, "n": (integer, 3)}
    if kind == "round_bump":
        p = decode(spec, {**common, "base": (number, 1.0),
                          "amplitude": (number, 0.1)}, "path")
        node = Sum((Poly((p["base"],)), Sin(p["amplitude"], math.pi)))
    elif kind == "round_constant":
        p = decode(spec, {**common, "radius": (number, 1.0)}, "path")
        node = Poly((p["radius"],))
    else:
        raise ScenarioError(f"unknown path type {kind!r}")
    return cons.RoundRadiusPath(Jet3Curve.from_node(node, (0.0, 1.0)), p["n"])


@command("concordance", path=_round_radius_path, nu=number,
         t_count=(integer, 160), theta_count=(integer, 48),
         cert_depth=(integer, 1), threshold=(number, 1e-6),
         schedule_samples=(positive_int, 200))
def _run_concordance(p, ctx):
    params, certs, boundary = cons.concordance_search(
        p["path"], p["nu"], t_count=p["t_count"], theta_count=p["theta_count"],
        cert_depth=ctx.depth(p["cert_depth"]), threshold=p["threshold"])
    for name, cert in certs.items():
        ctx.certificate(name, cert)
    ctx.check("boundary_t0_end", boundary["t0_end_margin"],
              boundary["t0_end_requirement"])
    ctx.check("boundary_t1_end", boundary["t1_end_margin"],
              boundary["t1_end_requirement"])

    rho, lam = cons.concordance_schedule(params)
    t, lam_t, rho_t, residual = cons.sample_schedule(params, rho, lam,
                                                     p["schedule_samples"])
    worst = float(np.max(residual))
    ctx.csv("schedule.csv", ("t", "lambda", "rho"), (t, lam_t, rho_t))
    ctx.check("schedule_residuals", 1e-10 - worst,
              "|alpha lam' - Gamma| and |beta rho'/rho + Gamma| below 1e-10")
    ends = {
        "lambda_t0": lam.value(params.t0), "lambda_t1": lam.value(params.t1),
        "rho_t0": rho.value(params.t0), "rho_t1": rho.value(params.t1),
    }
    ctx.check("schedule_endpoints",
              1e-12 - max(abs(ends["lambda_t0"]), abs(ends["lambda_t1"] - 1.0),
                          abs(ends["rho_t0"] - params.r1),
                          abs(ends["rho_t1"] - params.r0)),
              "lam(t0)=0, lam(t1)=1, rho(t0)=r1, rho(t1)=r0")
    return {"params": params.to_dict(), "theta0": boundary["theta0"],
            "schedule_endpoints": ends, "schedule_residual": worst}


@command("triangle", r_values=list_of(number), tilt=(number, 1e-4))
def _run_triangle(p, ctx):
    solutions = []
    for r in p["r_values"]:
        sol = cons.solve_geodesic_triangle(r, tilt=p["tilt"])
        solutions.append({"r": r, **sol.to_dict()})
        ctx.check(f"residual_r={r:.6g}", 1e-10 - abs(sol.residual),
                  "|sin z - sin 2r| below 1e-10")
        ctx.check(f"base_exceeds_r={r:.6g}", sol.x1 - r,
                  "triangle base x1 > r")
    return {"solutions": solutions}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class _Context:
    def __init__(self, out_dir: Path, grid_depth):
        self.out_dir = out_dir
        self.grid_depth = grid_depth
        self.certificates = {}
        self.checks = []
        self.artifacts = []

    def depth(self, depth) -> int:
        """The scenario's refinement ``depth``, unless --grid-depth overrides it."""
        return depth if self.grid_depth is None else self.grid_depth

    def certificate(self, name, cert):
        self.certificates[name] = cert

    def check(self, name, margin, note=""):
        self.checks.append(cons._check(name, margin, note))

    def csv(self, name, header, columns):
        """Write ``name`` from a tuple of equal-length float arrays."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(self.out_dir / name, header, columns)
        self.artifacts.append(name)


def run_scenario(scenario, out_dir, threads: int = 1, grid_depth=None,
                 emit_json: bool = False):
    """Run one scenario (dict or path); returns (exit_code, report_dict).

    A ``ScenarioError`` returns exit 2, and a ``PreconditionError``,
    ``SearchError`` or ``EvaluationError`` exit 3, each with an error
    report. Any other exception propagates to the caller as raised: only
    ``main`` turns it into exit 4, so an in-process caller sees the crash
    itself. ``threads`` is accepted for compatibility and ignored: scans
    run on arrays in one thread.
    """
    out = Path(out_dir)
    ctx = _Context(out, grid_depth)
    try:
        if not isinstance(scenario, dict):
            try:
                scenario = json.loads(Path(scenario).read_text())
            except (OSError, ValueError, RecursionError) as exc:
                # Unreadable, not UTF-8, not JSON, an integer literal past
                # Python's digit limit, or nested past the recursion limit.
                raise ScenarioError(str(exc)) from exc
        if not isinstance(scenario, dict):
            raise ScenarioError("scenario must be a JSON object")
        name = scenario.get("command")
        if not isinstance(name, str) or name not in COMMANDS:
            raise ScenarioError(
                f"unknown command {name!r}; choose from {sorted(COMMANDS)}")
        fn, fields = COMMANDS[name]
        try:
            params = decode({k: v for k, v in scenario.items() if k != "command"},
                            fields, "scenario")
        except RecursionError as exc:
            raise ScenarioError(f"scenario nested too deeply: {exc}") from None
        results = fn(params, ctx)
    except ScenarioError as exc:
        report = {"error": {"kind": "scenario", "message": str(exc)}}
        print(canonical_json(report), file=sys.stderr)
        return 2, report
    except (PreconditionError, SearchError, EvaluationError) as exc:
        report = {"command": name,
                  "error": {"kind": type(exc).__name__, "message": str(exc)}}
        if getattr(exc, "report", None) is not None:
            report["error"]["conditions"] = exc.report.to_dict()
        if getattr(exc, "coords", None) is not None:
            report["error"]["coords"] = list(exc.coords)
        if getattr(exc, "trace", None) is not None:
            report["error"]["trace"] = [
                [x if x is None or math.isfinite(x) else None for x in row]
                for row in exc.trace]
        print(canonical_json(report), file=sys.stderr)
        return 3, report

    passed = (all(c.passed for c in ctx.certificates.values())
              and all(c.passed for c in ctx.checks))
    report = {
        "command": name,
        "parameters": scenario,
        "results": results,
        "certificates": {k: v.to_dict() for k, v in ctx.certificates.items()},
        "checks": [c.to_dict() for c in ctx.checks],
        "passed": passed,
        "artifacts": {"csv": ctx.artifacts},
    }
    out.mkdir(parents=True, exist_ok=True)
    text = canonical_json(report) + "\n"
    (out / "report.json").write_text(text)
    if emit_json:
        sys.stdout.write(text)
    return (0 if passed else 1), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riccicert",
        description="Warped-product constructions and positivity certificates")
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored (scans run on arrays)")
    parser.add_argument("--grid-depth", type=int, default=None,
                        help="override every grid refinement depth")
    parser.add_argument("--json", action="store_true",
                        help="also print the report to stdout")
    args = parser.parse_args(argv)
    try:
        code, _ = run_scenario(args.scenario, args.out, threads=args.threads,
                               grid_depth=args.grid_depth, emit_json=args.json)
    except Exception as exc:  # noqa: BLE001 - a crash must not read as exit 1
        import traceback  # only here, to keep it out of every start-up
        report = {"error": {"kind": "internal", "type": type(exc).__name__,
                            "message": str(exc)}}
        print(json.dumps(report, sort_keys=True), file=sys.stderr)
        traceback.print_exc()
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
