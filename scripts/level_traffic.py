#!/usr/bin/env python3
"""Points per scan level, how many of them are distinct, and their table.

Usage: python3 scripts/level_traffic.py [SCENARIO.json ...]

Runs each scenario (default: every file in scenarios/) once and prints, per
certificate and scan level, the number of points of the ``verify.Level``
that ``grid_min`` hands to the margin function, the number of distinct
points among them, the number of axis values in the level's open mesh (the
sum over boxes and axes of each box's count on that axis), the number of
table pairs (the product over axes of the level's distinct values on that
axis: for the isotopy path margin, each distinct lambda against each
distinct s), the route the isotopy path margin takes for such a level
(``table`` when the table holds no more pairs than the level has points,
else ``point``; ``-`` for every other margin) and the number of distinct boxes (refined cells) among the
level's boxes. Refinement cells overlap, so a refinement level repeats
points; a margin that evaluates each distinct point once does the distinct
count of work, a separable margin, which evaluates each axis value once,
does the axis-value count, and a table margin the table count. The counts
are taken from outside the program, by wrapping ``verify._evaluate``, which
``grid_min`` calls once per level; they read the level's points without
keeping them on the level. After the counted run, the scenario runs once
more unwrapped, and the minor page faults of that run (``getrusage``) are
printed. Reports go to temporary directories; only stdout is written.
"""

import math
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccicert import verify  # noqa: E402
from riccicert.cli import run_scenario  # noqa: E402


def _route(qid, dims, table, count):
    """The route of the isotopy path margin (quantity ``path_min_ricci``
    over (lambda, s)) for a level, or ``-`` for any other margin."""
    if qid != "path_min_ricci" or dims != 2:
        return "-"
    return "table" if table <= count else "point"


def traffic(scenario: Path):
    """``(exit code, rows, minor page faults)`` of one run; a row is
    ``(certificate, quantity id, level, points, distinct, axis values,
    table pairs, route, boxes, distinct boxes)``. The faults are those of a second,
    unwrapped run."""
    rows, label = [], {}
    evaluate, grid_min = verify._evaluate, verify.grid_min

    def labelled(f, grid, *args, **kw):
        label["cert"] = label.get("cert", -1) + 1
        label["qid"] = kw.get("quantity_id", "margin")
        label["level"] = 0
        return grid_min(f, grid, *args, **kw)

    def counted(f, level):
        count, mesh = level.shape[0], level.mesh
        points = level.coords(np.arange(count))
        table = math.prod(len(np.unique(x)) for x in mesh)
        corners = np.concatenate([x.reshape(len(x), -1)[:, [0, -1]]
                                  for x in mesh], axis=1)
        rows.append((label["cert"], label["qid"], label["level"], count,
                     len(np.unique(points, axis=0)), sum(x.size for x in mesh),
                     table, _route(label["qid"], len(mesh), table, count),
                     len(mesh[0]), len(np.unique(corners, axis=0))))
        label["level"] += 1
        return evaluate(f, level)

    # grid_min is imported by name into the modules that certify.
    owners = [m for name, m in sys.modules.items()
              if name.startswith("riccicert.")
              and getattr(m, "grid_min", None) is grid_min]
    verify._evaluate = counted
    for m in owners:
        m.grid_min = labelled
    try:
        with tempfile.TemporaryDirectory() as out:
            code, _ = run_scenario(scenario, out)
    finally:
        verify._evaluate = evaluate
        for m in owners:
            m.grid_min = grid_min
    with tempfile.TemporaryDirectory() as out:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_scenario(scenario, out)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return code, rows, faults


def main(argv):
    paths = ([Path(a) for a in argv[1:]]
             or sorted((ROOT / "scenarios").glob("*.json")))
    for path in paths:
        code, rows, faults = traffic(path)
        print(f"{path.name} (exit {code})")
        if rows:
            print(f"  {'cert':>4}  {'quantity':30}  {'level':>5}  "
                  f"{'points':>8}  {'distinct':>8}  {'axis values':>11}  "
                  f"{'table':>8}  {'route':>5}  {'cells':>5}")
        for (cert, qid, level, points, distinct, values, table, route, _,
             cells) in rows:
            print(f"  {cert:4d}  {qid:30}  {level:5d}  {points:8d}  "
                  f"{distinct:8d}  {values:11d}  {table:8d}  {route:>5}  "
                  f"{cells:5d}")
        for name, pick in (("coarse", lambda lv: lv == 0),
                           ("refinement", lambda lv: lv > 0)):
            points, distinct, values = (sum(r[k] for r in rows if pick(r[2]))
                                        for k in (3, 4, 5))
            print(f"  {name} total: {points:,} points -> {distinct:,} distinct"
                  f" -> {values:,} axis values")
            levels = [r for r in rows if pick(r[2])]
            if levels:
                table = sum(r[6] for r in levels)
                largest = max(r[6] / r[3] for r in levels)
                print(f"  {name} table: {table:,} pairs, {table / points:.2f} x"
                      f" points; largest level {largest:.2f} x")
        refined = [r for r in rows if r[2] > 0]
        if refined:
            print(f"  refined cells: {sum(r[8] for r in refined):,} -> "
                  f"{sum(r[9] for r in refined):,} distinct; "
                  f"{sum(r[7] == 'point' for r in rows)} of "
                  f"{sum(r[7] != '-' for r in rows)} path levels take the "
                  "point route")
        print(f"  minor page faults: {faults:,} (a second, unwrapped run)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
