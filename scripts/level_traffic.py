#!/usr/bin/env python3
"""Points per scan level, how many of them are distinct, and their table.

Usage: python3 scripts/level_traffic.py [SCENARIO.json ...]

Runs each scenario (default: every file in scenarios/) once and prints, per
certificate and scan level, the number of points ``grid_min`` hands to the
margin function, the number of distinct points among them, the number of
axis values in the level's open mesh (the sum over boxes and axes of each
box's count on that axis), and the number of table pairs (the product over
axes of the level's distinct values on that axis: for the isotopy path
margin, each distinct lambda against each distinct s). Refinement cells
overlap, so a refinement level repeats points; a margin that evaluates
each distinct point once does the distinct count of work, a separable
margin, which evaluates each axis value once, does the axis-value count,
and a table margin the table count. The counts are taken from outside the
program, by wrapping ``verify._evaluate``, which ``grid_min`` calls once
per level. Reports go to a temporary directory; only stdout is written.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccicert import verify  # noqa: E402
from riccicert.cli import run_scenario  # noqa: E402


def traffic(scenario: Path):
    """``(exit code, rows)`` of one run; a row is ``(certificate,
    quantity id, level, points, distinct, axis values, table pairs)``."""
    rows, label = [], {}
    evaluate, grid_min = verify._evaluate, verify.grid_min

    def labelled(f, grid, *args, **kw):
        label["cert"] = label.get("cert", -1) + 1
        label["qid"] = kw.get("quantity_id", "margin")
        label["level"] = 0
        return grid_min(f, grid, *args, **kw)

    def counted(f, points, mesh, batched):
        rows.append((label["cert"], label["qid"], label["level"], len(points),
                     len(np.unique(points, axis=0)), sum(x.size for x in mesh),
                     math.prod(len(np.unique(x)) for x in mesh)))
        label["level"] += 1
        return evaluate(f, points, mesh, batched)

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
    return code, rows


def main(argv):
    paths = ([Path(a) for a in argv[1:]]
             or sorted((ROOT / "scenarios").glob("*.json")))
    for path in paths:
        code, rows = traffic(path)
        print(f"{path.name} (exit {code})")
        if rows:
            print(f"  {'cert':>4}  {'quantity':30}  {'level':>5}  "
                  f"{'points':>8}  {'distinct':>8}  {'axis values':>11}  "
                  f"{'table':>8}")
        for cert, qid, level, points, distinct, values, table in rows:
            print(f"  {cert:4d}  {qid:30}  {level:5d}  {points:8d}  "
                  f"{distinct:8d}  {values:11d}  {table:8d}")
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
