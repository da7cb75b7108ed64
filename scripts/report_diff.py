#!/usr/bin/env python3
"""Compare two scenario output directories field by field.

Usage: python3 scripts/report_diff.py OLD_DIR NEW_DIR

Each directory is one scenario's output (``report.json`` and its CSV files)
or a tree of them, such as the ``out/`` that ``run_all_scenarios.py``
writes. Files are paired by their path relative to the directory. For every
``report.json`` the script prints each field whose value changed, with the
old and new value and, for two numbers, their distance in float64 units in
the last place (ULPs); any other change (a flag, a string, a field that
appears or disappears) has ``-`` for the distance. For every CSV it prints, per changed column,
how many cells moved, the largest absolute move and the largest move in
ULPs (``-`` if a moved cell is not a number). The output is markdown,
so it can go into a changelog as it stands. Exit status: 0 when every paired
file is byte-identical, 1 otherwise, 2 on a usage error.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

_SIGN = 1 << 63


def ulp_distance(a: float, b: float) -> int:
    """Number of float64 values from ``a`` to ``b`` (0.0 and -0.0 are one)."""
    def ordinal(x):
        i = int(np.array(x, dtype=np.float64).view(np.uint64))
        return i if i < _SIGN else -(i - _SIGN)
    return abs(ordinal(a) - ordinal(b))


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _label(item, index):
    return item["name"] if isinstance(item, dict) and "name" in item else index


def flatten(obj, prefix=""):
    """``{path: leaf}``; list items with a ``name`` key are keyed by it."""
    if isinstance(obj, dict):
        items = ((f"{prefix}.{k}" if prefix else str(k), v)
                 for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{prefix}[{_label(v, i)}]", v) for i, v in enumerate(obj))
    else:
        return {prefix: obj}
    out = {}
    for path, v in items:
        out.update(flatten(v, path))
    return out


def report_rows(old_path: Path, new_path: Path):
    old = flatten(json.loads(old_path.read_text()))
    new = flatten(json.loads(new_path.read_text()))
    rows = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, "(absent)"), new.get(key, "(absent)")
        if a == b and type(a) is type(b):
            continue
        ulps = str(ulp_distance(a, b)) if _number(a) and _number(b) else "-"
        rows.append((key, repr(a), repr(b), ulps))
    return rows


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return header, cells


def csv_rows(old_path: Path, new_path: Path):
    (h_old, c_old), (h_new, c_new) = _read_csv(old_path), _read_csv(new_path)
    if h_old != h_new or len(c_old) != len(c_new):
        return [("(shape)", f"{len(h_old)} columns x {len(c_old)} rows",
                 f"{len(h_new)} columns x {len(c_new)} rows", "-")]
    rows = []
    for j, name in enumerate(h_old):
        moved, worst, ulps = 0, 0.0, 0
        for r_old, r_new in zip(c_old, c_new):
            if r_old[j] == r_new[j]:
                continue
            moved += 1
            try:
                a, b = float(r_old[j]), float(r_new[j])
            except ValueError:
                worst, ulps = math.nan, None
                continue
            worst = max(worst, abs(b - a))
            if ulps is not None:
                ulps = max(ulps, ulp_distance(a, b))
        if moved:
            rows.append((name, str(moved), repr(worst),
                         "-" if ulps is None else str(ulps)))
    return rows


def _table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines)


def main(argv):
    if len(argv) != 3 or not all(Path(a).is_dir() for a in argv[1:]):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[1]), Path(argv[2])
    names = {p.relative_to(d) for d in (old_dir, new_dir)
             for p in d.rglob("*") if p.is_file()}
    same, changed = [], False
    for rel in sorted(names):
        old_path, new_path = old_dir / rel, new_dir / rel
        if not (old_path.exists() and new_path.exists()):
            side = "NEW" if new_path.exists() else "OLD"
            print(f"## {rel}\n\nonly in {side}_DIR\n")
            changed = True
            continue
        if old_path.read_bytes() == new_path.read_bytes():
            same.append(str(rel))
            continue
        changed = True
        if rel.name == "report.json":
            body = _table(("field", "old", "new", "ULPs"),
                          report_rows(old_path, new_path))
        elif rel.suffix == ".csv":
            body = _table(("column", "cells moved", "max abs move", "max ULPs"),
                          csv_rows(old_path, new_path))
        else:
            body = "bytes differ"
        print(f"## {rel}\n\n{body}\n")
    print(f"byte-identical: {len(same)} file(s)"
          + (f": {', '.join(same)}" if same else ""))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
