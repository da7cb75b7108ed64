#!/usr/bin/env python3
"""Re-scan a scenario's certificates on a dense grid and flag false passes.

Usage: python3 scripts/falsify.py SCENARIO

Runs the scenario as shipped, then runs it again with the searched value
fixed to the one the first run found (``nu`` for isotopy, ``eps`` for
glue-corner; concordance has none and searches its t0 again), every grid
count of the scenario times ``DENSE`` and refinement depth 0. The counts
are ``grid.s_count`` for isotopy, ``grid.count`` for curvature and
glue-corner, and ``t_count`` and ``theta_count`` for concordance.

Prints a markdown table with one row per certificate of the shipped run:
its minimum margin, argmin and pass flag, then the same of the dense run.
Exit status: 0 when no certificate is flagged, 1 when one is (it passed,
and its dense scan fails or is missing, as when the dense run stops with an
error), 2 when the shipped run does not finish or its command has no grid
certificates.
"""

import copy
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccicert.cli import COMMANDS, run_scenario  # noqa: E402

# Each grid count of the dense run is this many times the scenario's.
DENSE = 16

# The scenario keys of each command's grid counts, as key paths.
COUNTS = {
    "isotopy": (("grid", "s_count"),),
    "curvature": (("grid", "count"),),
    "glue-corner": (("grid", "count"),),
    "concordance": (("t_count",), ("theta_count",)),
}
# The scenario key of each command's searched value, found in its results.
SEARCHED = {"isotopy": "nu", "glue-corner": "eps"}


def dense_scenario(scenario: dict, results: dict) -> dict:
    """``scenario`` with its searched value fixed to ``results``' and each
    grid count (the scenario's, or the command's default) times ``DENSE``."""
    name = scenario["command"]
    fields = COMMANDS[name][1]
    dense = copy.deepcopy(scenario)
    if name in SEARCHED:
        dense[SEARCHED[name]] = results[SEARCHED[name]]
    for *path, key in COUNTS[name]:
        spec, into = fields, dense
        for k in path:
            spec, into = spec[k], into.setdefault(k, {})
        into[key] = DENSE * into.get(key, spec[key][1])
    return dense


def _summary(cert):
    return None if cert is None else (cert["min_margin"], cert["argmin"], cert["passed"])


def compare(shipped: dict, dense: dict) -> list:
    """One row per certificate of the ``shipped`` report: its name, the
    shipped and the dense ``(min_margin, argmin, passed)`` (None where the
    ``dense`` report has no such certificate) and whether it is flagged."""
    rows = []
    for name, cert in shipped["certificates"].items():
        got = _summary(dense.get("certificates", {}).get(name))
        rows.append((name, _summary(cert), got,
                     cert["passed"] and not (got and got[2])))
    return rows


def falsify(scenario_path):
    """``(rows, shipped report, dense report)`` for the scenario file, the
    rows as :func:`compare` gives them."""
    scenario = json.loads(Path(scenario_path).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        code, shipped = run_scenario(scenario, Path(tmp) / "shipped")
        if code > 1:
            raise RuntimeError(f"the shipped run exits {code}: {shipped['error']}")
        if scenario["command"] not in COUNTS:
            raise RuntimeError(f"{scenario['command']!r} has no grid certificates")
        _, dense = run_scenario(dense_scenario(scenario, shipped["results"]),
                                Path(tmp) / "dense", grid_depth=0)
    return compare(shipped, dense), shipped, dense


def _cells(row):
    if row is None:
        return ["-"] * 3
    margin, argmin, passed = row
    return [f"{margin:.6g}" if margin is not None else "none",
            "(" + ", ".join(f"{x:.6g}" for x in argmin) + ")", str(passed)]


def format_table(rows) -> str:
    lines = ["| certificate | shipped min | shipped argmin | shipped pass "
             "| dense min | dense argmin | dense pass | flagged |",
             "|---|---|---|---|---|---|---|---|"]
    for name, shipped, dense, flagged in rows:
        cells = [name, *_cells(shipped), *_cells(dense), "FALSE PASS" if flagged else ""]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        rows, _, dense = falsify(argv[0])
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(format_table(rows))
    if "error" in dense:
        print(f"\ndense run: {dense['error']}")
    return 1 if any(flagged for *_, flagged in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
