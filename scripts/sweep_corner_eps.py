#!/usr/bin/env python3
"""Sweep the corner-smoothing window size and record certificate margins.

Shows the two failure regimes on either side of the valid band: exact-spline
curvature overshoot for small eps, O(eps) drift for large eps. Each point is
the shipped ``glue_corner.json`` run by the CLI with an explicit ``eps``, so
delta, the grid and both certificates are the command's own. Writes
out/corner_eps_sweep.csv; ``sweep(dir)`` writes it into another directory.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from riccicert.cli import _write_csv, run_scenario  # noqa: E402


def sweep(out: Path) -> Path:
    """Run the sweep and write ``corner_eps_sweep.csv`` into ``out``."""
    scenario = json.loads((ROOT / "scenarios" / "glue_corner.json").read_text())
    out.mkdir(exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for eps in np.geomspace(0.015, 0.22, 14):
            code, report = run_scenario(dict(scenario, eps=float(eps)), tmp)
            if "error" in report:
                print(f"eps={eps:.4f}: exit {code}: {report['error']['message']}")
                continue
            r = report["results"]
            rows.append((eps, r["delta"], r["convexity_margin"],
                         r["concavity_margin"]))
            print(f"eps={eps:.4f}  convexity {r['convexity_margin']:+.5f}  "
                  f"concavity {r['concavity_margin']:+.5f}")

    header = ("eps", "delta", "convexity_margin", "concavity_margin")
    path = out / "corner_eps_sweep.csv"
    _write_csv(path, header, np.reshape(rows, (-1, len(header))).T)
    return path


def main():
    print(f"wrote {sweep(ROOT / 'out')}")


if __name__ == "__main__":
    main()
