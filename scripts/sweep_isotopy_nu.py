#!/usr/bin/env python3
"""Sweep nu and record the worst Ricci value along both isotopy stages.

The construction works "for nu sufficiently small"; this sweep locates the
actual threshold. Each point is the shipped ``isotopy.json`` run by the CLI
with an explicit ``nu`` on a coarser grid (32 lambda x 160 s points, one
refinement level). Writes out/isotopy_nu_sweep.csv.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from riccicert.cli import _write_csv, run_scenario  # noqa: E402

GRID = {"lambda_count": 32, "s_count": 160, "depth": 1, "factor": 4}


def main():
    scenario = json.loads((ROOT / "scenarios" / "isotopy.json").read_text())
    out = ROOT / "out"
    out.mkdir(exist_ok=True)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for nu in np.geomspace(0.002, 0.08, 12):
            code, report = run_scenario(dict(scenario, nu=float(nu), grid=GRID),
                                        tmp)
            if "error" in report:
                print(f"nu={nu:.4f}: exit {code}: {report['error']['message']}")
                continue
            m1 = report["results"]["stage1_margin"]
            m2 = report["results"]["stage2_margin"]
            rows.append((nu, m1, m2))
            print(f"nu={nu:.4f}  stage1 {m1:+.5f}  stage2 {m2:+.5f}")

    header = ("nu", "stage1_min_ricci", "stage2_min_ricci")
    _write_csv(out / "isotopy_nu_sweep.csv", header,
               np.reshape(rows, (-1, len(header))).T)
    print(f"wrote {out / 'isotopy_nu_sweep.csv'}")


if __name__ == "__main__":
    main()
