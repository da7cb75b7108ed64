#!/usr/bin/env python3
"""Run every scenario in scenarios/ through the CLI entry point and print a
one-line summary per run; each writes its outputs to OUT_DIR/<scenario
name>/, where OUT_DIR is out/ unless given.

Usage: python3 scripts/run_all_scenarios.py [OUT_DIR]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccicert.cli import main as cli_main  # noqa: E402

STATUS = {0: "ok", 1: "FAILED CERTIFICATE", 2: "SCENARIO ERROR",
          3: "PRECONDITION", 4: "INTERNAL ERROR"}


def main(argv):
    out = Path(argv[1]) if len(argv) > 1 else ROOT / "out"
    worst = 0
    for scenario in sorted((ROOT / "scenarios").glob("*.json")):
        code = cli_main([str(scenario), "--out", str(out / scenario.stem)])
        print(f"{scenario.name:32s} exit {code}  {STATUS[code]}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
