#!/usr/bin/env python3
"""Run the shipped scenarios under environments that make numpy and glibc
pick other float kernels, and show which output bytes move.

Usage: python3 scripts/host_variance.py

Each environment runs ``scripts/run_all_scenarios.py`` in a child process
that writes under a temporary directory, never under ``out/``. The
environments are the default; numpy without its AVX-512 loops
(``NPY_DISABLE_CPU_FEATURES``); and that together with glibc's non-FMA
kernels of ``exp``, ``sin``, ``cos`` and ``pow`` (``GLIBC_TUNABLES``). The
variables are set in the child's environment only, so they change no
machine setting. On a host without those CPU features the runs agree.

For each environment the script prints the child's one-line summaries
and, after the default, ``scripts/report_diff.py``'s table of its outputs
against the default environment's. Exit status: 0 when every
``report.json`` keeps the default's bytes in every environment, 1
otherwise; a moved CSV cell (the last bits of a transcendental function)
does not count.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NUMPY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
GLIBC = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX512F"}
ENVIRONMENTS = {"default": {}, "numpy": NUMPY, "numpy+glibc": {**NUMPY, **GLIBC}}


def run_scenarios(out: Path, variables: dict) -> str:
    """Run every shipped scenario in one child process whose environment
    is this one's with ``variables`` set, into ``out/<scenario name>/``;
    return the child's summary lines."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_scenarios.py"), str(out)],
        env={**os.environ, **variables}, capture_output=True, text=True).stdout


def main():
    moved = False
    with tempfile.TemporaryDirectory() as tmp:
        reference = Path(tmp) / "default"
        for name, variables in ENVIRONMENTS.items():
            out = Path(tmp) / name
            setting = " ".join(f'{k}="{v}"' for k, v in variables.items())
            print(f"# {name}: {setting or 'no variables set'}\n")
            print(run_scenarios(out, variables))
            if out == reference:
                continue
            diff = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "report_diff.py"),
                 str(reference), str(out)], capture_output=True, text=True)
            print(diff.stdout)
            moved |= any(p.read_bytes() != (reference / p.relative_to(out)).read_bytes()
                         for p in out.glob("*/report.json"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
