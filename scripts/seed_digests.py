#!/usr/bin/env python3
"""Digests of a benchmark workload's outputs, seed by seed.

Usage: python3 scripts/seed_digests.py WORKLOAD FIRST LAST

For each seed in ``FIRST .. LAST - 1``, runs the instances that
``bench/workloads.generate`` draws for WORKLOAD through ``run_scenario``,
each into a fresh temporary directory, and prints one line per instance:

    seed index exit sha256

The sha256 covers the instance's output files in sorted order, each one's
name followed by its bytes; an instance that writes no file (exits 2 and 3)
hashes the empty string. Diffing the output of two checkouts shows whether
a change keeps every byte the benchmark's seeds produce. From ``bench/``
the script only imports ``workloads.py``; every output goes to a temporary
directory.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from riccicert.cli import run_scenario  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def digest(out: Path) -> str:
    """sha256 of the files in ``out``, sorted by name: name, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def seed_lines(workload: str, first: int, last: int):
    """``"seed index exit sha256"`` for every instance of seeds first..last-1."""
    for seed in range(first, last):
        for index, (_, scenario) in enumerate(
                generate(workload, seed, ROOT / "scenarios")):
            with tempfile.TemporaryDirectory() as tmp:
                code, _ = run_scenario(scenario, tmp)
                yield f"{seed} {index} {code} {digest(Path(tmp))}"


def main(argv):
    if (len(argv) != 4 or argv[1] not in WORKLOADS
            or not all(a.isdigit() for a in argv[2:])):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"WORKLOAD is one of: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    for line in seed_lines(argv[1], int(argv[2]), int(argv[3])):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
