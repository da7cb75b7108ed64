#!/usr/bin/env python3
"""Random float64 bit patterns through the CSV writer and the row oracle.

Usage: python3 scripts/csv_fuzz.py N [SEED]

Draws N uniformly random 64-bit patterns (every exponent, subnormals, zeros
of either sign, infinities and NaN payloads) from ``numpy.random``'s
generator seeded with SEED (default 0), writes them in blocks of one column
through ``riccicert.cli._write_csv``, and compares each block's bytes with
``format(v, ".17g")`` per cell, the rule of ``tests/oracles.py``'s
``write_csv_rows``. Exits 1 at the first mismatch, printing the value's
hex, and 0 when every cell matches.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccicert.cli import _write_csv  # noqa: E402

BLOCK = 10**6  # cells per comparison


def first_mismatch(values, data: bytes):
    """(value, written line) of the first cell whose line in ``data`` is
    not its ``%.17g``; None when every cell's line is."""
    lines = data.split(b"\r\n")[1:]
    for k, v in enumerate(values.tolist()):
        line = lines[k] if k < len(lines) else b""
        if line != b"%.17g" % v:
            return v, line
    return None


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    count, seed = int(argv[1]), int(argv[2]) if len(argv) == 3 else 0
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        for start in range(0, count, BLOCK):
            bits = rng.integers(0, 2**64, size=min(BLOCK, count - start),
                                dtype=np.uint64)
            values = bits.view(np.float64)
            _write_csv(path, ("v",), (values,))
            data = path.read_bytes()
            expect = b"v\r\n" + b"".join(b"%.17g\r\n" % v for v in values.tolist())
            if data != expect:
                found = first_mismatch(values, data)
                if found is None:
                    print("mismatch after the last cell")
                else:
                    v, line = found
                    print(f"mismatch at {v.hex()} "
                          f"(bits {np.float64(v).view(np.uint64):#018x}): "
                          f"wrote {line!r}, expected {format(v, '.17g')!r}")
                return 1
    print(f"{count} cells match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
