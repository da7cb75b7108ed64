#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs of two source checkouts.

Usage:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--workload W2 ...] --pairs N --seconds S [--base-seed B] [--control]

Both checkouts are first copied, without ``__pycache__``, ``.bench_out``,
``.hypothesis`` and ``.git``, into sibling temporary directories whose
names have equal length, so that neither side runs on stale bytecode or
with a longer path. For each workload W in turn, pair i runs
``bench/run.py --workload W --seed B+i --seconds S --trace 0`` once in
each copy, with that copy as the working directory. The parent runs first
in even pairs and the change in odd ones, so a drift of the machine's
speed falls on both sides alike, and the two copies swap directories
every second pair, so a directory effect does too. The end-to-end metrics
and their directions and bounds are read from ``BENCHMARK.json`` next to
this script.

With ``--control`` the same pairs are first run with the parent against a
second fresh copy of the parent, an A/A run whose table is printed before
the change's, under a ``### W (control)`` heading.

Prints, per workload, a ``### W`` heading and a markdown table with, for
each metric, both medians, both quartiles, the ratio of the medians
(change / parent), the number of pairs the change won (strictly better; a
tie is no win) and a verdict, the first of these that holds:

- ``gain``: on at least ``MIN_GAIN_PAIRS`` pairs, the change won at
  least 9 of every 10 of them, and its median beats the parent's by more
  than the parent's q3 - q1; with a control, its ratio of the medians
  must also lie further from 1, on the better side, than the control's
  ratio lies on either side. On fewer pairs, or within the control's
  distance from 1, such a row reads ``unresolved``;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` times the parent's median;
- ``unresolved``: the parent's q3 - q1 exceeds ``bound`` times its median;
- ``same``: none of the above.

Exit status: 0 when every run reads ``correct: true``, 1 when a run does
not or yields no result (the rest of the runs are not made), 2 on a usage
error.
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Fewer pairs than this cannot show a gain: 9 of 10 wins needs 10 pairs.
MIN_GAIN_PAIRS = 10
# What a fresh copy of a checkout leaves out.
NOT_COPIED = ("__pycache__", ".bench_out", ".hypothesis", ".git")


def summarize(parent_runs, change_runs, metrics, control=None):
    """One row per ``(name, better, bound)`` of ``metrics``, from two
    equal-length lists of ``{name: value}`` dicts, pair i being the i-th of
    each.

    A row holds the name, both sides' (first quartile, median, third
    quartile), the ratio of the medians, the pairs the change won and the
    verdict of the module docstring; ``control``, the rows of an A/A run
    in the same metric order, bounds what a ``gain`` must beat.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need one or more runs on each side, in pairs")
    rows = []
    for name, better, bound in metrics:
        parent = [run[name] for run in parent_runs]
        change = [run[name] for run in change_runs]
        sign = {"lower": 1.0, "higher": -1.0}[better]
        p_q = tuple(np.percentile(parent, (25, 50, 75)).tolist())
        c_q = tuple(np.percentile(change, (25, 50, 75)).tolist())
        won = sum(sign * c < sign * p for p, c in zip(parent, change))
        spread, gap = p_q[2] - p_q[0], sign * (p_q[1] - c_q[1])
        ratio = c_q[1] / p_q[1]
        beyond_control = (control is None or sign * (1.0 - ratio)
                          > abs(control[len(rows)]["ratio"] - 1.0))
        if 10 * won >= 9 * len(parent) and gap > spread:
            verdict = ("gain" if len(parent) >= MIN_GAIN_PAIRS and beyond_control
                       else "unresolved")
        elif -gap > bound * abs(p_q[1]):
            verdict = "worse"
        elif spread > bound * abs(p_q[1]):
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append({"name": name, "parent": p_q, "change": c_q,
                     "ratio": ratio, "won": won, "verdict": verdict})
    return rows


def format_table(rows, pairs):
    lines = ["| metric | parent median [q1, q3] | change median [q1, q3] "
             f"| change / parent | change won (of {pairs}) | verdict |",
             "|---|---|---|---|---|---|"]
    for row in rows:
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                 for q in (row["parent"], row["change"])]
        lines.append(f"| {row['name']} | {cells[0]} | {cells[1]} "
                     f"| {row['ratio']:.3f} | {row['won']} | {row['verdict']} |")
    return "\n".join(lines)


def run_once(checkout, workload, seed, seconds):
    """The metric values of one untraced run; RuntimeError if the run gives
    no result or its result does not read ``correct: true``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"exit {proc.returncode}, no result: "
                           f"{proc.stderr.strip()[-400:]}") from None
    if result.get("correct") is not True:
        raise RuntimeError(f"correct: {result.get('correct')}; "
                           f"{' '.join(lines[:-1])[-400:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def fresh_copy(checkout, dest):
    """``dest``, a copy of ``checkout`` without the files of ``NOT_COPIED``."""
    shutil.copytree(checkout, dest, ignore=shutil.ignore_patterns(*NOT_COPIED))
    return dest


def swap(paths, a, b):
    """Swap the directories of sides ``a`` and ``b`` of ``paths``."""
    spare = paths[a].with_name(paths[a].name + "~")
    paths[a].rename(spare)
    paths[b].rename(paths[a])
    spare.rename(paths[b])
    paths[a], paths[b] = paths[b], paths[a]


def run_pairs(paths, sides, workload, args):
    """The metric values of ``args.pairs`` alternating pairs of runs of the
    two ``sides`` of ``paths``, as ``{side: [run, ...]}``; RuntimeError
    names a run that failed."""
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.base_seed + i
        if i and i % 2 == 0:
            swap(paths, *sides)
        for side in sides if i % 2 == 0 else sides[::-1]:
            try:
                runs[side].append(run_once(paths[side], workload, seed, args.seconds))
            except RuntimeError as err:
                raise RuntimeError(f"{workload} pair {i} ({side}, seed {seed}): "
                                   f"{err}") from None
        print(f"{workload} pair {i} (seed {seed}) done", file=sys.stderr)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--control", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = [(m["name"], m["better"], m["bound"])
               for m in json.loads(BENCHMARK.read_text())["end_to_end"]]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        # Sibling directories with names of one letter each.
        paths = {"parent": fresh_copy(args.parent, Path(tmp) / "p"),
                 "change": fresh_copy(args.change, Path(tmp) / "c")}
        if args.control:
            paths["control"] = fresh_copy(args.parent, Path(tmp) / "k")
        for n, workload in enumerate(args.workload):
            try:
                control = None
                if args.control:
                    runs = run_pairs(paths, ("parent", "control"), workload, args)
                    control = summarize(runs["parent"], runs["control"], metrics)
                    print(("\n" if n else "") + f"### {workload} (control)\n")
                    print(format_table(control, args.pairs) + "\n", flush=True)
                runs = run_pairs(paths, ("parent", "change"), workload, args)
            except RuntimeError as err:
                print(err, file=sys.stderr)
                return 1
            print(("\n" if n and not args.control else "") + f"### {workload}\n")
            print(format_table(summarize(runs["parent"], runs["change"], metrics,
                                         control), args.pairs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
