#!/usr/bin/env python3
"""Check the exit-code contract across inputs: change one numeric leaf of a
shipped scenario at a time, and list every case that crashes.

Usage: python3 scripts/fuzz_exits.py [--budget SECONDS] [--scenario NAME]

The numeric leaves of each shipped scenario (``scenarios/*.json``, or only
NAME) are walked in a fixed order: object keys sorted, list entries in
order. A float leaf is scaled by each of ``FACTORS``; an integer leaf is
set to each of 0, -1, 1, 2 and v + 1 that differs from v, never scaled up.
Each case runs through ``cli.run_scenario`` into a fresh temporary
directory. That returns exits 0 to 3; an exception that escapes it is what
``riccicert`` reports as exit 4.

Cases that may allocate run in a forked child, one at a time, under an
address-space cap of ``CAP`` bytes (``resource.setrlimit`` in the child)
and a timeout of ``TIMEOUT`` seconds: every integer leaf (counts, depths,
refinement factors, dimensions), and every leaf of a glue-corner scenario,
whose grid count follows from eps and its search bracket. The rest run in
this process.

Prints one row per case that exits 4 or times out (scenario, leaf, value,
exception class and message), then a count line. With ``--budget`` no case
is started after SECONDS of the sweep, and the count line says how many
were left. Exit status: 1 if any row was printed, 0 otherwise.
"""

import argparse
import contextlib
import copy
import io
import json
import multiprocessing
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FACTORS = (0.0, -1.0, 1e-8, 1e-3, 0.5, 0.9, 1.1, 1.5, 1.9, 3.0, 10.0, 1e3, 1e8)
CAP = 2 * 1024**3
TIMEOUT = 120.0


def leaves(obj, path=()):
    """``(path, value)`` of every numeric leaf of ``obj``, keys sorted."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def new_values(v):
    """The values a leaf holding ``v`` is set to, without repeats or ``v``."""
    if isinstance(v, int):
        values = (0, -1, 1, 2, v + 1)
    else:
        values = tuple(v * f for f in FACTORS)
    return [x for x in dict.fromkeys(values) if x != v]


def cases(names):
    """``(scenario name, leaf path, value, edited scenario)`` of every case."""
    for name in names:
        scenario = json.loads((ROOT / "scenarios" / name).read_text())
        for path, v in leaves(scenario):
            for value in new_values(v):
                edited = copy.deepcopy(scenario)
                node = edited
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                yield name, path, value, edited


def may_allocate(scenario, value) -> bool:
    return isinstance(value, int) or scenario["command"] == "glue-corner"


def run_case(runner, scenario):
    """``(exit code, exception class, message)`` of one run in this process;
    an exception that escapes ``runner`` is exit 4. The scenario errors that
    run_scenario prints are dropped."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code, _ = runner(scenario, tmp)
        except Exception as exc:  # noqa: BLE001 - any escape is exit 4
            return 4, type(exc).__name__, str(exc)
    return code, "", ""


def _child(conn, runner, scenario):
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))
    conn.send(run_case(runner, scenario))


def run_in_child(runner, scenario):
    """``run_case`` in a forked child under CAP and TIMEOUT; ``None`` on a
    timeout, and exit 4 if the child dies without an answer."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child, args=(send, runner, scenario))
    child.start()
    send.close()
    try:
        if not receive.poll(TIMEOUT):
            child.kill()
            return None
        return receive.recv()
    except EOFError:
        child.join()
        return 4, "ChildDied", f"child exit code {child.exitcode}"
    finally:
        child.join()
        receive.close()


def main(argv=None, runner=None):
    parser = argparse.ArgumentParser(
        description="Change one numeric leaf of a shipped scenario at a time "
                    "and list every case that exits 4 or times out.")
    parser.add_argument("--budget", type=float, default=None, metavar="SECONDS",
                        help="start no case after this many seconds")
    parser.add_argument("--scenario", default=None, metavar="NAME",
                        help="only this shipped scenario, e.g. concordance_bump.json")
    args = parser.parse_args(argv)
    if args.scenario is None:
        names = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))
    else:
        names = [args.scenario if args.scenario.endswith(".json")
                 else args.scenario + ".json"]
        if not (ROOT / "scenarios" / names[0]).is_file():
            parser.error(f"no shipped scenario {names[0]}")

    if runner is None:
        sys.path.insert(0, str(ROOT / "src"))
        from riccicert.cli import run_scenario as runner

    start, ran, left, bad = time.monotonic(), 0, 0, 0
    for name, path, value, scenario in cases(names):
        if args.budget is not None and time.monotonic() - start > args.budget:
            left += 1
            continue
        ran += 1
        if may_allocate(scenario, value):
            result = run_in_child(runner, scenario)
        else:
            result = run_case(runner, scenario)
        if result is None:
            result = (4, "Timeout", f"no exit after {TIMEOUT:g} s")
        code, kind, message = result
        if code == 4:
            bad += 1
            leaf = ".".join(map(str, path))
            print(f"{name}\t{leaf}\t{value!r}\t{kind}: {message}", flush=True)
    print(f"# {ran} cases run, {left} left by the budget, {bad} exit 4 or time out")
    return 1 if bad else 0


if __name__ == "__main__":
    # Children are forked, so that a case costs no fresh import and a test
    # can pass a stub runner. With one BLAS thread, set before numpy loads,
    # this process has no thread but the main one to fork from; riccicert
    # makes no BLAS call.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
