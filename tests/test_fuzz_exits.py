import importlib.util
import json
import os
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("fuzz_exits",
                                               _ROOT / "scripts" / "fuzz_exits.py")
fuzz_exits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fuzz_exits)


def load(name):
    return json.loads((_ROOT / "scenarios" / name).read_text())


def test_leaves_are_walked_in_a_fixed_order_and_set_to_the_fixed_values():
    scenario = {"b": [1.5, {"z": 2, "a": True}], "a": {"c": 0.0, "s": "x"}}
    assert list(fuzz_exits.leaves(scenario)) == [
        (("a", "c"), 0.0), (("b", 0), 1.5), (("b", 1, "z"), 2)]
    assert fuzz_exits.new_values(2) == [0, -1, 1, 3]
    assert fuzz_exits.new_values(0.0) == []
    assert fuzz_exits.new_values(1.0) == list(fuzz_exits.FACTORS)
    assert {0.5, 3.0} <= set(fuzz_exits.FACTORS)


def test_a_runner_that_raises_for_one_leaf_is_named(capsys):
    # In process: the triangle's float leaves.
    shipped = load("triangle.json")["r_values"][1]

    def stub(scenario, out_dir):
        if scenario["r_values"][1] == 1.5 * shipped:
            raise OverflowError("stub")
        return 0, {}

    assert fuzz_exits.main(["--scenario", "triangle"], runner=stub) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows == [f"triangle.json\tr_values.1\t{1.5 * shipped!r}\tOverflowError: stub",
                    "# 39 cases run, 0 left by the budget, 1 exit 4 or time out"]
    assert fuzz_exits.main(["--scenario", "triangle"],
                           runner=lambda scenario, out_dir: (3, {})) == 0


def test_an_integer_leaf_runs_in_a_capped_child_with_a_timeout(monkeypatch,
                                                               capsys):
    # The curvature scenario's integer leaves run in forked children: one
    # dies without an answer, one raises MemoryError, and one never returns.
    monkeypatch.setattr(fuzz_exits, "TIMEOUT", 1.0)

    def stub(scenario, out_dir):
        if scenario["grid"]["depth"] == 1:
            os._exit(7)
        if scenario["m"] == 4:
            raise MemoryError("stub")
        if scenario["n"] == -1:
            time.sleep(60.0)
        return 0, {}

    assert fuzz_exits.main(["--scenario", "curvature_round_sphere.json"],
                           runner=stub) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[:3] == [
        "curvature_round_sphere.json\tgrid.depth\t1\tChildDied: child exit code 7",
        "curvature_round_sphere.json\tm\t4\tMemoryError: stub",
        "curvature_round_sphere.json\tn\t-1\tTimeout: no exit after 1 s"]
    assert rows[3].endswith(" 3 exit 4 or time out")
