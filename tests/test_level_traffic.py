import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.pin

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "level_traffic", _ROOT / "scripts" / "level_traffic.py")
level_traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(level_traffic)


def test_glue_corner_levels_and_totals(capsys):
    from riccicert import verify
    evaluate, grid_min = verify._evaluate, verify.grid_min
    scenario = _ROOT / "scenarios" / "glue_corner.json"
    assert level_traffic.main(["level_traffic.py", str(scenario)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "glue_corner.json (exit 0)"
    # One-axis boxes: every point is an axis value of its own box. A search
    # probe stops at its first failing scan level, and its refinement
    # levels are not scanned.
    assert ("  coarse total: 5,755 points -> 5,755 distinct -> 5,755 axis values"
            in out)
    assert ("  refinement total: 2,394 points -> 1,544 distinct -> 2,394 axis values"
            in out)
    # The wrappers are removed again.
    assert (verify._evaluate, verify.grid_min) == (evaluate, grid_min)


def test_concordance_refinement_axis_values(capsys):
    # Two depth-1 certificates: both theta sides of the one t0 probe that
    # the gate clears, which passes. Each of their two refinement levels has
    # 384 cells of 9 x 9 points, so a separable margin takes
    # 384 * (9 + 9) = 6,912 axis values where 31,104 points repeat.
    scenario = _ROOT / "scenarios" / "concordance_bump.json"
    assert level_traffic.main(["level_traffic.py", str(scenario)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "concordance_bump.json (exit 0)"
    assert ("  refinement total: 62,208 points -> 23,550 distinct"
            " -> 13,824 axis values" in out)
    # The theta margins are not path margins, so no level has a route; the
    # 384 cells of each refinement level are distinct.
    assert ("  refined cells: 768 -> 768 distinct; 0 of 0 path levels"
            " take the point route" in out)


def test_isotopy_levels_and_totals(capsys):
    # The path margin runs its kernel on each level's table of distinct
    # lambda against distinct s. Refinement cells overlap, so 507,375
    # points hold 86,707 distinct pairs on 202,950 axis values, and their
    # tables 154,200 pairs; failing search probes stop at their first
    # failing scan level.
    scenario = _ROOT / "scenarios" / "isotopy.json"
    assert level_traffic.main(["level_traffic.py", str(scenario)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "isotopy.json (exit 0)"
    assert ("  coarse total: 229,376 points -> 229,376 distinct -> 4,480 axis values"
            in out)
    assert ("  refinement total: 507,375 points -> 86,707 distinct"
            " -> 202,950 axis values" in out)
    assert ("  refinement table: 154,200 pairs, 0.30 x points;"
            " largest level 0.88 x" in out)
    # Each table holds no more pairs than its level has points, so every
    # level takes the table route. A depth-2 level refines
    # ceil(5% of 20,500) = 1,025 cells, of which only 291 to 335 differ.
    rows = [r for r in map(str.split, out[2:]) if len(r) == 9 and r[0].isdigit()]
    assert len(rows) == 36
    assert {row[7] for row in rows} == {"table"}
    deepest = [int(row[8]) for row in rows if row[2] == "2"]
    assert (min(deepest), max(deepest)) == (291, 335)
    assert ("  refined cells: 20,295 -> 12,446 distinct; 0 of 36 path levels"
            " take the point route" in out)
    (faults,) = [line for line in out if "minor page faults" in line]
    assert faults.endswith(" (a second, unwrapped run)")
