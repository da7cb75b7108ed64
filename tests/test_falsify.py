import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("falsify", _ROOT / "scripts" / "falsify.py")
falsify = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(falsify)
SCENARIOS = _ROOT / "scenarios"


def test_dense_scenario_fixes_the_search_and_multiplies_the_counts():
    iso = json.loads((SCENARIOS / "isotopy.json").read_text())
    dense = falsify.dense_scenario(iso, {"nu": 0.02})
    assert dense["nu"] == 0.02
    assert dense["grid"] == {**iso["grid"], "s_count": 16 * 256}
    assert "nu" not in iso and iso["grid"]["s_count"] == 256
    # A count the scenario leaves out is the command's default, times 16.
    dense = falsify.dense_scenario({"command": "concordance", "nu": 0.05}, {})
    assert (dense["t_count"], dense["theta_count"]) == (16 * 160, 16 * 48)
    dense = falsify.dense_scenario({"command": "glue-corner"}, {"eps": 0.1})
    assert dense == {"command": "glue-corner", "eps": 0.1,
                     "grid": {"count": 16 * 241}}


@pytest.mark.parametrize("name", ["glue_corner", "curvature_round_sphere",
                                  "concordance_bump"])
def test_dense_scans_agree_on_the_shipped_passes(name):
    rows, shipped, dense = falsify.falsify(SCENARIOS / f"{name}.json")
    assert [row[0] for row in rows] == list(shipped["certificates"])
    for _, ship, got, flagged in rows:
        assert ship[2] and got[2] and not flagged
    for cert in dense["certificates"].values():
        assert cert["grid"]["depth"] == 0
    if name == "concordance_bump":
        # The t0 search runs again, with dense certificates, and stops at
        # the same doubling.
        assert dense["results"]["params"]["t0"] == 8.112963841460668e+31
        assert [a[2] for a in dense["certificates"]["ricci_theta_below"]
                ["grid"]["axes"]] == [16 * 48, 16 * 160]


@pytest.mark.pin
def test_isotopy_stage1_is_flagged(capsys):
    # The known false pass: at the searched nu, the lambda = 0 end of
    # stage 1 has negative Ricci curvature between the shipped s samples.
    assert falsify.main([str(SCENARIOS / "isotopy.json")]) == 1
    out = capsys.readouterr().out
    flagged = [line.split(" | ")[0].strip("| ") for line in out.splitlines()
               if "FALSE PASS" in line]
    assert flagged == ["stage1_min_ricci"]


def test_exit_status_on_a_pass_and_on_a_command_without_certificates(capsys):
    assert falsify.main([str(SCENARIOS / "curvature_round_sphere.json")]) == 0
    assert "| min_ricci | 1.25 |" in capsys.readouterr().out
    assert falsify.main([str(SCENARIOS / "spline_demo.json")]) == 2
    assert "no grid certificates" in capsys.readouterr().err
    assert falsify.main([]) == 2
