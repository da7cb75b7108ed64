import importlib.util
import json
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def test_ulp_distance_counts_float64_steps_across_zero():
    up = math.nextafter(1.0, 2.0)
    assert report_diff.ulp_distance(1.0, up) == 1
    assert report_diff.ulp_distance(1.0, 1.0) == 0
    assert report_diff.ulp_distance(-0.0, 0.0) == 0
    assert report_diff.ulp_distance(-5e-324, 5e-324) == 2


def test_changed_fields_and_csv_columns_are_listed(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for d, margin, passed, k in ((old, 0.5, True, "0.25"),
                                 (new, math.nextafter(0.5, 1.0), False,
                                  "0.2500001")):
        (d / "run").mkdir(parents=True)
        (d / "run" / "report.json").write_text(json.dumps({
            "checks": [{"name": "a", "margin": margin}], "passed": passed,
            "results": {"nu": 0.1}}))
        (d / "run" / "w.csv").write_text(f"s,k\n0,1\n1,{k}\n")
        (d / "run" / "same.csv").write_text("s\n0\n")
    assert report_diff.main(["report_diff.py", str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "| checks[a].margin | 0.5 | 0.5000000000000001 | 1 |" in out
    assert "| passed | True | False | - |" in out
    assert "results.nu" not in out
    assert "| k | 1 | 1.0000000000287557e-07 | 1801439851 |" in out
    assert "byte-identical: 1 file(s): run/same.csv" in out
    assert report_diff.main(["report_diff.py", str(old), str(old)]) == 0
