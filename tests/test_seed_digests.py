import importlib.util
from pathlib import Path

from riccicert.cli import main

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "seed_digests", _ROOT / "scripts" / "seed_digests.py")
seed_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_digests)

# report.json and face_forms.csv of the shipped glue_corner.json, whose own
# digests tests/test_golden_reports.py pins.
GLUE_CORNER = "0be497861d1bb87a52e3f74ec4fbd5a0838300facd7403e213dfb554ba64a49c"


def test_seed_zero_hashes_as_the_shipped_glue_corner_outputs(tmp_path, capsys):
    # Seed 0 is the shipped scenario, so its line carries the digest of the
    # files the CLI writes for it, as into out/glue_corner/.
    assert main([str(_ROOT / "scenarios" / "glue_corner.json"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert seed_digests.digest(tmp_path) == GLUE_CORNER
    assert seed_digests.main(["seed_digests.py", "corner-search", "0", "1"]) == 0
    assert capsys.readouterr().out == f"0 0 0 {GLUE_CORNER}\n"


def test_one_line_per_instance_and_a_usage_error(capsys):
    lines = list(seed_digests.seed_lines("small-batch", 3, 4))
    assert [line.split()[:3] for line in lines] == [
        ["3", str(i), "0"] for i in range(24)]
    assert seed_digests.main(["seed_digests.py", "no-such-workload", "0", "1"]) == 2
    assert seed_digests.main(["seed_digests.py", "corner-search", "0"]) == 2
    assert "Usage" in capsys.readouterr().err
