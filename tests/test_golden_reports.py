"""The shipped scenarios' reports, pinned byte for byte.

Each digest is the sha256 of ``report.json`` written by ``run_scenario`` for
the scenario file as shipped. A change that moves a digest must explain each
changed field in CHANGES.md before the digest here is updated.
"""

import hashlib
from pathlib import Path

import pytest

from riccicert.cli import run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "concordance_bump.json":
        "a8d80cf744862d0ac1a7da6e5b448747c6123f45213873a30713bf5cf23acaed",
    "curvature_round_sphere.json":
        "70f1ea9261bd9be63666f15b43dba1bace7537bdba53f56754094e35edcf1317",
    "glue_corner.json":
        "56e60384dfac30a9e05ebc973405b9926f76304d0d2d4501ee43e1d970d50dc2",
    "isotopy.json":
        "2f0f3018f20352e86d2ef462504e27b260f2f5694b347727338dc1dfa489f0d2",
    "spline_demo.json":
        "4e4561d7c32bb5cc8f16bf260047b1acfc31c999f4e317611e61746749aafc2f",
    "triangle.json":
        "166a47189e4cb3aa7e3d7d56e2d4da3f3ab8cb7216c35656ecfa8773899d0720",
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, tmp_path):
    code, _ = run_scenario(SCENARIOS / name, tmp_path)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
