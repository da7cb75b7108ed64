"""The shipped scenarios' reports and CSV files, pinned byte for byte.

Each digest is the sha256 of ``report.json`` or of a CSV file written by
``run_scenario`` for the scenario file as shipped. A change that moves a
digest must explain each changed field in CHANGES.md before the digest here
is updated.
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
        "2f12369d43fb37404dbf36ac858b8010ed129ffc4f494a582bbfacc1d33c2409",
    "spline_demo.json":
        "4e4561d7c32bb5cc8f16bf260047b1acfc31c999f4e317611e61746749aafc2f",
    "triangle.json":
        "a7c2b7f17ecd3ece34cfb5daab8a622586cfe9b174187b0487fe494f5e55b24a",
}

GOLDEN_CSV = {
    "concordance_bump.json": {
        "schedule.csv":
            "34512044d0e83c64bd026bb64665b267af2f26c001429eee9708a90ba72072a4",
    },
    "curvature_round_sphere.json": {
        "curvature.csv":
            "82ad90a80a738f6c7bb3079e2ae3d53d7b625f048dd49484e7615ce016d56002",
    },
    "glue_corner.json": {
        "face_forms.csv":
            "6dde7920197f410f96fe1f29d2a4ab51c0585204f486fe1a4b366af39b2857a3",
    },
    "isotopy.json": {
        "warping.csv":
            "88a78558178c03b175694a1b9640e2f06783a42538d8c0e3a7ae2964392180fb",
    },
    "spline_demo.json": {
        "spline.csv":
            "e71d2f95031edd62fa656ab812fd8ffe479075779f5ef0fab890d3f5a1bfad70",
    },
    "triangle.json": {},
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Output directory of each shipped scenario, run once on first use."""
    done = {}

    def run(name):
        if name not in done:
            out = tmp_path_factory.mktemp(name.removesuffix(".json"))
            code, _ = run_scenario(SCENARIOS / name, out)
            assert code == 0
            done[name] = out
        return done[name]

    return run


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_shipped_scenario_is_pinned():
    shipped = sorted(p.name for p in SCENARIOS.glob("*.json"))
    assert sorted(GOLDEN) == sorted(GOLDEN_CSV) == shipped


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, runs):
    assert _sha256(runs(name) / "report.json") == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_csv_digests(name, runs):
    out = runs(name)
    written = {p.name: _sha256(p) for p in out.glob("*.csv")}
    assert written == GOLDEN_CSV[name]
