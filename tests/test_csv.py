"""CSV artifacts: the columnar writer's bytes against the row-by-row oracle,
and every shipped scenario's CSV files against the README's columns."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ROOT
from oracles import write_csv_rows
from riccicert.cli import _CSV_BLOCK, _write_csv, run_scenario

SCENARIOS = ROOT / "scenarios"

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
           -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0 / 3.0)

# Rows each shipped CSV holds below its header: the scenarios' sample counts.
SHIPPED_ROWS = {"spline.csv": 512, "curvature.csv": 200, "face_forms.csv": 200,
                "warping.csv": 400, "schedule.csv": 200}


def _both(tmp_path, header, columns):
    """The bytes of ``_write_csv`` and of the row oracle for one table."""
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    _write_csv(new, header, columns)
    write_csv_rows(old, header, zip(*columns))
    return new.read_bytes(), old.read_bytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 9), nrows=st.integers(0, 300))
def test_columnar_writer_matches_row_oracle(tmp_path_factory, data, ncols, nrows):
    table = data.draw(hnp.arrays(np.float64, (nrows, ncols), elements=st.one_of(
        st.sampled_from(SPECIAL), st.floats(width=64))))
    header = tuple(f"c{j}" for j in range(ncols))
    new, old = _both(tmp_path_factory.mktemp("csv"), header, tuple(table.T))
    assert new == old


@pytest.mark.parametrize("nrows", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_block_edges_match_row_oracle(tmp_path, nrows):
    # Random bit patterns reach every exponent, subnormals and NaN payloads.
    bits = np.random.default_rng(nrows).integers(0, 2**64, size=(3, nrows),
                                                 dtype=np.uint64)
    columns = tuple(bits.view(np.float64))
    columns[1][:len(SPECIAL)] = SPECIAL
    new, old = _both(tmp_path, ("x", "y", "z"), columns)
    assert new == old
    assert new.count(b"\r\n") == nrows + 1


@pytest.mark.parametrize("header, lengths", [
    (("a", "b"), (3, 2)),
    (("a", "b", "c"), (3, 3, 4)),
    (("a", "b"), (3, 3, 3)),
])
def test_mismatched_columns_raise_instead_of_truncating(tmp_path, header,
                                                        lengths):
    with pytest.raises(ValueError, match="header names for columns"):
        _write_csv(tmp_path / "t.csv", header,
                   tuple(np.zeros(n) for n in lengths))


def readme_columns():
    """``{file: header line}`` from the README's "CSV columns" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### CSV columns", 1)[1].split("\n## ", 1)[0]
    return {name: ",".join(cols.split(", ")) for name, cols in
            re.findall(r"^\* `(\w+\.csv)`: `([^`]*)`", section, re.M)}


@pytest.fixture(scope="module")
def shipped_csvs(tmp_path_factory):
    """``{file: bytes}`` of every CSV the shipped scenarios write."""
    out = {}
    for scenario in sorted(SCENARIOS.glob("*.json")):
        run_dir = tmp_path_factory.mktemp(scenario.stem)
        code, report = run_scenario(scenario, run_dir)
        assert code == 0, scenario.name
        for name in report["artifacts"]["csv"]:
            assert name not in out
            out[name] = (run_dir / name).read_bytes()
    return out


def test_shipped_csvs_hold_header_and_sample_count(shipped_csvs):
    assert set(shipped_csvs) == set(SHIPPED_ROWS)
    for name, data in shipped_csvs.items():
        lines = data.split(b"\r\n")
        assert lines[-1] == b"", name
        assert len(lines) - 2 == SHIPPED_ROWS[name], name


def test_readme_lists_each_shipped_header(shipped_csvs):
    headers = {name: data.split(b"\r\n", 1)[0].decode()
               for name, data in shipped_csvs.items()}
    assert readme_columns() == headers
