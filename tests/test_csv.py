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


# A block holds _CSV_BLOCK // ncols whole rows: 3 columns straddle its edge.
@pytest.mark.parametrize("nrows", [_CSV_BLOCK // 3 - 1, _CSV_BLOCK // 3,
                                   _CSV_BLOCK // 3 + 1])
def test_block_edges_match_row_oracle(tmp_path, nrows):
    # Random bit patterns reach every exponent, subnormals and NaN payloads.
    bits = np.random.default_rng(nrows).integers(0, 2**64, size=(3, nrows),
                                                 dtype=np.uint64)
    columns = tuple(bits.view(np.float64))
    columns[1][:len(SPECIAL)] = SPECIAL
    new, old = _both(tmp_path, ("x", "y", "z"), columns)
    assert new == old
    assert new.count(b"\r\n") == nrows + 1


def _column_matches(tmp_path, values):
    """One column of ``values`` through both writers."""
    new, old = _both(tmp_path, ("v",), (np.asarray(values, dtype=float),))
    assert new == old


@pytest.mark.parametrize("values", [
    # Exact 17-digit ties round half to even in Python's %.17g.
    [1234567890123456.75, 1234567890123456.25, -1234567890123456.75, 0.5,
     2.5, 1e16 + 2.0, 9007199254740993.0],
    # Where %g switches between fixed and exponent form.
    [1e-4, 1e-5, 1e16, 1e17, 1e-4 * (1 + 2**-52), 1e-5 * (1 - 2**-53),
     1e16 + 2.0, 1e17 - 16.0, 1e17 + 16.0, 9.9999999999999995e-5],
    # Zeros, infinities and NaN of either sign.
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
    # Subnormals and magnitudes past the fast path's range.
    [5e-324, -5e-324, 2.2250738585072014e-308, 1e-290, 1e-281, 1e281,
     1e300, -1.7976931348623157e308, 1e-280, 1e280],
    # Integers whose trailing zeros stay, fractions whose zeros go.
    [1200.0, 1e15, 123456789.0, 0.25, 0.001, 100.5, -7.0, 1e22, 1e23],
], ids=["ties", "switch", "special", "fallback", "zeros"])
def test_edge_cells_match_row_oracle(tmp_path, values):
    _column_matches(tmp_path, values)


def test_nan_payloads_match_row_oracle(tmp_path):
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFF8000000000123],
                    dtype=np.uint64)
    _column_matches(tmp_path, bits.view(np.float64))


def test_decade_carries_match_row_oracle(tmp_path):
    # Every power of ten a double reaches and its neighbours: where log10
    # can land in the wrong decade and where rounding carries to 10**17.
    with np.errstate(over="ignore"):
        p = 10.0 ** np.arange(-323, 309, dtype=float)
    p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    p = p[np.isfinite(p) & (p > 0)]
    _column_matches(tmp_path, np.concatenate([p, -p]))
    k = np.arange(-20, 21, dtype=float)
    _column_matches(tmp_path, np.nextafter(10.0 ** k, 0.0))


def test_exponent_form_column_matches_row_oracle(tmp_path):
    # schedule.csv's t: a log-uniform grid up to 1e63, all in exponent form.
    t = np.exp(np.linspace(np.log(8.112963841460668e31), 2.0 * np.log(
        8.112963841460668e31), 200))
    _column_matches(tmp_path, t)


def test_million_random_bit_patterns_match_row_oracle(tmp_path):
    bits = np.random.default_rng(7).integers(0, 2**64, size=(10, 10**5),
                                             dtype=np.uint64)
    header = tuple(f"c{j}" for j in range(10))
    new, old = _both(tmp_path, header, tuple(bits.view(np.float64)))
    assert new == old


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


def test_fuzz_script_passes_and_names_a_mismatch(monkeypatch, capsys):
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "csv_fuzz", ROOT / "scripts" / "csv_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    assert fuzz.main(["csv_fuzz.py", "2000", "3"]) == 0
    assert capsys.readouterr().out == "2000 cells match\n"

    def wrong(path, header, columns):  # drops the last digit of each cell
        path.write_bytes(b"v\r\n" + b"".join(
            b"%.16g\r\n" % v for v in columns[0].tolist()))

    monkeypatch.setattr(fuzz, "_write_csv", wrong)
    assert fuzz.main(["csv_fuzz.py", "50", "3"]) == 1
    assert "mismatch at " in capsys.readouterr().out
    assert fuzz.main(["csv_fuzz.py"]) == 2
