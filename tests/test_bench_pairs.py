import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_gives_quartiles_ratio_and_wins_in_each_direction():
    parent = [{"run_s": v, "pass_ratio": 1.0} for v in (10.0, 12.0, 11.0, 9.0, 13.0)]
    change = [{"run_s": v, "pass_ratio": r}
              for v, r in ((7.0, 1.0), (12.0, 1.0), (6.0, 0.5), (10.0, 1.0), (8.0, 1.0))]
    run_s, ratio = bench_pairs.summarize(
        parent, change, [("run_s", "lower"), ("pass_ratio", "higher")])
    assert run_s["name"] == "run_s"
    assert run_s["parent"] == (10.0, 11.0, 12.0)
    assert run_s["change"] == (7.0, 8.0, 10.0)
    assert run_s["ratio"] == 8.0 / 11.0
    # Pair 1 ties (12 against 12) and pair 3 is slower: 3 wins.
    assert run_s["won"] == 3
    # A higher-is-better metric is won only where the change is higher.
    assert ratio["change"][1] == 1.0 and ratio["ratio"] == 1.0
    assert ratio["won"] == 0


def test_summary_of_one_pair_and_table_format():
    rows = bench_pairs.summarize([{"run_s": 2.0}], [{"run_s": 1.0}],
                                 [("run_s", "lower")])
    assert rows[0]["parent"] == (2.0, 2.0, 2.0)
    assert rows[0]["won"] == 1
    table = bench_pairs.format_table(rows, 1).splitlines()
    assert table[2] == "| run_s | 2 [2, 2] | 1 [1, 1] | 0.500 | 1 |"


def test_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"run_s": 1.0}], [], [("run_s", "lower")])
