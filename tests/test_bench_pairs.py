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
        parent, change, [("run_s", "lower", 0.25), ("pass_ratio", "higher", 0.01)])
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
                                 [("run_s", "lower", 0.25)])
    assert rows[0]["parent"] == (2.0, 2.0, 2.0)
    assert rows[0]["won"] == 1
    table = bench_pairs.format_table(rows, 1).splitlines()
    # One pair won is too few to read as a gain.
    assert table[2] == "| run_s | 2 [2, 2] | 1 [1, 1] | 0.500 | 1 | unresolved |"


def test_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([{"run_s": 1.0}], [], [("run_s", "lower", 0.25)])


@pytest.mark.parametrize("parent, change, better, verdict", [
    # 9 of 10 pairs won, median 8 against 10, parent q3 - q1 = 0.15.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0],
     [8.0] * 9 + [10.5], "lower", "gain"),
    # A ratio that falls by 2% against a bound of 1%.
    ([1.0] * 5, [0.98] * 5, "higher", "worse"),
    # Parent q1 7.5 and q3 12.5 on a median of 10: a spread of 0.5 > 0.25.
    ([5.0, 5.0, 10.0, 10.0, 10.0, 15.0, 15.0], [10.0] * 7, "lower", "unresolved"),
    # 2% slower on a bound of 25%, with a tight parent.
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.1, 10.0, 10.3, 10.2], "lower", "same"),
    # The gain case above cut to 9 pairs, all won: too few for a gain.
    ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9],
     [8.0] * 9, "lower", "unresolved"),
])
def test_verdict_follows_wins_spread_and_bound(parent, change, better, verdict):
    bound = {"lower": 0.25, "higher": 0.01}[better]
    row, = bench_pairs.summarize([{"m": v} for v in parent],
                                 [{"m": v} for v in change], [("m", better, bound)])
    assert row["verdict"] == verdict


def _checkouts(tmp_path, names=("parent", "change")):
    """Checkout directories that name their tree, each with the leftovers a
    fresh copy must not carry."""
    for name in names:
        (tmp_path / name / "__pycache__").mkdir(parents=True)
        (tmp_path / name / ".bench_out").mkdir()
        (tmp_path / name / "tree").write_text(name)
    return [str(tmp_path / name) for name in names]


_METRICS = {"latency_p50_s": 1.0, "latency_tail_s": 1.0, "setup_s": 1.0,
            "peak_rss_mb": 1.0, "pass_ratio": 1.0}


def test_each_workload_gets_its_own_table(monkeypatch, capsys, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        tree = (checkout / "tree").read_text()
        assert sorted(p.name for p in checkout.iterdir()) == ["tree"]
        calls.append((tree, checkout.name, workload, seed))
        fast = tree == "change" and workload == "b"
        return {"run_s": 1.0 if fast else 2.0, **_METRICS}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = _checkouts(tmp_path)
    assert bench_pairs.main([parent, change, "--workload", "a",
                             "--workload", "b", "--pairs", "4",
                             "--seconds", "1", "--base-seed", "7"]) == 0
    # Pairs alternate which side runs first, the fresh copies (sibling
    # directories with names of equal length) swap every second pair, and
    # the workloads run in turn: b starts with the copies a left swapped.
    seeds = [7, 7, 8, 8, 9, 9, 10, 10]
    a = [("parent", "p"), ("change", "c"), ("change", "c"), ("parent", "p"),
         ("parent", "c"), ("change", "p"), ("change", "p"), ("parent", "c")]
    b = [("parent", "c"), ("change", "p"), ("change", "p"), ("parent", "c"),
         ("parent", "p"), ("change", "c"), ("change", "c"), ("parent", "p")]
    assert calls == ([(t, d, "a", s) for (t, d), s in zip(a, seeds)]
                     + [(t, d, "b", s) for (t, d), s in zip(b, seeds)])
    out = capsys.readouterr().out.split("\n\n")
    assert [block.splitlines()[0] for block in out[::2]] == ["### a", "### b"]
    assert "| run_s | 2 [2, 2] | 2 [2, 2] | 1.000 | 0 | same |" in out[1]
    assert "| run_s | 2 [2, 2] | 1 [1, 1] | 0.500 | 4 | unresolved |" in out[3]


def test_control_pairs_run_first_against_a_second_copy_of_the_parent(
        monkeypatch, capsys, tmp_path):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(((checkout / "tree").read_text(), checkout.name, seed))
        return {"run_s": 1.0 if checkout.name == "c" else 2.0, **_METRICS}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = _checkouts(tmp_path)
    assert bench_pairs.main([parent, change, "--workload", "a", "--pairs", "2",
                             "--seconds", "1", "--control"]) == 0
    assert calls == [("parent", "p", 1), ("parent", "k", 1),
                     ("parent", "k", 2), ("parent", "p", 2),
                     ("parent", "p", 1), ("change", "c", 1),
                     ("change", "c", 2), ("parent", "p", 2)]
    out = capsys.readouterr().out.split("\n\n")
    assert [block.splitlines()[0] for block in out[::2]] == ["### a (control)", "### a"]
    assert "| run_s | 2 [2, 2] | 2 [2, 2] | 1.000 | 0 | same |" in out[1]


@pytest.mark.parametrize("control_ratio, verdict", [
    (1.0, "gain"), (1.15, "gain"), (0.85, "gain"),
    # The change's ratio, 0.8, lies no further from 1 than these controls.
    (0.8, "unresolved"), (1.2, "unresolved"), (0.7, "unresolved")])
def test_a_gain_must_lie_further_from_one_than_the_control(control_ratio, verdict):
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    change = [8.0] * 9 + [10.5]
    row, = bench_pairs.summarize(
        [{"m": v} for v in parent], [{"m": v} for v in change],
        [("m", "lower", 0.25)], control=[{"ratio": control_ratio}])
    assert row["ratio"] == 0.8
    assert row["verdict"] == verdict
