"""The summary that tools/bench_pairs.py writes, on hand-written samples.

No benchmark runs here: only the pure parsing and summarising functions are
exercised, and the commit a record names, on a throwaway git repository.
"""

import argparse
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pairs_of(metric, parent_values, change_values):
    return [{"parent": {"metrics": {metric: p}}, "change": {"metrics": {metric: c}}}
            for p, c in zip(parent_values, change_values)]


def test_quartiles_interpolate_between_samples():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {
        "q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_lower_is_better_counts_wins_per_pair_and_ties_for_neither():
    parent = [6.0, 5.8, 5.6, 5.9, 6.1, 5.7, 5.8, 6.0, 5.9, 4.0]
    change = [4.2, 4.3, 3.9, 4.5, 4.1, 4.4, 4.0, 4.2, 5.9, 4.1]
    (summary,) = bench_pairs.summarize(pairs_of("t", parent, change), {"t": "lower"}).values()
    assert summary["wins"] == {"change": 8, "parent": 1, "tie": 1}
    assert summary["pairs"] == 10
    assert summary["parent"]["median"] == pytest.approx(5.85)
    assert summary["change"]["median"] == pytest.approx(4.2)
    assert summary["gain"] is False  # 8 of 10 wins: below nine tenths


def test_gain_needs_nine_tenths_of_wins_and_a_margin_beyond_the_parent_spread():
    parent = [6.0, 5.8, 5.6, 5.9, 6.1, 5.7, 5.8, 6.0, 5.9, 5.8]
    fast = [4.2, 4.3, 3.9, 4.5, 4.1, 4.4, 4.0, 4.2, 5.9, 4.1]  # one tie, nine wins
    summary = bench_pairs.summarize(pairs_of("t", parent, fast), {"t": "lower"})["t"]
    assert summary["wins"] == {"change": 9, "parent": 0, "tie": 1}
    assert summary["gain"] is True
    barely = [p - 0.01 for p in parent]  # wins every pair, by less than the parent's spread
    summary = bench_pairs.summarize(pairs_of("t", parent, barely), {"t": "lower"})["t"]
    assert summary["wins"]["change"] == 10
    assert summary["gain"] is False


def test_higher_is_better_reverses_the_direction():
    parent = [100.0, 110.0, 105.0]
    change = [90.0, 120.0, 105.0]
    summary = bench_pairs.summarize(pairs_of("r", parent, change), {"r": "higher"})["r"]
    assert summary["wins"] == {"change": 1, "parent": 1, "tie": 1}
    assert summary["better"] == "higher"


def test_a_run_without_the_metric_leaves_its_pair_out():
    pairs = pairs_of("t", [6.0, 5.0, 4.0], [3.0, 2.0, 1.0])
    pairs[1]["change"] = {"exit": 1, "metrics": {}}
    summary = bench_pairs.summarize(pairs, {"t": "lower", "absent": "lower"})
    assert set(summary) == {"t"}
    assert summary["t"]["pairs"] == 2
    assert summary["t"]["parent"]["median"] == 5.0


def test_seed_range_is_inclusive():
    assert bench_pairs.seed_range("131-134") == [131, 132, 133, 134]
    assert bench_pairs.seed_range("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.seed_range("5-3")


def test_gain_counts_wins_over_every_pair_run():
    # the change wins both pairs that produced the metric, but one of its runs failed
    pairs = pairs_of("t", [6.0, 5.0, 4.0], [3.0, 2.0, 1.0])
    pairs[1]["change"] = {"exit": 1, "failed": None, "metrics": {}}
    summary = bench_pairs.summarize(pairs, {"t": "lower"})["t"]
    assert summary["wins"]["change"] == 2
    assert (summary["pairs"], summary["runs"]) == (2, 3)
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["gain"] is False


def test_no_gain_when_the_change_fails_more_runs_than_the_parent():
    parent = [6.0, 5.8, 5.6, 5.9, 6.1, 5.7, 5.8, 6.0, 5.9, 5.8]
    fast = [p - 2.0 for p in parent]
    pairs = pairs_of("t", parent, fast)
    assert bench_pairs.summarize(pairs, {"t": "lower"})["t"]["gain"] is True
    pairs[4]["change"]["failed"] = 1  # a failed check, though the run exited 0
    summary = bench_pairs.summarize(pairs, {"t": "lower"})["t"]
    assert summary["wins"]["change"] == 10
    assert summary["gain"] is False
    pairs[7]["parent"]["exit"] = 1  # as many failed runs on both sides
    assert bench_pairs.summarize(pairs, {"t": "lower"})["t"]["gain"] is True


def verdict(parent, change, direction="lower", bound=0.25):
    summary = bench_pairs.summarize(pairs_of("t", parent, change), {"t": direction},
                                    {"t": bound})
    return summary["t"]["regression"]


def test_regression_is_worse_beyond_the_bound_of_the_parent_median():
    parent = [4.0, 4.1, 3.9, 4.0, 4.2, 3.8]  # median 4.0, so the bound allows 1.0
    assert verdict(parent, [p + 1.1 for p in parent]) == "worse"
    assert verdict(parent, [p + 0.9 for p in parent]) == "ok"
    # higher is better: a drop beyond 25% of 100 docs/s
    assert verdict([100.0, 101.0, 99.0], [70.0, 72.0, 71.0], "higher") == "worse"
    assert verdict([100.0, 101.0, 99.0], [80.0, 82.0, 81.0], "higher") == "ok"


def test_regression_is_unresolved_when_the_parent_spreads_beyond_the_bound():
    parent = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]  # median 3.5 allows 0.875; quartiles 2.5 apart
    assert verdict(parent, [3.5, 3.6, 3.4, 3.5, 3.6, 3.4]) == "unresolved"
    # unless every change run beats every parent run
    assert verdict(parent, [0.5, 0.6, 0.4, 0.5, 0.6, 0.4]) == "ok"
    assert verdict(parent, [0.5, 0.6, 0.4, 0.5, 0.6, 1.0]) == "unresolved"


def test_regression_is_given_only_for_metrics_with_a_bound():
    pairs = pairs_of("t", [1.0, 2.0], [1.0, 2.0])
    for pair in pairs:
        pair["parent"]["metrics"]["u"] = pair["change"]["metrics"]["u"] = 1.0
    summary = bench_pairs.summarize(pairs, {"t": "lower", "u": "lower"}, {"u": 0.1})
    assert "regression" not in summary["t"]
    assert summary["u"]["regression"] == "ok"


RESULT = {"correct": True, "attempted": 410, "failed": 0,
          "metrics": {"t": {"value": 4.5, "unit": "s"}}}
REPORT = {"report": {"fingerprints": {"f": "abc"}, "environment": {"nproc": 2}}}


def output(*lines):
    return "".join(line + "\n" for line in lines)


def test_a_run_is_parsed_from_its_last_two_lines():
    run = bench_pairs.parse_run(0, output("progress", json.dumps(REPORT), json.dumps(RESULT)),
                                "")
    assert run == {"exit": 0, "failed": 0, "attempted": 410, "metrics": {"t": 4.5},
                   "fingerprints": {"f": "abc"}, "environment": {"nproc": 2}}
    assert not bench_pairs.failed_run(run)


@pytest.mark.parametrize("stdout", [
    "",
    output(json.dumps(RESULT)),
    output(json.dumps(REPORT), "not json"),
    output("not json", json.dumps(RESULT)),
    output(json.dumps(REPORT), json.dumps({"correct": True})),
    output(json.dumps(REPORT), json.dumps(dict(RESULT, metrics={"t": {"value": "x"}}))),
    output(json.dumps(REPORT), "[1, 2]"),
], ids=["empty", "one-line", "non-json-result", "non-json-report", "no-counts",
        "non-numeric-value", "result-not-an-object"])
def test_a_run_that_exits_0_without_a_result_is_failed(stdout):
    run = bench_pairs.parse_run(0, stdout, "line 1\nTraceback: the tail\n")
    assert run["exit"] == 0 and run["failed"] is None and run["metrics"] == {}
    assert run["stderr_tail"] == ["line 1", "Traceback: the tail"]
    assert bench_pairs.failed_run(run)


def test_a_run_that_exits_non_zero_keeps_no_metrics():
    run = bench_pairs.parse_run(1, output(json.dumps(REPORT), json.dumps(RESULT)), "boom\n")
    assert run["failed"] is None and run["metrics"] == {} and run["stderr_tail"] == ["boom"]
    assert bench_pairs.failed_run(run)


def test_runs_without_a_result_count_as_failed_runs():
    pairs = pairs_of("t", [6.0, 5.0, 4.0], [3.0, 2.0, 1.0])
    pairs[2]["change"] = bench_pairs.parse_run(0, "not json\n", "")
    summary = bench_pairs.summarize(pairs, {"t": "lower"})["t"]
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    assert summary["gain"] is False


def git(repo, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args],
                          capture_output=True, text=True, check=True).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_head_names_a_commit_only_when_src_is_committed(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "one")
    sha = git(tmp_path, "rev-parse", "HEAD")
    assert bench_pairs.git_head(tmp_path) == sha
    (tmp_path / "notes.txt").write_text("not code\n")
    assert bench_pairs.git_head(tmp_path) == sha
    (src / "a.py").write_text("x = 2\n")
    assert bench_pairs.git_head(tmp_path) is None
    git(tmp_path, "checkout", "-q", "--", "src/a.py")
    assert bench_pairs.git_head(tmp_path) == sha
    (src / "b.py").write_text("")
    assert bench_pairs.git_head(tmp_path) is None
