"""The verdict that tools/train_parity.py writes, on hand-written records.

No training runs here: only the pure comparison, the digests of a run's
outputs, the order of the CLI runs and the report of traced training peaks
are exercised.
"""

import copy
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "train_parity", Path(__file__).resolve().parent.parent / "tools" / "train_parity.py")
train_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(train_parity)
MICRO = Path(__file__).resolve().parent.parent / "src" / "chemspan" / "data" / "micro"


def task(curve, **params):
    return {"curve": curve, "params": params}


RUN = {
    "seeds": {
        "0": {"ner": task([0.5, 0.25], w="aa", b="bb"), "re": task([1.9, 0.1], w="cc")},
        "1": {"ner": task([0.4, 0.2], w="dd", b="ee"), "re": task([1.8, 0.2], w="ff")},
    },
    "checkpoints": {"train-ner": "2f49", "train-re": "7e20"},
}


def test_equal_runs_are_bitwise_at_every_seed():
    verdict = train_parity.compare(RUN, copy.deepcopy(RUN))
    assert verdict == {"seeds": {"0": True, "1": True}, "checkpoints": True, "bitwise": True}


def test_a_curve_that_differs_in_the_last_bit_fails_its_seed_only():
    change = copy.deepcopy(RUN)
    change["seeds"]["1"]["re"]["curve"][1] = 0.2 + 2 ** -55  # 0.20000000000000004
    assert change["seeds"]["1"]["re"]["curve"][1] != 0.2
    verdict = train_parity.compare(RUN, change)
    assert verdict["seeds"] == {"0": True, "1": False}
    assert verdict["checkpoints"] is True
    assert verdict["bitwise"] is False


def test_a_parameter_digest_that_differs_fails_its_seed():
    change = copy.deepcopy(RUN)
    change["seeds"]["0"]["ner"]["params"]["b"] = "bc"
    verdict = train_parity.compare(RUN, change)
    assert verdict["seeds"] == {"0": False, "1": True}
    assert verdict["bitwise"] is False


def test_a_missing_parameter_or_seed_is_not_bitwise():
    change = copy.deepcopy(RUN)
    del change["seeds"]["0"]["re"]["params"]["w"]
    del change["seeds"]["1"]
    verdict = train_parity.compare(RUN, change)
    assert verdict["seeds"] == {"0": False, "1": False}
    assert verdict["bitwise"] is False


def test_a_checkpoint_digest_that_differs_is_not_bitwise():
    change = copy.deepcopy(RUN)
    change["checkpoints"]["train-re"] = "7e21"
    verdict = train_parity.compare(RUN, change)
    assert verdict["seeds"] == {"0": True, "1": True}
    assert verdict["checkpoints"] is False
    assert verdict["bitwise"] is False


def test_no_seeds_or_no_checkpoints_is_not_bitwise():
    empty = {"seeds": {}, "checkpoints": {}}
    assert train_parity.compare(empty, copy.deepcopy(empty))["bitwise"] is False
    no_checkpoints = dict(copy.deepcopy(RUN), checkpoints={})
    assert train_parity.compare(no_checkpoints, copy.deepcopy(no_checkpoints))["bitwise"] is False


def cli_run(stderr="e3b0", **outputs):
    return {"exit": 0, "stdout": "5d41", "stderr": stderr, "outputs": outputs}


RUN_WITH_CLI = dict(copy.deepcopy(RUN), cli={
    "predict-ner": cli_run(**{"ner.tsv": "aa11"}),
    "train-ner over max_len": dict(cli_run("9f86"), exit=2, outputs={"short-ner.ckpt": None}),
})


def test_a_record_without_cli_runs_has_no_cli_verdict():
    assert "cli" not in train_parity.compare(RUN, copy.deepcopy(RUN))


def test_equal_cli_runs_are_bitwise():
    verdict = train_parity.compare(RUN_WITH_CLI, copy.deepcopy(RUN_WITH_CLI))
    assert verdict == {"seeds": {"0": True, "1": True}, "checkpoints": True, "cli": True,
                       "bitwise": True}


def test_a_cli_run_that_differs_in_stderr_exit_or_an_output_is_not_bitwise():
    for edit in (lambda cli: cli["train-ner over max_len"].update(stderr="9f87"),
                 lambda cli: cli["train-ner over max_len"].update(exit=1),
                 lambda cli: cli["predict-ner"]["outputs"].update({"ner.tsv": "aa12"}),
                 lambda cli: cli["predict-ner"]["outputs"].update({"extra.tsv": "bb"}),
                 lambda cli: cli.pop("predict-ner")):
        change = copy.deepcopy(RUN_WITH_CLI)
        edit(change["cli"])
        verdict = train_parity.compare(RUN_WITH_CLI, change)
        assert verdict["seeds"] == {"0": True, "1": True} and verdict["checkpoints"] is True
        assert verdict["cli"] is False and verdict["bitwise"] is False


def test_cli_runs_on_one_side_only_are_not_bitwise():
    for parent, change in ((RUN, RUN_WITH_CLI), (RUN_WITH_CLI, RUN)):
        verdict = train_parity.compare(parent, copy.deepcopy(change))
        assert verdict["cli"] is False and verdict["bitwise"] is False


def test_a_checkpoint_neither_side_wrote_is_not_bitwise():
    parent = dict(copy.deepcopy(RUN), checkpoints={"train-ner": None, "train-re": "7e20"})
    verdict = train_parity.compare(parent, copy.deepcopy(parent))
    assert verdict["checkpoints"] is False and verdict["bitwise"] is False


def test_output_digests_cover_files_directories_and_missing_outputs(tmp_path):
    (tmp_path / "a.tsv").write_bytes(b"x\n")
    (tmp_path / "out" / "sub").mkdir(parents=True)
    (tmp_path / "out" / "report.txt").write_bytes(b"")
    (tmp_path / "out" / "sub" / "items.tsv").write_bytes(b"x\n")
    digest = train_parity.sha256(b"x\n")
    assert train_parity.output_digests(tmp_path, ["a.tsv", "out", "missing.ckpt"]) == {
        "a.tsv": digest, "out/report.txt": train_parity.sha256(b""),
        "out/sub/items.tsv": digest, "missing.ckpt": None}


def test_every_file_a_cli_run_reads_was_written_by_an_earlier_run():
    # before the first run: the copied micro corpus, each file it ships, and short.json
    written = {"micro", "short.json", *(f"micro/{path.name}" for path in MICRO.iterdir())}
    assert "micro/abstracts.tsv" in written and "micro/missing.tsv" not in written
    for name, arguments, outputs in train_parity.CLI_RUNS:
        read = {value for option, value in zip(arguments, arguments[1:])
                if option.startswith("--") and not option.startswith("--out")
                and option not in ("--seed", "--task", "--report")}
        assert read <= written, (name, read - written)
        written.update(outputs)
    names = [name for name, _, _ in train_parity.CLI_RUNS]
    assert len(set(names)) == len(names)


def with_peak(run, ner, re_, table=1_000_000):
    return dict(copy.deepcopy(run), training_peak={"seed": 0, "ner": ner, "re": re_,
                                                   "table_bytes": table})


def test_training_peaks_are_reported_and_never_compared():
    parent, change = with_peak(RUN, 8_600_000, 6_100_000), with_peak(RUN, 5_200_000, 1_000_000)
    for sides in ((parent, change), (RUN, change), (parent, RUN)):
        assert train_parity.compare(*sides) == train_parity.compare(RUN, RUN)
    assert train_parity.peak_lines({"parent": parent, "change": change}) == [
        "ner training peak: parent 8.60 MB (8.60 tables), change 5.20 MB (5.20 tables)",
        "re training peak: parent 6.10 MB (6.10 tables), change 1.00 MB (1.00 tables)"]


def test_a_record_without_training_peaks_reports_them_as_not_recorded():
    lines = train_parity.peak_lines({"parent": RUN, "change": with_peak(RUN, 2_500_000, 500_000,
                                                                         table=2_000_000)})
    assert lines == [
        "ner training peak: parent not recorded, change 2.50 MB (1.25 tables)",
        "re training peak: parent not recorded, change 0.50 MB (0.25 tables)"]
