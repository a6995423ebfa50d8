"""The verdict that tools/train_parity.py writes, on hand-written records.

No training runs here: only the pure comparison is exercised.
"""

import copy
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "train_parity", Path(__file__).resolve().parent.parent / "tools" / "train_parity.py")
train_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(train_parity)


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
