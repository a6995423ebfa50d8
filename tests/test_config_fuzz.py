"""Training commands keep the exit-2 contract on mutated config files.

Seeded mutations of the default config JSON (a value of the wrong type or an
extreme one, an unknown or nested key, a section that is not an object, a key
dropped) run through `train-ner` and `train-re` on three micro documents. A
case must exit 0 and write a checkpoint that loads, or exit 2 with exactly
one ``error:`` line on stderr and no checkpoint. numpy warnings are errors
here, so a case that lets one reach stderr fails. ``epochs`` is only ever 0,
1 or an invalid value, so no case trains for long.
"""

import copy
import io
import json
import random
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from chemspan.checkpoint import load_ner_model, load_re_model
from chemspan.cli import main
from chemspan.config import PipelineConfig
from chemspan.corpus import save_corpus
from chemspan.microcorpus import build_micro_corpus

DEFAULT = PipelineConfig().to_dict()
# values of the right type, extremes among them, so that many cases load and train
IN_RANGE = {int: [0, 1, 2, 3, 7, 2 ** 31, 2 ** 62],
            float: [5e-324, 1e-308, 1e-3, 1.0, 1e3, 1e308, 1.7e308],
            str: list("ABCDEF") + ["Z"]}
WRONG_TYPE = [None, True, "1", [], {}, 0.5, -1e308, float("inf"), float("nan"), -2 ** 62]
EPOCHS = [0, 1, -1, "1", 1.5, None, True, {}]
UNKNOWN = ["epoch", "seeds", "dims", ""]
# cases found by this search once, kept so they are run on every change
FOUND = [{"ner": {"epochs": 1, "lr": 1e308}, "relation": {"epochs": 0}},
         {"relation": {"epochs": 1, "lr": 1.7e308, "variant": "A"}, "ner": {"epochs": 0}},
         {"ner": {"epochs": 1, "width_dim": 0, "max_span_width": 2 ** 62},
          "relation": {"epochs": 0}},
         *({"relation": {"variant": value}} for value in ([], {}, [1], {"a": 1}))]
CASES = 64
LOADERS = {"train-ner": load_ner_model, "train-re": load_re_model}


def mutate(data: dict, rng: random.Random, kind: str) -> None:
    """Apply one mutation of ``kind`` to ``data``, which holds every section as an object."""
    section = rng.choice(sorted(data))
    key = rng.choice(sorted(data[section]))
    if key == "epochs" and kind in ("in range", "wrong type", "drop"):
        data[section][key] = rng.choice(EPOCHS)  # a default or drawn epochs would train long
    elif kind == "in range":
        data[section][key] = rng.choice(IN_RANGE[type(DEFAULT[section][key])])
    elif kind == "wrong type":
        data[section][key] = rng.choice(WRONG_TYPE)
    elif kind == "unknown key":
        data[section][rng.choice(UNKNOWN)] = rng.choice(WRONG_TYPE)
    elif kind == "nested":
        data[section][key] = {key: data[section][key]}
    elif kind == "drop":
        del data[section][key]
    elif kind == "section":
        data[section] = rng.choice([[], "ner", 1, None, [data[section]]])
    else:
        data[rng.choice(["encodr", "seeds", "Ner"])] = {key: rng.choice(WRONG_TYPE)}


def config_case(case: int) -> dict:
    """The default config with 1-3 values in range; odd cases also get one that is not."""
    if case >= CASES:
        return FOUND[case - CASES]
    rng = random.Random(case)
    data = copy.deepcopy(DEFAULT)
    for section in ("ner", "relation"):
        data[section]["epochs"] = rng.choice([0, 1])
    for _ in range(rng.randint(1, 3)):
        mutate(data, rng, "in range")
    if case % 2:
        mutate(data, rng, rng.choice(["wrong type", "unknown key", "nested", "drop", "section",
                                      "unknown section"]))
    return data


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "corpus"
    save_corpus(build_micro_corpus()[:3], path)
    return path


@pytest.mark.parametrize("case", range(CASES + len(FOUND)))
def test_a_mutated_config_trains_or_is_one_error(tmp_path, corpus, case):
    data = config_case(case)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    for command, load in LOADERS.items():
        out = tmp_path / f"{command}.ckpt"
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--corpus", str(corpus), "--config", str(config),
                         "--out", str(out)])
        lines = err.getvalue().splitlines()
        if code == 0:
            load(out)
        else:
            assert code == 2, (command, data)
            assert len(lines) == 1 and lines[0].startswith("error:"), (command, data, lines)
            assert not out.exists(), (command, data)
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp") == []
