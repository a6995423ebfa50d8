"""Adam over the embedding rows training can touch equals Adam over every row."""

import itertools

import numpy as np
import pytest

import chemspan.encoder
from chemspan.config import NerConfig, PipelineConfig, RelationConfig
from chemspan.encoder import SPECIAL_SYMBOLS, Adam, TinyEncoder, surface_bucket
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import NerModel, train_ner
from chemspan.relation import RelationModel, gold_training_instances, train_re

from oracles import DenseAdam

BUCKETS = 16
STEPS = 30
MARKER_ROWS = BUCKETS + np.arange(len(SPECIAL_SYMBOLS))


def colliding_surfaces():
    """Two different surfaces that hash to the same bucket."""
    first_of = {}
    for i in itertools.count():
        surface = f"w{i}"
        bucket = surface_bucket(surface, BUCKETS)
        if bucket in first_of:
            return first_of[bucket], surface
        first_of[bucket] = surface


def distinct_buckets(surfaces):
    return len({surface_bucket(s, BUCKETS) for s in surfaces}) == len(surfaces)


# each schedule maps a step to (symbols trained on, symbols only encoded)
SCHEDULES = {
    "gradient-only-at-step-1": lambda t: (["once", "Na", "+"] if t == 0 else ["Na", "+"], []),
    "row-never-gets-one": lambda t: (["Na", "+"], ["seen"]),
    "two-surfaces-one-bucket": lambda t: ([colliding_surfaces()[t % 2], "+"], []),
    "positions-grow": lambda t: (["Na", "+", "K"] * (1 + t // 6), []),
    "most-buckets-hashed": lambda t: ([f"w{i}" for i in range(12)], []),
    # rows first get a gradient after several steps, one is only encoded
    "rows-join-late": lambda t: (["Na", "+"] + (["K"] if t >= 4 else [])
                                 + (["late", "Cl"] if t >= 10 else []),
                                 ["seen"] if t >= 7 else []),
    # most of the whole table first gets a gradient after several steps
    "table-fills-late": lambda t: (["w0", "w1"] if t < 5 else [f"w{i}" for i in range(12)], []),
    # marker rows get a gradient at some steps only, one marker never
    "markers-now-and-then": lambda t: (
        [SPECIAL_SYMBOLS[0], "Na", SPECIAL_SYMBOLS[1 + t % 3], "+"] if t % 4 == 0 else ["Na", "+"],
        []),
}


def table_row(symbol):
    """The table row of a symbol: its marker row, else its bucket."""
    if symbol in SPECIAL_SYMBOLS:
        return BUCKETS + SPECIAL_SYMBOLS.index(symbol)
    return surface_bucket(symbol, BUCKETS)


def segments(arrays):
    """Parameters or gradients as training steps them: the embedding table that
    ``tok_emb`` and ``special_emb`` view as one array, every other array by name."""
    table = arrays["tok_emb"].base
    assert table is not None and table is arrays["special_emb"].base
    return {"table": table, **{k: v for k, v in arrays.items()
                               if k not in ("tok_emb", "special_emb")}}


def assert_moments_equal(opt, ref, key):
    """Adam's moments of ``key`` equal the dense oracle's at the stepped rows, where
    the oracle holds zero at every other row."""
    outside = np.ones(len(ref.m[key]), dtype=bool)
    outside[opt.rows[key]] = False
    for mine, want in ((opt.m[key], ref.m[key]), (opt.v[key], ref.v[key])):
        np.testing.assert_array_equal(mine, want[opt.rows[key]], err_msg=key)
        assert not want[outside].any(), key


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_touched_row_adam_equals_dense_adam_every_step(schedule):
    assert distinct_buckets(["once", "Na", "+", "K", "seen", "late", "Cl"])
    assert distinct_buckets(["w0", "w1"])
    enc = TinyEncoder(dim=4, blocks=1, ffn_dim=8, buckets=BUCKETS, max_len=15, seed=0)
    initial = {k: v.copy() for k, v in enc.params.items()}
    inputs = [symbols for t in range(STEPS) for symbols in SCHEDULES[schedule](t)]
    selection = enc.touched_rows(inputs)
    params = segments(enc.params)
    start = params["table"].copy()
    opt = Adam(params, lr=0.05, rows=selection)
    ref = DenseAdam({k: v.copy() for k, v in params.items()}, lr=0.05)
    rng = np.random.default_rng(0)
    history = []
    for t in range(STEPS):
        trained, encoded_only = SCHEDULES[schedule](t)
        enc.encode(encoded_only)
        _, cache = enc.forward(trained)
        grads = enc.zero_grads()
        enc.backward(cache, rng.normal(0.0, 1.0, (len(trained), enc.dim)), grads)
        opt.step(segments(grads))
        ref.step(segments(grads))
        for key in params:
            np.testing.assert_array_equal(params[key], ref.params[key], err_msg=key)
            assert_moments_equal(opt, ref, key)
        history.append(params["table"].copy())

    table_rows = selection["table"]
    longest = max(map(len, inputs))
    assert selection["pos_emb"] == slice(0, longest) and opt.rows["pos_emb"] == slice(0, longest)
    if schedule in ("most-buckets-hashed", "table-fills-late"):
        assert table_rows == slice(None)
    else:  # the sorted rows of every step's symbols, the hashed ones under half the buckets
        want = sorted({table_row(s) for symbols in inputs for s in symbols})
        np.testing.assert_array_equal(table_rows, want)
        assert 2 * np.count_nonzero(table_rows < BUCKETS) < BUCKETS

    def unmoved(step, symbol):  # the symbol's row is bitwise its initial value after ``step``
        row = table_row(symbol)
        return np.array_equal(history[step][row], start[row])

    if schedule == "rows-join-late":  # stepped from the start, unmoved until their gradient
        assert [unmoved(t, "K") for t in (0, 3, 4)] == [True, True, False]
        assert [unmoved(t, "late") for t in (4, 9, 10)] == [True, True, False]
        assert unmoved(STEPS - 1, "seen")
    if schedule == "table-fills-late":
        assert [unmoved(t, "w5") for t in (0, 4, 5)] == [True, True, False]
    if schedule == "gradient-only-at-step-1":
        row = surface_bucket("once", BUCKETS)
        assert not np.array_equal(history[1][row], history[-1][row])  # m and v still decay
    if schedule == "row-never-gets-one":
        row = surface_bucket("seen", BUCKETS)
        assert row in table_rows and unmoved(STEPS - 1, "seen")
        at = list(table_rows).index(row)
        assert not opt.m["table"][at].any() and not opt.v["table"][at].any()
    if schedule == "markers-now-and-then":
        stepped, never = MARKER_ROWS[:4], MARKER_ROWS[4]
        assert never not in table_rows
        assert not (history[-1][stepped] == initial["special_emb"][:4]).any()
        np.testing.assert_array_equal(history[-1][never], initial["special_emb"][4])
    if schedule == "positions-grow":
        assert longest == 15


def train_on_micro(task, seed, epochs=3):
    docs = load_micro_corpus()
    config = PipelineConfig(ner=NerConfig(epochs=epochs), relation=RelationConfig(epochs=epochs))
    if task == "ner":
        model = NerModel(config, seed=seed)
        curve = train_ner(model, model.prepare_documents(docs), seed=seed)
    else:
        model = RelationModel(config, seed=seed)
        curve = train_re(model, gold_training_instances(model, docs), seed=seed)
    return model, curve


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("task", ["ner", "re"])
def test_training_equals_training_with_dense_adam(task, seed, monkeypatch):
    built = []
    monkeypatch.setattr(chemspan.encoder, "Adam",
                        lambda *args, **kwargs: built.append(Adam(*args, **kwargs)) or built[-1])
    model, curve = train_on_micro(task, seed)
    table_rows = built[0].rows["table"]
    assert isinstance(table_rows, np.ndarray) and len(table_rows) < model.encoder.buckets
    monkeypatch.setattr(chemspan.encoder, "Adam", DenseAdam)
    reference, want_curve = train_on_micro(task, seed)
    assert curve == want_curve
    want = reference.parameters()
    for key, value in model.parameters().items():
        np.testing.assert_array_equal(value, want[key], err_msg=key)


@pytest.mark.parametrize("task", ["ner", "re"])
def test_every_row_a_backward_writes_is_in_the_fit_s_selection(task, monkeypatch):
    selections, written = [], []
    touched_rows, backward = TinyEncoder.touched_rows, TinyEncoder.backward

    def recording_touched_rows(self, inputs):
        selections.append(touched_rows(self, inputs))
        return selections[-1]

    def recording_backward(self, cache, d_out, grads):
        if cache["n"]:
            written.append((cache["idx"], cache["n"]))
        backward(self, cache, d_out, grads)

    monkeypatch.setattr(TinyEncoder, "touched_rows", recording_touched_rows)
    monkeypatch.setattr(TinyEncoder, "backward", recording_backward)
    train_on_micro(task, seed=0, epochs=1)
    [selection] = selections
    assert isinstance(selection["table"], np.ndarray) and written
    for idx, n in written:
        assert np.isin(idx, selection["table"]).all()
        assert n <= selection["pos_emb"].stop
