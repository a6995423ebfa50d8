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
    # new rows join the compact moments after several steps, one only encoded
    "rows-join-late": lambda t: (["Na", "+"] + (["K"] if t >= 4 else [])
                                 + (["late", "Cl"] if t >= 10 else []),
                                 ["seen"] if t >= 7 else []),
    # the table turns whole after several steps at its rows
    "table-fills-late": lambda t: (["w0", "w1"] if t < 5 else [f"w{i}" for i in range(12)], []),
    # marker rows get a gradient at some steps only, one marker never
    "markers-now-and-then": lambda t: (
        [SPECIAL_SYMBOLS[0], "Na", SPECIAL_SYMBOLS[1 + t % 3], "+"] if t % 4 == 0 else ["Na", "+"],
        []),
}


def segments(arrays):
    """Parameters or gradients as training steps them: the embedding table that
    ``tok_emb`` and ``special_emb`` view as one array, every other array by name."""
    table = arrays["tok_emb"].base
    assert table is not None and table is arrays["special_emb"].base
    return {"table": table, **{k: v for k, v in arrays.items()
                               if k not in ("tok_emb", "special_emb")}}


def assert_moments_equal(opt, ref, key):
    """Adam's moments of ``key`` equal the dense oracle's: at every row when they are
    dense; at the held rows otherwise, where the oracle holds zero at every other row."""
    held = opt.held[key]
    for mine, want in ((opt.m[key], ref.m[key]), (opt.v[key], ref.v[key])):
        if held is None:
            np.testing.assert_array_equal(mine, want, err_msg=key)
            continue
        np.testing.assert_array_equal(mine, want[held], err_msg=key)
        outside = np.ones(len(want), dtype=bool)
        outside[held] = False
        assert not want[outside].any(), key


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_touched_row_adam_equals_dense_adam_every_step(schedule):
    assert distinct_buckets(["once", "Na", "+", "K", "seen", "late", "Cl"])
    assert distinct_buckets(["w0", "w1"])
    enc = TinyEncoder(dim=4, blocks=1, ffn_dim=8, buckets=BUCKETS, max_len=15, seed=0)
    initial = {k: v.copy() for k, v in enc.params.items()}
    params = segments(enc.params)
    opt = Adam(params, lr=0.05)
    ref = DenseAdam({k: v.copy() for k, v in params.items()}, lr=0.05)
    rng = np.random.default_rng(0)
    history, held = [], []
    for t in range(STEPS):
        trained, encoded_only = SCHEDULES[schedule](t)
        enc.encode(encoded_only)
        _, cache = enc.forward(trained)
        grads = enc.zero_grads()
        enc.backward(cache, rng.normal(0.0, 1.0, (len(trained), enc.dim)), grads)
        opt.step(segments(grads), enc.touched_rows)
        ref.step(segments(grads))
        for key in params:
            np.testing.assert_array_equal(params[key], ref.params[key], err_msg=key)
            assert_moments_equal(opt, ref, key)
        history.append(params["table"].copy())
        held.append(opt.held["table"])

    table_rows = enc.touched_rows["table"]
    assert opt.held["pos_emb"] is None
    if schedule in ("most-buckets-hashed", "table-fills-late"):
        assert table_rows == slice(None) and held[-1] is None
    else:  # the hashed rows, under half the buckets, then every marker row
        hashed = len(table_rows) - len(MARKER_ROWS)
        assert isinstance(table_rows, np.ndarray) and 2 * hashed < BUCKETS
        np.testing.assert_array_equal(table_rows[hashed:], MARKER_ROWS)
        np.testing.assert_array_equal(held[-1], table_rows)
    if schedule == "rows-join-late":
        assert [len(held[t]) for t in (3, 4, 7, 10)] == [7, 8, 9, 11]
    if schedule == "table-fills-late":
        assert len(held[4]) == 7 and held[5] is None
    if schedule == "gradient-only-at-step-1":
        row = surface_bucket("once", BUCKETS)
        assert not np.array_equal(history[1][row], history[-1][row])  # m and v still decay
    if schedule == "row-never-gets-one":
        row = surface_bucket("seen", BUCKETS)
        assert row in table_rows
        np.testing.assert_array_equal(enc.params["tok_emb"][row], initial["tok_emb"][row])
        at = list(opt.held["table"]).index(row)
        assert not opt.m["table"][at].any() and not opt.v["table"][at].any()
    if schedule == "markers-now-and-then":
        stepped, never = MARKER_ROWS[:4], MARKER_ROWS[4]
        assert not (history[-1][stepped] == initial["special_emb"][:4]).any()
        np.testing.assert_array_equal(history[-1][never], initial["special_emb"][4])
        at = list(opt.held["table"]).index(never)
        assert not opt.m["table"][at].any() and not opt.v["table"][at].any()
    if schedule == "positions-grow":
        assert enc.touched_rows["pos_emb"] == slice(0, 15)


def test_a_step_that_leaves_out_a_row_holding_moments_raises():
    table = np.arange(12.0).reshape(6, 2)
    opt = Adam({"t": table}, lr=0.1)
    grads = {"t": np.ones((6, 2))}
    opt.step(grads, {"t": np.array([1, 3])})
    opt.step(grads, {"t": np.array([1, 3, 4])})
    np.testing.assert_array_equal(opt.held["t"], [1, 3, 4])
    with pytest.raises(ValueError, match="rows of t that hold moments were left out"):
        opt.step(grads, {"t": np.array([1, 4])})


def train_three_epochs(task, seed):
    docs = load_micro_corpus()
    config = PipelineConfig(ner=NerConfig(epochs=3), relation=RelationConfig(epochs=3))
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
    model, curve = train_three_epochs(task, seed)
    table_rows = model.encoder.touched_rows["table"]
    assert isinstance(table_rows, np.ndarray) and len(table_rows) < model.encoder.buckets
    monkeypatch.setattr(chemspan.encoder, "Adam", DenseAdam)
    reference, want_curve = train_three_epochs(task, seed)
    assert curve == want_curve
    want = reference.parameters()
    for key, value in model.parameters().items():
        np.testing.assert_array_equal(value, want[key], err_msg=key)
