"""Training with a packed parameter buffer and one scatter per window is bitwise the old path.

Every parameter of a model but the two embedding tables is a view of one
flat buffer, and NER training builds each window's output gradient with one
``np.bincount``. Here the scatter is compared with `oracles.ner_loss_and_grads_add_at`
exactly, the packed layout is checked after construction and after a load, and
the post-training finiteness message is pinned.
"""

import numpy as np
import pytest

from chemspan.checkpoint import load_ner_model, load_re_model, save_ner_model, save_re_model
from chemspan.config import PipelineConfig
from chemspan.encoder import LOOSE
from chemspan.errors import NonFiniteError
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import NerExample, NerModel, Window, WindowedInput, train_ner
from chemspan.relation import RelationModel, gold_training_instances, train_re

from oracles import ner_loss_and_grads_add_at
from test_grouped_batches import with_training


def assert_same_loss_and_grads(got, want):
    assert got[0] == want[0]
    assert list(got[1]) == list(want[1])
    for key, value in want[1].items():
        np.testing.assert_array_equal(got[1][key], value, err_msg=key)


# ---------------------------------------------------------------------------
# the scatter equals np.add.at exactly


@pytest.mark.parametrize("seed", range(5))
def test_every_batch_of_two_epochs_equals_the_add_at_oracle(seed):
    model = NerModel(with_training(PipelineConfig(), "ner", epochs=2), seed=seed)
    real = model.loss_and_grads
    checked = []

    def loss_and_grads(batch):
        want = ner_loss_and_grads_add_at(model, batch)
        got = real(batch)
        assert_same_loss_and_grads(got, want)
        checked.append(len(batch))
        return got

    model.loss_and_grads = loss_and_grads
    examples = model.prepare_documents(load_micro_corpus())
    train_ner(model, examples, seed=seed)
    assert sum(checked) == 2 * len(examples)


def micro_examples():
    model = NerModel(PipelineConfig(), seed=3)
    examples = model.prepare_documents(load_micro_corpus())
    by_window = {}
    for ex in examples:
        by_window.setdefault(ex.windowed.symbols, []).append(ex)
    return model, [group for group in by_window.values() if len(group) >= 2]


def test_an_interleaved_batch_equals_the_add_at_oracle():
    model, groups = micro_examples()
    (a1, a2), b = groups[0][:2], groups[1][0]
    batch = [a1, b, a2]  # window A, then B, then A again
    assert a1.windowed.symbols is a2.windowed.symbols is not b.windowed.symbols
    assert_same_loss_and_grads(model.loss_and_grads(batch),
                               ner_loss_and_grads_add_at(model, batch))


def test_a_batch_with_an_example_without_candidates_equals_the_add_at_oracle():
    model, groups = micro_examples()
    ex = groups[0][0]
    empty = NerExample("d", 99, WindowedInput(Window(["x"]), 0), [], np.zeros(0, np.int64), [])
    assert not len(empty.candidates)
    for batch in ([ex, empty], [empty, ex, groups[0][1]], [empty]):
        assert_same_loss_and_grads(model.loss_and_grads(batch),
                                   ner_loss_and_grads_add_at(model, batch))


# ---------------------------------------------------------------------------
# the packed layout


def assert_packed(model):
    params = model.parameters()
    packed = [v for k, v in params.items() if k not in LOOSE]
    buffer = packed[0].base
    assert buffer is not None and buffer.ndim == 1
    assert buffer.size == sum(v.size for v in packed)
    for key, value in params.items():
        assert np.shares_memory(value, buffer) == (key not in LOOSE), key
        assert value.flags.c_contiguous, key
    assert model.head and all(np.shares_memory(v, buffer) for v in model.head.values())


def train_micro(model, seed):
    docs = load_micro_corpus()
    if isinstance(model, NerModel):
        return train_ner(model, model.prepare_documents(docs), seed=seed)
    return train_re(model, gold_training_instances(model, docs), seed=seed)


@pytest.mark.parametrize("task", ["ner", "re"])
def test_parameters_share_one_buffer_after_construction_and_after_a_load(task, tmp_path):
    model_class, save, load = {"ner": (NerModel, save_ner_model, load_ner_model),
                               "re": (RelationModel, save_re_model, load_re_model)}[task]
    config = with_training(PipelineConfig(), "ner" if task == "ner" else "relation", epochs=2)
    model = model_class(config, seed=2)
    assert_packed(model)
    first, second = model.zero_grads(), model.zero_grads()
    assert list(first) == list(model.parameters())
    for a in first.values():
        assert not a.any()
        assert not any(np.shares_memory(a, b) for b in second.values())
        assert not any(np.shares_memory(a, p) for p in model.parameters().values())

    train_micro(model, 2)
    path = tmp_path / f"{task}.ckpt"
    save(path, model)
    loaded = load(path)
    assert_packed(loaded)
    curve, loaded_curve = train_micro(model, 4), train_micro(loaded, 4)
    assert curve == loaded_curve
    want = model.parameters()
    for key, value in loaded.parameters().items():
        np.testing.assert_array_equal(value, want[key], err_msg=key)


# ---------------------------------------------------------------------------
# the finiteness check after training


@pytest.mark.parametrize("poisoned, named", [
    (["ner.b"], "ner.b"),
    (["b0.w1", "ner.w"], "b0.w1"),
    (["ner.width_emb", "tok_emb"], "tok_emb"),  # tok_emb comes first in parameters()
    (["pos_emb"], "pos_emb"),
])
def test_a_parameter_left_non_finite_is_named_in_parameter_order(poisoned, named):
    one_step = with_training(PipelineConfig(), "ner", epochs=1, batch_size=64)
    model = NerModel(one_step, seed=0)
    real = model.loss_and_grads

    def loss_and_grads(batch):
        loss, grads = real(batch)
        for key in poisoned:  # a finite loss, a NaN gradient in a row Adam steps
            row = model.encoder.touched_rows["table"][0] if key == "tok_emb" else 0
            grads[key][row] = np.nan
        return loss, grads

    model.loss_and_grads = loss_and_grads
    with pytest.raises(NonFiniteError, match=rf"^training left parameter {named} holding "):
        train_micro(model, 0)
