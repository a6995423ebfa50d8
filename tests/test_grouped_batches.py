"""Training batches follow shared windows: the examples of a window are consecutive."""

import dataclasses
import math

import numpy as np
import pytest

from chemspan.config import PipelineConfig
from chemspan.encoder import EncoderModel
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import NerModel, train_ner
from chemspan.relation import RelationModel, gold_training_instances, train_re

from test_shared_windows import long_document, small_config

EPOCHS = 3


def with_training(config, section, **changes):
    return dataclasses.replace(
        config, **{section: dataclasses.replace(getattr(config, section), **changes)})


def record_training(model, train, examples, seed):
    """Run ``train`` and return, per epoch, the batches given to ``loss_and_grads``
    and the encoder forward passes they ran."""
    batches, forwards = [], []
    original_loss, original_forward = model.loss_and_grads, model.encoder.forward

    def loss_and_grads(batch):
        batches.append(list(batch))
        forwards.append(0)
        return original_loss(batch)

    def forward(*args, **kwargs):
        forwards[-1] += 1
        return original_forward(*args, **kwargs)

    model.loss_and_grads, model.encoder.forward = loss_and_grads, forward
    train(model, examples, seed=seed)
    per_epoch = len(batches) // EPOCHS
    assert per_epoch * EPOCHS == len(batches)
    return ([batches[e * per_epoch:(e + 1) * per_epoch] for e in range(EPOCHS)],
            [sum(forwards[e * per_epoch:(e + 1) * per_epoch]) for e in range(EPOCHS)])


CASES = {
    "micro-16": (load_micro_corpus(), PipelineConfig(), 16),
    "micro-7": (load_micro_corpus(), PipelineConfig(), 7),
    "long-300-4": ([long_document()], small_config(300), 4),
    "long-300-5": ([long_document()], small_config(300), 5),
    "long-5-3": ([long_document()], small_config(5), 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ner_batches_follow_windows(case):
    docs, config, batch_size = CASES[case]
    config = with_training(config, "ner", epochs=EPOCHS, batch_size=batch_size)
    model = NerModel(config, seed=5)
    examples = model.prepare_documents(docs)
    windows = {id(ex.windowed.symbols) for ex in examples}
    epochs, forwards = record_training(model, train_ner, examples, seed=5)
    n = len(examples)
    sizes = [batch_size] * (n // batch_size) + ([n % batch_size] if n % batch_size else [])
    position = {id(ex): i for i, ex in enumerate(examples)}
    for batches, passes in zip(epochs, forwards):
        assert [len(b) for b in batches] == sizes
        order = [ex for batch in batches for ex in batch]
        assert sorted(position[id(ex)] for ex in order) == list(range(n))
        runs = [id(order[0].windowed.symbols)]
        for before, ex in zip(order, order[1:]):
            if ex.windowed.symbols is before.windowed.symbols:
                assert position[id(ex)] == position[id(before)] + 1  # in sentence order
            else:
                runs.append(id(ex.windowed.symbols))
        assert sorted(runs) == sorted(windows)  # each window's examples are one run
        assert passes <= len(windows) + len(sizes) - 1
    if case == "micro-16":
        assert (len(windows), len(sizes)) == (10, 4)
        assert forwards == [13] * EPOCHS


@dataclasses.dataclass
class Settings:
    batch_size: int
    epochs: int = EPOCHS
    lr: float = 1e-3


class RecordingModel(EncoderModel):
    """A model whose training step records its batch and changes nothing."""

    def __init__(self):
        super().__init__(PipelineConfig(encoder=small_config(0).encoder), seed=0)
        self.batches = []

    def loss_and_grads(self, batch):
        self.batches.append(list(batch))
        return 0.0, self.zero_grads()

    def epochs(self, batch_size):
        per_epoch = math.ceil(sum(map(len, self.batches)) / EPOCHS / batch_size)
        assert len(self.batches) == per_epoch * EPOCHS
        return [[item for batch in self.batches[e * per_epoch:(e + 1) * per_epoch]
                 for item in batch] for e in range(EPOCHS)]


def test_groups_keep_their_items_in_order_and_are_permuted_by_the_seed():
    model = RecordingModel()
    items = list(range(11))
    model.fit(items, len, Settings(batch_size=4), seed=9, inputs=lambda item: (),
              key=lambda item: item // 3)
    groups = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10]]
    rng = np.random.default_rng(9)
    for epoch in model.epochs(4):
        assert epoch == [i for g in rng.permutation(len(groups)) for i in groups[g]]


@pytest.mark.parametrize("n, batch_size", [(1, 16), (23, 4), (40, 16)])
def test_ungrouped_items_are_drawn_in_the_seeded_permutation(n, batch_size):
    model = RecordingModel()
    model.fit(list(range(n)), len, Settings(batch_size=batch_size), seed=17,
              inputs=lambda item: ())
    rng = np.random.default_rng(17)
    assert model.epochs(batch_size) == [rng.permutation(n).tolist() for _ in range(EPOCHS)]


def test_relation_training_draws_instances_in_the_seeded_permutation(monkeypatch):
    config = with_training(PipelineConfig(), "relation", epochs=EPOCHS)
    model = RelationModel(config, seed=2)
    instances = gold_training_instances(model, load_micro_corpus())
    batches = []
    monkeypatch.setattr(model, "loss_and_grads",
                        lambda batch: batches.append(list(batch)) or (0.0, model.zero_grads()))
    train_re(model, instances, seed=2)
    position = {id(inst): i for i, inst in enumerate(instances)}
    rng = np.random.default_rng(2)
    drawn = [position[id(inst)] for batch in batches for inst in batch]
    assert drawn == [i for _ in range(EPOCHS) for i in rng.permutation(len(instances))]
