"""Training's working set scales with the rows a step touches, not with the tables.

One epoch at a large bucket table, traced with the stdlib `tracemalloc`
from after the model and its items are built: one gradient set is one
table's worth, and Adam's moments and scratch arrays add little beyond it,
because micro touches few of the table's rows. Two gradient sets held at
once, or dense moments, or scratch sized to the table, each pass 2 tables.
"""

import tracemalloc

import pytest

from chemspan.config import EncoderConfig, NerConfig, PipelineConfig, RelationConfig
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import NerModel, train_ner
from chemspan.relation import RelationModel, gold_training_instances, train_re

BUCKETS = 65536
CONFIG = PipelineConfig(encoder=EncoderConfig(buckets=BUCKETS), ner=NerConfig(epochs=1),
                        relation=RelationConfig(epochs=1))


def traced_peak(train, model, items):
    tracemalloc.start()
    try:
        curve = train(model, items, seed=0)
        return curve, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("task", ["ner", "re"])
def test_one_epoch_holds_under_two_tables(task):
    docs = load_micro_corpus()
    if task == "ner":
        model = NerModel(CONFIG, seed=0)
        items, train, settings = model.prepare_documents(docs), train_ner, CONFIG.ner
    else:
        model = RelationModel(CONFIG, seed=0)
        items, train, settings = gold_training_instances(model, docs), train_re, CONFIG.relation
    assert len(items) > settings.batch_size  # at least two batches, so two steps
    table = model.encoder.params["tok_emb"]
    assert table.shape[0] == BUCKETS
    curve, peak = traced_peak(train, model, items)
    assert len(curve) == 1
    assert peak < 2 * table.nbytes, f"traced peak {peak / table.nbytes:.2f} tables"
