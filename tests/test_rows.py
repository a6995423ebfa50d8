"""The encoder's last block run only at chosen rows, and relation prediction over it."""

import numpy as np
import pytest

from chemspan.config import PipelineConfig, RelationConfig
from chemspan.corpus import Document, GoldEntity
from chemspan.encoder import SPECIAL_SYMBOLS, TinyEncoder
from chemspan.microcorpus import load_micro_corpus
from chemspan.relation import RELATION_LABELS, RelationModel, gold_training_instances

from oracles import classify_full, forward_all_rows

POOL = list(SPECIAL_SYMBOLS) + ["Na", "+", "binds", "NKCC", "1", "the", "ψ", "EGFR", "."]


def random_cases(count, seed=0):
    """(encoder, symbols, rows) over random sizes; rows hold 2..n sorted positions."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        dim = int(rng.integers(2, 24))
        enc = TinyEncoder(dim=dim, blocks=case % 4, ffn_dim=int(rng.integers(1, 40)),
                          buckets=int(rng.integers(1, 50)), max_len=64, seed=case)
        n = int(rng.integers(2, 65))
        symbols = [POOL[i] for i in rng.integers(0, len(POOL), n)]
        inner = rng.choice(np.arange(1, n - 1), int(rng.integers(0, n - 1)), replace=False)
        rows = sorted({0, n - 1, *inner.tolist()})
        yield enc, symbols, rows


def test_rows_output_matches_the_full_output_at_those_rows():
    for enc, symbols, rows in random_cases(60):
        full, _ = enc.forward(symbols)
        h, _ = enc.forward(symbols, rows)
        assert h.shape == (len(rows), enc.dim)
        if enc.blocks:
            np.testing.assert_allclose(h, full[rows], rtol=1e-12, atol=1e-12)
        else:  # the embeddings themselves
            assert np.array_equal(h, full[rows])
        assert np.array_equal(enc.encode(symbols, rows), h)


def test_forward_without_rows_is_the_every_row_forward_bitwise():
    for enc, symbols, _ in random_cases(40, seed=1):
        assert np.array_equal(enc.forward(symbols)[0], forward_all_rows(enc, symbols))


def test_backward_refuses_a_forward_over_rows():
    enc = TinyEncoder(dim=8, blocks=2, ffn_dim=16, buckets=13, max_len=32, seed=3)
    h, cache = enc.forward(["Na", "+", "binds", "NKCC"], [0, 2])
    with pytest.raises(ValueError, match="rows"):
        enc.backward(cache, np.ones_like(h), enc.zero_grads())


def long_document():
    """Eight long sentences, each with several chemicals and genes, some adjacent."""
    parts, entities = [], []
    offset = 0
    for k in range(8):
        words = [("Aspirin", "CHEMICAL"), ("and", None), ("caffeine", "CHEMICAL"),
                 ("inhibit", None), ("COX", "GENE")] + [("filler", None)] * (3 * k)
        words += [("while", None), ("EGFR", "GENE"), ("dopamine", "CHEMICAL"),
                  ("DAT", "GENE"), (".", None)]
        for word, etype in words:
            if etype:
                entities.append(GoldEntity(f"T{len(entities) + 1}", etype, offset,
                                           offset + len(word), word))
            parts.append(word)
            offset += len(word) + 1
    text = " ".join(parts)
    return Document("dlong", text, "", text + " ", entities=tuple(entities))


@pytest.mark.parametrize("variant", "ABCDEF")
@pytest.mark.parametrize("docs", [load_micro_corpus, lambda: [long_document()]],
                         ids=["micro", "long"])
def test_classify_equals_the_full_encoding_oracle(variant, docs):
    model = RelationModel(PipelineConfig(relation=RelationConfig(variant=variant)), seed=4)
    instances = gold_training_instances(model, docs())
    assert len(instances) > 20
    for inst in instances:
        pick, prob = classify_full(model, inst)
        label, got = model.classify(inst)
        assert label == RELATION_LABELS[pick]
        assert abs(got - prob) <= 1e-12
