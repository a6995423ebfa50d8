"""The encoder's last block run only at chosen rows: relation training and prediction over it."""

import numpy as np
import pytest

from chemspan.config import PipelineConfig, RelationConfig
from chemspan.corpus import Document, GoldEntity
from chemspan.encoder import SPECIAL_SYMBOLS, TinyEncoder, grad_check
from chemspan.microcorpus import load_micro_corpus
from chemspan.relation import RELATION_LABELS, RelationModel, gold_training_instances, train_re

from oracles import (
    RE_CURVE_TOLERANCE,
    RE_GRAD_TOLERANCE,
    RE_PARAM_TOLERANCE,
    classify_full,
    forward_all_rows,
    re_loss_and_grads_every_row,
)

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


@pytest.mark.parametrize("blocks", [0, 1, 2])
@pytest.mark.parametrize("rows", [[0], [6], [3], [0, 2, 6], [1, 4, 5]],
                         ids=["first", "last", "single", "first-and-last", "inner"])
def test_backward_over_rows_matches_finite_differences(blocks, rows):
    enc = TinyEncoder(dim=6, blocks=blocks, ffn_dim=10, buckets=13, max_len=16, seed=blocks)
    symbols = ["[CLS]", "Na", "[S:CHEM]", "+", "binds", "[\\S:CHEM]", "NKCC"]
    probe = np.random.default_rng(blocks).normal(0.0, 1.0, (len(rows), enc.dim))

    def grad_fn():
        h, cache = enc.forward(symbols, rows)
        grads = enc.zero_grads()
        enc.backward(cache, probe, grads)
        return grads

    err = grad_check(lambda: float((enc.encode(symbols, rows) * probe).sum()), grad_fn,
                     enc.params, 1e-4)
    assert err < 1e-3


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


def train_micro_re(loss_and_grads=None):
    """Relation training on micro at the default config: the loss curve and the parameters.

    ``loss_and_grads`` replaces the model's own, e.g. by the every-row oracle.
    """
    model = RelationModel(PipelineConfig(), seed=3)
    if loss_and_grads is not None:
        model.loss_and_grads = lambda batch: loss_and_grads(model, batch)
    curve = train_re(model, gold_training_instances(model, load_micro_corpus()), seed=3)
    return curve, model.parameters()


def test_training_over_rows_equals_the_every_row_oracle_within_tolerance():
    model = RelationModel(PipelineConfig(), seed=3)
    batch = gold_training_instances(model, load_micro_corpus())[:16]
    loss, grads = model.loss_and_grads(batch)
    want_loss, want_grads = re_loss_and_grads_every_row(model, batch)
    assert loss == pytest.approx(want_loss, rel=RE_CURVE_TOLERANCE, abs=0)
    assert grads.keys() == want_grads.keys()
    for key in grads:
        np.testing.assert_allclose(grads[key], want_grads[key], rtol=0,
                                   atol=RE_GRAD_TOLERANCE, err_msg=key)

    curve, params = train_micro_re()
    want_curve, want = train_micro_re(re_loss_and_grads_every_row)
    assert len(curve) == model.config.relation.epochs
    assert curve == pytest.approx(want_curve, rel=RE_CURVE_TOLERANCE, abs=0)
    for key in params:
        np.testing.assert_allclose(params[key], want[key], rtol=0,
                                   atol=RE_PARAM_TOLERANCE, err_msg=key)


@pytest.mark.parametrize("variant", "ACF")
def test_training_and_classify_pool_the_same_vectors_bitwise(variant, monkeypatch):
    model = RelationModel(PipelineConfig(relation=RelationConfig(variant=variant)), seed=4)
    instances = gold_training_instances(model, [long_document()])
    read = []  # (instance, rows, representation) per build_representation call
    original = model.build_representation

    def recording(h, instance, rows=None):
        rep = original(h, instance, rows)
        read.append((instance, rows, rep))
        return rep

    monkeypatch.setattr(model, "build_representation", recording)
    for inst in instances:
        model.loss_and_grads([inst])
        model.classify(inst)
    assert len(read) == 2 * len(instances)
    for (trained, train_rows, train_rep), (classified, rows, rep) in zip(read[::2], read[1::2]):
        assert trained is classified
        assert train_rows == rows and len(rows) < len(trained.symbols)
        assert np.array_equal(train_rep, rep)
