"""NER windows are shared objects: each distinct window is encoded once."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import chemspan.encoder
import chemspan.ner
from chemspan.alignment import DocView
from chemspan.config import EncoderConfig, NerConfig, PipelineConfig, RelationConfig
from chemspan.corpus import Document
from chemspan.encoder import SPECIAL_SYMBOLS, TinyEncoder
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import (
    NerExample,
    NerModel,
    SpanArrays,
    SpanCandidate,
    Window,
    WindowedInput,
    train_ner,
)
from chemspan.relation import (
    RelationModel,
    generate_pairs,
    predict_e2e,
    predict_relations,
    predict_view,
)

from oracles import (
    NER_CURVE_TOLERANCE,
    NER_GRAD_TOLERANCE,
    NER_PARAM_TOLERANCE,
    ner_loss_and_grads_per_example,
    predict_per_sentence,
    sentence_window,
    unshared_windows,
)


def window_ids(examples):
    return {id(ex.windowed.symbols) for ex in examples}


def long_document():
    """Twelve sentences of 6 to 18 tokens, far longer than the windows below."""
    sentences = []
    for k in range(12):
        words = " ".join("word" + "abcdefghijkl"[j] for j in range(1 + (5 * k) % 12))
        sentences.append(f"Aspirin {words} inhibits COX{k}.")
    text = " ".join(sentences)
    return Document("dlong", text, "", text + " ")


def small_config(context_window, max_len=48):
    return PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=64, max_len=max_len),
        ner=NerConfig(context_window=context_window, max_span_width=3, width_dim=4),
        relation=RelationConfig(context_window=6, head_hidden=8))


def test_micro_corpus_has_fifty_examples_over_ten_windows():
    examples = NerModel(PipelineConfig(), seed=0).prepare_documents(load_micro_corpus())
    assert len(examples) == 50
    assert len(window_ids(examples)) == 10


@pytest.mark.parametrize("context_window", [0, 5, 20, 300])
def test_windows_are_shared_exactly_when_their_extents_agree(context_window):
    cfg = small_config(context_window)
    view = DocView.build(long_document())
    examples, _ = NerModel(cfg, seed=0).prepare_view(view, with_labels=False)
    by_extent = {}
    for k, ex in enumerate(examples):
        lo = view.sent_flat_start[k]
        symbols, offset = sentence_window(view.flat_surfaces, lo, lo + len(view.tokens[k]),
                                          context_window, cfg.encoder.max_len)
        assert (list(ex.windowed.symbols), ex.windowed.sent_offset) == (symbols, offset)
        by_extent.setdefault((lo - offset, lo - offset + len(symbols)), set()).add(
            id(ex.windowed.symbols))
    assert all(len(ids) == 1 for ids in by_extent.values())
    assert len(window_ids(examples)) == len(by_extent)


@pytest.mark.parametrize("docs, config", [
    (load_micro_corpus(), PipelineConfig()),
    *[([long_document()], small_config(budget)) for budget in (0, 5, 20, 300)],
], ids=["micro", "long-0", "long-5", "long-20", "long-300"])
def test_cached_span_index_equals_the_candidates_plus_the_sentence_offset(docs, config):
    examples = NerModel(config, seed=0).prepare_documents(docs)
    assert examples
    for ex in examples:
        assert type(ex.candidates) is SpanArrays  # iterating it gives SpanCandidates
        assert all(type(c) is SpanCandidate for c in ex.candidates)
        off = ex.windowed.sent_offset
        starts, ends, widths = ex.span_index
        assert starts.dtype == ends.dtype == widths.dtype == np.int64
        assert starts.tolist() == [off + c.token_start for c in ex.candidates]
        assert ends.tolist() == [off + c.token_end for c in ex.candidates]
        assert widths.tolist() == [c.token_end - c.token_start for c in ex.candidates]
        assert ex.span_index is ex.span_index  # built once per example


@pytest.fixture
def counted_forward(monkeypatch):
    calls = []
    original = TinyEncoder.forward

    def forward(self, symbols, *args, **kwargs):
        calls.append(len(symbols))
        return original(self, symbols, *args, **kwargs)

    monkeypatch.setattr(TinyEncoder, "forward", forward)
    return calls


@pytest.mark.parametrize("doc, cfg", [
    (load_micro_corpus()[0], small_config(300, max_len=128)),
    (long_document(), small_config(300)),
], ids=["micro", "long"])
def test_predict_view_encodes_each_window_once_and_each_pair_once(doc, cfg, counted_forward):
    ner, re_model = NerModel(cfg, seed=1), RelationModel(cfg, seed=1)
    view = DocView.build(doc)
    examples, _ = ner.prepare_view(view, with_labels=False)
    counted_forward.clear()
    mentions, _ = predict_view(ner, re_model, view)
    by_sent = {}
    for m in mentions:
        by_sent.setdefault(m.sent_id, []).append(m)
    pairs = sum(len(generate_pairs(ms)) for ms in by_sent.values())
    assert pairs > 0 and len(window_ids(examples)) < len(examples)
    assert len(counted_forward) == len(window_ids(examples)) + pairs


def test_training_batch_runs_one_forward_per_window_and_one_backward_per_window(
        counted_forward, monkeypatch):
    backwards = []
    original = TinyEncoder.backward

    def backward(self, cache, d_out, grads):
        backwards.append(cache["n"])
        original(self, cache, d_out, grads)

    monkeypatch.setattr(TinyEncoder, "backward", backward)
    model = NerModel(PipelineConfig(), seed=0)
    examples = model.prepare_documents(load_micro_corpus())
    counted_forward.clear()
    model.loss_and_grads(examples)
    last_use = {id(ex.windowed.symbols): i for i, ex in enumerate(examples)}
    assert len(counted_forward) == len(backwards) == 10
    assert backwards == [len(examples[i].windowed.symbols) for i in sorted(last_use.values())]


def test_an_interleaved_batch_runs_one_forward_and_one_backward_per_window(
        counted_forward, monkeypatch):
    # [A, B, A]: no batch that fit cuts looks like this, since a window's examples
    # are contiguous there; it is the one case where the order of float sums moves
    backwards = []
    original = TinyEncoder.backward

    def backward(self, cache, d_out, grads):
        backwards.append(cache["n"])
        original(self, cache, d_out, grads)

    monkeypatch.setattr(TinyEncoder, "backward", backward)
    model = NerModel(PipelineConfig(), seed=0)
    examples = model.prepare_documents(load_micro_corpus())
    a1, a2 = examples[:2]
    b = next(ex for ex in examples if len(ex.windowed.symbols) != len(a1.windowed.symbols))
    assert a1.windowed.symbols is a2.windowed.symbols
    batch = [a1, b, a2]
    counted_forward.clear()
    loss, grads = model.loss_and_grads(batch)
    sizes = sorted(len(ex.windowed.symbols) for ex in (a1, b))
    assert sorted(counted_forward) == sorted(backwards) == sizes
    want_loss, want_grads = ner_loss_and_grads_per_example(model, batch)
    assert loss == pytest.approx(want_loss, rel=NER_CURVE_TOLERANCE, abs=0)
    for key in grads:
        np.testing.assert_allclose(grads[key], want_grads[key], rtol=0,
                                   atol=NER_GRAD_TOLERANCE, err_msg=key)


def test_windows_hash_and_compare_by_identity():
    first, second = Window(["Na", "+"]), Window(["Na", "+"])
    assert first == first and not first != first
    assert first != second and not first == second
    assert first != ["Na", "+"]
    assert len({first: 1, second: 2}) == 2
    # symbols a caller builds become a window of their own
    example = NerExample("d", 0, WindowedInput(["Na", "+"], 0), [], None, [])
    assert type(example.windowed.symbols) is Window
    assert list(example.windowed.symbols) == ["Na", "+"]
    assert example.windowed.symbols != first


def test_ner_never_keys_on_id():
    source = Path(chemspan.ner.__file__).read_text(encoding="utf-8")
    calls = [node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert calls == []


@pytest.mark.parametrize("docs, config", [
    (load_micro_corpus(), small_config(300, max_len=128)),
    ([long_document()], small_config(20)),
    ([long_document()], small_config(300)),
    ([long_document()], small_config(300, max_len=128)),
], ids=["micro", "long-unshared", "long-max-len-48", "long-max-len-128"])
def test_predict_e2e_equals_the_per_sentence_oracle(docs, config):
    # untrained models label many spans, so there are mentions and pairs to compare
    ner, re_model = NerModel(config, seed=2), RelationModel(config, seed=2)
    got = predict_e2e(ner, re_model, docs)
    want = predict_per_sentence(ner, re_model, [DocView.build(d) for d in docs],
                                predict_relations)
    assert got[0] and got[1]
    assert got == want  # probabilities included, compared with ==


def train_micro(loss_and_grads=None, share=True, batch_size=None):
    """Three epochs of NER training on micro: the loss curve and the parameters.

    ``loss_and_grads`` replaces the model's own, e.g. by the per-example oracle.
    """
    config = PipelineConfig(ner=NerConfig(epochs=3))
    if batch_size is not None:
        config = dataclasses.replace(
            config, ner=dataclasses.replace(config.ner, batch_size=batch_size))
    model = NerModel(config, seed=3)
    if loss_and_grads is not None:
        model.loss_and_grads = lambda batch: loss_and_grads(model, batch)
    examples = model.prepare_documents(load_micro_corpus())
    curve = train_ner(model, examples if share else unshared_windows(examples), seed=3)
    return curve, model.parameters()


def test_training_equals_the_unshared_oracle_bitwise():
    # unshared windows, or one sentence per batch: no window has two sentences
    # in a batch, so there are no output gradients to sum
    for share, batch_size in [(False, None), (True, 1)]:
        curve, params = train_micro(share=share, batch_size=batch_size)
        want_curve, want = train_micro(ner_loss_and_grads_per_example, share, batch_size)
        assert curve == want_curve, (share, batch_size)
        assert params.keys() == want.keys()
        for key in params:
            assert np.array_equal(params[key], want[key]), (share, batch_size, key)


def test_shared_window_training_equals_the_per_example_oracle_within_tolerance():
    model = NerModel(PipelineConfig(), seed=3)
    examples = model.prepare_documents(load_micro_corpus())
    assert len(window_ids(examples)) < len(examples)
    loss, grads = model.loss_and_grads(examples)
    want_loss, want_grads = ner_loss_and_grads_per_example(model, examples)
    assert loss == pytest.approx(want_loss, rel=NER_CURVE_TOLERANCE, abs=0)
    for key in grads:
        np.testing.assert_allclose(grads[key], want_grads[key], rtol=0,
                                   atol=NER_GRAD_TOLERANCE, err_msg=key)

    curve, params = train_micro()
    want_curve, want = train_micro(ner_loss_and_grads_per_example)
    assert curve == pytest.approx(want_curve, rel=NER_CURVE_TOLERANCE, abs=0)
    for key in params:
        np.testing.assert_allclose(params[key], want[key], rtol=0,
                                   atol=NER_PARAM_TOLERANCE, err_msg=key)


def test_each_surface_is_hashed_once_per_encoder(monkeypatch):
    hashed = []
    original = chemspan.encoder.surface_bucket

    def surface_bucket(surface, buckets):
        hashed.append(surface)
        return original(surface, buckets)

    monkeypatch.setattr(chemspan.encoder, "surface_bucket", surface_bucket)
    symbols = [SPECIAL_SYMBOLS[0], "a", "b", "a", SPECIAL_SYMBOLS[1], "c", "b"]
    first, second = (TinyEncoder(dim=8, blocks=1, ffn_dim=16, buckets=13, max_len=16, seed=0)
                     for _ in range(2))
    h = first.encode(symbols)
    first.encode(symbols[::-1])
    assert sorted(hashed) == ["a", "b", "c"]
    second.encode(symbols)
    assert sorted(hashed) == ["a", "a", "b", "b", "c", "c"]
    assert np.array_equal(second.encode(symbols), h)
