"""Span enumeration, context windowing, and NER training tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspan.config import EncoderConfig, NerConfig, PipelineConfig, RelationConfig
from chemspan.corpus import Document, GoldEntity
from chemspan.encoder import grad_check
from chemspan.errors import OverLengthError, TrainingDivergedError
from chemspan.ner import (
    NerExample,
    NerModel,
    SpanCandidate,
    Window,
    WindowedInput,
    build_windowed_input,
    enumerate_spans,
    span_count,
    split_context,
    train_ner,
)

from oracles import brute_force_spans, brute_force_split


def small_config(**ner_overrides):
    cfg = PipelineConfig(
        encoder=EncoderConfig(dim=32, blocks=1, ffn_dim=64, buckets=512, max_len=64),
        ner=NerConfig(max_span_width=16, width_dim=8, context_window=30,
                      epochs=60, batch_size=16, lr=5e-3),
    )
    for key, value in ner_overrides.items():
        setattr(cfg.ner, key, value)
    return cfg


# ---------------------------------------------------------------------------
# span enumeration


def test_five_tokens_width_three_gives_twelve_spans():
    spans = enumerate_spans(5, 3)
    assert len(spans) == 12
    assert {(c.token_start, c.token_end) for c in spans} == brute_force_spans(5, 3)


def test_spans_are_ordered_by_start_then_width():
    spans = enumerate_spans(4, 2)
    assert [(c.token_start, c.token_end) for c in spans[:4]] == \
        [(0, 0), (0, 1), (1, 1), (1, 2)]


def test_empty_sentence_has_no_spans():
    assert enumerate_spans(0, 16) == []
    assert span_count(0, 16) == 0


def test_closed_form_matches_brute_force_everywhere():
    for n in range(0, 31):
        for width in range(1, 17):
            assert span_count(n, width) == len(brute_force_spans(n, width)), (n, width)


def test_twenty_tokens_width_sixteen():
    # 210 total spans minus the 10 of widths 17..20
    assert span_count(20, 16) == 200
    assert len(enumerate_spans(20, 16)) == 200


def test_width_property():
    assert SpanCandidate(0, 3, 5).width == 3


# ---------------------------------------------------------------------------
# context windowing


def test_zero_budget_keeps_only_the_sentence():
    w = build_windowed_input(["a", "b"], ["l"] * 5, ["r"] * 5, 0, 64)
    assert w.symbols == ["a", "b"]
    assert w.sent_offset == 0


def test_even_split_when_both_sides_have_supply():
    w = build_windowed_input(["s"] * 10, ["l"] * 200, ["r"] * 200, 300, 512)
    assert len(w.symbols) == 310
    assert w.sent_offset == 150
    assert w.symbols[150:160] == ["s"] * 10


def test_document_start_draws_everything_from_the_right():
    w = build_windowed_input(["s"] * 10, [], ["r"] * 400, 300, 512)
    assert len(w.symbols) == 310
    assert w.sent_offset == 0
    assert w.symbols[10:] == ["r"] * 300


def test_odd_budget_gives_the_extra_token_to_the_right():
    left, right = split_context(100, 100, 7)
    assert (left, right) == (3, 4)


def test_unused_budget_spills_to_the_supplied_side():
    assert split_context(2, 100, 10) == (2, 8)
    assert split_context(100, 2, 10) == (8, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 39), st.integers(0, 39), st.integers(-3, 89))
def test_split_uses_most_budget_then_splits_it_nearest_even(left_supply, right_supply, budget):
    assert split_context(left_supply, right_supply, budget) == brute_force_split(
        left_supply, right_supply, budget)


def test_context_shrinks_to_respect_max_len():
    w = build_windowed_input(["s"] * 10, ["l"] * 50, ["r"] * 50, 300, 20)
    assert len(w.symbols) == 20
    assert w.sent_offset == 5  # 10 context tokens split evenly


def test_reserved_symbols_are_charged_against_max_len():
    w = build_windowed_input(["s"] * 10, ["l"] * 50, ["r"] * 50, 300, 20, reserved=5)
    assert len(w.symbols) == 15


def test_sentence_longer_than_max_len_is_an_error():
    with pytest.raises(OverLengthError):
        build_windowed_input(["s"] * 30, [], [], 0, 20)


def test_left_context_keeps_the_nearest_tokens():
    w = build_windowed_input(["s"], [f"l{i}" for i in range(10)], [], 4, 64)
    assert w.symbols[:4] == ["l6", "l7", "l8", "l9"]


# ---------------------------------------------------------------------------
# model behavior on a miniature corpus


def doc_one_sentence():
    text = "aspirin inhibits COX2"
    return Document(
        "d1", text, "", text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 0, 7, "aspirin"),
                  GoldEntity("T2", "GENE", 17, 21, "COX2")))


def doc_nested():
    text = "Na+-K+-2Cl- cotransporter moved Cl- today."
    return Document(
        "d2", text, "", text + " ",
        entities=(GoldEntity("T1", "GENE", 0, 25, "Na+-K+-2Cl- cotransporter"),
                  GoldEntity("T2", "CHEMICAL", 0, 3, "Na+"),
                  GoldEntity("T3", "CHEMICAL", 4, 6, "K+"),
                  GoldEntity("T4", "CHEMICAL", 32, 35, "Cl-")))


def test_prepare_labels_candidates_from_recoverable_gold():
    model = NerModel(small_config(), seed=0)
    (ex,) = model.prepare_documents([doc_one_sentence()])
    gold = {(c.token_start, c.token_end): int(l)
            for c, l in zip(ex.candidates, ex.labels) if l != 2}
    assert gold == {(0, 0): 0, (2, 3): 1}


def test_candidates_never_extend_into_context():
    model = NerModel(small_config(), seed=0)
    docs = [doc_one_sentence(), doc_nested()]
    for ex in model.prepare_documents(docs):
        for c in ex.candidates:
            assert 0 <= c.token_start <= c.token_end < len(ex.token_chars)


def test_every_candidate_gets_exactly_one_label_with_probability():
    model = NerModel(small_config(), seed=0)
    (ex,) = model.prepare_documents([doc_one_sentence()])
    results = model.classify_spans(ex)
    assert len(results) == len(ex.candidates)
    for _, label, prob in results:
        assert label in ("CHEMICAL", "GENE", "null")
        assert 0.0 < prob <= 1.0


def test_uniform_logits_break_ties_toward_chemical():
    model = NerModel(small_config(), seed=0)
    model.head["ner.w"][:] = 0.0
    model.head["ner.b"][:] = 0.0
    (ex,) = model.prepare_documents([doc_one_sentence()])
    for _, label, prob in model.classify_spans(ex):
        assert label == "CHEMICAL"
        assert prob == pytest.approx(1 / 3)


def test_classification_is_deterministic():
    model = NerModel(small_config(), seed=0)
    (ex,) = model.prepare_documents([doc_one_sentence()])
    first = model.classify_spans(ex)
    assert first == model.classify_spans(ex)


def test_single_sentence_overfits_to_exact_spans():
    model = NerModel(small_config(epochs=80), seed=0)
    examples = model.prepare_documents([doc_one_sentence()])
    curve = train_ner(model, examples, seed=0)
    assert curve[-1] < 0.1 * curve[0]  # loss collapsed
    mentions = model.predict_mentions(examples[0])
    found = {(m.char_start, m.char_end, m.etype) for m in mentions}
    assert found == {(0, 7, "CHEMICAL"), (17, 21, "GENE")}


def test_nested_golds_are_predicted_simultaneously():
    model = NerModel(small_config(epochs=120), seed=1)
    examples = model.prepare_documents([doc_nested()])
    train_ner(model, examples, seed=1)
    found = {(m.char_start, m.char_end, m.etype) for m in model.predict_mentions(examples[0])}
    assert {(0, 25, "GENE"), (0, 3, "CHEMICAL"), (4, 6, "CHEMICAL"),
            (32, 35, "CHEMICAL")} <= found


def test_zero_epochs_changes_nothing():
    model = NerModel(small_config(epochs=0), seed=0)
    examples = model.prepare_documents([doc_one_sentence()])
    before = {k: v.copy() for k, v in model.parameters().items()}
    assert train_ner(model, examples, seed=0) == []
    after = model.parameters()
    for key in before:
        np.testing.assert_array_equal(before[key], after[key])


def test_fixed_seed_reproduces_parameters_exactly():
    def run():
        model = NerModel(small_config(epochs=5), seed=4)
        examples = model.prepare_documents([doc_one_sentence(), doc_nested()])
        curve = train_ner(model, examples, seed=4)
        return curve, model.parameters()

    curve_a, params_a = run()
    curve_b, params_b = run()
    assert curve_a == curve_b
    for key in params_a:
        np.testing.assert_array_equal(params_a[key], params_b[key])


def test_non_finite_loss_aborts_with_diagnostics():
    model = NerModel(small_config(epochs=1), seed=0)
    examples = model.prepare_documents([doc_one_sentence()])
    model.head["ner.w"][0, 0] = float("nan")
    with pytest.raises(TrainingDivergedError) as err:
        train_ner(model, examples, seed=0)
    assert err.value.epoch == 0


@pytest.mark.parametrize("diverging_epoch", [0, 2])
def test_divergence_reports_last_finite_loss_and_gradient_norm(diverging_epoch):
    def model_and_examples(epochs):
        model = NerModel(small_config(batch_size=1, epochs=epochs), seed=0)
        return model, model.prepare_documents([doc_one_sentence(), doc_nested()])

    reference, examples = model_and_examples(diverging_epoch)
    steps_per_epoch = len(examples)
    curve = train_ner(reference, examples, seed=0)
    model, examples = model_and_examples(diverging_epoch + 1)
    real = model.loss_and_grads
    batch_grads = []

    def loss_and_grads(batch):
        loss, grads = real(batch)
        batch_grads.append(grads)
        # the loss alone goes non-finite; the gradients stay finite
        return (float("inf") if len(batch_grads) > diverging_epoch * steps_per_epoch
                else loss), grads

    model.loss_and_grads = loss_and_grads
    with pytest.raises(TrainingDivergedError) as err:
        train_ner(model, examples, seed=0)
    assert (err.value.epoch, err.value.step) == (diverging_epoch, 0)
    assert err.value.last_loss == (curve[-1] if curve else None)
    squares = sum(float(x) * float(x) for g in batch_grads[-1].values() for x in g.flat)
    assert err.value.grad_norm == pytest.approx(squares ** 0.5, rel=1e-12)
    assert err.value.grad_norm > 0.0
    assert f"gradient norm {err.value.grad_norm!r}" in str(err.value)


@pytest.mark.parametrize("diverging_epoch", [0, 2])
def test_divergence_gradient_norm_is_the_per_array_norm_exactly(diverging_epoch):
    model = NerModel(small_config(batch_size=1, epochs=diverging_epoch + 1), seed=0)
    examples = model.prepare_documents([doc_one_sentence(), doc_nested()])
    real = model.loss_and_grads
    batch_grads = []

    def loss_and_grads(batch):
        loss, grads = real(batch)
        batch_grads.append(grads)
        return (float("inf") if len(batch_grads) > diverging_epoch * len(examples)
                else loss), grads

    model.loss_and_grads = loss_and_grads
    with pytest.raises(TrainingDivergedError) as err:
        train_ner(model, examples, seed=0)
    grads = batch_grads[-1]
    assert list(grads) == list(model.parameters())
    norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))  # array by array
    assert err.value.grad_norm == norm
    assert str(err.value) == (f"non-finite loss inf at epoch {diverging_epoch}, step 0; "
                              f"last finite epoch loss {err.value.last_loss!r}, "
                              f"gradient norm {norm!r}")


def test_gradients_of_a_batch_sharing_a_window_match_finite_differences():
    # gate 06's config and thresholds, over a batch whose first two sentences
    # share one window object, so their output gradients are summed
    cfg = PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=13, max_len=32),
        ner=NerConfig(max_span_width=3, width_dim=4, context_window=4),
        relation=RelationConfig(variant="F", head_hidden=8, context_window=4))
    shared = Window(["Na", "+", "binds", "NKCC", "1", "and", "K", "+"])
    alone = ["Cl", "-", "blocks", "it"]

    def example(sent_id, symbols, offset, n_tokens):
        candidates = enumerate_spans(n_tokens, cfg.ner.max_span_width, sent_id)
        labels = np.array([(i + sent_id) % 3 for i in range(len(candidates))], dtype=np.int64)
        return NerExample("d", sent_id, WindowedInput(symbols, offset), candidates, labels,
                          [(0, 1)] * n_tokens)

    batch = [example(0, shared, 0, 5), example(1, alone, 0, 4), example(2, shared, 5, 3)]
    model = NerModel(cfg, seed=5)
    err = grad_check(lambda: model.loss_and_grads(batch)[0],
                     lambda: model.loss_and_grads(batch)[1],
                     model.parameters(), 1e-4)
    assert err < 1e-3


def test_gold_wider_than_span_limit_is_not_supervised():
    text = "a-b-c-d-e-f-g-h-i rest"
    wide = GoldEntity("T1", "GENE", 0, 17, "a-b-c-d-e-f-g-h-i")  # 17 tokens
    doc = Document("d3", text, "", text + " ", entities=(wide,))
    model = NerModel(small_config(), seed=0)
    (ex,) = model.prepare_documents([doc])
    assert (ex.labels != 2).sum() == 0
