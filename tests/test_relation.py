"""Marker insertion, representation pooling, and relation training tests."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chemspan.config import EncoderConfig, PipelineConfig, RelationConfig
from chemspan.corpus import Document, GoldEntity, GoldRelation
from chemspan.encoder import OBJ_CLOSE, OBJ_OPEN, SUBJ_CLOSE, SUBJ_OPEN, grad_check
from chemspan.errors import OverLengthError
from chemspan.alignment import DocView
from chemspan.ner import NerModel, SpanMention
from chemspan.relation import (
    RELATION_LABELS,
    RelationModel,
    generate_pairs,
    gold_training_instances,
    insert_markers,
    predict_e2e,
    predict_relations,
    prediction_instances,
    representation_width,
    strip_markers,
    train_re,
)
from chemspan.tokenizer import tokenize


def small_config(**re_overrides):
    cfg = PipelineConfig(
        encoder=EncoderConfig(dim=32, blocks=1, ffn_dim=64, buckets=512, max_len=96),
        relation=RelationConfig(variant="C", head_hidden=32, context_window=20,
                                epochs=40, batch_size=16, lr=5e-3),
    )
    cfg.ner.context_window = 30
    for key, value in re_overrides.items():
        setattr(cfg.relation, key, value)
    return cfg


def mention(tok_start, tok_end, etype="CHEMICAL", doc_id="d", sent_id=0):
    return SpanMention(doc_id, sent_id, tok_start, tok_end, etype, 0, 1)


# ---------------------------------------------------------------------------
# marker insertion


TRANSPORTER_SENTENCE = ("Contribution of the Na+-K+-2Cl- cotransporter NKCC1 "
                        "to Cl- secretion in rat OMCD")


def test_transporter_sentence_is_marked_like_the_reference_rendering():
    tokens = [t.surface for t in tokenize(TRANSPORTER_SENTENCE)]
    # object: the full transporter name; subject: the second Cl- occurrence
    marked = insert_markers(tokens, subject=(16, 17), object_=(3, 12))
    assert list(marked.symbols) == [
        "Contribution", "of", "the",
        "[O:GENE]", "Na", "+", "-", "K", "+", "-", "2", "Cl", "-", "cotransporter",
        "[\\O:GENE]", "NKCC", "1", "to",
        "[S:CHEM]", "Cl", "-", "[\\S:CHEM]",
        "secretion", "in", "rat", "OMCD",
    ]
    assert marked.marker_positions == (18, 21, 3, 14)


def test_disjoint_spans_mark_at_hand_simulated_positions():
    tokens = [f"t{i}" for i in range(7)]
    marked = insert_markers(tokens, subject=(0, 1), object_=(5, 6))
    assert list(marked.symbols) == [
        "[S:CHEM]", "t0", "t1", "[\\S:CHEM]", "t2", "t3", "t4",
        "[O:GENE]", "t5", "t6", "[\\O:GENE]"]
    assert marked.marker_positions == (0, 3, 7, 10)


def test_nested_subject_sits_inside_object_brackets():
    tokens = [f"t{i}" for i in range(5)]
    marked = insert_markers(tokens, subject=(2, 2), object_=(0, 4))
    assert list(marked.symbols) == [
        "[O:GENE]", "t0", "t1", "[S:CHEM]", "t2", "[\\S:CHEM]", "t3", "t4", "[\\O:GENE]"]


def test_shared_start_opens_the_longer_span_first():
    tokens = [f"t{i}" for i in range(5)]
    marked = insert_markers(tokens, subject=(0, 2), object_=(0, 4))
    assert list(marked.symbols)[:2] == ["[O:GENE]", "[S:CHEM]"]


def test_identical_spans_nest_subject_inside_object():
    tokens = ["a", "b", "c"]
    marked = insert_markers(tokens, subject=(1, 2), object_=(1, 2))
    assert list(marked.symbols) == [
        "a", "[O:GENE]", "[S:CHEM]", "b", "c", "[\\S:CHEM]", "[\\O:GENE]"]


def test_removing_markers_restores_the_sentence():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randrange(1, 12)
        tokens = [f"w{i}" for i in range(n)]
        s0 = rng.randrange(n)
        s1 = rng.randrange(s0, n)
        o0 = rng.randrange(n)
        o1 = rng.randrange(o0, n)
        marked = insert_markers(tokens, (s0, s1), (o0, o1))
        assert strip_markers(marked.symbols) == tokens
        # markers immediately bracket their spans, up to other markers
        assert marked.symbols[marked.token_map[s0] - 1:marked.token_map[s0]] != []


def test_token_map_points_at_original_tokens():
    tokens = ["x", "y", "z"]
    marked = insert_markers(tokens, (0, 0), (2, 2))
    for i, tok in enumerate(tokens):
        assert marked.symbols[marked.token_map[i]] == tok


def test_span_outside_sentence_is_rejected():
    with pytest.raises(ValueError):
        insert_markers(["a", "b"], (0, 2), (1, 1))
    with pytest.raises(ValueError):
        insert_markers(["a", "b"], (1, 0), (0, 0))


# ---------------------------------------------------------------------------
# pair generation


def test_two_chemicals_one_gene_gives_two_ordered_pairs():
    mentions = [mention(5, 5, "CHEMICAL"), mention(0, 0, "CHEMICAL"), mention(2, 3, "GENE")]
    pairs = generate_pairs(mentions)
    assert [(c.token_start, g.token_start) for c, g in pairs] == [(0, 2), (5, 2)]


def test_no_genes_means_no_pairs():
    assert generate_pairs([mention(0, 0, "CHEMICAL")]) == []


def test_nested_mentions_still_pair():
    pairs = generate_pairs([mention(1, 1, "CHEMICAL"), mention(0, 4, "GENE")])
    assert len(pairs) == 1


# ---------------------------------------------------------------------------
# representations


def test_variant_widths_scale_with_encoder_dim():
    for dim in (32, 64):
        assert representation_width("A", dim) == 2 * dim
        assert representation_width("B", dim) == 3 * dim
        assert representation_width("C", dim) == 3 * dim
        assert representation_width("D", dim) == 4 * dim
        assert representation_width("E", dim) == 5 * dim
        assert representation_width("F", dim) == 6 * dim


def test_unknown_variant_is_rejected():
    with pytest.raises(ValueError):
        representation_width("Q", 64)
    with pytest.raises(ValueError):
        RelationModel(small_config(variant="Z"), seed=0)


def build_one_instance(model, tokens, subj, obj):
    return model.build_instance("d", 0, tokens, [], [],
                                mention(*subj, "CHEMICAL"), mention(*obj, "GENE"))


# the pieces each layout pools, in order, written out apart from the config's table
LAYOUTS = {"A": ("s_open", "o_open"), "B": ("cls", "s_open", "o_open"),
           "C": ("s_open", "mid", "o_open"), "D": ("cls", "s_open", "mid", "o_open"),
           "E": ("s_open", "s_close", "mid", "o_open", "o_close"),
           "F": ("cls", "s_open", "s_close", "mid", "o_open", "o_close")}


@lru_cache(maxsize=None)
def variant_model(variant):
    return RelationModel(small_config(variant=variant), seed=0)


@st.composite
def sentence_and_spans(draw):
    n = draw(st.integers(1, 12))
    s0, o0 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return n, (s0, draw(st.integers(s0, n - 1))), (o0, draw(st.integers(o0, n - 1)))


@settings(max_examples=300, deadline=None)
@given(sentence_and_spans(), st.integers(0, 4), st.integers(0, 4), st.sampled_from("ABCDEF"))
@example((4, (0, 1), (2, 3)), 0, 0, "C")  # adjacent: no middle
@example((5, (2, 2), (0, 4)), 1, 0, "D")  # nested: no middle
@example((4, (0, 2), (1, 3)), 0, 2, "E")  # overlapping: no middle
@example((6, (0, 0), (4, 5)), 2, 1, "F")  # a gap: tokens 1..3 between
def test_instance_layout_matches_brute_force(case, n_left, n_right, variant):
    n, subj, obj = case
    tokens = [f"w{i}" for i in range(n)]
    model = variant_model(variant)
    inst = model.build_instance("d", 0, tokens, [f"l{i}" for i in range(n_left)],
                                [f"r{i}" for i in range(n_right)],
                                mention(*subj, "CHEMICAL"), mention(*obj, "GENE"))
    marked = insert_markers(tokens, subj, obj)
    shift = 1 + n_left  # [CLS], then every left context token (the window holds them all)
    assert inst.symbols[shift:shift + len(marked.symbols)] == list(marked.symbols)
    between = [i for i in range(n) if subj[1] < i < obj[0] or obj[1] < i < subj[0]]
    assert inst.middle_positions == [marked.token_map[i] + shift for i in between]
    where = {"cls": [0], "mid": inst.middle_positions,
             **{name: [inst.symbols.index(symbol)] for name, symbol in (
                 ("s_open", SUBJ_OPEN), ("s_close", SUBJ_CLOSE),
                 ("o_open", OBJ_OPEN), ("o_close", OBJ_CLOSE))}}
    segments = [where[name] for name in LAYOUTS[variant]]
    assert type(inst.rows) is list  # a tuple would index h one axis per entry
    assert inst.rows == sorted(p for pos in segments for p in pos)
    assert [inst.rows[piece] for piece in inst.pieces] == segments


def test_instance_symbols_start_with_cls_and_contain_markers():
    model = RelationModel(small_config(), seed=0)
    inst = build_one_instance(model, ["a", "b", "c", "d", "e"], (0, 0), (4, 4))
    assert inst.symbols[0] == "[CLS]"
    so, sc, oo, oc = inst.marker_positions
    assert inst.symbols[so] == "[S:CHEM]"
    assert inst.symbols[sc] == "[\\S:CHEM]"
    assert inst.symbols[oo] == "[O:GENE]"
    assert inst.symbols[oc] == "[\\O:GENE]"
    assert strip_markers(inst.symbols)[1:] == ["a", "b", "c", "d", "e"]


def test_middle_piece_is_the_mean_of_between_tokens():
    model = RelationModel(small_config(), seed=0)
    inst = build_one_instance(model, ["a", "b", "c", "d", "e"], (0, 0), (4, 4))
    h = model.encoder.encode(inst.symbols)
    rep = model.build_representation(h, inst)
    d = model.encoder.dim
    np.testing.assert_allclose(rep[d:2 * d], h[inst.middle_positions].mean(axis=0))
    # the middle positions are exactly the contextual rows of b, c, d
    assert [inst.symbols[p] for p in inst.middle_positions] == ["b", "c", "d"]


def test_adjacent_spans_zero_the_middle_piece():
    model = RelationModel(small_config(), seed=0)
    inst = build_one_instance(model, ["a", "b", "c", "d"], (0, 1), (2, 3))
    h = model.encoder.encode(inst.symbols)
    rep = model.build_representation(h, inst)
    d = model.encoder.dim
    np.testing.assert_array_equal(rep[d:2 * d], np.zeros(d))


def test_representation_refuses_rows_that_are_not_the_instances():
    model = RelationModel(small_config(), seed=0)
    inst = build_one_instance(model, ["a", "b", "c", "d", "e"], (0, 0), (4, 4))
    assert len(inst.symbols) == 10 and inst.rows == [1, 4, 5, 6, 7]
    h = model.encoder.encode(inst.symbols)
    want = model.build_representation(h, inst)
    np.testing.assert_array_equal(model.build_representation(h[inst.rows], inst, [1, 4, 5, 6, 7]),
                                  want)
    for full_or_cut, rows in ((h, [0, 1]), (h[:2], [0, 1]), (h, inst.rows),
                              (h[inst.rows], [0, 1, 2, 3, 4])):
        with pytest.raises(ValueError, match="do not pool"):
            model.build_representation(full_or_cut, inst, rows)


def test_context_stays_outside_the_markers():
    model = RelationModel(small_config(), seed=0)
    inst = model.build_instance("d", 1, ["a", "b"], ["left1", "left2"], ["right1"],
                                mention(0, 0, "CHEMICAL"), mention(1, 1, "GENE"))
    so, sc, oo, oc = inst.marker_positions
    marked_zone = inst.symbols[min(so, oo):max(sc, oc) + 1]
    assert "left1" not in marked_zone
    assert "right1" not in marked_zone
    assert len(strip_markers(inst.symbols)) == 1 + 2 + 3  # cls + sentence + context


def test_build_instance_refuses_an_over_long_sentence_by_name():
    cfg = small_config()
    cfg.encoder.max_len = 9
    model = RelationModel(cfg, seed=0)
    fits = model.build_instance("d", 3, list("abcd"), ["left"], [], mention(0, 0),
                                mention(3, 3, "GENE"))
    assert len(fits.symbols) == 9  # [CLS], 4 markers, 4 tokens; no room for context
    with pytest.raises(OverLengthError) as caught:
        model.build_instance("doc7", 3, list("abcde"), [], [], mention(0, 0),
                             mention(4, 4, "GENE"))
    assert str(caught.value) == (
        "document 'doc7' sentence 3: 5 tokens + 4 markers + [CLS] exceed max_len=9; "
        "a relation instance needs 5 symbols more than NER, and context can shrink, "
        "the sentence cannot")


def test_representation_gradients_match_finite_differences():
    cfg = PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=13, max_len=32),
        relation=RelationConfig(variant="F", head_hidden=8, context_window=4),
    )
    model = RelationModel(cfg, seed=2)
    inst = build_one_instance(model, ["Na", "+", "binds", "NKCC", "1"], (0, 1), (3, 4))
    inst.label = 2
    batch = [inst]

    def loss_fn():
        return model.loss_and_grads(batch)[0]

    def grad_fn():
        return model.loss_and_grads(batch)[1]

    err = grad_check(loss_fn, grad_fn, model.parameters(), 1e-4)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# training and prediction


def test_classification_is_deterministic():
    model = RelationModel(small_config(), seed=0)
    inst = build_one_instance(model, ["a", "b", "c"], (0, 0), (2, 2))
    assert model.classify(inst) == model.classify(inst)


def test_single_instance_overfits_to_its_label():
    model = RelationModel(small_config(epochs=60), seed=0)
    inst = build_one_instance(model, ["aspirin", "inhibits", "COX", "2"], (0, 0), (2, 3))
    inst.label = RELATION_LABELS.index("CPR:4")
    train_re(model, [inst], seed=0)
    label, prob = model.classify(inst)
    assert label == "CPR:4"
    assert prob > 0.99


def test_training_with_no_instances_is_a_noop():
    model = RelationModel(small_config(epochs=5), seed=0)
    before = {k: v.copy() for k, v in model.parameters().items()}
    assert train_re(model, [], seed=0) == []
    for key, value in model.parameters().items():
        np.testing.assert_array_equal(before[key], value)


def test_fixed_seed_reproduces_training_exactly():
    def run():
        model = RelationModel(small_config(epochs=4), seed=3)
        insts = []
        for i, label in enumerate((1, 2, 0, 4)):
            inst = build_one_instance(model, [f"w{i}", "verb", "gene", str(i)], (0, 0), (2, 2))
            inst.label = label
            insts.append(inst)
        curve = train_re(model, insts, seed=3)
        return curve, model.parameters()

    curve_a, params_a = run()
    curve_b, params_b = run()
    assert curve_a == curve_b
    for key in params_a:
        np.testing.assert_array_equal(params_a[key], params_b[key])


# ---------------------------------------------------------------------------
# corpus wiring


def gold_doc():
    text = "Aspirin inhibits COX2 today. Caffeine and DAT were assayed."
    return Document(
        "d1", text, "", text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 0, 7, "Aspirin"),
                  GoldEntity("T2", "GENE", 17, 21, "COX2"),
                  GoldEntity("T3", "CHEMICAL", 29, 37, "Caffeine"),
                  GoldEntity("T4", "GENE", 42, 45, "DAT")),
        relations=(GoldRelation("CPR:4", True, "T1", "T2"),))


def test_gold_instances_label_pairs_from_relations():
    model = RelationModel(small_config(), seed=0)
    instances = gold_training_instances(model, [gold_doc()])
    labels = {(i.subject.char_start, i.object.char_start): i.label for i in instances}
    assert labels == {(0, 17): RELATION_LABELS.index("CPR:4"), (29, 42): 0}


def test_non_eval_gold_relations_become_null():
    doc = gold_doc()
    doc = Document(doc.doc_id, doc.title, doc.abstract, doc.text, doc.entities,
                   (GoldRelation("CPR:2", False, "T1", "T2"),))
    model = RelationModel(small_config(), seed=0)
    instances = gold_training_instances(model, [doc])
    assert all(i.label == 0 for i in instances)


def test_multi_label_pair_yields_one_instance_per_label():
    doc = gold_doc()
    doc = Document(doc.doc_id, doc.title, doc.abstract, doc.text, doc.entities,
                   (GoldRelation("CPR:3", True, "T1", "T2"),
                    GoldRelation("CPR:4", True, "T1", "T2")))
    model = RelationModel(small_config(), seed=0)
    instances = gold_training_instances(model, [doc])
    pair_labels = sorted(i.label for i in instances if i.subject.char_start == 0)
    assert pair_labels == [RELATION_LABELS.index("CPR:3"), RELATION_LABELS.index("CPR:4")]


def test_cross_sentence_gold_pairs_are_skipped():
    doc = gold_doc()
    doc = Document(doc.doc_id, doc.title, doc.abstract, doc.text, doc.entities,
                   (GoldRelation("CPR:3", True, "T1", "T4"),))
    model = RelationModel(small_config(), seed=0)
    instances = gold_training_instances(model, [doc])
    starts = {(i.subject.char_start, i.object.char_start) for i in instances}
    assert (0, 42) not in starts


def test_e2e_with_no_entities_predicts_nothing():
    text = "Nothing to see here."
    doc = Document("d0", text, "", text + " ")
    cfg = small_config()
    mentions, relations = predict_e2e(NerModel(cfg, seed=0), RelationModel(cfg, seed=0), [doc])
    # an untrained NER model may emit junk mentions, but an empty mention
    # list must yield an empty relation list
    view = DocView.build(doc)
    assert predict_relations(RelationModel(cfg, seed=0), view, 0, []) == []


def test_prediction_instances_cover_all_pairs():
    model = RelationModel(small_config(), seed=0)
    view = DocView.build(gold_doc())
    mentions = [mention(0, 0, "CHEMICAL"), mention(2, 3, "GENE"), mention(1, 1, "GENE")]
    instances = prediction_instances(model, view, 0, mentions)
    assert len(instances) == 2
    assert all(inst.label is None for inst in instances)


@pytest.mark.parametrize("variant", list("ABCDE"))
def test_every_variant_has_finite_difference_gradients(variant):
    cfg = PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=13, max_len=32),
        relation=RelationConfig(variant=variant, head_hidden=8, context_window=4),
    )
    model = RelationModel(cfg, seed=2)
    inst = build_one_instance(model, ["Na", "+", "binds", "NKCC", "1"], (0, 1), (3, 4))
    inst.label = 2
    err = grad_check(lambda: model.loss_and_grads([inst])[0],
                     lambda: model.loss_and_grads([inst])[1],
                     model.parameters(), 1e-4)
    assert err < 1e-3


def test_e2e_builds_each_document_view_once(monkeypatch):
    built = []
    original = DocView.build.__func__

    def counting_build(cls, doc):
        built.append(doc.doc_id)
        return original(cls, doc)

    monkeypatch.setattr(DocView, "build", classmethod(counting_build))
    docs = [gold_doc(), Document("d2", "Nothing here.", "", "Nothing here. ")]
    cfg = small_config()
    predict_e2e(NerModel(cfg, seed=0), RelationModel(cfg, seed=0), docs)
    assert built == ["d1", "d2"]


def test_gold_entities_with_identical_offsets_and_type_get_separate_instances():
    doc = gold_doc()
    twin = GoldEntity("T1b", "CHEMICAL", 0, 7, "Aspirin")
    doc = Document(doc.doc_id, doc.title, doc.abstract, doc.text, doc.entities + (twin,),
                   doc.relations + (GoldRelation("CPR:9", True, "T1b", "T2"),))
    model = RelationModel(small_config(), seed=0)
    instances = gold_training_instances(model, [doc])
    pair_labels = sorted(i.label for i in instances
                         if (i.subject.char_start, i.object.char_start) == (0, 17))
    assert pair_labels == [RELATION_LABELS.index("CPR:4"), RELATION_LABELS.index("CPR:9")]
