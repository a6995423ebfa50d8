"""Alignment and loss-accounting tests."""

import random

import pytest

from chemspan.alignment import (
    AlignedEntity,
    DocView,
    align_entity,
    compute_loss_report,
    parse_loss_report,
    render_loss_report,
    render_lost_items,
)
from chemspan.corpus import Document, GoldEntity, GoldRelation, Sentence
from chemspan.tokenizer import tokenize, tokenize_sentence


def doc_of(text, entities=(), relations=(), boundaries=None):
    return Document("d0", text, "", text + " ", entities=tuple(entities),
                    relations=tuple(relations), sentence_boundaries=boundaries)


def sentence_tokens(text):
    doc = Document("d0", text, "", text + " ")
    return tokenize_sentence(doc, Sentence(0, 0, len(text)))


def test_prefix_entity_in_transporter_name_is_recoverable():
    tokens = sentence_tokens("Na+-K+-2Cl- cotransporter")
    entity = GoldEntity("T1", "CHEMICAL", 0, 3, "Na+")
    aligned = align_entity(entity, tokens)
    assert aligned == AlignedEntity("T1", "CHEMICAL", True, 0, 1)


def test_inner_entity_starting_mid_token_is_lost():
    tokens = sentence_tokens("KITD816V signalling")
    entity = GoldEntity("T1", "GENE", 0, 3, "KIT")  # ends inside the KITD token
    aligned = align_entity(entity, tokens)
    assert not aligned.recoverable
    assert aligned.reason == "unalignable"


def test_exact_single_token_aligns_to_itself():
    tokens = sentence_tokens("aspirin inhibits")
    aligned = align_entity(GoldEntity("T1", "CHEMICAL", 0, 7, "aspirin"), tokens)
    assert (aligned.token_start, aligned.token_end) == (0, 0)


def test_whitespace_inside_entity_is_covered_by_the_span():
    text = "tyrosine hydroxylase activity"
    tokens = sentence_tokens(text)
    aligned = align_entity(GoldEntity("T1", "GENE", 0, 20, text[:20]), tokens)
    assert aligned.recoverable
    assert (aligned.token_start, aligned.token_end) == (0, 1)


def test_aligned_span_is_minimal():
    # both "Cl" at 8 and "-" at 10 end candidates exist; the first end wins
    tokens = sentence_tokens("Na+-K+-2Cl- cotransporter")
    aligned = align_entity(GoldEntity("T1", "CHEMICAL", 8, 10, "Cl"), tokens)
    assert (aligned.token_start, aligned.token_end) == (7, 7)


def test_widening_never_shrinks_a_recovered_span():
    rng = random.Random(7)
    words = ["Na+", "KITD816V", "aspirin", "COX", "2", "beta", "x1"]
    for _ in range(300):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(2, 8)))
        tokens = sentence_tokens(text)
        n = len(text)
        a = rng.randrange(0, n)
        b = rng.randrange(a + 1, n + 1)
        narrow = align_entity(GoldEntity("T", "GENE", a, b, text[a:b]), tokens)
        if not narrow.recoverable:
            continue
        a2 = rng.choice([t.char_start for t in tokens if t.char_start <= a])
        b2 = rng.choice([t.char_end for t in tokens if t.char_end >= b])
        wide = align_entity(GoldEntity("T", "GENE", a2, b2, text[a2:b2]), tokens)
        if wide.recoverable:
            assert wide.token_start <= narrow.token_start
            assert wide.token_end >= narrow.token_end


def two_sentence_doc():
    text = "Aspirin inhibits COX2 here. NKCC1 moved Cl- today."
    ents = (
        GoldEntity("T1", "CHEMICAL", 0, 7, "Aspirin"),
        GoldEntity("T2", "GENE", 17, 21, "COX2"),
        GoldEntity("T3", "GENE", 28, 33, "NKCC1"),
        GoldEntity("T4", "CHEMICAL", 40, 43, "Cl-"),
    )
    return text, ents


def test_fully_recoverable_corpus_reports_zero_loss():
    text, ents = two_sentence_doc()
    doc = doc_of(text, ents, [GoldRelation("CPR:4", True, "T1", "T2"),
                              GoldRelation("CPR:9", True, "T4", "T3")])
    report = compute_loss_report([doc])
    assert (report.entities_total, report.entities_lost) == (4, 0)
    assert (report.relations_total, report.relations_lost) == (2, 0)


def test_one_lost_entity_loses_every_relation_through_it():
    text = "KITD816V binds imatinib and imatinib again."
    ents = (
        GoldEntity("T1", "GENE", 0, 3, "KIT"),  # mid-token, lost
        GoldEntity("T2", "CHEMICAL", 15, 23, "imatinib"),
        GoldEntity("T3", "CHEMICAL", 28, 36, "imatinib"),
    )
    rels = (GoldRelation("CPR:4", True, "T2", "T1"),
            GoldRelation("CPR:4", True, "T3", "T1"))
    report = compute_loss_report([doc_of(text, ents, rels)])
    assert report.entities_lost == 1
    assert report.relations_lost == 2
    assert report.lost_entity_ids == [("d0", "T1", "unalignable")]
    assert {k[4] for k in report.lost_relation_keys} == {"lost-argument"}


def test_cross_sentence_pair_is_lost_with_its_own_tag():
    text, ents = two_sentence_doc()
    rels = (GoldRelation("CPR:3", True, "T1", "T3"),)  # args in different sentences
    report = compute_loss_report([doc_of(text, ents, rels)])
    assert report.relations_lost == 1
    assert report.lost_relation_keys[0][4] == "cross-sentence-pair"


def test_entity_spanning_sentence_boundary_is_lost_as_cross_sentence():
    text, ents = two_sentence_doc()
    spanning = GoldEntity("T9", "GENE", 17, 33, text[17:33])  # "COX2 here. NKCC1"
    report = compute_loss_report([doc_of(text, ents + (spanning,))])
    assert ("d0", "T9", "cross-sentence") in report.lost_entity_ids


def test_non_eval_relations_are_not_counted():
    text, ents = two_sentence_doc()
    rels = (GoldRelation("CPR:2", False, "T1", "T2"),)
    report = compute_loss_report([doc_of(text, ents, rels)])
    assert report.relations_total == 0


def test_loss_conservation_totals():
    text = "KITD816V binds imatinib."
    ents = (GoldEntity("T1", "GENE", 0, 3, "KIT"),
            GoldEntity("T2", "CHEMICAL", 15, 23, "imatinib"))
    report = compute_loss_report([doc_of(text, ents, [GoldRelation("CPR:4", True, "T2", "T1")])])
    assert report.entities_lost == len(report.lost_entity_ids)
    assert report.relations_lost == len(report.lost_relation_keys)
    assert 0 <= report.entities_lost <= report.entities_total
    assert report.entity_loss_rate == pytest.approx(1 / 2)
    assert report.relation_loss_rate == pytest.approx(1.0)


def test_report_renders_and_parses_back():
    text = "KITD816V binds imatinib."
    ents = (GoldEntity("T1", "GENE", 0, 3, "KIT"),
            GoldEntity("T2", "CHEMICAL", 15, 23, "imatinib"))
    report = compute_loss_report([doc_of(text, ents, [GoldRelation("CPR:4", True, "T2", "T1")])])
    parsed = parse_loss_report(render_loss_report(report))
    assert (parsed.entities_total, parsed.entities_lost) == (2, 1)
    assert parsed.entities_lost_by_type == {"GENE": 1}
    assert render_lost_items(report).splitlines() == [
        "entity\td0\tT1\tunalignable", "relation\td0\tT2\tT1\tCPR:4\tlost-argument"]


def test_docview_context_is_document_ordered():
    text, ents = two_sentence_doc()
    view = DocView.build(doc_of(text, ents))
    left, right = view.context(1)
    assert left == [t.surface for t in view.tokens[0]]
    assert right == []
    left0, right0 = view.context(0)
    assert left0 == []
    assert right0 == [t.surface for t in view.tokens[1]]



def test_docview_sentence_starts_index_the_flat_surfaces():
    text, ents = two_sentence_doc()
    view = DocView.build(doc_of(text, ents))
    assert view.sent_flat_start == [0, len(view.tokens[0])]
    assert view.flat_surfaces == [t.surface for toks in view.tokens for t in toks]
    blank = DocView.build(Document("blank", "", " ", "  "))  # no sentence, so no start
    assert (blank.sentences, blank.flat_surfaces, blank.sent_flat_start) == ([], [], [])
