"""Scorer semantics: strict matching, loss accounting, seed aggregation."""

import random

import pytest

from chemspan.alignment import compute_loss_report
from chemspan.corpus import Document, GoldEntity, GoldRelation
from chemspan.errors import ContractViolationError, DanglingReferenceError
from chemspan.ner import SpanMention
from chemspan.relation import RelationPrediction
from chemspan.scoring import (
    aggregate_seeds,
    format_fraction,
    gold_entity_set,
    gold_relation_set,
    lost_gold_keys,
    predicted_entity_set,
    predicted_relation_set,
    render_score_report,
    score_ner,
    score_re,
)

from oracles import pairwise_prf
from test_recoverable import corrupted_micro_corpus


def ekey(doc="d0", start=0, end=5, etype="CHEMICAL"):
    return (doc, start, end, etype)


def rkey(doc="d0", s=(0, 5), o=(10, 14), label="CPR:4"):
    return (doc, s[0], s[1], o[0], o[1], label)


# ---------------------------------------------------------------------------
# exact-match semantics


def test_identical_sets_score_perfectly():
    gold = {ekey(start=i, end=i + 3) for i in range(10)}
    report = score_ner(gold, set(gold))
    assert (report.tp, report.fp, report.fn) == (10, 0, 0)
    assert report.precision == report.recall == report.f1 == 1.0


def test_one_character_boundary_slip_costs_a_fp_and_a_fn():
    gold = {ekey(0, 5), ekey(10, 14)}
    pred = {ekey(0, 5), ekey(10, 15)}
    report = score_ner(gold, pred)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)


def test_no_predictions_is_flagged_and_scores_zero():
    report = score_ner({ekey()}, set())
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    assert report.no_predictions
    assert "convention" in render_score_report(report)


def test_empty_both_sides_is_all_zero():
    report = score_ner(set(), set())
    assert (report.tp, report.fp, report.fn, report.f1) == (0, 0, 0, 0.0)


def test_wrong_relation_label_costs_a_fp_and_a_fn():
    gold = {rkey(label="CPR:3")}
    pred = {rkey(label="CPR:4")}
    report = score_re(gold, pred)
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)
    assert report.per_type["CPR:3"].fn == 1
    assert report.per_type["CPR:4"].fp == 1


def test_lost_relations_shrink_recall_only():
    gold = {rkey(s=(i, i + 2), label="CPR:4") for i in range(0, 98 * 10, 10)}
    report = score_re(gold, set(gold), lost_by_group={"CPR:3": 2})
    assert report.tp == 98
    assert report.fn == 2
    assert report.recall == pytest.approx(98 / 100)
    assert report.precision == 1.0
    assert report.per_type["CPR:3"].fn == 2
    assert report.per_type["CPR:3"].lost == 2


def test_non_eval_labels_are_rejected_on_either_side():
    with pytest.raises(ContractViolationError):
        score_re(set(), {rkey(label="null")})
    with pytest.raises(ContractViolationError):
        score_re({rkey(label="CPR:2")}, set())


def test_duplicate_predictions_do_not_change_the_score():
    gold = [ekey(0, 5), ekey(10, 14)]
    pred = [ekey(0, 5), ekey(0, 5), ekey(0, 5), ekey(20, 22)]
    once = score_ner(gold, pred[:1] + pred[-1:])
    doubled = score_ner(gold, pred)
    assert (once.tp, once.fp, once.fn) == (doubled.tp, doubled.fp, doubled.fn)


def test_input_order_is_irrelevant():
    keys = [ekey(start=i, end=i + 1) for i in range(6)]
    a = score_ner(keys, keys[::2])
    b = score_ner(keys[::-1], keys[::2][::-1])
    assert (a.tp, a.fp, a.fn, a.f1) == (b.tp, b.fp, b.fn, b.f1)


# ---------------------------------------------------------------------------
# conservation and oracle equivalence


def random_entity_keys(rng, max_items):
    out = set()
    for _ in range(rng.randrange(max_items + 1)):
        start = rng.randrange(6)
        out.add((f"d{rng.randrange(2)}", start, start + rng.randrange(1, 4),
                 rng.choice(("CHEMICAL", "GENE"))))
    return out


def test_counts_are_conserved_on_random_instances():
    rng = random.Random(7)
    for _ in range(1000):
        gold = random_entity_keys(rng, 12)
        pred = random_entity_keys(rng, 12)
        lost = {"CHEMICAL": rng.randrange(3)} if rng.random() < 0.5 else {}
        report = score_ner(gold, pred, lost_by_type=lost)
        assert report.tp + report.fn == len(gold) + sum(lost.values())
        assert report.tp + report.fp == len(pred)
        assert sum(t.tp for t in report.per_type.values()) == report.tp
        assert sum(t.fp for t in report.per_type.values()) == report.fp
        assert sum(t.fn for t in report.per_type.values()) == report.fn


def test_scorer_matches_the_pairwise_oracle():
    rng = random.Random(11)
    for _ in range(500):
        gold = random_entity_keys(rng, 10)
        pred = random_entity_keys(rng, 10)
        report = score_ner(gold, pred)
        tp, fp, fn, precision, recall, f1 = pairwise_prf(sorted(gold), sorted(pred))
        assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
        assert report.precision == pytest.approx(precision)
        assert report.recall == pytest.approx(recall)
        assert report.f1 == pytest.approx(f1)


def test_full_gold_and_reduced_gold_paths_agree():
    # leaving unrecoverable gold in the set must equal scoring recoverable
    # gold with the loss counts passed separately
    rng = random.Random(23)
    for _ in range(200):
        recoverable = random_entity_keys(rng, 8)
        lost_keys = {k for k in random_entity_keys(rng, 4)} - recoverable
        pred = random_entity_keys(rng, 8) - lost_keys  # lost spans can't be predicted
        full = score_ner(recoverable | lost_keys, pred)
        lost_by_type = {}
        for k in lost_keys:
            lost_by_type[k[-1]] = lost_by_type.get(k[-1], 0) + 1
        reduced = score_ner(recoverable, pred, lost_by_type=lost_by_type)
        assert (full.tp, full.fp, full.fn) == (reduced.tp, reduced.fp, reduced.fn)
        assert full.recall == pytest.approx(reduced.recall)
        for name in full.per_type:
            assert full.per_type[name].fn == reduced.per_type[name].fn


# ---------------------------------------------------------------------------
# aggregation


def test_aggregating_identical_reports_returns_the_same_numbers():
    gold = {ekey(start=i, end=i + 2) for i in range(4)}
    pred = set(list(gold)[:3]) | {ekey(90, 95)}
    single = score_ner(gold, pred)
    mean = aggregate_seeds([single] * 5)
    assert mean.seeds_aggregated == 5
    assert (mean.tp, mean.fp, mean.fn) == (single.tp, single.fp, single.fn)
    assert mean.precision == pytest.approx(single.precision)
    assert mean.f1 == pytest.approx(single.f1)
    assert len(mean.per_seed_counts) == 5


def test_mean_f1_is_the_arithmetic_mean():
    reports = []
    for f1 in (0.68, 0.69, 0.70, 0.69, 0.69):
        r = score_ner({ekey()}, {ekey()})
        r.f1 = f1
        reports.append(r)
    assert aggregate_seeds(reports).f1 == pytest.approx(0.69)


def test_single_report_aggregates_to_itself():
    report = score_ner({ekey()}, set())
    mean = aggregate_seeds([report])
    assert (mean.tp, mean.fp, mean.fn, mean.precision, mean.recall) == \
        (report.tp, report.fp, report.fn, report.precision, report.recall)


def test_aggregation_rejects_empty_and_mixed_inputs():
    with pytest.raises(ValueError):
        aggregate_seeds([])
    with pytest.raises(ValueError):
        aggregate_seeds([score_ner(set(), set()), score_re(set(), set())])


def test_aggregation_rejects_a_report_that_is_already_an_aggregate():
    a, b = score_ner({ekey()}, {ekey()}), score_ner({ekey()}, set())
    with pytest.raises(ValueError, match=r"report 0: it already aggregates 2 seeds"):
        aggregate_seeds([aggregate_seeds([a, b]), a, b])
    with pytest.raises(ValueError, match=r"report 2: "):
        aggregate_seeds([a, b, aggregate_seeds([a, b, a])])


# ---------------------------------------------------------------------------
# key builders


def corpus_doc():
    text = "Aspirin inhibits COX2 strongly."
    return Document(
        "d9", text, "", text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 0, 7, "Aspirin"),
                  GoldEntity("T2", "GENE", 17, 21, "COX2")),
        relations=(GoldRelation("CPR:4", True, "T1", "T2"),
                   GoldRelation("CPR:2", False, "T1", "T2")))


def test_gold_sets_use_char_offsets_and_eval_labels_only():
    doc = corpus_doc()
    assert gold_entity_set([doc]) == {("d9", 0, 7, "CHEMICAL"), ("d9", 17, 21, "GENE")}
    assert gold_relation_set([doc]) == {("d9", 0, 7, 17, 21, "CPR:4")}


def test_gold_relation_set_rejects_dangling_entity_ids():
    doc = corpus_doc()
    broken = Document(doc.doc_id, doc.title, doc.abstract, doc.text, doc.entities,
                      (GoldRelation("CPR:3", True, "T1", "T99"),))
    with pytest.raises(DanglingReferenceError):
        gold_relation_set([broken])


def test_prediction_sets_mirror_the_gold_keys():
    chem = SpanMention("d9", 0, 0, 0, "CHEMICAL", 0, 7, 0.9)
    gene = SpanMention("d9", 0, 2, 3, "GENE", 17, 21, 0.8)
    assert predicted_entity_set([chem, gene, chem]) == \
        {("d9", 0, 7, "CHEMICAL"), ("d9", 17, 21, "GENE")}
    pred = RelationPrediction("d9", 0, chem, gene, "CPR:4", 0.7)
    assert predicted_relation_set([pred, pred]) == {("d9", 0, 7, 17, 21, "CPR:4")}


def test_e2e_scoring_against_gold_sets():
    doc = corpus_doc()
    chem = SpanMention("d9", 0, 0, 0, "CHEMICAL", 0, 7, 0.9)
    gene = SpanMention("d9", 0, 2, 3, "GENE", 17, 21, 0.8)
    ner = score_ner(gold_entity_set([doc]), predicted_entity_set([chem, gene]))
    assert ner.f1 == 1.0
    re_rep = score_re(gold_relation_set([doc]),
                      predicted_relation_set([RelationPrediction("d9", 0, chem, gene, "CPR:4", 1.0)]))
    assert re_rep.f1 == 1.0


def twin_documents():
    """A clean document, and one whose two chemicals share mid-token offsets.

    Each twin is in a CPR:4 relation to the same gene, so the loss report
    counts two lost entities and two lost relations that share one key each.
    """
    clean_text = "Aspirin inhibits COX2 strongly."
    clean = Document(
        "dclean", clean_text, "", clean_text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 0, 7, "Aspirin"),
                  GoldEntity("T2", "GENE", 17, 21, "COX2")),
        relations=(GoldRelation("CPR:4", True, "T1", "T2"),))
    twin_text = "Cells were differentiated with retinoic acid and TPA."
    twin = Document(
        "dtwin", twin_text, "", twin_text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 33, 44, "tinoic acid"),
                  GoldEntity("T2", "CHEMICAL", 33, 44, "tinoic acid"),
                  GoldEntity("T3", "GENE", 49, 52, "TPA")),
        relations=(GoldRelation("CPR:4", True, "T1", "T3"),
                   GoldRelation("CPR:4", True, "T2", "T3")))
    return [clean, twin]


def test_lost_gold_keys_are_the_keys_gate_09_builds():
    docs = corrupted_micro_corpus()
    loss = compute_loss_report(docs)
    # the inline mapping of gate 09, kept here as an independent oracle
    by_id = {d.doc_id: d for d in docs}
    expected_entities = set()
    for doc_id, entity_id, _reason in loss.lost_entity_ids:
        e = by_id[doc_id].entity_by_id(entity_id)
        expected_entities.add((doc_id, e.char_start, e.char_end, e.etype))
    expected_relations = set()
    for doc_id, arg1, arg2, group, _reason in loss.lost_relation_keys:
        c = by_id[doc_id].entity_by_id(arg1)
        g = by_id[doc_id].entity_by_id(arg2)
        expected_relations.add((doc_id, c.char_start, c.char_end,
                                g.char_start, g.char_end, group))
    assert len(expected_entities) == len(expected_relations) == 3
    entities, relations = lost_gold_keys(loss, docs)
    assert (entities, relations) == (expected_entities, expected_relations)
    assert entities <= gold_entity_set(docs) and relations <= gold_relation_set(docs)


def test_lost_gold_keys_count_twin_annotations_once():
    docs = twin_documents()
    loss = compute_loss_report(docs)
    entities, relations = lost_gold_keys(loss, docs)
    assert (loss.entities_lost, loss.relations_lost) == (2, 2)
    assert entities == {("dtwin", 33, 44, "CHEMICAL")}
    assert relations == {("dtwin", 33, 44, 49, 52, "CPR:4")}
    assert len(entities) < loss.entities_lost and len(relations) < loss.relations_lost


# ---------------------------------------------------------------------------
# rendering


def test_fractions_render_three_decimals_half_up():
    assert format_fraction(0.25) == "0.250"
    assert format_fraction(0.0625) == "0.063"
    assert format_fraction(2 / 3) == "0.667"
    assert format_fraction(1.0) == "1.000"
    assert format_fraction(0.0) == "0.000"


def test_report_rendering_lists_types_in_sorted_order():
    gold = {ekey(etype="GENE"), ekey(start=10, end=12, etype="CHEMICAL")}
    text = render_score_report(score_ner(gold, gold))
    assert text.index("type[CHEMICAL]") < text.index("type[GENE]")
    assert "precision\t1.000" in text
