"""Derived tallies of scoring and error analysis, pinned against brute force.

`analyze`'s per-group fractions and counts are recounted from its own item
lists and from the gold and predicted sets; `aggregate_seeds` is checked
field by field against a hand-written mean. Both refuse a non-evaluated
relation label the same way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspan.analysis import analyze
from chemspan.corpus import ENTITY_TYPES, EVAL_GROUPS, Document, GoldEntity, GoldRelation
from chemspan.errors import ContractViolationError
from chemspan.scoring import (
    aggregate_seeds,
    gold_relation_set,
    score_ner,
    score_re,
)

CHEMICAL, GENE = ENTITY_TYPES


def pair_doc(label):
    entities = (GoldEntity("T1", CHEMICAL, 0, 7, "x"), GoldEntity("T2", GENE, 17, 21, "y"))
    return Document("d0", "t", "a", "t a", entities, (GoldRelation(label, True, "T1", "T2"),))


def test_analyze_refuses_a_non_evaluated_gold_label_like_score_re():
    doc = pair_doc("CPR:2")  # evaluated flag on a group outside EVAL_GROUPS
    with pytest.raises(ContractViolationError) as scored:
        score_re(gold_relation_set([doc]), set())
    assert str(scored.value).startswith("gold relation carries non-evaluated label 'CPR:2'")
    arguments = {("d0", 0, 7, CHEMICAL), ("d0", 17, 21, GENE)}
    for predicted_entities in (arguments, set()):  # a null FN, then an NER-caused FN
        with pytest.raises(ContractViolationError) as analyzed:
            analyze([doc], predicted_entities, set())
        assert str(analyzed.value) == str(scored.value)


def test_analyze_checks_unknown_documents_before_labels():
    with pytest.raises(ContractViolationError, match="unknown document"):
        analyze([pair_doc("CPR:2")], set(), {("elsewhere", 0, 7, 17, 21, "CPR:1")})


@st.composite
def documents_and_predictions(draw):
    """Two documents of a few entities and gold relations, and predictions over them.

    Predicted entities are a subset of the gold ones plus clipped copies, and
    predicted relations pair any of them with any evaluated label.
    """
    docs, candidates = [], []
    for d in range(2):
        doc_id = f"d{d}"
        entities = [GoldEntity(f"T{i}", ENTITY_TYPES[i % 2], 10 * i, 10 * i + 5, "x")
                    for i in range(draw(st.integers(2, 6)))]
        chems = [e for e in entities if e.etype == CHEMICAL]
        genes = [e for e in entities if e.etype == GENE]
        relations = {(c.entity_id, g.entity_id): GoldRelation(
                         draw(st.sampled_from(EVAL_GROUPS)), True, c.entity_id, g.entity_id)
                     for c in chems for g in genes if draw(st.booleans())}
        docs.append(Document(doc_id, "t", "a", "t a", tuple(entities),
                             tuple(relations.values())))
        for e in entities:
            for end in (e.char_end, e.char_end - 1):  # exact, then clipped
                candidates.append((doc_id, e.char_start, end, e.etype))
    entities = {k for k in candidates if draw(st.booleans())}
    chem_keys = [k for k in candidates if k[3] == CHEMICAL]
    gene_keys = [k for k in candidates if k[3] == GENE]
    relations = {(c[0], c[1], c[2], g[1], g[2], draw(st.sampled_from(EVAL_GROUPS)))
                 for c in chem_keys for g in gene_keys
                 if c[0] == g[0] and draw(st.integers(0, 3)) == 0}
    return docs, entities, relations


def by_group(keys, group):
    return sum(1 for key in keys if key[-1] == group)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(documents_and_predictions())
def test_analyze_fractions_and_counts_match_brute_force(case):
    docs, pred_entities, pred_relations = case
    gold = gold_relation_set(docs)
    b = analyze(docs, pred_entities, pred_relations)
    fp_keys = pred_relations - gold
    for by_type in (b.null_fn_by_type, b.fp_fraction_by_pred_type,
                    b.gold_relations_by_type, b.predictions_by_type):
        assert list(by_type) == list(EVAL_GROUPS)
    for g in EVAL_GROUPS:
        n_gold, n_pred = by_group(gold, g), by_group(pred_relations, g)
        assert b.gold_relations_by_type[g] == n_gold
        assert b.predictions_by_type[g] == n_pred
        assert b.null_fn_by_type[g] == (by_group(b.null_fn_items, g) / n_gold if n_gold else 0.0)
        assert b.fp_fraction_by_pred_type[g] == (by_group(fp_keys, g) / n_pred
                                                 if n_pred else 0.0)


@st.composite
def seed_reports(draw):
    """2-5 reports of one task, each scored over its own subset of the labels."""
    task = draw(st.sampled_from(["ner", "re"]))
    labels = ENTITY_TYPES if task == "ner" else EVAL_GROUPS
    reports = []
    for _ in range(draw(st.integers(2, 5))):
        used = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))

        def keys(offset):
            return {("d", offset + i, offset + i + 1, 0, 1)[:3 if task == "ner" else 5]
                    + (draw(st.sampled_from(used)),)
                    for i in range(draw(st.integers(0, 6)))}

        gold = keys(0)
        predicted = {k for k in gold if draw(st.booleans())} | keys(100)
        lost = {label: draw(st.integers(0, 3)) for label in used if draw(st.booleans())}
        score = score_ner if task == "ner" else score_re
        reports.append(score(gold, predicted, lost))
    return reports


def hand_count_mean(values, n):
    total = sum(values)
    mean = total / n
    if total % n == 0:
        return int(mean)  # a sum that divides evenly stays an int
    return mean


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed_reports())
def test_aggregate_seeds_is_the_fieldwise_mean(reports):
    n = len(reports)
    mean = aggregate_seeds(reports)
    rows = {"overall": (mean, reports)}
    for name in {name for r in reports for name in r.per_type}:
        rows[name] = (mean.per_type[name], [r.per_type.get(name) for r in reports])
    assert set(mean.per_type) == set(rows) - {"overall"}
    for name, (got, seeds) in rows.items():
        for count in ("tp", "fp", "fn", "lost"):
            values = [getattr(s, count) if s else 0 for s in seeds]
            want = hand_count_mean(values, n)
            assert (getattr(got, count), type(getattr(got, count))) == (want, type(want)), \
                (name, count)
        for metric in ("precision", "recall", "f1"):
            want = sum(getattr(s, metric) if s else 0.0 for s in seeds) / n
            assert getattr(got, metric) == want, (name, metric)
    assert mean.seeds_aggregated == n
    assert mean.no_predictions == all(r.no_predictions for r in reports)
    assert mean.per_seed_counts == tuple((r.tp, r.fp, r.fn, r.lost) for r in reports)
