"""Recoverability is decided once: the accessor and the loss report partition gold."""

import dataclasses

import pytest

from chemspan.alignment import DocView, compute_loss_report, recoverable_entities
from chemspan.corpus import GoldEntity, GoldRelation
from chemspan.microcorpus import load_micro_corpus
from chemspan.relation import NULL_RELATION, RelationModel, gold_training_instances


def corrupted_micro_corpus(k=3):
    """The micro corpus with a mid-token chemical and a relation through it in k documents."""
    docs = []
    for i, doc in enumerate(load_micro_corpus()):
        if i < k:
            tok = next(t for t in DocView.build(doc).tokens[0] if t.char_end - t.char_start >= 3)
            start, end = tok.char_start + 1, tok.char_end
            entity = GoldEntity(f"TLOST{i}", "CHEMICAL", start, end, doc.text[start:end])
            gene = next(e for e in doc.entities if e.etype == "GENE")
            doc = dataclasses.replace(
                doc, entities=doc.entities + (entity,),
                relations=doc.relations + (GoldRelation("CPR:4", True, entity.entity_id,
                                                        gene.entity_id),))
        docs.append(doc)
    return docs


@pytest.mark.parametrize("make_docs", [load_micro_corpus, corrupted_micro_corpus])
def test_accessor_and_loss_report_partition_the_gold(make_docs):
    docs = make_docs()
    report = compute_loss_report(docs)
    recoverable = []
    for doc in docs:
        view = DocView.build(doc)
        for k, entities in recoverable_entities(view).items():
            for entity, aligned in entities:
                assert aligned.recoverable and view.sentence_of_entity(entity) == k
                recoverable.append((doc.doc_id, entity.entity_id))
    lost = [(doc_id, entity_id) for doc_id, entity_id, _ in report.lost_entity_ids]
    every = [(doc.doc_id, e.entity_id) for doc in docs for e in doc.entities]
    assert not set(recoverable) & set(lost)
    assert sorted(recoverable + lost) == sorted(every)

    instances = gold_training_instances(RelationModel(seed=0), docs)
    labeled = [inst for inst in instances if inst.label != NULL_RELATION]
    assert len(labeled) == report.relations_total - report.relations_lost
