"""Prediction's span and pair layer works on arrays, bitwise equal to the per-candidate objects."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemspan
from chemspan.alignment import DocView
from chemspan.config import PipelineConfig
from chemspan.corpus import ENTITY_TYPES, Document, join_title_abstract
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import (
    NER_LABELS,
    NerExample,
    NerModel,
    SpanArrays,
    SpanCandidate,
    SpanMention,
    WindowedInput,
    candidate_spans,
    span_count,
    train_ner,
)
from chemspan.relation import (
    RELATION_LABELS,
    RelationModel,
    gold_training_instances,
    predict_e2e,
    prediction_instances,
    train_re,
)
from chemspan.tokenizer import tokenize

from oracles import brute_force_spans, classify_pooled_by_mean, predict_view_per_candidate
from test_scoring import twin_documents


@pytest.fixture(scope="module")
def models():
    """NER and RE briefly trained on micro, so both predict mentions and relations."""
    docs = load_micro_corpus()
    config = PipelineConfig.from_dict({"ner": {"epochs": 30}, "relation": {"epochs": 5}})
    ner = NerModel(config, seed=0)
    train_ner(ner, ner.prepare_documents(docs), seed=0)
    re_model = RelationModel(config, seed=0)
    train_re(re_model, gold_training_instances(re_model, docs), seed=0)
    return ner, re_model


def long_document():
    """One document of about 300 tokens: micro abstracts run together."""
    abstracts = []
    for doc in load_micro_corpus():
        abstracts.append(doc.abstract)
        if len(tokenize(" ".join(abstracts))) >= 300:
            break
    title = "A long abstract."
    abstract = " ".join(abstracts)
    return Document("dlong", title, abstract, join_title_abstract(title, abstract))


@pytest.mark.parametrize("corpus", ["micro", "twin", "long"])
def test_prediction_equals_the_per_candidate_object_path_bitwise(models, corpus):
    docs = {"micro": load_micro_corpus, "twin": twin_documents,
            "long": lambda: [long_document()]}[corpus]()
    ner, re_model = models
    expected = [], []
    for doc in docs:
        mentions, relations = predict_view_per_candidate(ner, re_model, DocView.build(doc),
                                                         chemspan)
        expected[0].extend(mentions)
        expected[1].extend(relations)
    got = predict_e2e(ner, re_model, docs)
    assert got == expected  # probabilities included
    if corpus != "twin":
        assert got[0] and got[1]
    if corpus == "long":
        assert len(DocView.build(docs[0]).flat_surfaces) >= 300
    # the pairs predicted null are in neither output, so each pair is compared on its own too
    pairs = 0
    for doc in docs:
        view = DocView.build(doc)
        for k, sent in enumerate(view.sentences):
            found = [m for m in got[0] if (m.doc_id, m.sent_id) == (doc.doc_id, sent.sent_id)]
            for inst in prediction_instances(re_model, view, k, found):
                pick, prob = classify_pooled_by_mean(re_model, inst)
                assert re_model.classify(inst) == (RELATION_LABELS[pick], prob)
                pairs += 1
    assert pairs > len(got[1]) or corpus == "twin"


def test_predicting_micro_builds_no_candidate_and_one_mention_per_result(models, monkeypatch):
    made = Counter()
    for cls in (SpanCandidate, SpanMention):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    mentions, _ = predict_e2e(*models, load_micro_corpus())
    assert made["SpanCandidate"] == 0
    assert made["SpanMention"] == len(mentions) > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 20), st.data())
def test_candidate_arrays_follow_brute_force_order_and_label_by_one_lookup(n, width, data):
    starts, ends = candidate_spans(n, width)
    assert starts.dtype == ends.dtype == np.int64
    spans = sorted(brute_force_spans(n, width))  # (start, end) order is (start, width) order
    assert list(zip(starts.tolist(), ends.tolist())) == spans
    assert span_count(n, width) == len(spans)
    chosen = data.draw(st.lists(st.sampled_from(spans), unique=True) if spans else st.just([]))
    gold = {span: data.draw(st.sampled_from(ENTITY_TYPES)) for span in chosen}
    per_candidate = [NER_LABELS.index(gold.get(span, "null")) for span in spans]
    assert SpanArrays(starts, ends).labels(gold).tolist() == per_candidate


def test_a_caller_s_candidate_list_becomes_arrays_that_iterate_as_candidates():
    example = NerExample(
        "d", 4, WindowedInput(["l", "a", "b", "c"], 1),
        [SpanCandidate(4, 0, 0), SpanCandidate(4, 0, 2), SpanCandidate(4, 2, 2)], None,
        [(0, 1), (2, 3), (4, 5)])
    assert list(example.candidates) == [SpanCandidate(4, 0, 0), SpanCandidate(4, 0, 2),
                                        SpanCandidate(4, 2, 2)]
    starts, ends, widths = example.span_index
    assert (starts.tolist(), ends.tolist(), widths.tolist()) == ([1, 1, 3], [1, 3, 3], [0, 2, 0])


# ---------------------------------------------------------------------------
# library prediction that overflows raises its error and prints nothing; numpy's
# warnings reach stderr only outside pytest's capture, so it runs in its own process

OVERFLOWING_PREDICTION = """
import chemspan
from chemspan.errors import NonFiniteError
config = chemspan.PipelineConfig()
ner, re_model = chemspan.NerModel(config, seed=0), chemspan.RelationModel(config, seed=0)
(ner if {stage!r} == "ner" else re_model).encoder.params["tok_emb"] *= 1e307
try:
    chemspan.predict_e2e(ner, re_model, chemspan.load_micro_corpus()[:1])
except NonFiniteError as exc:
    print(exc)
"""


@pytest.mark.parametrize("stage, message", [("ner", "span probabilities hold NaN or infinity"),
                                            ("re", "relation probabilities hold NaN or infinity")])
def test_library_prediction_that_overflows_raises_without_warnings(stage, message):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", OVERFLOWING_PREDICTION.format(stage=stage)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.startswith("document 'MICRO0' sentence ")
    assert done.stdout.strip().endswith(message)
