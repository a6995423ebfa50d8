"""Document views keep token offsets, and agree with the `Token` path they replace.

`DocView.build` runs the token pattern once per sentence and keeps each
token's ``(char_start, char_end)`` pair; `align_document` aligns against
those pairs and `sentence_of_entity` finds an entity's sentence by
bisection. Here each is checked against `tokenize_sentence`, `align_entity`
and a linear scan over random texts and random valid sentence covers, and
the evaluation commands are checked to build no `Token` at all.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import chemspan
from chemspan.alignment import (
    REASON_CROSS_SENTENCE,
    AlignedEntity,
    DocView,
    align_document,
    align_entity,
)
from chemspan.cli import _entity_records, _relation_records, main
from chemspan.corpus import Document, GoldEntity, load_corpus_dir
from chemspan.relation import RelationPrediction, generate_pairs, recoverable_gold_mentions
from chemspan.tokenizer import Token, tokenize_sentence

from oracles import scan_tokens, sentence_holding

MICRO = Path(chemspan.__file__).parent / "data" / "micro"
# letter, digit, Greek, punctuation and whitespace runs, so tokens of every kind
ALPHABET = "abZ09αΩ+-.( \t\n"


@st.composite
def covered_texts(draw):
    """A non-empty text and a valid sentence cover of it.

    The text is cut at random points; each piece keeps or strips the
    whitespace at its edges, and whitespace-only pieces are dropped. So
    sentences may touch, or sit apart with whitespace gaps between them.
    """
    text = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=60))
    cuts = sorted(draw(st.sets(st.integers(1, max(len(text) - 1, 1)), max_size=6)))
    bounds = [0, *(c for c in cuts if c < len(text)), len(text)]
    cover = []
    for lo, hi in zip(bounds, bounds[1:]):
        piece = text[lo:hi]
        if not piece.strip():
            continue
        if draw(st.booleans()):
            lo, hi = lo + len(piece) - len(piece.lstrip()), hi - len(piece) + len(piece.rstrip())
        cover.append((lo, hi))
    return text, cover


def gaps(text, cover):
    """The non-empty stretches no sentence covers; each is whitespace."""
    edges = [0, *(x for interval in cover for x in interval), len(text)]
    return [(lo, hi) for lo, hi in zip(edges[::2], edges[1::2]) if lo < hi]


@st.composite
def entity_spans(draw, text, cover):
    """A non-empty ``[start, end)`` of ``text``: inside a sentence, on its token
    boundaries, across two sentences, in a whitespace gap, at either end of the
    text, or anywhere."""
    kind = draw(st.sampled_from(["inside", "tokens", "across", "gap", "head", "tail", "any"]))
    n = len(text)
    if kind in ("inside", "tokens") and cover:
        lo, hi = draw(st.sampled_from(cover))
        if kind == "tokens":
            offsets = [(lo + a, lo + b) for _, a, b in scan_tokens(text[lo:hi])]
            i = draw(st.integers(0, len(offsets) - 1))
            j = draw(st.integers(i, len(offsets) - 1))
            return offsets[i][0], offsets[j][1]
        start = draw(st.integers(lo, hi - 1))
        return start, draw(st.integers(start + 1, hi))
    if kind == "across" and len(cover) > 1:
        k = draw(st.integers(0, len(cover) - 2))
        start = draw(st.integers(cover[k][0], cover[k][1] - 1))
        return start, draw(st.integers(max(cover[k + 1][0], start) + 1, cover[k + 1][1]))
    if kind == "gap" and gaps(text, cover):
        lo, hi = draw(st.sampled_from(gaps(text, cover)))
        start = draw(st.integers(lo, hi - 1))
        return start, draw(st.integers(start + 1, hi))
    if kind == "head":
        return 0, draw(st.integers(1, n))
    if kind == "tail":
        return draw(st.integers(0, n - 1)), n
    start = draw(st.integers(0, n - 1))
    return start, draw(st.integers(start + 1, n))


@st.composite
def documents(draw):
    """A document over a covered text, with up to eight entities drawn by `entity_spans`."""
    text, cover = draw(covered_texts())
    spans = draw(st.lists(entity_spans(text, cover), max_size=8))
    entities = tuple(GoldEntity(f"T{i}", "CHEMICAL", s, e, text[s:e])
                     for i, (s, e) in enumerate(spans))
    return Document("d0", text, "", text, entities=entities, sentence_boundaries=tuple(cover))


@settings(max_examples=300, deadline=None)
@given(documents())
def test_view_offsets_and_surfaces_are_the_tokens_of_each_sentence(doc):
    view = DocView.build(doc)
    tokens = [tokenize_sentence(doc, sent) for sent in view.sentences]
    assert [(s.char_start, s.char_end) for s in view.sentences] == list(doc.sentence_boundaries)
    assert view.offsets == [[(t.char_start, t.char_end) for t in toks] for toks in tokens]
    assert view.flat_surfaces == [t.surface for toks in tokens for t in toks]
    assert view.sent_flat_start == [sum(map(len, tokens[:k])) for k in range(len(tokens))]
    assert view.tokens == tokens


@settings(max_examples=300, deadline=None)
@given(documents())
def test_sentence_lookup_equals_a_linear_scan(doc):
    view = DocView.build(doc)
    for entity in doc.entities:
        assert view.sentence_of_entity(entity) == sentence_holding(
            doc.sentence_boundaries, entity.char_start, entity.char_end)


@settings(max_examples=300, deadline=None)
@given(documents())
def test_align_document_equals_align_entity_over_the_sentence_tokens(doc):
    view = DocView.build(doc)
    aligned = align_document(view)
    for entity in doc.entities:
        k = sentence_holding(doc.sentence_boundaries, entity.char_start, entity.char_end)
        if k is None:
            expected = AlignedEntity(entity.entity_id, entity.etype, False,
                                     reason=REASON_CROSS_SENTENCE)
        else:
            expected = align_entity(entity, tokenize_sentence(doc, view.sentences[k]))
        assert aligned[entity.entity_id] == (k, expected)


def test_sentence_lookup_covers_each_place_an_entity_can_sit():
    text = " Ab c.  De f. "
    doc = Document("d0", text, "", text, sentence_boundaries=((1, 6), (8, 13)))
    view = DocView.build(doc)
    cases = {(1, 3): 0, (4, 6): 0, (8, 13): 1, (1, 6): 0,  # inside a sentence
             (4, 9): None, (1, 13): None,  # across two sentences
             (6, 8): None, (7, 8): None,  # in the gap between them
             (0, 3): None, (0, 1): None, (11, 14): None, (13, 14): None}  # at either end
    for (start, end), k in cases.items():
        entity = GoldEntity("T1", "GENE", start, end, text[start:end])
        assert view.sentence_of_entity(entity) == k, (start, end)
        assert sentence_holding(doc.sentence_boundaries, start, end) == k, (start, end)


def test_evaluation_commands_build_no_token(tmp_path, monkeypatch):
    # the prediction records are the gold pairs, written before any count is taken
    ents, rels = [], []
    for view in map(DocView.build, load_corpus_dir(MICRO)):
        for k, id_mentions in recoverable_gold_mentions(view).items():
            mentions = [m for _, m in id_mentions]
            ents += _entity_records(mentions)
            rels += _relation_records([RelationPrediction(s.doc_id, k, s, o, "CPR:4", 0.5)
                                       for s, o in generate_pairs(mentions)], view)
    assert ents and rels
    (tmp_path / "ents.tsv").write_text("".join(r + "\n" for r in ents), encoding="utf-8")
    (tmp_path / "rels.tsv").write_text("".join(r + "\n" for r in rels), encoding="utf-8")

    built = []
    init = Token.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Token, "__init__", counted)
    for argv in (["align-stats", "--corpus", MICRO, "--report", tmp_path / "loss.txt"],
                 ["score", "--gold", MICRO, "--pred", tmp_path / "ents.tsv", "--task", "ner",
                  "--out", tmp_path / "ner.json"],
                 ["score", "--gold", MICRO, "--pred", tmp_path / "rels.tsv", "--task", "re",
                  "--loss-report", tmp_path / "loss.txt", "--out", tmp_path / "re.json"],
                 ["analyze", "--gold", MICRO, "--pred-ents", tmp_path / "ents.tsv",
                  "--pred-rels", tmp_path / "rels.tsv", "--out", tmp_path / "analysis"]):
        assert main(list(map(str, argv))) == 0, argv
        assert built == [], argv
    # the count sees the Tokens a view builds when a caller asks for them
    assert DocView.build(load_corpus_dir(MICRO)[0]).tokens and built
