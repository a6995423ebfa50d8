"""Corpus loading, segmentation, correction, and round-trip tests."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import first_uncovered_offset

import chemspan
from chemspan.corpus import (
    Document,
    GoldEntity,
    GoldRelation,
    Sentence,
    apply_corrections,
    default_segmenter,
    is_eval_group,
    load_corpus,
    load_corpus_dir,
    load_corpus_with_diagnostics,
    load_corrections,
    read_tsv,
    save_corpus,
    segment,
    validate_sentences,
)
from chemspan.errors import ContractViolationError, CorpusFormatError, DanglingReferenceError


def write(path, rows):
    path.write_text("".join("\t".join(str(c) for c in row) + "\n" for row in rows),
                    encoding="utf-8")
    return path


TITLE = "Aspirin and COX-2."
ABSTRACT = "Aspirin inhibits COX-2 in vitro. Dosage was 10 mg."
TEXT = TITLE + " " + ABSTRACT


def small_corpus(tmp_path):
    abstracts = write(tmp_path / "abstracts.tsv", [("d1", TITLE, ABSTRACT)])
    # offsets measured against TEXT: title then one space then abstract
    entities = write(tmp_path / "entities.tsv", [
        ("d1", "T1", "CHEMICAL", 0, 7, "Aspirin"),
        ("d1", "T2", "GENE-Y", 12, 17, "COX-2"),
        ("d1", "T3", "CHEMICAL", 19, 26, "Aspirin"),
        ("d1", "T4", "GENE-N", 36, 41, "COX-2"),
    ])
    relations = write(tmp_path / "relations.tsv", [
        ("d1", "CPR:4", "Y", "T3", "T4"),
    ])
    return abstracts, entities, relations


def test_loads_documents_with_joined_text(tmp_path):
    docs = load_corpus(*small_corpus(tmp_path))
    assert len(docs) == 1
    doc = docs[0]
    assert doc.doc_id == "d1"
    assert doc.text == TEXT
    assert doc.text[19:26] == "Aspirin"


def test_gene_subtypes_collapse_to_gene(tmp_path):
    docs = load_corpus(*small_corpus(tmp_path))
    types = {e.entity_id: e.etype for e in docs[0].entities}
    assert types == {"T1": "CHEMICAL", "T2": "GENE", "T3": "CHEMICAL", "T4": "GENE"}


def test_every_entity_slice_matches_surface(tmp_path):
    docs = load_corpus(*small_corpus(tmp_path))
    for doc in docs:
        for e in doc.entities:
            assert doc.text[e.char_start:e.char_end] == e.surface


def test_surface_mismatch_is_rejected_with_location(tmp_path):
    abstracts = write(tmp_path / "abstracts.tsv", [("d1", TITLE, ABSTRACT)])
    entities = write(tmp_path / "entities.tsv", [("d1", "T1", "CHEMICAL", 0, 7, "aspirin")])
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(abstracts, entities)
    assert "entities.tsv" in str(err.value)
    assert ":1:" in str(err.value)
    assert "surface" in str(err.value)


def test_malformed_offset_names_file_line_and_field(tmp_path):
    abstracts = write(tmp_path / "abstracts.tsv", [("d1", TITLE, ABSTRACT)])
    entities = write(tmp_path / "entities.tsv", [("d1", "T1", "CHEMICAL", "x", 7, "Aspirin")])
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(abstracts, entities)
    assert err.value.line_no == 1
    assert err.value.field == "offsets"


def test_relation_argument_must_exist(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv", [("d1", "CPR:4", "Y", "T9", "T4")])
    with pytest.raises(DanglingReferenceError) as err:
        load_corpus(abstracts, entities, relations)
    assert "T9" in str(err.value)
    assert "d1" in str(err.value)


def test_relation_argument_types_are_checked(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv", [("d1", "CPR:4", "Y", "T4", "T2")])
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(abstracts, entities, relations)
    assert "argument type" in str(err.value)


def test_eval_flag_must_match_group(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv", [("d1", "CPR:4", "N", "T3", "T4")])
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(abstracts, entities, relations)
    assert err.value.field == "eval_flag"


def test_eval_groups_are_exactly_the_five_scored_ones():
    flags = {f"CPR:{i}": is_eval_group(f"CPR:{i}") for i in range(1, 11)}
    assert [g for g, v in flags.items() if v] == ["CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9"]


def test_four_column_relations_derive_the_flag(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv", [("d1", "CPR:4", "Arg1:T3", "Arg2:T4")])
    docs = load_corpus(abstracts, entities, relations)
    assert docs[0].relations == (GoldRelation("CPR:4", True, "T3", "T4"),)


def test_six_column_relations_skip_the_name_column(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv",
                      [("d1", "CPR:4", "Y", "INHIBITOR", "Arg1:T3", "Arg2:T4")])
    docs = load_corpus(abstracts, entities, relations)
    assert docs[0].relations == (GoldRelation("CPR:4", True, "T3", "T4"),)


def test_duplicate_relations_are_dropped_with_warning(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv", [
        ("d1", "CPR:4", "Y", "T3", "T4"),
        ("d1", "CPR:4", "Y", "T3", "T4"),
    ])
    docs, diags = load_corpus_with_diagnostics(abstracts, entities, relations)
    assert len(docs[0].relations) == 1
    assert diags.duplicate_relations == [("d1", "CPR:4", "T3", "T4")]


def test_same_pair_with_two_labels_is_kept_and_reported(tmp_path):
    abstracts, entities, _ = small_corpus(tmp_path)
    relations = write(tmp_path / "relations.tsv", [
        ("d1", "CPR:3", "Y", "T3", "T4"),
        ("d1", "CPR:4", "Y", "T3", "T4"),
    ])
    docs, diags = load_corpus_with_diagnostics(abstracts, entities, relations)
    assert len(docs[0].relations) == 2
    assert diags.multi_label_pairs == [("d1", "T3", "T4", ("CPR:3", "CPR:4"))]


def test_save_and_reload_round_trips(tmp_path):
    docs = load_corpus(*small_corpus(tmp_path))
    out = tmp_path / "resaved"
    save_corpus(docs, out)
    again = load_corpus_dir(out)
    assert again == docs
    save_corpus(again, tmp_path / "resaved2")
    assert (tmp_path / "resaved2" / "relations.tsv").read_text() == \
        (out / "relations.tsv").read_text()


# ---------------------------------------------------------------------------
# segmentation


def test_default_segmenter_splits_two_simple_sentences():
    doc = Document("d", "A.", "B.", "A. B.")
    sents = segment(doc)
    assert sents == [Sentence(0, 0, 2), Sentence(1, 3, 5)]


def test_boundary_needs_uppercase_or_digit_after_whitespace():
    assert default_segmenter("E. coli grows. 2 strains died.") == [(0, 14), (15, 30)]


def test_decimal_points_do_not_split():
    spans = default_segmenter("Dose was 0.5 mg.")
    assert spans == [(0, 16)]


def test_sentences_cover_all_non_whitespace():
    text = "First result. Second result!  Third?"
    spans = default_segmenter(text)
    validate_sentences(text, spans)


def test_presegmented_boundaries_bypass_the_segmenter():
    doc = Document("d", "A. B.", "C.", "A. B. C.", sentence_boundaries=((0, 5), (6, 8)))
    # the built-in rule would split "A. B." in two; the supplied boundaries win
    assert segment(doc) == [Sentence(0, 0, 5), Sentence(1, 6, 8)]


def test_overlapping_boundaries_violate_the_contract():
    doc = Document("d", "abcdefgh", "", "abcdefgh ", sentence_boundaries=((0, 5), (3, 8)))
    with pytest.raises(ContractViolationError):
        segment(doc)


def test_segmenter_dropping_text_violates_the_contract():
    doc = Document("d", "one two", "", "one two ", sentence_boundaries=((0, 3),))
    with pytest.raises(ContractViolationError):
        segment(doc)


def test_empty_document_cannot_be_segmented():
    doc = Document("d", "", "", "")
    with pytest.raises(ValueError):
        segment(doc)


@st.composite
def text_and_sorted_intervals(draw):
    text = draw(st.text(alphabet="ab \t\n\u00a0\u2003.", max_size=30))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
    # consecutive cuts, each kept or dropped: adjacent sentences and gaps
    return text, [pair for pair in zip(cuts, cuts[1:]) if draw(st.booleans())]


@settings(max_examples=300, deadline=None)
@given(text_and_sorted_intervals())
def test_gap_check_matches_the_per_character_oracle(case):
    text, intervals = case
    offset = first_uncovered_offset(text, intervals)
    if offset is None:
        validate_sentences(text, intervals)
    else:
        with pytest.raises(ContractViolationError, match=f"at offset {offset} "):
            validate_sentences(text, intervals)


# ---------------------------------------------------------------------------
# corrections


def fragment_doc():
    text = "Cells were differentiated with retinoic acid and TPA."
    bad = GoldEntity("T1", "CHEMICAL", 33, 46, text[33:46])  # "tinoic acid a"
    return Document("d9", text, "", text + " ", entities=(bad,)), text


def test_misaligned_span_moves_to_the_intended_surface():
    doc, text = fragment_doc()
    assert doc.entities[0].surface == "tinoic acid a"
    start = text.index("retinoic acid")
    fixed = apply_corrections(doc, [("T1", start, start + len("retinoic acid"))])
    assert fixed.entities[0].surface == "retinoic acid"
    assert fixed.text[fixed.entities[0].char_start:fixed.entities[0].char_end] == "retinoic acid"


def test_corrections_do_not_mutate_the_input_document():
    doc, text = fragment_doc()
    start = text.index("retinoic acid")
    apply_corrections(doc, [("T1", start, start + 13)])
    assert doc.entities[0].surface == "tinoic acid a"


def test_empty_corrections_return_document_unchanged():
    doc, _ = fragment_doc()
    assert apply_corrections(doc, []) is doc


def test_unknown_correction_target_raises():
    doc, _ = fragment_doc()
    with pytest.raises(DanglingReferenceError):
        apply_corrections(doc, [("T99", 0, 4)])


def test_out_of_bounds_correction_raises():
    doc, _ = fragment_doc()
    with pytest.raises(ValueError):
        apply_corrections(doc, [("T1", 0, 10_000)])


def test_corrections_file_round_trip(tmp_path):
    path = write(tmp_path / "corrections.tsv", [("d9", "T1", 31, 44)])
    assert load_corrections(path) == {"d9": [("T1", 31, 44)]}


def test_corpus_dir_applies_corrections(tmp_path):
    doc, text = fragment_doc()
    save_corpus([doc], tmp_path)
    start = text.index("retinoic acid")
    write(tmp_path / "corrections.tsv", [("d9", "T1", start, start + 13)])
    docs = load_corpus_dir(tmp_path)
    assert docs[0].entities[0].surface == "retinoic acid"


# ---------------------------------------------------------------------------
# volume check against the published split sizes


def test_test_split_sized_entity_file_loads_with_exact_counts(tmp_path):
    """Build a file with the published test-split entity counts and reload it."""
    n_chem, n_gene = 10_810, 10_018
    per_doc = 26
    rows_a, rows_e = [], []
    remaining = [("CHEMICAL", n_chem), ("GENE", n_gene)]
    doc_no = 0
    queue = [t for t, n in remaining for _ in range(n)]
    while queue:
        chunk, queue = queue[:per_doc], queue[per_doc:]
        doc_id = f"d{doc_no}"
        doc_no += 1
        words = [f"E{i:05d}" for i in range(len(chunk))]
        title = "T."
        abstract = " ".join(words)
        rows_a.append((doc_id, title, abstract))
        offset = len(title) + 1
        for i, (etype, word) in enumerate(zip(chunk, words)):
            rows_e.append((doc_id, f"T{i}", etype, offset, offset + len(word), word))
            offset += len(word) + 1
    abstracts = write(tmp_path / "abstracts.tsv", rows_a)
    entities = write(tmp_path / "entities.tsv", rows_e)
    docs = load_corpus(abstracts, entities)
    counts = {"CHEMICAL": 0, "GENE": 0}
    for doc in docs:
        for e in doc.entities:
            counts[e.etype] += 1
    assert counts == {"CHEMICAL": 10_810, "GENE": 10_018}


# ---------------------------------------------------------------------------
# the tab-separated reader behind every input file


def full_corpus(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    small_corpus(tmp_path)
    write(tmp_path / "sentences.tsv", [("d1", 0, 18), ("d1", 19, 51), ("d1", 52, 69)])
    write(tmp_path / "corrections.tsv", [("d1", "T1", 0, 7)])
    return tmp_path


@pytest.mark.parametrize("name,width", [
    ("abstracts.tsv", 3), ("entities.tsv", 6), ("relations.tsv", "4-6"),
    ("sentences.tsv", 3), ("corrections.tsv", 4),
])
def test_wrong_field_count_names_file_line_and_width(tmp_path, name, width):
    corpus = full_corpus(tmp_path)
    load_corpus_dir(corpus)
    path = corpus / name
    path.write_text(path.read_text(encoding="utf-8") + "d1\tonly two\n", encoding="utf-8")
    line_no = len(path.read_text(encoding="utf-8").splitlines())
    with pytest.raises(CorpusFormatError) as err:
        load_corpus_dir(corpus)
    assert (err.value.line_no, err.value.field) == (line_no, "column count")
    assert str(err.value) == (f"{path}:{line_no}: bad column count: "
                              f"expected {width} tab-separated fields, got 2")


@pytest.mark.parametrize("n_cols", [3, 7])
def test_relation_rows_take_four_to_six_fields(tmp_path, n_cols):
    abstracts, entities, _ = small_corpus(tmp_path)
    row = ("d1", "CPR:4", "Y", "INHIBITOR", "Arg1:T3", "Arg2:T4", "extra")
    relations = write(tmp_path / "relations.tsv", [row[:n_cols]])
    with pytest.raises(CorpusFormatError,
                       match=f"expected 4-6 tab-separated fields, got {n_cols}"):
        load_corpus(abstracts, entities, relations)


def test_bad_byte_is_reported_on_its_own_line(tmp_path):
    path = tmp_path / "abstracts.tsv"
    path.write_bytes(b"d1\tA.\tB.\n\nd2\tA.\tok \xff here\nd3\tA.\tB.\n")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert (err.value.path, err.value.line_no, err.value.field) == (str(path), 3, "field 3")
    assert "0xff" in str(err.value)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_bare_cr_files_load_like_lf_files(tmp_path, newline):
    lf = full_corpus(tmp_path / "lf")
    other = tmp_path / "other"
    other.mkdir()
    for path in lf.iterdir():
        text = path.read_text(encoding="utf-8").replace("\n", newline)
        (other / path.name).write_bytes(text.encode("utf-8"))
    assert load_corpus_dir(other) == load_corpus_dir(lf)


def test_line_numbers_count_every_line_ending(tmp_path):
    data = b"a\tb\r\n\r\nc\td\re\n"
    rows = list(read_tsv("x.tsv", 1, 2, data=data))
    assert rows == [(1, ["a", "b"]), (3, ["c", "d"]), (4, ["e"])]


def test_load_counts_are_the_rows_kept_per_file(tmp_path):
    micro = Path(chemspan.__file__).parent / "data" / "micro"
    files = [micro / name for name in ("abstracts.tsv", "entities.tsv", "relations.tsv")]
    _, diags = load_corpus_with_diagnostics(*files)
    assert diags.line_counts == dict(zip(map(str, files), (10, 84, 38)))

    abstracts, entities, _ = small_corpus(tmp_path)
    with open(abstracts, "a", encoding="utf-8") as fh:
        fh.write(f"d2\t{TITLE}\t{ABSTRACT}\n")
    relations = write(tmp_path / "relations.tsv", [
        ("d1", "CPR:4", "Y", "T3", "T4"),
        ("d1", "CPR:3", "Y", "T1", "T2"),
        ("d1", "CPR:4", "Y", "T3", "T4"),  # a duplicate: dropped, so not counted
    ])
    sentences = tmp_path / "sentences.tsv"  # blank lines hold no row
    sentences.write_text("d1\t0\t18\n\nd1\t19\t51\nd1\t52\t69\n\nd2\t0\t69\n", encoding="utf-8")
    docs, diags = load_corpus_with_diagnostics(abstracts, entities, relations, sentences)
    assert diags.duplicate_relations == [("d1", "CPR:4", "T3", "T4")]
    assert [len(doc.sentence_boundaries) for doc in docs] == [3, 1]
    assert diags.line_counts == {str(abstracts): 2, str(entities): 4, str(relations): 2,
                                 str(sentences): 4}
