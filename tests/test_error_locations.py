"""Corpus errors name the file and line, or the document, that holds the fault.

Each case breaks one file of a two-document micro corpus and runs
`align-stats`, which must exit 2 with one `error:` line that holds the
loader's wording and names the file and line, the file, or the document.
"""

import pytest

from chemspan.cli import main
from chemspan.corpus import save_corpus
from chemspan.microcorpus import build_micro_corpus


def append_row(path, *row):
    """Add a row to a corpus file and return its line number."""
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    path.write_text("".join(f"{line}\n" for line in lines + ["\t".join(map(str, row))]),
                    encoding="utf-8")
    return len(lines) + 1


def bad_entity_document(corpus):
    line = append_row(corpus / "entities.tsv", "NOPE", "T1", "CHEMICAL", 0, 3, "Cor")
    return (f"{corpus / 'entities.tsv'}:{line}: document 'NOPE': dangling reference 'T1' "
            "(entity for unknown document)")


def bad_relation_document(corpus):
    line = append_row(corpus / "relations.tsv", "NOPE", "CPR:4", "Y", "T1", "T2")
    return (f"{corpus / 'relations.tsv'}:{line}: document 'NOPE': dangling reference 'T1' "
            "(relation for unknown document)")


def bad_relation_argument(corpus):
    line = append_row(corpus / "relations.tsv", "MICRO0", "CPR:4", "Y", "T9", "T2")
    return (f"{corpus / 'relations.tsv'}:{line}: document 'MICRO0': dangling reference 'T9' "
            "(relation argument not in entity file)")


def bad_sentence_document(corpus):
    line = append_row(corpus / "sentences.tsv", "NOPE", 0, 5)
    return (f"{corpus / 'sentences.tsv'}:{line}: document 'NOPE': dangling reference "
            "'[0,5)' (sentence for unknown document)")


def overlapping_sentences(corpus):
    append_row(corpus / "sentences.tsv", "MICRO0", 0, 20)
    append_row(corpus / "sentences.tsv", "MICRO0", 5, 30)
    return ("document 'MICRO0' (sentences.tsv): "
            "sentence [5,30) overlaps or precedes previous end 20")


def out_of_bounds_correction(corpus):
    append_row(corpus / "corrections.tsv", "MICRO0", "T1", 0, 99999)
    return (f"correction for MICRO0/T1 in {corpus / 'corrections.tsv'}: [0,99999) "
            "out of bounds for text of length 225")


def unknown_correction_target(corpus):
    append_row(corpus / "corrections.tsv", "MICRO0", "T99", 0, 4)
    return (f"{corpus / 'corrections.tsv'}: document 'MICRO0': dangling reference 'T99' "
            "(correction target)")


def unknown_correction_document(corpus):
    append_row(corpus / "corrections.tsv", "NOPE", "T1", 0, 99999)
    return (f"{corpus / 'corrections.tsv'}: document 'NOPE': dangling reference 'T1' "
            "(correction for unknown document)")


@pytest.mark.parametrize("break_corpus", [
    bad_entity_document, bad_relation_document, bad_relation_argument,
    bad_sentence_document, overlapping_sentences, out_of_bounds_correction,
    unknown_correction_target, unknown_correction_document,
])
def test_corpus_error_names_where_the_fault_is(tmp_path, capsys, break_corpus):
    corpus = tmp_path / "corpus"
    save_corpus(build_micro_corpus()[:2], corpus)
    message = break_corpus(corpus)
    assert main(["align-stats", "--corpus", str(corpus),
                 "--report", str(tmp_path / "loss.txt")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
