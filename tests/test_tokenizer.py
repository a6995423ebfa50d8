"""Tokenizer unit and property tests against the character-scanner oracle."""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspan.tokenizer import Token, tokenize, tokenize_sentence

from oracles import scan_tokens


def triples(tokens):
    return [(t.surface, t.char_start, t.char_end) for t in tokens]


# Frozen expectations. The first two come from the transporter and kinase
# mutation examples; the rest were produced by running scan_tokens by hand.
TRANSPORTER = "Na+-K+-2Cl- cotransporter"
TRANSPORTER_TOKENS = [
    ("Na", 0, 2), ("+", 2, 3), ("-", 3, 4), ("K", 4, 5), ("+", 5, 6),
    ("-", 6, 7), ("2", 7, 8), ("Cl", 8, 10), ("-", 10, 11),
    ("cotransporter", 12, 25),
]

def test_transporter_surface_splits_into_ten_tokens():
    assert triples(tokenize(TRANSPORTER)) == TRANSPORTER_TOKENS


def test_mutation_string_splits_letters_digits_letters():
    assert triples(tokenize("KITD816V")) == [("KITD", 0, 4), ("816", 4, 7), ("V", 7, 8)]


def test_empty_text_yields_no_tokens():
    assert tokenize("") == []


def test_greek_letter_is_its_own_token_after_digit():
    assert triples(tokenize("IL-2 β")) == [("IL", 0, 2), ("-", 2, 3), ("2", 3, 4), ("β", 5, 6)]


def test_mixed_latin_greek_run_is_one_token():
    assert triples(tokenize("Aβ42")) == [("Aβ", 0, 2), ("42", 2, 4)]


def test_final_sigma_stays_inside_letter_run():
    assert triples(tokenize("λογος")) == [("λογος", 0, 5)]


def test_accented_greek_falls_outside_letter_run():
    # tonos forms sit above U+03C9 and are singletons, like any other symbol
    assert triples(tokenize("λόγος")) == [("λ", 0, 1), ("ό", 1, 2), ("γος", 2, 5)]


def test_unicode_whitespace_separates_tokens():
    # NBSP is not matched by the catch-all class, so it splits like a space.
    assert triples(tokenize("a b")) == [("a", 0, 1), ("b", 2, 3)]


def test_non_ascii_digits_are_singletons():
    # Arabic-Indic digits are excluded from the digit run class on purpose.
    assert triples(tokenize("١٢")) == [("١", 0, 1), ("٢", 1, 2)]


def test_token_indices_count_up_from_zero():
    assert [t.index for t in tokenize("Na+-K+")] == [0, 1, 2, 3, 4]


def test_offsets_slice_back_to_surfaces():
    text = "10 μM EHT 1864 blocked Rac1 (p<0.05)."
    for t in tokenize(text):
        assert text[t.char_start:t.char_end] == t.surface


def test_surfaces_concatenate_to_text_without_whitespace():
    text = "Effects of α-bungarotoxin\ton nAChR-α7;  n=12."
    joined = "".join(t.surface for t in tokenize(text))
    assert joined == "".join(ch for ch in text if not ch.isspace())


def test_tokenization_is_idempotent_on_surfaces():
    for t in tokenize("Na+-K+-2Cl- cotransporter NKCC1 (rat)"):
        again = tokenize(t.surface)
        assert len(again) == 1
        assert again[0].surface == t.surface


def test_repeated_calls_are_identical():
    text = "KITD816V and IL-2 β"
    assert tokenize(text) == tokenize(text)


class _Sent:
    def __init__(self, s, e):
        self.char_start = s
        self.char_end = e


class _Doc:
    def __init__(self, text):
        self.text = text


def test_sentence_tokens_carry_absolute_offsets():
    doc = _Doc("Efflux Cl- rose.")
    sent = _Sent(7, 10)  # the slice "Cl-"
    assert triples(tokenize_sentence(doc, sent)) == [("Cl", 7, 9), ("-", 9, 10)]


def test_sentence_tokens_equal_shifted_slice_tokens():
    doc = _Doc("First part. Second α2 part.")
    sent = _Sent(12, 27)
    shifted = [
        Token(t.index, t.surface, t.char_start + 12, t.char_end + 12)
        for t in tokenize(doc.text[12:27])
    ]
    assert tokenize_sentence(doc, sent) == shifted


ALPHABET = string.ascii_letters + string.digits + "αβγδως ΔΣΩ+-.,;()[]/%<>=*'\"\t\n ١"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=60))
def test_matches_character_scanner_oracle(text):
    assert triples(tokenize(text)) == scan_tokens(text)


def test_matches_oracle_on_seeded_random_strings():
    rng = random.Random(20260814)
    for _ in range(2000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 50)))
        assert triples(tokenize(text)) == scan_tokens(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=60))
def test_tokens_are_ordered_and_disjoint(text):
    tokens = tokenize(text)
    for a, b in zip(tokens, tokens[1:]):
        assert a.char_end <= b.char_start
    for t in tokens:
        assert t.char_start < t.char_end
        assert not any(ch.isspace() for ch in t.surface)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=60), st.data())
def test_sentence_bounds_give_the_oracle_tokens_of_the_slice(text, data):
    # tokenize_sentence matches within the bounds instead of tokenizing a copied slice
    start = data.draw(st.integers(0, len(text)))
    end = data.draw(st.integers(start, len(text)))
    expected = [(s, a + start, b + start) for s, a, b in scan_tokens(text[start:end])]
    tokens = tokenize_sentence(_Doc(text), _Sent(start, end))
    assert triples(tokens) == expected
    assert [t.index for t in tokens] == list(range(len(expected)))
    assert tokenize(text, start, end) == tokens
