"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written without importing chemspan and
without regular expressions, matrix shortcuts, or shared helpers, so that
agreement between these oracles and the real implementations is evidence
rather than tautology.
"""

import math


# ---------------------------------------------------------------------------
# tokenization oracle: explicit character scanner

def _is_letter(ch):
    return ("A" <= ch <= "Z") or ("a" <= ch <= "z") or ("α" <= ch <= "ω") or ("Α" <= ch <= "Ω")


def _is_ascii_digit(ch):
    return "0" <= ch <= "9"


def scan_tokens(text):
    """Tokenize by scanning characters one at a time.

    Maximal letter runs (Latin or Greek), maximal ASCII digit runs, and
    single-character tokens for everything else that is not whitespace.
    Returns (surface, start, end) triples with end exclusive.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if _is_letter(ch):
            while j < n and _is_letter(text[j]):
                j += 1
        elif _is_ascii_digit(ch):
            while j < n and _is_ascii_digit(text[j]):
                j += 1
        out.append((text[i:j], i, j))
        i = j
    return out


# ---------------------------------------------------------------------------
# span enumeration oracle: brute force over all (start, end) pairs

def brute_force_spans(n_tokens, max_width):
    """Every (start, end) token span of width 1..max_width, as a set."""
    spans = set()
    for start in range(n_tokens):
        for end in range(start, n_tokens):
            if end - start + 1 <= max_width:
                spans.add((start, end))
    return spans


# ---------------------------------------------------------------------------
# scoring oracle: quadratic pairwise matcher over item lists

def pairwise_prf(gold_items, pred_items):
    """Match gold and predicted items by exact equality, one-to-one.

    Returns (tp, fp, fn, precision, recall, f1) with the zero-denominator
    conventions: empty predictions give precision 0, empty gold gives
    recall 0, and f1 is 0 whenever p + r is 0.
    """
    gold = list(gold_items)
    pred = list(pred_items)
    used = [False] * len(pred)
    tp = 0
    for g in gold:
        for k, p in enumerate(pred):
            if not used[k] and p == g:
                used[k] = True
                tp += 1
                break
    fp = len(pred) - tp
    fn = len(gold) - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, fn, precision, recall, f1


# ---------------------------------------------------------------------------
# finite-difference oracle for gradients

def central_difference(loss_fn, array, index, epsilon):
    """d loss / d array[index] by central differences, restoring the entry."""
    original = array[index]
    array[index] = original + epsilon
    hi = loss_fn()
    array[index] = original - epsilon
    lo = loss_fn()
    array[index] = original
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ArithmeticError("non-finite loss during finite differencing")
    return (hi - lo) / (2.0 * epsilon)


# ---------------------------------------------------------------------------
# sentence coverage oracle: mark every covered character

def first_uncovered_offset(text, intervals):
    """Offset of the first non-whitespace character no interval covers, or None.

    The intervals must already be in bounds; they may be in any order.
    """
    covered = [False] * len(text)
    for start, end in intervals:
        for i in range(start, end):
            covered[i] = True
    for i, ch in enumerate(text):
        if not ch.isspace() and not covered[i]:
            return i
    return None
