"""Span-based entity recognition.

Every token span of width 1..max_span_width is a candidate; each candidate
is classified independently as CHEMICAL, GENE, or null from the contextual
embeddings of its boundary tokens plus a learned width embedding. There is
no overlap suppression: nested and overlapping predictions are legitimate
and the relation stage depends on them.
"""

import logging
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import DocView, recoverable_entities
from .corpus import ENTITY_TYPES, Document
from .encoder import QUIET_FLOATS, EncoderModel, _softmax_rows
from .errors import NonFiniteError, OverLengthError

log = logging.getLogger(__name__)

NER_LABELS = ENTITY_TYPES + ("null",)  # argmax takes the first on ties
NULL_LABEL = NER_LABELS.index("null")


@dataclass(frozen=True)
class SpanCandidate:
    sent_id: int
    token_start: int  # sentence-relative, inclusive
    token_end: int    # sentence-relative, inclusive

    @property
    def width(self) -> int:
        return self.token_end - self.token_start + 1


@dataclass(frozen=True)
class SpanMention:
    """A typed span with both token and character coordinates."""

    doc_id: str
    sent_id: int
    token_start: int
    token_end: int
    etype: str
    char_start: int
    char_end: int
    prob: float = 1.0


def span_count(n_tokens: int, max_width: int) -> int:
    """The number of candidate spans, as `candidate_spans` enumerates them."""
    return len(candidate_spans(n_tokens, max_width)[0])


def candidate_spans(n_tokens: int, max_width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Start and end token of every candidate span, ordered by (start, width), as int arrays."""
    counts = np.minimum(max(min(max_width, n_tokens), 0), np.arange(n_tokens, 0, -1))
    starts = np.repeat(np.arange(n_tokens), counts)
    return starts, starts + np.arange(len(starts)) - np.repeat(np.cumsum(counts) - counts, counts)


def enumerate_spans(n_tokens: int, max_width: int, sent_id: int = 0) -> List[SpanCandidate]:
    """All candidate spans ordered by (start, width), as objects."""
    return list(SpanArrays(*candidate_spans(n_tokens, max_width), sent_id))


class SpanArrays:
    """One sentence's candidate spans: sentence-relative ``starts`` and ``ends``
    int arrays in `enumerate_spans` order. It iterates as `SpanCandidate`s."""

    def __init__(self, starts: np.ndarray, ends: np.ndarray, sent_id: int = 0):
        self.starts, self.ends, self.sent_id = starts, ends, sent_id

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[SpanCandidate]:
        return map(partial(SpanCandidate, self.sent_id), self.starts.tolist(), self.ends.tolist())

    def labels(self, gold: Dict[Tuple[int, int], str]) -> np.ndarray:
        """Label index per span: its type in ``gold``, whose spans must all be here, else null."""
        labels = np.full(len(self), NULL_LABEL, dtype=np.int64)
        if gold:  # one lookup: the spans from s run by width, so (s, e) is the first plus e - s
            s, e = np.array(list(gold), dtype=np.int64).T
            labels[np.searchsorted(self.starts, s) + e - s] = [NER_LABELS.index(t)
                                                               for t in gold.values()]
        return labels


def split_context(left_supply: int, right_supply: int, budget: int) -> Tuple[int, int]:
    """Split a context token budget as evenly as possible across both sides.

    The odd token goes right; budget a side cannot fill spills to the other.
    """
    if budget <= 0:
        return 0, 0
    left_budget = budget // 2
    right_budget = budget - left_budget
    left = min(left_supply, left_budget)
    right = min(right_supply, right_budget)
    spare = budget - left - right
    if spare > 0:
        extra_right = min(spare, right_supply - right)
        right += extra_right
        spare -= extra_right
        left += min(spare, left_supply - left)
    return left, right


class Window(tuple):
    """The symbols of one NER encoder input; windows hash and compare by identity."""
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


@dataclass
class WindowedInput:
    symbols: Sequence[str]
    sent_offset: int  # index of the sentence's first token inside symbols


def build_windowed_input(sent_surfaces: Sequence[str], left_context: Sequence[str],
                         right_context: Sequence[str], budget: int, max_len: int,
                         reserved: int = 0) -> WindowedInput:
    """Surround a sentence with up to ``budget`` context tokens.

    ``reserved`` counts extra symbols the caller will add later (markers,
    a sequence-start token) so they are charged against max_len here. When
    sentence plus reserved symbols already exceed max_len this raises:
    context can shrink, the sentence cannot.
    """
    n_sent = len(sent_surfaces)
    room = max_len - n_sent - reserved
    if room < 0:
        raise OverLengthError(
            f"sentence of {n_sent} tokens (+{reserved} reserved) exceeds max_len={max_len}")
    left, right = split_context(len(left_context), len(right_context), min(budget, room))
    taken_left = list(left_context[len(left_context) - left:]) if left else []
    taken_right = list(right_context[:right])
    return WindowedInput(taken_left + list(sent_surfaces) + taken_right, len(taken_left))


@dataclass
class NerExample:
    """One sentence prepared for training or prediction."""

    doc_id: str
    sent_id: int
    windowed: WindowedInput
    candidates: SpanArrays  # a caller's list of SpanCandidate is turned into arrays
    labels: Optional[np.ndarray]  # int per candidate, or None at predict time
    token_chars: List[Tuple[int, int]]  # per sentence token, absolute offsets

    def __post_init__(self):
        if not isinstance(self.windowed.symbols, Window):  # a caller's list: a window of its own
            self.windowed = WindowedInput(Window(self.windowed.symbols), self.windowed.sent_offset)
        if not isinstance(self.candidates, SpanArrays):
            pairs = np.array([(c.token_start, c.token_end) for c in self.candidates], np.int64)
            self.candidates = SpanArrays(*pairs.reshape(-1, 2).T, self.sent_id)
        off, spans = self.windowed.sent_offset, self.candidates
        # window-relative start and end token, and width - 1, of each candidate
        self.span_index = spans.starts + off, spans.ends + off, spans.ends - spans.starts


def _scatter_rows(rows: List[np.ndarray], blocks: List[np.ndarray], n: int) -> np.ndarray:
    """``np.add.at(np.zeros((n, d)), rows[k], blocks[k])`` for each k in turn, bitwise:
    one `np.bincount` sums each element in input order, starting from zero."""
    values = np.concatenate(blocks)
    d = values.shape[1]
    index = np.concatenate(rows)[:, None] * d + np.arange(d)
    return np.bincount(index.ravel(), values.ravel(), n * d).reshape(n, d)


class NerModel(EncoderModel):
    """Span classifier over a trainable encoder."""

    def _build_head(self):
        ec, nc = self.config.encoder, self.config.ner
        rng = np.random.default_rng(self.seed + 101)
        rep_dim = 2 * ec.dim + nc.width_dim
        return {
            "ner.width_emb": rng.normal(0.0, 0.1, (nc.max_span_width, nc.width_dim)),
            "ner.w": rng.normal(0.0, rep_dim ** -0.5, (rep_dim, len(NER_LABELS))),
            "ner.b": np.zeros(len(NER_LABELS)),
        }

    # -- data preparation ----------------------------------------------------

    def prepare_documents(self, docs: Sequence[Document]) -> List[NerExample]:
        """Window and label every sentence of the documents.

        Supervision uses recoverable gold entities only; gold spans wider
        than the span limit cannot be represented and are logged.
        """
        examples = []
        too_wide = 0
        for doc in docs:
            view_examples, skipped = self.prepare_view(DocView.build(doc))
            examples.extend(view_examples)
            too_wide += skipped
        if too_wide:
            log.info("NER supervision skipped %d gold entities wider than %d tokens",
                     too_wide, self.config.ner.max_span_width)
        return examples

    def prepare_view(self, view: DocView, with_labels: bool = True
                     ) -> Tuple[List[NerExample], int]:
        """One document's examples, and how many gold entities were too wide to label.

        Sentences whose windows cover the same extent of ``view.flat_surfaces``
        share one `Window`, which the encoding passes key on.
        A sentence longer than ``max_len`` raises `OverLengthError` naming the
        document and the sentence.
        """
        ec, nc = self.config.encoder, self.config.ner
        windows: Dict[Tuple[int, int], Window] = {}
        examples = []
        too_wide = 0
        recoverable = recoverable_entities(view) if with_labels else {}
        for k, sent in enumerate(view.sentences):
            n = len(view.offsets[k])
            if not n:
                continue
            lo = view.sent_flat_start[k]
            try:
                windowed = build_windowed_input(view.flat_surfaces[lo:lo + n], *view.context(k),
                                                nc.context_window, ec.max_len)
            except OverLengthError:
                raise OverLengthError(
                    f"document {view.doc.doc_id!r} sentence {sent.sent_id}: {n} tokens exceed "
                    f"max_len={ec.max_len}; context can shrink, the sentence cannot") from None
            left = windowed.sent_offset
            extent = (lo - left, lo - left + len(windowed.symbols))
            if extent not in windows:
                windows[extent] = Window(windowed.symbols)
            spans = SpanArrays(*candidate_spans(n, nc.max_span_width), sent.sent_id)
            labels = None
            if with_labels:
                aligned = [a for _, a in recoverable.get(k, ())]
                too_wide += sum(a.token_end - a.token_start >= nc.max_span_width for a in aligned)
                gold = {(a.token_start, a.token_end): a.etype for a in aligned
                        if a.token_end - a.token_start < nc.max_span_width}
                labels = spans.labels(gold)
            examples.append(NerExample(
                view.doc.doc_id, sent.sent_id, WindowedInput(windows[extent], left), spans,
                labels, view.offsets[k]))
        return examples, too_wide

    # -- forward / loss ------------------------------------------------------

    def _probs(self, example: NerExample, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each candidate's representation from the window encoding ``h``, and its softmax."""
        starts, ends, widths = example.span_index
        reps = np.concatenate([h[starts], h[ends], self.head["ner.width_emb"][widths]], axis=1)
        return reps, _softmax_rows(reps @ self.head["ner.w"] + self.head["ner.b"])

    def _picks(self, example: NerExample, encoding: Optional[np.ndarray]):
        """Argmax label index and its probability for every candidate, as arrays."""
        if not example.candidates:  # nothing to encode
            return np.zeros(0, np.int64), np.zeros(0)
        h = self.encoder.encode(example.windowed.symbols) if encoding is None else encoding
        probs = self._probs(example, h)[1]
        if not np.isfinite(probs).all():
            raise NonFiniteError(f"document {example.doc_id!r} sentence {example.sent_id}: "
                                 "span probabilities hold NaN or infinity")
        picks = probs.argmax(axis=1)  # first index wins ties: CHEMICAL < GENE < null
        return picks, probs[np.arange(len(picks)), picks]

    def classify_spans(self, example: NerExample, encoding: Optional[np.ndarray] = None
                       ) -> List[Tuple[SpanCandidate, str, float]]:
        """Argmax label and its probability for every candidate span.

        ``encoding`` is the encoder output for ``example.windowed.symbols``,
        when the caller has it already; without it the window is encoded here.
        """
        picks, probs = self._picks(example, encoding)
        return [(c, NER_LABELS[k], p)
                for c, k, p in zip(example.candidates, picks.tolist(), probs.tolist())]

    def predict_mentions(self, example: NerExample, encoding: Optional[np.ndarray] = None
                         ) -> List[SpanMention]:
        """Non-null candidates as typed mentions with character offsets, built without
        `classify_spans`: the only objects made are the mentions."""
        picks, probs = self._picks(example, encoding)
        keep = np.flatnonzero(picks != NULL_LABEL)
        spans, chars = example.candidates, example.token_chars
        return [SpanMention(example.doc_id, example.sent_id, s, e, NER_LABELS[k],
                            chars[s][0], chars[e][1], p)
                for s, e, k, p in zip(spans.starts[keep].tolist(), spans.ends[keep].tolist(),
                                      picks[keep].tolist(), probs[keep].tolist())]

    @QUIET_FLOATS
    def predict_view(self, view: DocView) -> List[SpanMention]:
        """One document's mentions in sentence order, each window encoded once; a non-finite
        probability raises `NonFiniteError` without numpy warnings."""
        encodings: Dict[Window, np.ndarray] = {}
        mentions = []
        for example in self.prepare_view(view, with_labels=False)[0]:
            window = example.windowed.symbols
            if window not in encodings:
                encodings[window] = self.encoder.encode(window)
            mentions.extend(self.predict_mentions(example, encodings[window]))
        return mentions

    def loss_and_grads(self, batch: Sequence[NerExample]):
        """Mean cross-entropy over every candidate span in the batch.

        The batch is walked window by window, in order of first appearance:
        one forward pass, the window's examples in batch order adding their
        span gradients into one output gradient, and one backward pass. The
        encoder's gradients equal those of one backward per example up to the
        order of float summation. The output gradient, and the width
        embeddings' over the batch, are one `_scatter_rows` each.
        """
        grads = self.zero_grads()
        total_spans = sum(len(ex.candidates) for ex in batch)
        if total_spans == 0:
            return 0.0, grads
        windows: Dict[Window, List[NerExample]] = {}
        for ex in batch:
            if ex.candidates:
                windows.setdefault(ex.windowed.symbols, []).append(ex)
        d = self.encoder.dim
        loss = 0.0
        widths, width_grads = [], []
        for window, examples in windows.items():
            h, cache = self.encoder.forward(window)
            boundaries, boundary_grads = [], []  # start then end rows of each example
            for ex in examples:
                reps, probs = self._probs(ex, h)
                rows = np.arange(len(ex.candidates))
                loss += float(-np.log(probs[rows, ex.labels] + 1e-300).sum())
                dlogits = probs
                dlogits[rows, ex.labels] -= 1.0
                dlogits /= total_spans
                grads["ner.w"] += reps.T @ dlogits
                grads["ner.b"] += dlogits.sum(axis=0)
                dreps = dlogits @ self.head["ner.w"].T
                boundaries += ex.span_index[:2]
                boundary_grads += dreps[:, :d], dreps[:, d:2 * d]
                widths.append(ex.span_index[2])
                width_grads.append(dreps[:, 2 * d:])
            self.encoder.backward(cache, _scatter_rows(boundaries, boundary_grads, len(h)), grads)
        grads["ner.width_emb"] += _scatter_rows(widths, width_grads, len(grads["ner.width_emb"]))
        return loss / total_spans, grads


def train_ner(model: NerModel, examples: Sequence[NerExample], seed: int = 0) -> List[float]:
    """Adam training over prepared sentences; returns per-epoch mean loss.

    Each batch counts in the epoch mean by its number of candidate spans.
    Sentences that share a window are batched together: at most windows + batches - 1 passes.
    """
    labeled = [ex for ex in examples if ex.labels is not None]
    return model.fit(labeled, lambda batch: sum(len(ex.candidates) for ex in batch),
                     model.config.ner, seed, key=lambda ex: ex.windowed.symbols)
