"""Span-based entity recognition.

Every token span of width 1..max_span_width is a candidate; each candidate
is classified independently as CHEMICAL, GENE, or null from the contextual
embeddings of its boundary tokens plus a learned width embedding. There is
no overlap suppression: nested and overlapping predictions are legitimate
and the relation stage depends on them.
"""

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import DocView, recoverable_entities
from .config import PipelineConfig
from .corpus import ENTITY_TYPES, Document
from .encoder import EncoderModel, _softmax_rows
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
    """Closed form for the number of candidates: sum over widths of n-w+1."""
    if n_tokens <= 0 or max_width <= 0:
        return 0
    top = min(max_width, n_tokens)
    # widths 1..top contribute n, n-1, ..., n-top+1
    return top * n_tokens - (top * (top - 1)) // 2


def enumerate_spans(n_tokens: int, max_width: int, sent_id: int = 0) -> List[SpanCandidate]:
    """All candidate spans ordered by (start, width)."""
    out = []
    for start in range(n_tokens):
        for end in range(start, min(start + max_width, n_tokens)):
            out.append(SpanCandidate(sent_id, start, end))
    return out


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
    candidates: List[SpanCandidate]
    labels: Optional[np.ndarray]  # int per candidate, or None at predict time
    token_chars: List[Tuple[int, int]]  # per sentence token, absolute offsets

    def __post_init__(self):
        if not isinstance(self.windowed.symbols, Window):  # a caller's list: a window of its own
            self.windowed = WindowedInput(Window(self.windowed.symbols), self.windowed.sent_offset)

    @cached_property
    def span_index(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window-relative start and end token, and width - 1, of each candidate.

        Built on first use and kept, so ``windowed`` and ``candidates`` must
        not change after it.
        """
        off = self.windowed.sent_offset
        return (np.fromiter((off + c.token_start for c in self.candidates), np.int64),
                np.fromiter((off + c.token_end for c in self.candidates), np.int64),
                np.fromiter((c.width - 1 for c in self.candidates), np.int64))


class NerModel(EncoderModel):
    """Span classifier over a trainable encoder."""

    def __init__(self, config: Optional[PipelineConfig] = None, seed: int = 0):
        super().__init__(config, seed)
        ec = self.config.encoder
        nc = self.config.ner
        rng = np.random.default_rng(seed + 101)
        rep_dim = 2 * ec.dim + nc.width_dim
        self.head = {
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
        nc = self.config.ner
        ec = self.config.encoder
        flat = view.flat_surfaces
        windows: Dict[Tuple[int, int], Window] = {}
        examples = []
        too_wide = 0
        recoverable = recoverable_entities(view) if with_labels else {}
        for k, sent in enumerate(view.sentences):
            n = len(view.tokens[k])
            if not n:
                continue
            if n > ec.max_len:
                raise OverLengthError(
                    f"document {view.doc.doc_id!r} sentence {sent.sent_id}: {n} tokens "
                    f"exceed max_len={ec.max_len}; context can shrink, the sentence cannot")
            lo = view.sent_flat_start[k]
            left, right = split_context(lo, len(flat) - lo - n,
                                        min(nc.context_window, ec.max_len - n))
            extent = (lo - left, lo + n + right)
            if extent not in windows:
                windows[extent] = Window(flat[extent[0]:extent[1]])
            candidates = enumerate_spans(n, nc.max_span_width, sent.sent_id)
            labels = None
            if with_labels:
                gold: Dict[Tuple[int, int], str] = {}
                for _, a in recoverable.get(k, ()):
                    if a.token_end - a.token_start + 1 > nc.max_span_width:
                        too_wide += 1
                    else:
                        gold[(a.token_start, a.token_end)] = a.etype
                labels = np.full(len(candidates), NULL_LABEL, dtype=np.int64)
                for i, c in enumerate(candidates):
                    etype = gold.get((c.token_start, c.token_end))
                    if etype is not None:
                        labels[i] = NER_LABELS.index(etype)
            examples.append(NerExample(
                view.doc.doc_id, sent.sent_id, WindowedInput(windows[extent], left), candidates,
                labels, [(t.char_start, t.char_end) for t in view.tokens[k]]))
        return examples, too_wide

    # -- forward / loss ------------------------------------------------------

    def _span_reps(self, example: NerExample, h: np.ndarray) -> np.ndarray:
        starts, ends, widths = example.span_index
        return np.concatenate(
            [h[starts], h[ends], self.head["ner.width_emb"][widths]], axis=1)

    def _logits(self, reps: np.ndarray) -> np.ndarray:
        return reps @ self.head["ner.w"] + self.head["ner.b"]

    def classify_spans(self, example: NerExample, encoding: Optional[np.ndarray] = None
                       ) -> List[Tuple[SpanCandidate, str, float]]:
        """Argmax label and its probability for every candidate span.

        ``encoding`` is the encoder output for ``example.windowed.symbols``,
        when the caller has it already; without it the window is encoded here.
        """
        if not example.candidates:
            return []
        h = self.encoder.encode(example.windowed.symbols) if encoding is None else encoding
        reps = self._span_reps(example, h)
        probs = _softmax_rows(self._logits(reps))
        if not np.isfinite(probs).all():
            raise NonFiniteError(f"document {example.doc_id!r} sentence {example.sent_id}: "
                                 "span probabilities hold NaN or infinity")
        picks = probs.argmax(axis=1)  # first index wins ties: CHEMICAL < GENE < null
        return [(c, NER_LABELS[picks[i]], float(probs[i, picks[i]]))
                for i, c in enumerate(example.candidates)]

    def predict_mentions(self, example: NerExample, encoding: Optional[np.ndarray] = None
                         ) -> List[SpanMention]:
        """Non-null candidates as typed mentions with character offsets."""
        mentions = []
        for candidate, label, prob in self.classify_spans(example, encoding):
            if label == "null":
                continue
            mentions.append(SpanMention(
                example.doc_id, example.sent_id, candidate.token_start,
                candidate.token_end, label,
                example.token_chars[candidate.token_start][0],
                example.token_chars[candidate.token_end][1],
                prob))
        return mentions

    def predict_view(self, view: DocView) -> List[SpanMention]:
        """One document's predicted mentions in sentence order, each window encoded once."""
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
        order of float summation.
        """
        grads = self.zero_grads()
        total_spans = sum(len(ex.candidates) for ex in batch)
        if total_spans == 0:
            return 0.0, grads
        windows: Dict[Window, List[NerExample]] = {}
        for ex in batch:
            if ex.candidates:
                windows.setdefault(ex.windowed.symbols, []).append(ex)
        loss = 0.0
        for window, examples in windows.items():
            h, cache = self.encoder.forward(window)
            dh = np.zeros_like(h)
            for ex in examples:
                reps = self._span_reps(ex, h)
                probs = _softmax_rows(self._logits(reps))
                rows = np.arange(len(ex.candidates))
                loss += float(-np.log(probs[rows, ex.labels] + 1e-300).sum())
                dlogits = probs
                dlogits[rows, ex.labels] -= 1.0
                dlogits /= total_spans
                grads["ner.w"] += reps.T @ dlogits
                grads["ner.b"] += dlogits.sum(axis=0)
                dreps = dlogits @ self.head["ner.w"].T
                d = self.encoder.dim
                starts, ends, widths = ex.span_index
                np.add.at(dh, starts, dreps[:, :d])
                np.add.at(dh, ends, dreps[:, d:2 * d])
                np.add.at(grads["ner.width_emb"], widths, dreps[:, 2 * d:])
            self.encoder.backward(cache, dh, grads)
        return loss / total_spans, grads


def train_ner(model: NerModel, examples: Sequence[NerExample], seed: int = 0) -> List[float]:
    """Adam training over prepared sentences; returns per-epoch mean loss.

    Each batch counts in the epoch mean by its number of candidate spans.
    Sentences that share a window are batched together: at most windows + batches - 1 passes.
    """
    labeled = [ex for ex in examples if ex.labels is not None]
    return model.fit(labeled, lambda batch: sum(len(ex.candidates) for ex in batch),
                     model.config.ner, seed, key=lambda ex: ex.windowed.symbols)
