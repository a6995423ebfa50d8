"""Mapping gold character annotations onto token spans, and loss accounting.

A gold entity is recoverable when some token starts exactly at its first
character and some same-or-later token ends exactly at its last. Entities
that start or end mid-token, or that cross a sentence boundary, cannot be
represented by any token span; they and every relation touching them are
counted here once, up front, so downstream recall denominators stay honest.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .corpus import Document, GoldEntity, Sentence, _ints, read_tsv, segment
from .tokenizer import Token, token_offsets

REASON_UNALIGNABLE = "unalignable"
REASON_CROSS_SENTENCE = "cross-sentence"
REASON_LOST_ARGUMENT = "lost-argument"
REASON_CROSS_SENTENCE_PAIR = "cross-sentence-pair"


@dataclass(frozen=True)
class AlignedEntity:
    entity_id: str
    etype: str
    recoverable: bool
    token_start: Optional[int] = None  # sentence-relative, inclusive
    token_end: Optional[int] = None
    reason: str = ""


def align_entity(entity: GoldEntity, tokens: Sequence[Token]) -> AlignedEntity:
    """Align one gold entity against the tokens of its sentence.

    Token offsets must be document-absolute (see tokenize_sentence). The
    aligned span is minimal: the unique token starting at char_start through
    the first token ending at char_end.
    """
    return _align(entity, [(t.char_start, t.char_end) for t in tokens])


def _align(entity: GoldEntity, offsets: Sequence[Tuple[int, int]]) -> AlignedEntity:
    """`align_entity` over the sentence's ordered ``(char_start, char_end)`` pairs; the
    first token is found by bisection."""
    start_idx = bisect_left(offsets, (entity.char_start,))
    if start_idx < len(offsets) and offsets[start_idx][0] == entity.char_start:
        for j in range(start_idx, len(offsets)):
            if offsets[j][1] == entity.char_end:
                return AlignedEntity(entity.entity_id, entity.etype, True, start_idx, j)
            if offsets[j][1] > entity.char_end:
                break
    return AlignedEntity(entity.entity_id, entity.etype, False, reason=REASON_UNALIGNABLE)


@dataclass
class DocView:
    """A document with its segmentation and per-sentence token offsets precomputed.

    offsets[k] holds the document-absolute ``(char_start, char_end)`` pair of
    each token of sentence k. flat_surfaces concatenates every sentence's
    token surfaces in document order; sent_flat_start[k] is where sentence k
    begins in that flat list, which is what the context windowing code
    slices against.
    """

    doc: Document
    sentences: List[Sentence]
    offsets: List[List[Tuple[int, int]]]  # per sentence
    flat_surfaces: List[str]
    sent_flat_start: List[int]

    @classmethod
    def build(cls, doc: Document) -> "DocView":
        sentences = segment(doc)
        text = doc.text
        offsets = [token_offsets(text, s.char_start, s.char_end) for s in sentences]
        flat = [text[a:b] for pairs in offsets for a, b in pairs]
        return cls(doc, sentences, offsets, flat,
                   list(accumulate(map(len, offsets), initial=0))[:-1])

    @cached_property
    def tokens(self) -> List[List[Token]]:
        """Per sentence `Token` objects, built from the offsets on first access."""
        return [[Token(i, self.flat_surfaces[lo + i], a, b) for i, (a, b) in enumerate(pairs)]
                for lo, pairs in zip(self.sent_flat_start, self.offsets)]

    def sentence_of_entity(self, entity: GoldEntity) -> Optional[int]:
        """The sentence holding the whole (non-empty) entity, or None when it crosses a
        boundary or lies in a gap; sentences are sorted and disjoint, so only the last one
        starting at or before the entity can hold it."""
        k = bisect_right(self.sentences, entity.char_start, key=attrgetter("char_start")) - 1
        if k >= 0 and entity.char_end <= self.sentences[k].char_end:
            return k
        return None

    def context(self, sent_idx: int) -> Tuple[List[str], List[str]]:
        """Token surfaces before and after sentence ``sent_idx``, in order."""
        lo = self.sent_flat_start[sent_idx]
        hi = lo + len(self.offsets[sent_idx])
        return self.flat_surfaces[:lo], self.flat_surfaces[hi:]


@dataclass
class LossReport:
    """Counts of gold annotations no token-span system can recover."""

    entities_total: int = 0
    entities_lost: int = 0
    relations_total: int = 0
    relations_lost: int = 0
    lost_entity_ids: List[Tuple[str, str, str]] = field(default_factory=list)
    lost_relation_keys: List[Tuple[str, str, str, str, str]] = field(default_factory=list)
    entities_lost_by_type: Dict[str, int] = field(default_factory=dict)
    relations_lost_by_group: Dict[str, int] = field(default_factory=dict)

    @property
    def entity_loss_rate(self) -> float:
        return self.entities_lost / self.entities_total if self.entities_total else 0.0

    @property
    def relation_loss_rate(self) -> float:
        return self.relations_lost / self.relations_total if self.relations_total else 0.0

    def counts(self) -> Dict[str, int]:
        """Every count a rendered report states, under its key, in the rendered order."""
        counts = {key: getattr(self, key) for key in _REPORT_COUNTS}
        counts.update((f"entities_lost[{t}]", n)
                      for t, n in sorted(self.entities_lost_by_type.items()))
        counts.update((f"relations_lost[{g}]", n)
                      for g, n in sorted(self.relations_lost_by_group.items()))
        return counts


def align_document(view: DocView) -> Dict[str, Tuple[Optional[int], AlignedEntity]]:
    """Align every gold entity of a document.

    Returns entity_id -> (sentence index or None, AlignedEntity). A None
    sentence index means the entity crosses a sentence boundary, which is
    recorded with its own reason tag.
    """
    out: Dict[str, Tuple[Optional[int], AlignedEntity]] = {}
    for entity in view.doc.entities:
        k = view.sentence_of_entity(entity)
        if k is None:
            out[entity.entity_id] = (None, AlignedEntity(
                entity.entity_id, entity.etype, False, reason=REASON_CROSS_SENTENCE))
        else:
            out[entity.entity_id] = (k, _align(entity, view.offsets[k]))
    return out


def recoverable_entities(view: DocView) -> Dict[int, List[Tuple[GoldEntity, AlignedEntity]]]:
    """The gold entities a token-span system can represent, with their spans.

    Grouped by sentence index in ascending order, entities in document order
    within each sentence. Training, prediction over gold entities and the
    loss report all take recoverability from here and `align_document`.
    """
    aligned = align_document(view)
    by_sent: Dict[int, List[Tuple[GoldEntity, AlignedEntity]]] = {}
    for entity in view.doc.entities:
        k, a = aligned[entity.entity_id]
        if a.recoverable:
            by_sent.setdefault(k, []).append((entity, a))
    return dict(sorted(by_sent.items()))


def compute_loss_report(docs: Sequence[Document]) -> LossReport:
    """Tokenization/segmentation loss over a corpus; see `loss_report_of_views`."""
    return loss_report_of_views(DocView.build(doc) for doc in docs)


def loss_report_of_views(views: Iterable[DocView]) -> LossReport:
    """Tokenization/segmentation loss over documents already segmented.

    Relations are counted over the evaluated relation classes only, since
    those are the ones a scorer will ever ask about. A relation is lost when
    either argument is lost or the arguments sit in different sentences.
    """
    report = LossReport()
    for view in views:
        doc = view.doc
        aligned = align_document(view)
        for entity in doc.entities:
            report.entities_total += 1
            k, a = aligned[entity.entity_id]
            if not a.recoverable:
                report.entities_lost += 1
                report.lost_entity_ids.append((doc.doc_id, entity.entity_id, a.reason))
                report.entities_lost_by_type[entity.etype] = \
                    report.entities_lost_by_type.get(entity.etype, 0) + 1
        for rel in doc.relations:
            if not rel.eval_flag:
                continue
            report.relations_total += 1
            k1, a1 = aligned[rel.arg1]
            k2, a2 = aligned[rel.arg2]
            if not (a1.recoverable and a2.recoverable):
                reason = REASON_LOST_ARGUMENT
            elif k1 != k2:
                reason = REASON_CROSS_SENTENCE_PAIR
            else:
                continue
            report.relations_lost += 1
            report.lost_relation_keys.append(
                (doc.doc_id, rel.arg1, rel.arg2, rel.cpr_group, reason))
            report.relations_lost_by_group[rel.cpr_group] = \
                report.relations_lost_by_group.get(rel.cpr_group, 0) + 1
    return report


_REPORT_COUNTS = ("entities_total", "entities_lost", "relations_total", "relations_lost")


def render_loss_report(report: LossReport) -> str:
    """Line-delimited key-value form: `LossReport.counts`, each rate after its lost count."""
    rates = {"entities_lost": ("entity_loss_rate", report.entity_loss_rate),
             "relations_lost": ("relation_loss_rate", report.relation_loss_rate)}
    lines = []
    for key, count in report.counts().items():
        lines.append(f"{key}\t{count}")
        if key in rates:
            name, rate = rates[key]
            lines.append(f"{name}\t{rate:.6f}")
    return "\n".join(lines) + "\n"


def render_lost_items(report: LossReport) -> str:
    """Machine-readable record of every lost item, one per line."""
    lines = []
    for doc_id, entity_id, reason in report.lost_entity_ids:
        lines.append(f"entity\t{doc_id}\t{entity_id}\t{reason}")
    for doc_id, arg1, arg2, group, reason in report.lost_relation_keys:
        lines.append(f"relation\t{doc_id}\t{arg1}\t{arg2}\t{group}\t{reason}")
    return "".join(line + "\n" for line in lines)


def parse_loss_report(text, path="<loss report>") -> LossReport:
    """Read a rendered loss report, given as text or as the file's bytes.

    Only the counts are read back; the rates follow from them.
    """
    data = text.encode("utf-8") if isinstance(text, str) else text
    report = LossReport()
    for line_no, (key, value) in read_tsv(path, 2, data=data):
        if key.startswith("entities_lost["):
            report.entities_lost_by_type[key[len("entities_lost["):-1]] = \
                _ints(path, line_no, key, value)[0]
        elif key.startswith("relations_lost["):
            report.relations_lost_by_group[key[len("relations_lost["):-1]] = \
                _ints(path, line_no, key, value)[0]
        elif key in _REPORT_COUNTS:
            setattr(report, key, _ints(path, line_no, key, value)[0])
    return report
