"""Corpus loading, validation, sentence segmentation, and corrections.

The native layout is three tab-separated files (abstracts, entities,
relations) plus two optional ones (pre-computed sentence boundaries and
entity offset corrections). Document text is the title and abstract joined
by a single space; every character offset in the entity file is interpreted
against that joined text and validated with the slice == surface check,
which fails loudly rather than ever shifting an annotation.
"""

import dataclasses
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    ContractViolationError,
    CorpusFormatError,
    DanglingReferenceError,
    OffsetError,
)

log = logging.getLogger(__name__)

ENTITY_TYPES = ("CHEMICAL", "GENE")

# the corpus annotates gene mentions with normalizability subtypes; the
# pipeline collapses them to a single GENE class
DEFAULT_TYPE_MAP = {
    "CHEMICAL": "CHEMICAL",
    "GENE": "GENE",
    "GENE-Y": "GENE",
    "GENE-N": "GENE",
}

CPR_GROUPS = tuple(f"CPR:{i}" for i in range(1, 11))
EVAL_GROUPS = ("CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9")
_EVAL_SET = frozenset(EVAL_GROUPS)


@dataclass(frozen=True)
class GoldEntity:
    entity_id: str
    etype: str
    char_start: int
    char_end: int  # exclusive
    surface: str


@dataclass(frozen=True)
class GoldRelation:
    cpr_group: str
    eval_flag: bool
    arg1: str  # chemical entity id
    arg2: str  # gene entity id


@dataclass(frozen=True)
class Sentence:
    sent_id: int
    char_start: int
    char_end: int  # exclusive


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    abstract: str
    text: str
    entities: Tuple[GoldEntity, ...] = ()
    relations: Tuple[GoldRelation, ...] = ()
    sentence_boundaries: Optional[Tuple[Tuple[int, int], ...]] = None

    def entity_by_id(self, entity_id: str) -> GoldEntity:
        for e in self.entities:
            if e.entity_id == entity_id:
                return e
        raise DanglingReferenceError(self.doc_id, entity_id)


@dataclass
class LoadDiagnostics:
    """Per-file parse bookkeeping surfaced by load_corpus."""

    line_counts: Dict[str, int] = field(default_factory=dict)
    duplicate_relations: List[Tuple[str, str, str, str]] = field(default_factory=list)
    multi_label_pairs: List[Tuple[str, str, str, Tuple[str, ...]]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


def join_title_abstract(title: str, abstract: str) -> str:
    """Single-space join; all entity offsets are against this text."""
    return title + " " + abstract


def canonical_group(raw: str) -> str:
    m = re.fullmatch(r"CPR[:\- ]?([0-9]+)", raw.strip())
    if not m or not 1 <= int(m.group(1)) <= 10:
        raise ValueError(f"unknown relation group {raw!r}")
    return f"CPR:{int(m.group(1))}"


def is_eval_group(group: str) -> bool:
    return group in _EVAL_SET


_TRUE = {"Y", "y", "true", "True", "TRUE", "1"}
_FALSE = {"N", "n", "false", "False", "FALSE", "0"}


def _parse_flag(raw: str) -> bool:
    raw = raw.strip()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ValueError(f"unparseable flag {raw!r}")


def read_tsv(path, min_fields: int, max_fields: Optional[int] = None,
             data: Optional[bytes] = None) -> Iterator[Tuple[int, List[str]]]:
    """Yield (line number, fields) for every non-blank line of a UTF-8 TSV file.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``; each line is decoded on its
    own so that a bad byte is reported on its own line. A line whose field
    count is outside min_fields..max_fields raises. ``data``, when given, is
    the file's content and ``path`` only names it in errors.
    """
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    max_fields = min_fields if max_fields is None else max_fields
    for line_no, raw in enumerate(data.splitlines(), start=1):
        if not raw:
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            field_no = raw.count(b"\t", 0, exc.start) + 1
            raise CorpusFormatError(path, line_no, f"field {field_no}",
                                    f"byte {raw[exc.start]:#04x} is not UTF-8") from None
        cols = line.split("\t")
        if not min_fields <= len(cols) <= max_fields:
            want = min_fields if min_fields == max_fields else f"{min_fields}-{max_fields}"
            raise CorpusFormatError(path, line_no, "column count",
                                    f"expected {want} tab-separated fields, got {len(cols)}")
        yield line_no, cols


def _ints(path, line_no: int, field: str, *raw: str) -> List[int]:
    """The raw values as integers, or a CorpusFormatError naming the field."""
    try:
        return [int(v) for v in raw]
    except ValueError:
        raise CorpusFormatError(path, line_no, field,
                                f"non-integer {field} {'/'.join(map(repr, raw))}") from None


def _strip_arg(value: str) -> str:
    for prefix in ("Arg1:", "Arg2:"):
        if value.startswith(prefix):
            return value[len(prefix):]
    return value


def load_corpus_with_diagnostics(
    abstracts_path,
    entities_path=None,
    relations_path=None,
    sentences_path=None,
) -> Tuple[List[Document], LoadDiagnostics]:
    """Load and validate a corpus; returns documents plus parse diagnostics.

    Entities and relations files are optional so that raw text can be
    tokenized without annotations. Relation rows may have 4, 5, or 6
    columns: (doc, group, arg1, arg2) with the eval flag derived from the
    group, (doc, group, flag, arg1, arg2), or the 6-column export that has
    an extra relation-name column between flag and args. ``Arg1:``/``Arg2:``
    prefixes on the argument ids are tolerated.
    """
    diags = LoadDiagnostics()

    texts: Dict[str, Tuple[str, str]] = {}  # in file order
    for line_no, (doc_id, title, abstract) in read_tsv(abstracts_path, 3):
        if not doc_id:
            raise CorpusFormatError(abstracts_path, line_no, "doc_id", "empty")
        if doc_id in texts:
            raise CorpusFormatError(abstracts_path, line_no, "doc_id", f"duplicate {doc_id!r}")
        texts[doc_id] = (title, abstract)
    diags.line_counts[str(abstracts_path)] = len(texts)
    doc_texts = {doc_id: join_title_abstract(*pair) for doc_id, pair in texts.items()}

    # entity_id -> entity per document, in file order
    entities: Dict[str, Dict[str, GoldEntity]] = {d: {} for d in texts}
    if entities_path is not None:
        for line_no, cols in read_tsv(entities_path, 6):
            doc_id, entity_id, raw_type, raw_start, raw_end, surface = cols
            if doc_id not in texts:
                raise DanglingReferenceError(doc_id, entity_id, "entity for unknown document",
                                             f"{entities_path}:{line_no}")
            if raw_type not in DEFAULT_TYPE_MAP:
                raise CorpusFormatError(entities_path, line_no, "type",
                                        f"unknown entity type {raw_type!r}")
            start, end = _ints(entities_path, line_no, "offsets", raw_start, raw_end)
            text = doc_texts[doc_id]
            if not (0 <= start < end <= len(text)):
                raise CorpusFormatError(entities_path, line_no, "offsets",
                                        f"[{start},{end}) out of bounds for document {doc_id}")
            if text[start:end] != surface:
                raise CorpusFormatError(
                    entities_path, line_no, "surface",
                    f"document {doc_id} slice [{start},{end}) is "
                    f"{text[start:end]!r}, file says {surface!r}")
            if entity_id in entities[doc_id]:
                raise CorpusFormatError(entities_path, line_no, "entity_id",
                                        f"duplicate {entity_id!r} in document {doc_id}")
            entities[doc_id][entity_id] = GoldEntity(
                entity_id, DEFAULT_TYPE_MAP[raw_type], start, end, surface)
        diags.line_counts[str(entities_path)] = sum(map(len, entities.values()))

    relations: Dict[str, List[GoldRelation]] = {d: [] for d in texts}
    if relations_path is not None:
        seen: Dict[Tuple[str, str, str, str], int] = {}
        for line_no, cols in read_tsv(relations_path, 4, 6):
            # (doc, group, arg1, arg2), a flag column after the group, and a
            # relation-name column after the flag
            doc_id, raw_group, raw_arg1, raw_arg2 = cols[0], cols[1], cols[-2], cols[-1]
            raw_flag = cols[2] if len(cols) > 4 else None
            if doc_id not in texts:
                raise DanglingReferenceError(doc_id, raw_arg1, "relation for unknown document",
                                             f"{relations_path}:{line_no}")
            try:
                group = canonical_group(raw_group)
            except ValueError as exc:
                raise CorpusFormatError(relations_path, line_no, "cpr_group", str(exc)) from None
            if raw_flag is None:
                flag = is_eval_group(group)
            else:
                try:
                    flag = _parse_flag(raw_flag)
                except ValueError as exc:
                    raise CorpusFormatError(relations_path, line_no, "eval_flag", str(exc)) from None
            if flag != is_eval_group(group):
                raise CorpusFormatError(
                    relations_path, line_no, "eval_flag",
                    f"{group} must have eval_flag={'Y' if is_eval_group(group) else 'N'}")
            arg1, arg2 = _strip_arg(raw_arg1), _strip_arg(raw_arg2)
            ents = entities[doc_id]
            for arg, want in zip((arg1, arg2), ENTITY_TYPES):
                if arg not in ents:
                    raise DanglingReferenceError(
                        doc_id, arg, "relation argument not in entity file",
                        f"{relations_path}:{line_no}")
                if ents[arg].etype != want:
                    raise CorpusFormatError(
                        relations_path, line_no, "argument type",
                        f"{arg} in document {doc_id} is {ents[arg].etype}, expected {want}")
            key = (doc_id, group, arg1, arg2)
            if key in seen:
                diags.duplicate_relations.append(key)
                diags.warnings.append(
                    f"{relations_path}:{line_no}: duplicate relation {key} "
                    f"(first seen on line {seen[key]}), dropped")
                log.warning(diags.warnings[-1])
                continue
            seen[key] = line_no
            relations[doc_id].append(GoldRelation(group, flag, arg1, arg2))
        diags.line_counts[str(relations_path)] = len(seen)  # duplicates dropped

        pair_labels: Dict[Tuple[str, str, str], List[str]] = {}
        for doc_id, rels in relations.items():
            for r in rels:
                if r.eval_flag:
                    pair_labels.setdefault((doc_id, r.arg1, r.arg2), []).append(r.cpr_group)
        for (doc_id, a1, a2), groups in sorted(pair_labels.items()):
            if len(groups) > 1:
                diags.multi_label_pairs.append((doc_id, a1, a2, tuple(sorted(groups))))

    boundaries: Dict[str, List[Tuple[int, int]]] = {}
    if sentences_path is not None:
        for line_no, (doc_id, raw_start, raw_end) in read_tsv(sentences_path, 3):
            if doc_id not in texts:
                raise DanglingReferenceError(doc_id, f"[{raw_start},{raw_end})",
                                             "sentence for unknown document",
                                             f"{sentences_path}:{line_no}")
            start, end = _ints(sentences_path, line_no, "offsets", raw_start, raw_end)
            boundaries.setdefault(doc_id, []).append((start, end))
        diags.line_counts[str(sentences_path)] = sum(map(len, boundaries.values()))

    docs = []
    for doc_id, (title, abstract) in texts.items():
        docs.append(Document(
            doc_id=doc_id,
            title=title,
            abstract=abstract,
            text=doc_texts[doc_id],
            entities=tuple(entities[doc_id].values()),
            relations=tuple(relations[doc_id]),
            sentence_boundaries=tuple(boundaries[doc_id]) if doc_id in boundaries else None,
        ))
    return docs, diags


def load_corpus(abstracts_path, entities_path=None, relations_path=None,
                sentences_path=None) -> List[Document]:
    docs, _ = load_corpus_with_diagnostics(
        abstracts_path, entities_path, relations_path, sentences_path)
    return docs


# every file load_corpus_dir reads from a corpus directory, the optional ones included
CORPUS_FILES = ("abstracts.tsv", "entities.tsv", "relations.tsv", "sentences.tsv",
                "corrections.tsv")


def load_corpus_dir(corpus_dir) -> List[Document]:
    """Load abstracts/entities/relations(.tsv) and optional sentences/corrections(.tsv)."""
    abstracts, entities, relations, sentences, corrections = (
        Path(corpus_dir) / name for name in CORPUS_FILES)
    docs = load_corpus(
        abstracts,
        entities if entities.exists() else None,
        relations if relations.exists() else None,
        sentences if sentences.exists() else None,
    )
    if corrections.exists():
        fixes = load_corrections(corrections)
        known = {doc.doc_id for doc in docs}
        for doc_id, rows in fixes.items():
            if doc_id not in known:
                raise DanglingReferenceError(doc_id, rows[0][0], "correction for unknown document",
                                             corrections)
        docs = [apply_corrections(doc, fixes.get(doc.doc_id, []), corrections) for doc in docs]
    return docs


def save_corpus(docs: Sequence[Document], corpus_dir) -> None:
    """Write the corpus back out in the native three-file layout."""
    d = Path(corpus_dir)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "abstracts.tsv", "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f"{doc.doc_id}\t{doc.title}\t{doc.abstract}\n")
    with open(d / "entities.tsv", "w", encoding="utf-8") as fh:
        for doc in docs:
            for e in doc.entities:
                fh.write(f"{doc.doc_id}\t{e.entity_id}\t{e.etype}\t"
                         f"{e.char_start}\t{e.char_end}\t{e.surface}\n")
    with open(d / "relations.tsv", "w", encoding="utf-8") as fh:
        for doc in docs:
            for r in doc.relations:
                flag = "Y" if r.eval_flag else "N"
                fh.write(f"{doc.doc_id}\t{r.cpr_group}\t{flag}\t{r.arg1}\t{r.arg2}\n")
    if any(doc.sentence_boundaries is not None for doc in docs):
        with open(d / "sentences.tsv", "w", encoding="utf-8") as fh:
            for doc in docs:
                for s, e in doc.sentence_boundaries or ():
                    fh.write(f"{doc.doc_id}\t{s}\t{e}\n")


# ---------------------------------------------------------------------------
# sentence segmentation

# a sentence ends at . ! or ? when followed by whitespace and an
# uppercase letter or digit; abbreviations are not special-cased
_BOUNDARY = re.compile(r"[.!?]+(?=\s+[A-Z0-9])")


def default_segmenter(text: str) -> List[Tuple[int, int]]:
    cuts = [m.end() for m in _BOUNDARY.finditer(text)]
    spans = []
    prev = 0
    for cut in cuts + [len(text)]:
        piece = text[prev:cut]
        lead = len(piece) - len(piece.lstrip())
        trail = len(piece) - len(piece.rstrip())
        if piece.strip():
            spans.append((prev + lead, cut - trail))
        prev = cut
    return spans


def validate_sentences(text: str, intervals: Sequence[Tuple[int, int]]) -> None:
    """Raise ContractViolationError unless the intervals are a valid cover."""
    prev_end = 0
    for start, end in intervals:
        if not (0 <= start < end <= len(text)):
            raise ContractViolationError(
                f"sentence [{start},{end}) out of bounds for text of length {len(text)}")
        if start < prev_end:
            raise ContractViolationError(
                f"sentence [{start},{end}) overlaps or precedes previous end {prev_end}")
        prev_end = end
    # the intervals are now sorted and disjoint, so only the gaps around
    # them can hold uncovered text
    gap_starts = [0] + [end for _, end in intervals]
    gap_ends = [start for start, _ in intervals] + [len(text)]
    for lo, hi in zip(gap_starts, gap_ends):
        for i in range(lo, hi):
            if not text[i].isspace():
                raise ContractViolationError(
                    f"non-whitespace character at offset {i} ({text[i]!r}) "
                    "not covered by any sentence")


def segment(doc: Document) -> List[Sentence]:
    """Split a document into sentences, validating whichever source is used.

    Pre-computed boundaries on the document win; otherwise the built-in rule
    runs. Either way the result must be ordered, non-overlapping, in bounds,
    and cover all non-whitespace text.
    """
    if not doc.text:
        raise ValueError(f"document {doc.doc_id} has empty text")
    if doc.sentence_boundaries is not None:
        intervals = list(doc.sentence_boundaries)
    else:
        intervals = default_segmenter(doc.text)
    try:
        validate_sentences(doc.text, intervals)
    except ContractViolationError as exc:
        source = " (sentences.tsv)" if doc.sentence_boundaries is not None else ""
        raise ContractViolationError(f"document {doc.doc_id!r}{source}: {exc}") from None
    return [Sentence(i, s, e) for i, (s, e) in enumerate(intervals)]


# ---------------------------------------------------------------------------
# offset corrections

def load_corrections(path) -> Dict[str, List[Tuple[str, int, int]]]:
    """Read correction rows: doc_id, entity_id, new_start, new_end."""
    fixes: Dict[str, List[Tuple[str, int, int]]] = {}
    for line_no, (doc_id, entity_id, raw_start, raw_end) in read_tsv(path, 4):
        start, end = _ints(path, line_no, "offsets", raw_start, raw_end)
        fixes.setdefault(doc_id, []).append((entity_id, start, end))
    return fixes


def apply_corrections(doc: Document, corrections: Sequence[Tuple[str, int, int]],
                      source=None) -> Document:
    """Return a new document with entity offsets replaced and surfaces re-read.

    The input document is left untouched. Unknown entity ids and
    out-of-bounds intervals raise, naming ``source``, the corrections file,
    when it is given.
    """
    if not corrections:
        return doc
    where = f" in {source}" if source else ""
    by_id = {e.entity_id: e for e in doc.entities}
    for entity_id, start, end in corrections:
        if entity_id not in by_id:
            raise DanglingReferenceError(doc.doc_id, entity_id, "correction target", source)
        if not (0 <= start < end <= len(doc.text)):
            raise OffsetError(
                f"correction for {doc.doc_id}/{entity_id}{where}: [{start},{end}) "
                f"out of bounds for text of length {len(doc.text)}")
        old = by_id[entity_id]
        by_id[entity_id] = dataclasses.replace(
            old, char_start=start, char_end=end, surface=doc.text[start:end])
    new_entities = tuple(by_id[e.entity_id] for e in doc.entities)
    return dataclasses.replace(doc, entities=new_entities)
