"""Strict micro precision/recall/F1 for entity and relation predictions.

Match identity is a character-offset key, never a token key, so scores do
not depend on the tokenizer and stay comparable across systems: entities
are (doc_id, char_start, char_end, type) and relations are
(doc_id, subj_start, subj_end, obj_start, obj_end, label) with the subject
always the chemical. A prediction counts only when its whole key matches.

Gold items that tokenization can never recover still belong in the recall
denominator. Callers either leave them in the gold set (where they fail to
match and become false negatives on their own) or score against the
recoverable gold only and pass the structural loss counts here; both roads
produce the same totals.
"""

from dataclasses import asdict, astuple, dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from .alignment import LossReport
from .corpus import Document, GoldEntity, is_eval_group
from .errors import ContractViolationError
from .ner import SpanMention
from .relation import RelationPrediction

EntityKey = Tuple[str, int, int, str]
RelationKey = Tuple[str, int, int, int, int, str]

TASK_NER = "NER"
TASK_RE = "RE"


def format_fraction(value: float) -> str:
    """Three decimal places, ties away from zero: 0.0625 -> '0.063'."""
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _prf(tp: int, fp: int, fn: int) -> Tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class TypeScore:
    tp: int
    fp: int
    fn: int     # includes lost
    lost: int
    precision: float
    recall: float
    f1: float


@dataclass
class ScoreReport:
    """Micro-averaged counts and metrics, with a per-type breakdown.

    ``fn`` already includes ``lost``; conservation therefore reads
    tp + fn == |gold| + lost and tp + fp == |predicted|.
    ``no_predictions`` flags the precision-is-zero-by-convention case so a
    0.0 from an empty prediction set is never mistaken for a measured 0.0.
    """

    task: str
    tp: int
    fp: int
    fn: int
    lost: int
    precision: float
    recall: float
    f1: float
    per_type: Dict[str, TypeScore]
    no_predictions: bool
    seeds_aggregated: int = 1
    per_seed_counts: Tuple[Tuple[int, int, int, int], ...] = ()

    def to_record(self) -> dict:
        """Every field; ``per_seed_counts`` only when seeds were aggregated."""
        record = asdict(self)
        counts = record.pop("per_seed_counts")
        if counts:
            record["per_seed_counts"] = [list(c) for c in counts]
        return record


def _row(gold: Set, predicted: Set, lost: int) -> TypeScore:
    tp, fp, fn = len(gold & predicted), len(predicted - gold), len(gold - predicted) + lost
    return TypeScore(tp, fp, fn, lost, *_prf(tp, fp, fn))


def _score_sets(task: str, gold: Set, predicted: Set,
                lost_by_type: Mapping[str, int]) -> ScoreReport:
    types = sorted({k[-1] for k in gold} | {k[-1] for k in predicted} | set(lost_by_type))
    per_type = {name: _row({k for k in gold if k[-1] == name},
                           {k for k in predicted if k[-1] == name},
                           int(lost_by_type.get(name, 0)))
                for name in types}
    overall = _row(gold, predicted, sum(int(v) for v in lost_by_type.values()))
    return ScoreReport(task, *astuple(overall), per_type, no_predictions=not predicted)


def score_ner(gold: Iterable[EntityKey], predicted: Iterable[EntityKey],
              lost_by_type: Optional[Mapping[str, int]] = None) -> ScoreReport:
    """Exact-match entity scoring over character-offset keys.

    Both sides are treated as sets, so duplicate predictions neither help
    nor hurt. ``lost_by_type`` carries structurally unrecoverable gold
    counts that are not present in ``gold``; they land in fn.
    """
    return _score_sets(TASK_NER, set(gold), set(predicted), lost_by_type or {})


def check_eval_labels(side: str, keys: Iterable[RelationKey]) -> None:
    """Refuse a non-evaluated label: a pipeline bug, not a scoring outcome."""
    for key in keys:
        if not is_eval_group(key[-1]):
            raise ContractViolationError(
                f"{side} relation carries non-evaluated label {key[-1]!r}: {key}")


def score_re(gold: Iterable[RelationKey], predicted: Iterable[RelationKey],
             lost_by_group: Optional[Mapping[str, int]] = None) -> ScoreReport:
    """Exact-match relation scoring; labels on both sides must be evaluated classes."""
    gold = set(gold)
    predicted = set(predicted)
    check_eval_labels("gold", gold)
    check_eval_labels("predicted", predicted)
    return _score_sets(TASK_RE, gold, predicted, lost_by_group or {})


def aggregate_seeds(reports: Sequence[ScoreReport]) -> ScoreReport:
    """Arithmetic mean of precision/recall/F1 across seeds.

    Metrics are averaged, never recomputed from pooled counts; the raw
    per-seed counts ride along so nothing is hidden. Count fields hold the
    per-seed means (floats unless every seed agreed). Each report must be one
    seed's: an aggregate among them raises `ValueError`, as an empty list does.
    """
    if not reports:
        raise ValueError("cannot aggregate an empty list of score reports")
    tasks = {r.task for r in reports}
    if len(tasks) != 1:
        raise ValueError(f"cannot aggregate mixed tasks {sorted(tasks)}")
    for i, r in enumerate(reports):
        if r.seeds_aggregated > 1:
            raise ValueError(f"cannot aggregate report {i}: it already aggregates "
                             f"{r.seeds_aggregated} seeds")
    n = len(reports)

    def mean(rows) -> TypeScore:
        """Fieldwise mean of score rows; an int sum that divides evenly stays an int."""
        sums = [sum(getattr(row, f.name) for row in rows) for f in fields(TypeScore)]
        return TypeScore(*(s // n if isinstance(s, int) and s % n == 0 else s / n
                           for s in sums))

    zero = TypeScore(0, 0, 0, 0, 0.0, 0.0, 0.0)
    per_type = {name: mean([r.per_type.get(name, zero) for r in reports])
                for name in sorted({name for r in reports for name in r.per_type})}
    return ScoreReport(
        reports[0].task, *astuple(mean(reports)), per_type,
        no_predictions=all(r.no_predictions for r in reports),
        seeds_aggregated=n,
        per_seed_counts=tuple((r.tp, r.fp, r.fn, r.lost) for r in reports))


# ---------------------------------------------------------------------------
# key builders


def _entity_key(doc: Document, entity: GoldEntity) -> EntityKey:
    return (doc.doc_id, entity.char_start, entity.char_end, entity.etype)


def _relation_key(doc: Document, arg1: str, arg2: str, group: str) -> RelationKey:
    chem, gene = doc.entity_by_id(arg1), doc.entity_by_id(arg2)
    return (doc.doc_id, chem.char_start, chem.char_end, gene.char_start, gene.char_end, group)


def gold_entity_set(docs: Sequence[Document]) -> Set[EntityKey]:
    return {_entity_key(doc, e) for doc in docs for e in doc.entities}


def gold_relation_set(docs: Sequence[Document]) -> Set[RelationKey]:
    """Evaluated gold relations as character-offset keys (chemical first)."""
    return {_relation_key(doc, rel.arg1, rel.arg2, rel.cpr_group)
            for doc in docs for rel in doc.relations if rel.eval_flag}


def lost_gold_keys(report: LossReport,
                   docs: Sequence[Document]) -> Tuple[Set[EntityKey], Set[RelationKey]]:
    """A loss report's lost annotations as the keys `gold_*_set` gives them.

    Lost annotations that share offsets and type share one key, so a set can
    hold fewer keys than the report counts; `score` counts losses per key.
    """
    by_id = {doc.doc_id: doc for doc in docs}
    entities = {_entity_key(by_id[doc_id], by_id[doc_id].entity_by_id(entity_id))
                for doc_id, entity_id, _reason in report.lost_entity_ids}
    relations = {_relation_key(by_id[doc_id], arg1, arg2, group)
                 for doc_id, arg1, arg2, group, _reason in report.lost_relation_keys}
    return entities, relations


def predicted_entity_set(mentions: Iterable[SpanMention]) -> Set[EntityKey]:
    return {(m.doc_id, m.char_start, m.char_end, m.etype) for m in mentions}


def predicted_relation_set(predictions: Iterable[RelationPrediction]) -> Set[RelationKey]:
    return {(p.doc_id, p.subject.char_start, p.subject.char_end,
             p.object.char_start, p.object.char_end, p.label) for p in predictions}


# ---------------------------------------------------------------------------
# rendering


def render_score_report(report: ScoreReport) -> str:
    def fmt(value):
        return format_fraction(value) if isinstance(value, float) else str(value)

    def counts(tp, fp, fn, lost):
        return f"tp={fmt(tp)} fp={fmt(fp)} fn={fmt(fn)} lost={fmt(lost)}"

    lines = [f"task\t{report.task}"]
    if report.seeds_aggregated > 1:
        lines.append(f"seeds\t{report.seeds_aggregated}")
    lines.append(f"counts\t{counts(report.tp, report.fp, report.fn, report.lost)}")
    lines.append(f"precision\t{format_fraction(report.precision)}")
    lines.append(f"recall\t{format_fraction(report.recall)}")
    lines.append(f"f1\t{format_fraction(report.f1)}")
    if report.no_predictions:
        lines.append("note\tprecision is 0 by convention: no predictions were made")
    for name, t in sorted(report.per_type.items()):
        lines.append(f"type[{name}]\t{counts(t.tp, t.fp, t.fn, t.lost)} "
                     f"P={format_fraction(t.precision)} R={format_fraction(t.recall)} "
                     f"F={format_fraction(t.f1)}")
    for i, seed_counts in enumerate(report.per_seed_counts):
        lines.append(f"seed[{i}]\t{counts(*seed_counts)}")
    return "\n".join(lines) + "\n"
