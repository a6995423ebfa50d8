"""Error analysis for end-to-end relation predictions.

Every relation false negative and false positive is placed in exactly one
bucket:

  * NER-caused: an argument span is wrong at the entity level. A false
    negative is NER-caused when one of its gold arguments was never
    predicted as an entity; a false positive is NER-caused when one of its
    predicted arguments is not a gold entity. One bad entity span usually
    shows up on both sides at once (the gold relation is missed and a
    sibling with the clipped span is invented).
  * null false negative: both arguments were predicted exactly, yet no
    relation at all was predicted on the pair.
  * confusion: both arguments exact, a relation was predicted on the pair,
    but with the wrong label. One confusion event costs the scorer exactly
    one FP and one FN.
  * spurious false positive: both arguments are genuine gold entities, but
    the gold says the pair has no evaluated relation.

NER-caused takes precedence: when an argument span is wrong, any label
disagreement on top of it is not counted as confusion.

Error totals are reported under two conventions: ``re_errors_total`` counts
every FP and FN separately, while ``re_errors_joint`` counts the FP+FN pair
born from a single confusion event once.
"""

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Sequence, Tuple

from .corpus import ENTITY_TYPES, EVAL_GROUPS, Document
from .errors import ContractViolationError
from .scoring import (
    EntityKey,
    RelationKey,
    check_eval_labels,
    format_fraction,
    gold_entity_set,
    gold_relation_set,
)


@dataclass
class ErrorBreakdown:
    null_fn_by_type: Dict[str, float]
    confusion_counts: Dict[Tuple[str, str], int]
    fp_fraction_by_pred_type: Dict[str, float]
    gold_relations_by_type: Dict[str, int]
    predictions_by_type: Dict[str, int]
    # one item list per category, sorted for determinism
    ner_caused_fn_items: List[RelationKey]
    ner_caused_fp_items: List[RelationKey]
    null_fn_items: List[RelationKey]
    confusion_fn_items: List[RelationKey]
    confusion_fp_items: List[RelationKey]
    spurious_fp_items: List[RelationKey]

    # every count is read off the item lists
    ner_caused_fn = property(lambda self: len(self.ner_caused_fn_items))
    ner_caused_fp = property(lambda self: len(self.ner_caused_fp_items))
    null_fn = property(lambda self: len(self.null_fn_items))
    confusion_fn = property(lambda self: len(self.confusion_fn_items))
    confusion_fp = property(lambda self: len(self.confusion_fp_items))
    spurious_fp = property(lambda self: len(self.spurious_fp_items))
    fn_total = property(lambda self: self.ner_caused_fn + self.null_fn + self.confusion_fn)
    fp_total = property(lambda self: self.ner_caused_fp + self.confusion_fp + self.spurious_fp)
    re_errors_total = property(lambda self: self.fn_total + self.fp_total)
    re_errors_joint = property(  # one confusion event costs one FP and one FN
        lambda self: self.re_errors_total - min(self.confusion_fn, self.confusion_fp))
    re_errors_ner_caused = property(lambda self: self.ner_caused_fn + self.ner_caused_fp)

    def to_record(self) -> dict:
        """Every count and field but the item lists, which the per-category dumps hold."""
        items = {attr for _, attr in CATEGORY_ITEMS}
        record = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in items}
        record.update((name, getattr(self, name)) for name, value in vars(ErrorBreakdown).items()
                      if isinstance(value, property))
        record["confusion_counts"] = {f"{g}->{p}": c for (g, p), c
                                      in sorted(self.confusion_counts.items())}
        return record


def _relation_args(key: RelationKey) -> Tuple[EntityKey, EntityKey]:
    doc_id, s0, s1, o0, o1, _ = key
    chemical, gene = ENTITY_TYPES
    return (doc_id, s0, s1, chemical), (doc_id, o0, o1, gene)


def _count_by_group(keys: Iterable[RelationKey]) -> Dict[str, int]:
    counts = dict.fromkeys(EVAL_GROUPS, 0)
    for key in keys:
        counts[key[-1]] += 1
    return counts


def _fractions(part: Dict[str, int], whole: Dict[str, int]) -> Dict[str, float]:
    """``part / whole`` per evaluated group, 0.0 where ``whole`` is zero."""
    return {group: part[group] / whole[group] if whole[group] else 0.0 for group in EVAL_GROUPS}


def analyze(docs: Sequence[Document], predicted_entities: Iterable[EntityKey],
            predicted_relations: Iterable[RelationKey]) -> ErrorBreakdown:
    """Partition relation errors against the gold corpus.

    All three inputs must come from the same run over the same documents;
    a prediction naming an unknown document is refused rather than silently
    scored as wrong.
    """
    pred_entities = set(predicted_entities)
    pred_relations = set(predicted_relations)
    known = {doc.doc_id for doc in docs}
    for what, keys in (("entity", pred_entities), ("relation", pred_relations)):
        for key in keys:
            if key[0] not in known:
                raise ContractViolationError(f"predicted {what} names unknown document: {key}")

    gold_entities = gold_entity_set(docs)
    gold_relations = gold_relation_set(docs)
    check_eval_labels("gold", gold_relations)
    check_eval_labels("predicted", pred_relations)

    pred_labels_by_pair: Dict[Tuple, set] = {}
    for key in pred_relations:
        pred_labels_by_pair.setdefault(key[:5], set()).add(key[5])
    gold_pairs = {key[:5] for key in gold_relations}

    ner_fn_items: List[RelationKey] = []
    null_fn_items: List[RelationKey] = []
    confusion_fn_items: List[RelationKey] = []
    confusion_counts: Dict[Tuple[str, str], int] = {}

    for key in sorted(gold_relations - pred_relations):
        chem_arg, gene_arg = _relation_args(key)
        if chem_arg not in pred_entities or gene_arg not in pred_entities:
            ner_fn_items.append(key)
        else:
            predicted_here = pred_labels_by_pair.get(key[:5], set())
            if not predicted_here:
                null_fn_items.append(key)
            else:
                confusion_fn_items.append(key)
                # attribute the miss to one predicted label, smallest first
                swap = (key[-1], sorted(predicted_here)[0])
                confusion_counts[swap] = confusion_counts.get(swap, 0) + 1

    ner_fp_items: List[RelationKey] = []
    confusion_fp_items: List[RelationKey] = []
    spurious_fp_items: List[RelationKey] = []

    fp_keys = pred_relations - gold_relations
    for key in sorted(fp_keys):
        chem_arg, gene_arg = _relation_args(key)
        if chem_arg not in gold_entities or gene_arg not in gold_entities:
            ner_fp_items.append(key)
        elif key[:5] in gold_pairs:
            confusion_fp_items.append(key)
        else:
            spurious_fp_items.append(key)

    gold_by_type = _count_by_group(gold_relations)
    pred_by_type = _count_by_group(pred_relations)
    return ErrorBreakdown(
        null_fn_by_type=_fractions(_count_by_group(null_fn_items), gold_by_type),
        confusion_counts=confusion_counts,
        fp_fraction_by_pred_type=_fractions(_count_by_group(fp_keys), pred_by_type),
        gold_relations_by_type=gold_by_type,
        predictions_by_type=pred_by_type,
        ner_caused_fn_items=ner_fn_items,
        ner_caused_fp_items=ner_fp_items,
        null_fn_items=null_fn_items,
        confusion_fn_items=confusion_fn_items,
        confusion_fp_items=confusion_fp_items,
        spurious_fp_items=spurious_fp_items,
    )


def render_report(breakdown: ErrorBreakdown) -> str:
    """Human-readable tables with stable row order and 3-decimal fractions."""
    b = breakdown
    lines = [
        f"re_errors_total\t{b.re_errors_total}",
        f"re_errors_joint\t{b.re_errors_joint}",
        f"re_errors_ner_caused\t{b.re_errors_ner_caused}",
        f"fn_total\t{b.fn_total}",
        f"fp_total\t{b.fp_total}",
        f"fn_breakdown\tner_caused={b.ner_caused_fn} null={b.null_fn} "
        f"confusion={b.confusion_fn}",
        f"fp_breakdown\tner_caused={b.ner_caused_fp} confusion={b.confusion_fp} "
        f"spurious={b.spurious_fp}",
    ]
    for group in EVAL_GROUPS:
        lines.append(f"null_fn[{group}]\t{format_fraction(b.null_fn_by_type[group])}"
                     f"\t(gold={b.gold_relations_by_type.get(group, 0)})")
    if b.confusion_counts:
        for (gold_label, pred_label), count in sorted(b.confusion_counts.items()):
            lines.append(f"confusion[{gold_label}->{pred_label}]\t{count}")
    else:
        lines.append("confusion\tnone")
    for group in EVAL_GROUPS:
        lines.append(f"fp_fraction[{group}]\t{format_fraction(b.fp_fraction_by_pred_type[group])}"
                     f"\t(predicted={b.predictions_by_type.get(group, 0)})")
    return "\n".join(lines) + "\n"


CATEGORY_ITEMS = (
    ("ner_caused_fn", "ner_caused_fn_items"),
    ("ner_caused_fp", "ner_caused_fp_items"),
    ("null_fn", "null_fn_items"),
    ("confusion_fn", "confusion_fn_items"),
    ("confusion_fp", "confusion_fp_items"),
    ("spurious_fp", "spurious_fp_items"),
)


def render_category_items(breakdown: ErrorBreakdown, category: str) -> str:
    """One relation key per line for manual inspection of a category."""
    attr = dict(CATEGORY_ITEMS).get(category)
    if attr is None:
        raise ValueError(f"unknown error category {category!r}")
    lines = ["\t".join(str(part) for part in key) for key in getattr(breakdown, attr)]
    return "\n".join(lines) + ("\n" if lines else "")
