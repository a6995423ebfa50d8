"""Relation classification over typed entity-marker sequences.

Every CHEMICAL x GENE mention pair in a sentence becomes one instance: the
sentence is rewritten with four marker symbols around the two spans, a
sequence-start symbol and cross-sentence context are added, and the encoder
output is pooled into one of six representation layouts (A..F) feeding a
two-layer ReLU head over {null, CPR:3, CPR:4, CPR:5, CPR:6, CPR:9}.
"""

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alignment import DocView, recoverable_entities
from .config import _VARIANT_SEGMENTS
from .corpus import ENTITY_TYPES, EVAL_GROUPS, Document
from .encoder import (
    CLS_SYMBOL,
    OBJ_CLOSE,
    OBJ_OPEN,
    QUIET_FLOATS,
    SPECIAL_SYMBOLS,
    SUBJ_CLOSE,
    SUBJ_OPEN,
    EncoderModel,
    _softmax_rows,
)
from .errors import NonFiniteError, OverLengthError
from .ner import NerModel, SpanMention, build_windowed_input

RELATION_LABELS = ("null",) + EVAL_GROUPS
NULL_RELATION = RELATION_LABELS.index("null")


def representation_width(variant: str, dim: int) -> int:
    if variant not in _VARIANT_SEGMENTS:
        raise ValueError(f"unknown representation variant {variant!r}; expected A..F")
    return len(_VARIANT_SEGMENTS[variant]) * dim


def generate_pairs(mentions: Sequence[SpanMention]) -> List[Tuple[SpanMention, SpanMention]]:
    """All chemical-gene pairs within one sentence's mentions.

    Nested and overlapping pairs are included on purpose. Ordered by
    (subject token start, object token start) for determinism.
    """
    chems, genes = (sorted((m for m in mentions if m.etype == etype),
                           key=lambda m: (m.token_start, m.token_end))
                    for etype in ENTITY_TYPES)
    return [(c, g) for c in chems for g in genes]


@dataclass(frozen=True)
class MarkedSentence:
    symbols: Tuple[str, ...]
    marker_positions: Tuple[int, int, int, int]  # subject open, close; object open, close
    token_map: Tuple[int, ...]  # original token index -> marked position


def insert_markers(tokens: Sequence[str], subject: Tuple[int, int],
                   object_: Tuple[int, int]) -> MarkedSentence:
    """Wrap the subject and object token spans in typed marker symbols.

    Spans are inclusive token index pairs. Insertion events are ordered by
    position; at equal positions openings come before closings, the span
    that starts earlier (or at a tie ends later) opens first, and closings
    mirror the opening order, so nested spans produce nested brackets. The
    object opens first when both spans are identical.
    """
    n = len(tokens)
    for name, (start, end) in (("subject", subject), ("object", object_)):
        if not (0 <= start <= end < n):
            raise ValueError(f"{name} span [{start},{end}] outside sentence of {n} tokens")
    s_start, s_end = subject
    o_start, o_end = object_
    events = [
        # (insert position, close?, tie key, symbol, index in marker_positions)
        (s_start, 0, (s_start, -s_end, 1), SUBJ_OPEN, 0),
        (o_start, 0, (o_start, -o_end, 0), OBJ_OPEN, 2),
        (s_end + 1, 1, (-s_start, s_end, 0), SUBJ_CLOSE, 1),
        (o_end + 1, 1, (-o_start, o_end, 1), OBJ_CLOSE, 3),
    ]
    events.sort(key=lambda e: e[:3])
    out = list(tokens)
    slots = [0] * 4
    for j, (pos, _, _, symbol, slot) in enumerate(events):  # j markers precede the j-th
        slots[slot] = pos + j
        out.insert(pos + j, symbol)
    at = [e[0] for e in events]
    token_map = tuple(i + bisect_right(at, i) for i in range(n))
    return MarkedSentence(tuple(out), tuple(slots), token_map)


def strip_markers(symbols: Sequence[str]) -> List[str]:
    markers = set(SPECIAL_SYMBOLS) - {CLS_SYMBOL}
    return [s for s in symbols if s not in markers]


@dataclass
class RelationInstance:
    """One candidate pair, fully assembled for the encoder with the rows its head reads."""

    doc_id: str
    sent_id: int
    subject: SpanMention
    object: SpanMention
    symbols: List[str]       # [CLS] + left context + marked sentence + right context
    marker_positions: Tuple[int, int, int, int]  # positions within symbols
    middle_positions: List[int]                  # positions within symbols
    rows: List[int]          # sorted positions the variant pools; the last block runs at these
    pieces: List[slice]      # each pooled piece's run of rows, in the variant's order
    label: Optional[int] = None


class RelationModel(EncoderModel):
    """Typed-marker relation classifier over a trainable encoder."""

    def _build_head(self):
        rc = self.config.relation
        rep_dim = representation_width(rc.variant, self.config.encoder.dim)
        rng = np.random.default_rng(self.seed + 202)
        return {
            "re.w1": rng.normal(0.0, rep_dim ** -0.5, (rep_dim, rc.head_hidden)),
            "re.b1": np.zeros(rc.head_hidden),
            "re.w2": rng.normal(0.0, rc.head_hidden ** -0.5,
                                (rc.head_hidden, len(RELATION_LABELS))),
            "re.b2": np.zeros(len(RELATION_LABELS)),
        }

    # -- instance assembly ----------------------------------------------------

    def build_instance(self, doc_id: str, sent_id: int, sent_surfaces: Sequence[str],
                       left_context: Sequence[str], right_context: Sequence[str],
                       subject: SpanMention, object_: SpanMention,
                       label: Optional[int] = None) -> RelationInstance:
        """Markers into the sentence, then context, then the start symbol.

        Markers never extend into context: they wrap sentence tokens only,
        and the context windows sit outside the marked sentence. The middle
        is every symbol strictly between the first closing and the last
        opening marker: none when the spans are adjacent, nested, overlapping
        or identical. Pieces share no position and the middle symbols are
        consecutive, so each piece is a run of the sorted rows. A sentence with
        no room for its markers and ``[CLS]`` raises `OverLengthError` naming it.
        """
        rc, ec = self.config.relation, self.config.encoder
        marked = insert_markers(sent_surfaces,
                                (subject.token_start, subject.token_end),
                                (object_.token_start, object_.token_end))
        if len(sent_surfaces) + 5 > ec.max_len:
            raise OverLengthError(
                f"document {doc_id!r} sentence {sent_id}: {len(sent_surfaces)} tokens "
                f"+ 4 markers + {CLS_SYMBOL} exceed max_len={ec.max_len}; "
                "a relation instance needs 5 symbols more than NER, and context can shrink, "
                "the sentence cannot")
        # 4 markers are already inside `marked`; reserve 1 for the start symbol
        windowed = build_windowed_input(marked.symbols, left_context, right_context,
                                        rc.context_window, ec.max_len, reserved=1)
        shift = windowed.sent_offset + 1  # +1 for the start symbol
        so, sc, oo, oc = markers = tuple(p + shift for p in marked.marker_positions)
        middle = list(range(min(sc, oc) + 1, max(so, oo)))
        where = {"cls": [0], "s_open": [so], "s_close": [sc], "o_open": [oo],
                 "o_close": [oc], "mid": middle}
        segments = [where[segment] for segment in _VARIANT_SEGMENTS[rc.variant]]
        rows = sorted(p for pos in segments for p in pos)
        firsts = [rows.index(pos[0]) if pos else 0 for pos in segments]
        return RelationInstance(doc_id, sent_id, subject, object_, [CLS_SYMBOL] + windowed.symbols,
                                markers, middle, rows,
                                [slice(i, i + len(pos)) for i, pos in zip(firsts, segments)], label)

    # -- representation -------------------------------------------------------

    def build_representation(self, h: np.ndarray, instance: RelationInstance,
                             rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """Concatenate the pooled pieces the configured variant asks for.

        The middle piece is the mean of the contextual vectors of original
        tokens strictly between the spans, and the zero vector when the
        spans are adjacent, nested, or overlapping. With ``rows``, the
        instance's rows, ``h`` holds only the vectors at those positions;
        without, ``h`` is a full encoding and is cut to them first. Other
        ``rows``, or an ``h`` without one vector per row, raise ValueError.
        """
        if rows is None:
            h = h[instance.rows]
        elif (rows is not instance.rows and list(rows) != instance.rows) or len(h) != len(rows):
            raise ValueError(f"{len(h)} vectors at rows {list(rows)} do not pool an "
                             f"instance whose rows are {instance.rows}")
        pieces = [h[piece] for piece in instance.pieces]
        return np.concatenate([np.add.reduce(v, axis=0) / max(len(v), 1)
                               for v in pieces])  # bitwise the mean; zeros when empty

    def _head_forward(self, rep: np.ndarray):
        u = rep @ self.head["re.w1"] + self.head["re.b1"]
        z = np.maximum(u, 0.0)
        return u, z, _softmax_rows(z @ self.head["re.w2"] + self.head["re.b2"])

    def classify(self, instance: RelationInstance) -> Tuple[str, float]:
        """Argmax relation label and probability for one instance.

        The encoder's last block runs only at the positions the variant pools.
        """
        h = self.encoder.encode(instance.symbols, instance.rows)
        rep = self.build_representation(h, instance, instance.rows)
        _, _, probs = self._head_forward(rep)
        if not np.isfinite(probs).all():
            raise NonFiniteError(f"document {instance.doc_id!r} sentence {instance.sent_id}: "
                                 "relation probabilities hold NaN or infinity")
        pick = int(probs.argmax())
        return RELATION_LABELS[pick], float(probs[pick])

    def loss_and_grads(self, batch: Sequence[RelationInstance]):
        """Mean cross-entropy over the batch, each instance encoded at `classify`'s rows."""
        grads = self.zero_grads()
        if not batch:
            return 0.0, grads
        loss = 0.0
        scale = 1.0 / len(batch)
        for inst in batch:
            h, cache = self.encoder.forward(inst.symbols, inst.rows)
            rep = self.build_representation(h, inst, inst.rows)
            u, z, probs = self._head_forward(rep)
            loss += float(-np.log(probs[inst.label] + 1e-300))
            dlogits = probs.copy()
            dlogits[inst.label] -= 1.0
            dlogits *= scale
            grads["re.w2"] += np.outer(z, dlogits)
            grads["re.b2"] += dlogits
            dz = self.head["re.w2"] @ dlogits
            du = dz * (u > 0.0)
            grads["re.w1"] += np.outer(rep, du)
            grads["re.b1"] += du
            drep = self.head["re.w1"] @ du
            dh = np.zeros_like(h)
            d = self.encoder.dim
            for k, piece in enumerate(dh[p] for p in inst.pieces):  # views of dh
                if len(piece):
                    piece += drep[k * d:(k + 1) * d] / len(piece)
            self.encoder.backward(cache, dh, grads)
        return loss * scale, grads


# ---------------------------------------------------------------------------
# corpus wiring


def recoverable_gold_mentions(view: DocView) -> Dict[int, List[Tuple[str, SpanMention]]]:
    """`recoverable_entities` as (entity id, token-span mention) pairs."""
    by_sent: Dict[int, List[Tuple[str, SpanMention]]] = {}
    for k, entities in recoverable_entities(view).items():
        by_sent[k] = [(e.entity_id, SpanMention(view.doc.doc_id, view.sentences[k].sent_id,
                                                a.token_start, a.token_end, e.etype,
                                                e.char_start, e.char_end))
                      for e, a in entities]
    return by_sent


def gold_training_instances(model: RelationModel, docs: Sequence[Document]
                            ) -> List[RelationInstance]:
    """Prediction's pair instances over recoverable gold entities, labeled from gold.

    Pairs whose gold relation belongs to a non-evaluated group get the null
    label, as do pairs with no gold relation at all. A pair carrying several
    distinct evaluated labels yields one instance per label. Cross-sentence
    gold pairs cannot be represented and are skipped (the loss report
    already counts them).
    """
    instances = []
    for doc in docs:
        view = DocView.build(doc)
        label_map: Dict[Tuple[str, str], List[str]] = {}
        for rel in doc.relations:
            if rel.eval_flag:
                label_map.setdefault((rel.arg1, rel.arg2), []).append(rel.cpr_group)
        for k, id_mentions in recoverable_gold_mentions(view).items():
            # two entities with equal offsets and type give equal mentions: match by identity
            entity_id = {id(m): eid for eid, m in id_mentions}
            for inst in prediction_instances(model, view, k, [m for _, m in id_mentions]):
                pair = (entity_id[id(inst.subject)], entity_id[id(inst.object)])
                groups = sorted(set(label_map.get(pair, ())))
                for label in [RELATION_LABELS.index(g) for g in groups] or [NULL_RELATION]:
                    instances.append(dataclasses.replace(inst, label=label))
    return instances


def prediction_instances(model: RelationModel, view: DocView, sent_idx: int,
                         mentions: Sequence[SpanMention]) -> List[RelationInstance]:
    """Every chemical-gene pair of one sentence's mentions, as an instance."""
    lo = view.sent_flat_start[sent_idx]
    surfaces = view.flat_surfaces[lo:lo + len(view.offsets[sent_idx])]
    left, right = view.context(sent_idx)
    sent_id = view.sentences[sent_idx].sent_id
    return [model.build_instance(view.doc.doc_id, sent_id, surfaces, left, right, chem, gene)
            for chem, gene in generate_pairs(mentions)]


def train_re(model: RelationModel, instances: Sequence[RelationInstance],
             seed: int = 0) -> List[float]:
    """Adam training over labeled instances; returns per-epoch mean loss."""
    labeled = [inst for inst in instances if inst.label is not None]
    return model.fit(labeled, len, model.config.relation, seed, inputs=lambda inst: inst.symbols)


@dataclass(frozen=True)
class RelationPrediction:
    doc_id: str
    sent_id: int
    subject: SpanMention
    object: SpanMention
    label: str
    prob: float


@QUIET_FLOATS
def predict_relations(model: RelationModel, view: DocView, sent_idx: int,
                      mentions: Sequence[SpanMention]) -> List[RelationPrediction]:
    """Classify every pair in one sentence, keeping non-null predictions; a non-finite
    probability raises `NonFiniteError` without numpy warnings."""
    out = []
    for inst in prediction_instances(model, view, sent_idx, mentions):
        label, prob = model.classify(inst)
        if label != "null":
            out.append(RelationPrediction(inst.doc_id, inst.sent_id,
                                          inst.subject, inst.object, label, prob))
    return out


def predict_view(ner_model: NerModel, re_model: RelationModel, view: DocView
                 ) -> Tuple[List[SpanMention], List[RelationPrediction]]:
    """Predicted entities of one document feed the relation classifier."""
    mentions = ner_model.predict_view(view)
    by_sent: Dict[int, List[SpanMention]] = {}
    for m in mentions:
        by_sent.setdefault(m.sent_id, []).append(m)
    return mentions, [r for k, sent in enumerate(view.sentences)
                      for r in predict_relations(re_model, view, k, by_sent.get(sent.sent_id, []))]


def predict_e2e(ner_model: NerModel, re_model: RelationModel, docs: Sequence[Document]
                ) -> Tuple[List[SpanMention], List[RelationPrediction]]:
    """Full pipeline over documents, one predict_view per document.

    The same character-level pair predicted from two different sentences is
    kept twice here; scoring set semantics deduplicates.
    """
    per_doc = [predict_view(ner_model, re_model, DocView.build(doc)) for doc in docs]
    return [m for ms, _ in per_doc for m in ms], [r for _, rs in per_doc for r in rs]
