"""Span-based chemical-protein relation extraction.

The pipeline runs in three stages over abstract text: offset-exact
tokenization, span-based entity recognition, and typed-marker relation
classification, scored end to end with strict set-based micro metrics and
explicit accounting for annotations the tokenization cannot represent.
"""

from .alignment import (
    AlignedEntity,
    DocView,
    LossReport,
    align_document,
    align_entity,
    compute_loss_report,
    parse_loss_report,
    recoverable_entities,
    render_loss_report,
    render_lost_items,
)
from .analysis import ErrorBreakdown, analyze, render_report
from .checkpoint import (
    CheckpointError,
    load_ner_model,
    load_re_model,
    save_ner_model,
    save_re_model,
)
from .config import EncoderConfig, NerConfig, PipelineConfig, RelationConfig, load_config
from .corpus import (
    CPR_GROUPS,
    ENTITY_TYPES,
    EVAL_GROUPS,
    Document,
    GoldEntity,
    GoldRelation,
    is_eval_group,
    load_corpus,
    load_corpus_dir,
    save_corpus,
)
from .encoder import TinyEncoder, encoder_grad_check
from .errors import ChemspanError, ConfigError, ContractViolationError, CorpusFormatError
from .microcorpus import build_micro_corpus, load_micro_corpus
from .ner import (
    NER_LABELS,
    NerModel,
    SpanCandidate,
    SpanMention,
    build_windowed_input,
    enumerate_spans,
    span_count,
    train_ner,
)
from .relation import (
    RELATION_LABELS,
    RelationModel,
    RelationPrediction,
    gold_training_instances,
    insert_markers,
    predict_e2e,
    predict_relations,
    strip_markers,
    train_re,
)
from .scoring import (
    ScoreReport,
    aggregate_seeds,
    gold_entity_set,
    gold_relation_set,
    predicted_entity_set,
    predicted_relation_set,
    render_score_report,
    score_ner,
    score_re,
)
from .tokenizer import Token, tokenize

__version__ = "0.1.0"

__all__ = [
    "AlignedEntity", "DocView", "LossReport", "align_document", "align_entity",
    "compute_loss_report", "parse_loss_report", "render_loss_report",
    "recoverable_entities", "render_lost_items",
    "ErrorBreakdown", "analyze", "render_report",
    "CheckpointError", "load_ner_model", "load_re_model", "save_ner_model",
    "save_re_model",
    "EncoderConfig", "NerConfig", "PipelineConfig", "RelationConfig", "load_config",
    "CPR_GROUPS", "ENTITY_TYPES", "EVAL_GROUPS", "Document", "GoldEntity",
    "GoldRelation", "is_eval_group", "load_corpus", "load_corpus_dir", "save_corpus",
    "TinyEncoder", "encoder_grad_check",
    "ChemspanError", "ConfigError", "ContractViolationError", "CorpusFormatError",
    "build_micro_corpus", "load_micro_corpus",
    "NER_LABELS", "NerModel", "SpanCandidate", "SpanMention",
    "build_windowed_input", "enumerate_spans", "span_count", "train_ner",
    "RELATION_LABELS", "RelationModel", "RelationPrediction",
    "gold_training_instances", "insert_markers", "predict_e2e",
    "predict_relations", "strip_markers", "train_re",
    "ScoreReport", "aggregate_seeds", "gold_entity_set", "gold_relation_set",
    "predicted_entity_set", "predicted_relation_set", "render_score_report",
    "score_ner", "score_re",
    "Token", "tokenize",
    "__version__",
]
