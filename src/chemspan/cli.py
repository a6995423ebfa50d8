"""Command-line interface for the extraction pipeline.

Record formats, all tab-separated, one record per line:

  tokenize     doc_id  sent_id  index  surface  start  end
  predict-ner  doc_id  sent_id  token_start  token_end  type  prob
  predict-re   doc_id  subj_start  subj_end  obj_start  obj_end  label  prob
               subj_char_start  subj_char_end  obj_char_start  obj_char_end

Token offsets in entity records are sentence-local; relation records carry
document-level token offsets (there is no sentence column) and mirror the
character offsets so downstream tools never need to re-tokenize. ``score``
and ``analyze`` match on character offsets, converting entity records back
through the gold corpus tokenization.
"""

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path
from stat import S_IMODE, S_ISREG
from typing import Dict, Iterable, List, Optional, Set

from .alignment import (
    DocView,
    compute_loss_report,
    loss_report_of_views,
    parse_loss_report,
    render_loss_report,
    render_lost_items,
)
from .analysis import CATEGORY_ITEMS, analyze, render_category_items, render_report
from .checkpoint import load_ner_model, load_re_model, model_bytes
from .config import load_config
from .corpus import (
    CORPUS_FILES,
    ENTITY_TYPES,
    EVAL_GROUPS,
    _ints,
    load_corpus,
    load_corpus_dir,
    read_tsv,
)
from .errors import ChemspanError, CorpusFormatError
from .ner import NerModel, train_ner
from .relation import (
    RelationModel,
    gold_training_instances,
    predict_relations,
    predict_view,
    recoverable_gold_mentions,
    train_re,
)
from .scoring import (
    EntityKey,
    RelationKey,
    gold_entity_set,
    gold_relation_set,
    lost_gold_keys,
    render_score_report,
    score_ner,
    score_re,
)


def _lines(records: Iterable[str]) -> str:
    return "".join(record + "\n" for record in records)


# argument -> option of each file a command can read; a corpus directory adds its CORPUS_FILES
_READS = {"infile": "--in", "config": "--config", "ckpt": "--ckpt", "ner_ckpt": "--ner-ckpt",
          "re_ckpt": "--re-ckpt", "pred": "--pred", "pred_ents": "--pred-ents",
          "pred_rels": "--pred-rels", "loss_report": "--loss-report",
          "corpus": "--corpus", "gold": "--gold"}


def _stat(path) -> Optional[os.stat_result]:
    try:
        return os.stat(path)
    except OSError:
        return None


@contextmanager
def _writer(args, *outputs):
    """Reserve each (option, path) output before the command's work; replace them after it.

    Yields a list the work fills with one payload (str or bytes) per output;
    an output whose path is None was not asked for, and its payload is dropped.
    Reserving refuses, naming both, an output that resolves to another one or
    is a file ``args`` names as an input (same device and inode, so links
    count), and an output that is not a regular file: an existing directory,
    FIFO or device, or a path ending in a separator. It then creates an empty
    temporary beside the file each path resolves to, with the mode ``open``
    would give a new file or the mode of the file it replaces. After the work
    every payload goes to its temporary, and each temporary is renamed onto
    its target. On any error, even ``KeyboardInterrupt``, the temporaries are
    removed, so an error before the renames leaves every target as it was.
    Nothing is synced to disk: a failed command is covered, a crash is not.
    """
    read = {}  # (device, inode) -> the input option and path
    for attr, option in _READS.items():
        given = getattr(args, attr, None)
        corpus = given and attr in ("corpus", "gold")
        for path in [Path(given) / name for name in CORPUS_FILES] if corpus else [given]:
            st = given and _stat(path)
            if st:
                read[st.st_dev, st.st_ino] = f"input {option} {path}"
    named, targets = {}, []
    for option, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        st = _stat(real)
        first = named.get(real) or (st and read.get((st.st_dev, st.st_ino)))
        if first:
            raise ChemspanError(f"{first} and {option} {path} name the same file")
        if os.fspath(path).endswith(os.sep) or st and not S_ISREG(st.st_mode):
            raise ChemspanError(f"{option} {os.fspath(path)!r} is not a regular file")
        named[real] = f"{option} {path}"
        targets.append((path, real, f"{real}.{os.getpid()}.tmp", st))
    made = []
    try:
        for path, _real, tmp, st in targets:
            try:
                os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except OSError as exc:  # named as the user gave it, not as the temporary
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
            made.append(tmp)
            if st:
                os.chmod(tmp, S_IMODE(st.st_mode))
        payloads = []
        yield payloads
        payloads = [data for (_option, path), data in zip(outputs, payloads, strict=True)
                    if path is not None]
        for (_path, _real, tmp, _st), data in zip(targets, payloads):
            with open(tmp, "wb") as fh:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        for _path, real, tmp, _st in targets:
            os.replace(tmp, real)
    except BaseException:
        for tmp in made:
            with suppress(OSError):
                os.remove(tmp)
        raise


def _json_text(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _views_by_doc(docs) -> Dict[str, DocView]:
    return {doc.doc_id: DocView.build(doc) for doc in docs}


# ---------------------------------------------------------------------------
# record parsing and formatting


def _entity_records(mentions) -> List[str]:
    return [f"{m.doc_id}\t{m.sent_id}\t{m.token_start}\t{m.token_end}\t"
            f"{m.etype}\t{m.prob:.6f}" for m in mentions]


def _relation_records(predictions, view: DocView) -> List[str]:
    """Records for one document's predictions, with document-level token offsets."""
    lines = []
    for p in predictions:
        flat = view.sent_flat_start[p.sent_id]
        lines.append(
            f"{p.doc_id}\t{flat + p.subject.token_start}\t{flat + p.subject.token_end}\t"
            f"{flat + p.object.token_start}\t{flat + p.object.token_end}\t"
            f"{p.label}\t{p.prob:.6f}\t"
            f"{p.subject.char_start}\t{p.subject.char_end}\t"
            f"{p.object.char_start}\t{p.object.char_end}")
    return lines


def _check_prob(path, line_no: int, raw: str) -> None:
    """Raise unless a record's prob column is a finite number in [0, 1]."""
    try:
        ok = 0.0 <= float(raw) <= 1.0  # false for NaN and the infinities
    except ValueError:
        ok = False
    if not ok:
        raise CorpusFormatError(path, line_no, "prob", f"{raw!r} is not a number in [0, 1]")


def _parse_entity_keys(path, views: Dict[str, DocView]) -> Set[EntityKey]:
    """Entity records back to character-offset keys via the gold tokenization."""
    keys = set()
    for line_no, (doc_id, sent_id, t_start, t_end, etype, prob) in read_tsv(path, 6):
        if doc_id not in views:
            raise CorpusFormatError(path, line_no, "doc_id", f"unknown document {doc_id!r}")
        view = views[doc_id]
        (k,) = _ints(path, line_no, "sent_id", sent_id)
        if not 0 <= k < len(view.sentences):
            raise CorpusFormatError(path, line_no, "sent_id",
                                    f"document {doc_id} has no sentence {sent_id}")
        offsets = view.offsets[k]
        start, end = _ints(path, line_no, "token offsets", t_start, t_end)
        if not 0 <= start <= end < len(offsets):
            raise CorpusFormatError(path, line_no, "token offsets",
                                    f"[{start},{end}] outside sentence {sent_id} "
                                    f"of document {doc_id}")
        if etype not in ENTITY_TYPES:
            raise CorpusFormatError(path, line_no, "type", f"unknown entity type {etype!r}")
        _check_prob(path, line_no, prob)
        keys.add((doc_id, offsets[start][0], offsets[end][1], etype))
    return keys


def _parse_relation_keys(path, doc_ids) -> Set[RelationKey]:
    """Relation records as character-offset keys, each naming a document of ``doc_ids``."""
    keys = set()
    for line_no, cols in read_tsv(path, 11):
        doc_id, label = cols[0], cols[5]
        if doc_id not in doc_ids:
            raise CorpusFormatError(path, line_no, "doc_id", f"unknown document {doc_id!r}")
        # matched against nothing: that would need the tokenization, which RE scoring skips
        _ints(path, line_no, "token offsets", *cols[1:5])
        if label not in EVAL_GROUPS:
            raise CorpusFormatError(path, line_no, "label",
                                    f"{label!r} is not an evaluated group "
                                    f"({', '.join(EVAL_GROUPS)})")
        _check_prob(path, line_no, cols[6])
        s0, s1, o0, o1 = _ints(path, line_no, "character offsets", *cols[7:11])
        keys.add((doc_id, s0, s1, o0, o1, label))
    return keys


# ---------------------------------------------------------------------------
# subcommands


def cmd_tokenize(args) -> int:
    with _writer(args, ("--out", args.out)) as payloads:
        lines = []
        for doc in load_corpus(args.infile):
            view = DocView.build(doc)
            for sent, offsets in zip(view.sentences, view.offsets):
                for i, (start, end) in enumerate(offsets):
                    lines.append(f"{doc.doc_id}\t{sent.sent_id}\t{i}\t"
                                 f"{doc.text[start:end]}\t{start}\t{end}")
        payloads.append(_lines(lines))
    print(f"wrote {len(lines)} token records to {args.out}")
    return 0


def cmd_align_stats(args) -> int:
    items_path = args.items or f"{args.report}.items.tsv"
    with _writer(args, ("--report", args.report), ("--items", items_path)) as payloads:
        report = compute_loss_report(load_corpus_dir(args.corpus))
        text = render_loss_report(report)
        payloads += [text, render_lost_items(report)]
    print(text, end="")
    print(f"lost-item records written to {items_path}")
    return 0


def _train(args, model_class, prepare, train, noun: str) -> int:
    with _writer(args, ("--out", args.out)) as payloads:
        cfg = load_config(args.config)
        docs = load_corpus_dir(args.corpus)
        model = model_class(cfg, seed=args.seed)
        items = prepare(model, docs)
        curve = train(model, items, seed=args.seed)
        payloads.append(model_bytes(model))
    if curve:
        print(f"trained {len(curve)} epochs on {len(items)} {noun}; "
              f"loss {curve[0]:.4f} -> {curve[-1]:.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_train_ner(args) -> int:
    return _train(args, NerModel, NerModel.prepare_documents, train_ner, "sentences")


def cmd_train_re(args) -> int:
    return _train(args, RelationModel, gold_training_instances, train_re, "pairs")


def cmd_predict_ner(args) -> int:
    with _writer(args, ("--out", args.out)) as payloads:
        model = load_ner_model(args.ckpt)
        mentions = []
        for doc in load_corpus_dir(args.corpus):
            mentions.extend(model.predict_view(DocView.build(doc)))
        payloads.append(_lines(_entity_records(mentions)))
    print(f"wrote {len(mentions)} entity records to {args.out}")
    return 0


def cmd_predict_re(args) -> int:
    with _writer(args, ("--out", args.out)) as payloads:
        model = load_re_model(args.ckpt)
        records = []
        for doc in load_corpus_dir(args.corpus):
            view = DocView.build(doc)
            for k, id_mentions in recoverable_gold_mentions(view).items():
                mentions = [m for _, m in id_mentions]
                records.extend(_relation_records(
                    predict_relations(model, view, k, mentions), view))
        payloads.append(_lines(records))
    print(f"wrote {len(records)} relation records to {args.out}")
    return 0


def cmd_predict_e2e(args) -> int:
    with _writer(args, ("--out-rels", args.out_rels), ("--out-ents", args.out_ents)
                 ) as payloads:
        ner_model = load_ner_model(args.ner_ckpt)
        re_model = load_re_model(args.re_ckpt)
        entity_records, relation_records = [], []
        for doc in load_corpus_dir(args.corpus):
            view = DocView.build(doc)
            mentions, relations = predict_view(ner_model, re_model, view)
            entity_records.extend(_entity_records(mentions))
            relation_records.extend(_relation_records(relations, view))
        payloads += [_lines(relation_records), _lines(entity_records)]
    print(f"wrote {len(relation_records)} relation records to {args.out_rels}")
    if args.out_ents:
        print(f"wrote {len(entity_records)} entity records to {args.out_ents}")
    return 0


def cmd_score(args) -> int:
    with _writer(args, ("--out", args.out)) as payloads:
        docs = load_corpus_dir(args.gold)
        # entity records and the loss report need the tokenization; relation records do not
        views = _views_by_doc(docs) if args.task == "ner" or args.loss_report else {}
        lost_entities, lost_relations = set(), set()
        if args.loss_report:
            stated = parse_loss_report(Path(args.loss_report).read_bytes(),
                                       args.loss_report).counts()
            loss = loss_report_of_views(views.values())
            counts = loss.counts()
            stale = [f"{key} {stated.get(key, 0)} (the corpus has {counts.get(key, 0)})"
                     for key in sorted(stated.keys() | counts.keys())
                     if stated.get(key, 0) != counts.get(key, 0)]
            if stale:
                raise ChemspanError(f"{args.loss_report} is stale: it states {', '.join(stale)}")
            lost_entities, lost_relations = lost_gold_keys(loss, docs)
        if args.task == "ner":
            gold = gold_entity_set(docs) - lost_entities
            predicted = _parse_entity_keys(args.pred, views)
            report = score_ner(gold, predicted,
                               lost_by_type=Counter(k[-1] for k in lost_entities))
        else:
            gold = gold_relation_set(docs) - lost_relations
            predicted = _parse_relation_keys(args.pred, {doc.doc_id for doc in docs})
            report = score_re(gold, predicted,
                              lost_by_group=Counter(k[-1] for k in lost_relations))
        payloads.append(_json_text(report.to_record()))
    print(render_score_report(report), end="")
    if args.out:
        print(f"machine-readable report written to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    docs = load_corpus_dir(args.gold)
    views = _views_by_doc(docs)
    pred_entities = _parse_entity_keys(args.pred_ents, views)
    pred_relations = _parse_relation_keys(args.pred_rels, views)
    breakdown = analyze(docs, pred_entities, pred_relations)
    text = render_report(breakdown)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # after the inputs, so a bad one makes no directory
    categories = [category for category, _attr in CATEGORY_ITEMS]
    names = ["report.txt", "report.json"] + [f"{category}.tsv" for category in categories]
    with _writer(args, *[("--out", out / name) for name in names]) as payloads:
        payloads += ([text, _json_text(breakdown.to_record())]
                     + [render_category_items(breakdown, category) for category in categories])
    print(text, end="")
    print(f"report and per-category dumps written to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemspan",
        description="Span-based chemical-protein relation extraction pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="tokenize an abstracts file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("align-stats", help="tokenization loss over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--items", default=None,
                   help="lost-item record file (default: <report>.items.tsv)")
    p.set_defaults(fn=cmd_align_stats)

    for task, train_help, train, predict_help, predict in (
            ("ner", "train the span-based entity model", cmd_train_ner,
             "predict entity mentions", cmd_predict_ner),
            ("re", "train the relation model on gold pairs", cmd_train_re,
             "classify gold entity pairs", cmd_predict_re)):
        p = sub.add_parser(f"train-{task}", help=train_help)
        p.add_argument("--corpus", required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=train)

        p = sub.add_parser(f"predict-{task}", help=predict_help)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=predict)

    p = sub.add_parser("predict-e2e", help="predict entities, then relations")
    p.add_argument("--ner-ckpt", required=True)
    p.add_argument("--re-ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-rels", required=True)
    p.add_argument("--out-ents", default=None)
    p.set_defaults(fn=cmd_predict_e2e)

    p = sub.add_parser("score", help="strict micro P/R/F1 against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--task", choices=("ner", "re"), required=True)
    p.add_argument("--loss-report", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("analyze", help="error-analysis report")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-ents", required=True)
    p.add_argument("--pred-rels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ChemspanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
