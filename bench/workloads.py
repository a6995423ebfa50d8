"""The benchmark workloads: set-up, timed repetitions, short operations, checks.

Every call into the program goes through the ``chemspan`` package namespace
at call time (``chemspan.train_ner(...)``, never a name bound at import), so
the wrappers ``tracing.Tracer`` installs see the benchmark's own calls too.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

import numpy as np

import chemspan
import chemspan.cli

import corpora

N_ABSTRACTS = 30        # predict-abstracts documents
# predict-abstracts trains with one fixed seed, so that its workload seed varies
# the abstracts only: when the seed also set the model, its behaviour on long
# out-of-domain abstracts moved throughput by 22% and RE F1 by 44% (IQR over
# median, five seeds)
ABSTRACTS_MODEL_SEED = 0
NER_F1_FLOOR = 0.95     # gate 07
RE_F1_FLOOR = 0.90      # gate 07


class CommandFailed(Exception):
    pass


class Ledger:
    """Operations and checks attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def call(self, name: str, fn, *args, **kwargs):
        """One operation; an exception is a failure and propagates."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise

    def timed(self, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = self.call(name, fn, *args, **kwargs)
        return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared steps


def entity_keys(mentions) -> Set[corpora.EntityKey]:
    return {(m.doc_id, m.char_start, m.char_end, m.etype) for m in mentions}


def relation_keys(predictions) -> Set[corpora.RelationKey]:
    return {(p.doc_id, p.subject.char_start, p.subject.char_end,
             p.object.char_start, p.object.char_end, p.label) for p in predictions}


def fingerprint(mentions, relations) -> str:
    """sha256 of the sorted entity and relation keys of one prediction run."""
    payload = json.dumps([sorted(entity_keys(mentions)), sorted(relation_keys(relations))])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class EvalInputs:
    """A gold corpus on disk plus what the CLI must report about it."""

    docs: list
    directory: Path
    layouts: Dict[str, list]
    gold_entities: Set
    gold_relations: Set
    lost_entities: int = 0
    lost_relations: int = 0
    lost_relation_keys: Set = field(default_factory=set)

    @classmethod
    def write(cls, docs, directory: Path, generated: Optional[corpora.GeneratedCorpus] = None):
        corpora.write_corpus(docs, directory)
        gold_entities, gold_relations = corpora.gold_keys(docs)
        layouts = {doc.doc_id: corpora.sentence_tokens(doc.text) for doc in docs}
        if generated is None:
            return cls(docs, directory, layouts, gold_entities, gold_relations)
        return cls(docs, directory, layouts, gold_entities, gold_relations,
                   generated.lost_entities, generated.lost_relations,
                   generated.lost_relation_keys)


@dataclass
class Pass:
    """What one gate-07 pass over the micro corpus produced."""

    ner: object
    re_model: object
    train_ner_s: float
    train_re_s: float
    predict_s: float
    mentions: list
    relations: list
    seed: int
    re_instances: list
    re_curve: list


def micro_pass(ledger: Ledger, docs, seed: int, work: Path) -> Pass:
    """Gate 07 for one seed: train NER then RE at the default config, round-trip
    both through checkpoint files as the CLI does, then predict the corpus."""
    config = chemspan.PipelineConfig()
    ner = chemspan.NerModel(config, seed=seed)
    examples = ledger.call("prepare NER examples", ner.prepare_documents, docs)
    ner_curve, train_ner_s = ledger.timed("train_ner", chemspan.train_ner, ner, examples, seed=seed)
    re_model = chemspan.RelationModel(config, seed=seed)
    instances = ledger.call("prepare RE instances", chemspan.gold_training_instances,
                            re_model, docs)
    re_curve, train_re_s = ledger.timed("train_re", chemspan.train_re, re_model, instances,
                                        seed=seed)
    for name, curve in (("NER", ner_curve), ("RE", re_curve)):
        ledger.check(f"{name} loss curve is finite", bool(curve) and all(map(math.isfinite, curve)),
                     f"{curve[:3]}...{curve[-3:]}")
    ner, re_model = checkpoint_round_trip(ledger, ner, re_model, work)
    (mentions, relations), predict_s = ledger.timed("predict_e2e", chemspan.predict_e2e,
                                                    ner, re_model, docs)
    return Pass(ner, re_model, train_ner_s, train_re_s, predict_s, mentions, relations,
                seed, instances, re_curve)


def checkpoint_round_trip(ledger: Ledger, ner, re_model, work: Path):
    ner_path, re_path = work / "ner.ckpt", work / "re.ckpt"
    ledger.call("save NER checkpoint", chemspan.save_ner_model, ner_path, ner)
    ledger.call("save RE checkpoint", chemspan.save_re_model, re_path, re_model)
    loaded_ner = ledger.call("load NER checkpoint", chemspan.load_ner_model, ner_path)
    loaded_re = ledger.call("load RE checkpoint", chemspan.load_re_model, re_path)
    for name, before, after in (("NER", ner, loaded_ner), ("RE", re_model, loaded_re)):
        a, b = before.parameters(), after.parameters()
        ledger.check(f"{name} checkpoint reloads every array exactly",
                     a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a))
    return loaded_ner, loaded_re


def check_predictions(ledger: Ledger, layouts, mentions, relations) -> None:
    def on_boundaries(m):
        sentences = layouts.get(m.doc_id)
        if sentences is None or not 0 <= m.sent_id < len(sentences):
            return False
        tokens = sentences[m.sent_id]
        return (0 <= m.token_start <= m.token_end < len(tokens)
                and tokens[m.token_start][0] == m.char_start
                and tokens[m.token_end][1] == m.char_end)

    bad = [m for m in mentions if not on_boundaries(m)]
    ledger.check("every mention sits on token boundaries of its sentence", not bad,
                 f"{len(bad)} of {len(mentions)}, first {bad[:1]}")
    bad = [p for p in relations
           if not (p.subject.etype == "CHEMICAL" and p.object.etype == "GENE"
                   and p.doc_id == p.subject.doc_id == p.object.doc_id
                   and p.sent_id == p.subject.sent_id == p.object.sent_id
                   and p.label in corpora.EVAL_GROUPS)]
    ledger.check("every pair is a CHEMICAL subject and a GENE object in one sentence", not bad,
                 f"{len(bad)} of {len(relations)}, first {bad[:1]}")


def library_f1(ledger: Ledger, docs, mentions, relations):
    ner = ledger.call("score_ner", chemspan.score_ner, chemspan.gold_entity_set(docs),
                      chemspan.predicted_entity_set(mentions))
    re_report = ledger.call("score_re", chemspan.score_re, chemspan.gold_relation_set(docs),
                            chemspan.predicted_relation_set(relations))
    return ner.f1, re_report.f1


def run_cli(argv: List[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = chemspan.cli.main(argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code
    if code != 0:
        raise CommandFailed(f"exit {code}: {sink.getvalue().strip()[-400:]}")


def cli_eval(ledger: Ledger, inputs: EvalInputs, ents: Path, rels: Path, out: Path) -> float:
    """The four evaluation commands in one process; returns their wall time."""
    gold = str(inputs.directory)
    out.mkdir(parents=True, exist_ok=True)
    commands = [
        ["align-stats", "--corpus", gold, "--report", out / "loss.txt",
         "--items", out / "lost.tsv"],
        ["score", "--gold", gold, "--pred", ents, "--task", "ner", "--out", out / "ner.json"],
        ["score", "--gold", gold, "--pred", rels, "--task", "re",
         "--loss-report", out / "loss.txt", "--out", out / "re.json"],
        ["analyze", "--gold", gold, "--pred-ents", ents, "--pred-rels", rels,
         "--out", out / "analysis"],
    ]
    t0 = time.perf_counter()
    for argv in commands:
        ledger.call(f"chemspan {argv[0]}", run_cli, [str(a) for a in argv])
    return time.perf_counter() - t0


def check_cli_outputs(ledger: Ledger, inputs: EvalInputs, out: Path, pred_entities: Set,
                      pred_relations: Set):
    """Losses, count conservation and the error partition; returns the CLI's F1s."""
    loss = dict(line.split("\t") for line in
                (out / "loss.txt").read_text(encoding="utf-8").splitlines() if line)
    ner = json.loads((out / "ner.json").read_text(encoding="utf-8"))
    rel = json.loads((out / "re.json").read_text(encoding="utf-8"))
    an = json.loads((out / "analysis" / "report.json").read_text(encoding="utf-8"))

    def same(name, got, want):
        ledger.check(name, got == want, f"got {got}, expected {want}")

    same("align-stats entities_lost equals the injected losses",
         int(loss["entities_lost"]), inputs.lost_entities)
    same("align-stats relations_lost equals the injected losses",
         int(loss["relations_lost"]), inputs.lost_relations)
    same("score ner: tp+fn equals gold entities, lost included",
         ner["tp"] + ner["fn"], len(inputs.gold_entities))
    same("score ner: tp+fp equals predicted entities", ner["tp"] + ner["fp"], len(pred_entities))
    same("score ner: tp", ner["tp"], len(inputs.gold_entities & pred_entities))
    same("score re: lost equals the injected relation losses", rel["lost"], inputs.lost_relations)
    same("score re: tp+fn equals gold relations, lost included",
         rel["tp"] + rel["fn"], len(inputs.gold_relations))
    same("score re: tp+fp equals predicted relations", rel["tp"] + rel["fp"], len(pred_relations))
    same("score re: tp", rel["tp"],
         len((inputs.gold_relations - inputs.lost_relation_keys) & pred_relations))
    same("analyze: FN categories sum to all false negatives",
         an["ner_caused_fn"] + an["null_fn"] + an["confusion_fn"], an["fn_total"])
    same("analyze: FP categories sum to all false positives",
         an["ner_caused_fp"] + an["confusion_fp"] + an["spurious_fp"], an["fp_total"])
    same("analyze: errors total FN plus FP", an["re_errors_total"],
         an["fn_total"] + an["fp_total"])
    same("analyze and score agree on relation errors",
         (an["fn_total"], an["fp_total"]), (rel["fn"], rel["fp"]))
    return ner["f1"], rel["f1"]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """``setup`` builds inputs and models; ``rep`` is one timed repetition of the
    workload's main step; ``tail`` is one round of its short operations.

    Each returns metric samples as name -> list of values. The runner repeats
    ``rep`` for most of the run and ``tail`` for the rest, so short operations
    are sampled across many moments instead of in a few bursts, and reports
    the median of each metric's pooled samples.
    """

    name = ""
    setup_repeats = 2
    tail_seconds = 12.0     # the host's speed shifts for seconds at a time

    def __init__(self, seed: int, work: Path, ledger: Ledger):
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.fingerprints: List[str] = []

    def setup(self) -> Dict[str, List[float]]:
        raise NotImplementedError

    def rep(self) -> Dict[str, List[float]]:
        raise NotImplementedError

    def tail(self) -> Dict[str, List[float]]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"corpus": corpora.describe(self.inputs.docs, self.inputs.layouts)}

    def _micro_pass(self, docs, seed: int):
        """``micro_pass`` plus the gate-07 F1 floors; returns the pass and its F1s."""
        result = micro_pass(self.ledger, docs, seed, self.work)
        ner_f1, re_f1 = library_f1(self.ledger, docs, result.mentions, result.relations)
        self.ledger.check(f"micro NER F1 >= {NER_F1_FLOOR}", ner_f1 >= NER_F1_FLOOR, f"{ner_f1}")
        self.ledger.check(f"micro RE F1 >= {RE_F1_FLOOR}", re_f1 >= RE_F1_FLOOR, f"{re_f1}")
        return result, ner_f1, re_f1

    def _predict_again(self, result: Pass, docs) -> float:
        """One more predict_e2e call with a pass's models; it must repeat the
        pass's output. Returns documents per second."""
        (mentions, relations), seconds = self.ledger.timed(
            "predict_e2e", chemspan.predict_e2e, result.ner, result.re_model, docs)
        self.ledger.check("predict_e2e gives the same output on every call",
                          fingerprint(mentions, relations)
                          == fingerprint(result.mentions, result.relations))
        return len(docs) / seconds

    def _train_re_again(self, result: Pass) -> float:
        """train_re once more from a fresh model with the pass's seed; it must
        repeat the pass's loss curve. Returns its seconds."""
        model = chemspan.RelationModel(chemspan.PipelineConfig(), seed=result.seed)
        curve, seconds = self.ledger.timed("train_re", chemspan.train_re, model,
                                           result.re_instances, seed=result.seed)
        self.ledger.check("train_re repeats its loss curve", curve == result.re_curve)
        return seconds

    def _eval_round(self) -> float:
        """The CLI evaluation of the written predictions, checked; its F1s must
        equal the library's. Returns documents per second."""
        seconds = cli_eval(self.ledger, self.inputs, self.ents, self.rels, self.work / "eval")
        cli_f1 = check_cli_outputs(self.ledger, self.inputs, self.work / "eval",
                                   self.pred_entities, self.pred_relations)
        self.ledger.check("CLI and library F1 agree", cli_f1 == self.library_f1,
                          f"{cli_f1} vs {self.library_f1}")
        return len(self.inputs.docs) / seconds

    def _write_model_predictions(self, mentions, relations) -> None:
        self.ents, self.rels = self.work / "pred_ents.tsv", self.work / "pred_rels.tsv"
        corpora.write_predictions(
            self.inputs.layouts,
            [(m.doc_id, m.char_start, m.char_end, m.etype, m.prob) for m in mentions],
            [(p.doc_id, p.subject.char_start, p.subject.char_end, p.object.char_start,
              p.object.char_end, p.label, p.prob) for p in relations],
            self.ents, self.rels)
        self.pred_entities, self.pred_relations = entity_keys(mentions), relation_keys(relations)


class TrainMicro(Workload):
    """Gate 07 for one seed, timed whole: training dominates."""

    name = "train-micro"
    setup_repeats = 5

    def setup(self):
        docs = self.ledger.call("load micro corpus", chemspan.load_micro_corpus)
        self.inputs = EvalInputs.write(docs, self.work / "micro")
        return {}

    def rep(self):
        docs = self.inputs.docs
        self.result, ner_f1, re_f1 = self._micro_pass(docs, self.seed)
        mentions, relations = self.result.mentions, self.result.relations
        check_predictions(self.ledger, self.inputs.layouts, mentions, relations)
        self.fingerprints.append(fingerprint(mentions, relations))
        self._write_model_predictions(mentions, relations)
        self.library_f1 = (ner_f1, re_f1)
        return {"train_ner_s": [self.result.train_ner_s], "train_re_s": [self.result.train_re_s],
                "predict_docs_per_s": [len(docs) / self.result.predict_s],
                "eval_docs_per_s": [self._eval_round()], "ner_f1": [ner_f1], "re_f1": [re_f1]}

    def tail(self):
        # set-up takes milliseconds here, so it is sampled across the tail too
        t0 = time.perf_counter()
        self.setup()
        setup_s = time.perf_counter() - t0
        return {"setup_s": [setup_s],
                "predict_docs_per_s": [self._predict_again(self.result, self.inputs.docs)],
                "eval_docs_per_s": [self._eval_round()]}


class PredictAbstracts(Workload):
    """Forward-only prediction over long generated abstracts."""

    name = "predict-abstracts"
    setup_repeats = 3
    tail_seconds = 8.0      # its short operations are already ~0.3 s long

    def setup(self):
        generated = self.ledger.call("generate abstracts", corpora.generate_abstracts,
                                     self.seed, N_ABSTRACTS)
        self.inputs = EvalInputs.write(generated.docs, self.work / "abstracts", generated)
        micro = self.ledger.call("load micro corpus", chemspan.load_micro_corpus)
        self.models = self._micro_pass(micro, ABSTRACTS_MODEL_SEED)[0]
        return {"train_ner_s": [self.models.train_ner_s], "train_re_s": [self.models.train_re_s]}

    def rep(self):
        # one predict_e2e call per document, as `chemspan predict-e2e` loops over
        # documents, so every document is a sample
        mentions, relations, rates = [], [], []
        for doc in self.inputs.docs:
            (m, r), seconds = self.ledger.timed("predict_e2e", chemspan.predict_e2e,
                                                self.models.ner, self.models.re_model, [doc])
            mentions.extend(m)
            relations.extend(r)
            rates.append(1.0 / seconds)
        check_predictions(self.ledger, self.inputs.layouts, mentions, relations)
        ner_f1, re_f1 = library_f1(self.ledger, self.inputs.docs, mentions, relations)
        self.fingerprints.append(fingerprint(mentions, relations))
        self._write_model_predictions(mentions, relations)
        self.library_f1 = (ner_f1, re_f1)
        return {"predict_docs_per_s": rates, "eval_docs_per_s": [self._eval_round()],
                "ner_f1": [ner_f1], "re_f1": [re_f1]}

    def tail(self):
        return {"eval_docs_per_s": [self._eval_round()],
                "train_re_s": [self._train_re_again(self.models)]}


WORKLOADS = {w.name: w for w in (TrainMicro, PredictAbstracts)}
