"""End-to-end command-line tests over small temporary corpora."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chemspan.checkpoint import (
    CheckpointError,
    load_ner_model,
    load_re_model,
    save_ner_model,
    save_re_model,
)
from chemspan.cli import main
from chemspan.config import EncoderConfig, NerConfig, PipelineConfig, RelationConfig
from chemspan.corpus import Document, GoldEntity, GoldRelation, save_corpus
from chemspan.microcorpus import build_micro_corpus
from chemspan.ner import NerModel
from chemspan.relation import RelationModel

from test_scoring import twin_documents


def small_config_dict():
    return {
        "encoder": {"dim": 16, "blocks": 1, "ffn_dim": 32, "buckets": 256, "max_len": 128},
        "ner": {"epochs": 8, "context_window": 40},
        "relation": {"epochs": 12, "context_window": 20, "head_hidden": 16, "lr": 0.01},
    }


@pytest.fixture
def micro_dir(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(build_micro_corpus()[:3], path)
    return path


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config_dict()), encoding="utf-8")
    return path


def lossy_corpus(tmp_path):
    """One clean document plus one with a mid-token (unrecoverable) entity."""
    clean_text = "Aspirin inhibits COX2 strongly."
    clean = Document(
        "dclean", clean_text, "", clean_text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 0, 7, "Aspirin"),
                  GoldEntity("T2", "GENE", 17, 21, "COX2")),
        relations=(GoldRelation("CPR:4", True, "T1", "T2"),))
    lossy_text = "Cells were differentiated with retinoic acid and TPA."
    lossy = Document(
        "dlost", lossy_text, "", lossy_text + " ",
        entities=(GoldEntity("T1", "CHEMICAL", 33, 44, "tinoic acid"),
                  GoldEntity("T2", "GENE", 49, 52, "TPA")),
        relations=(GoldRelation("CPR:4", True, "T1", "T2"),))
    path = tmp_path / "lossy"
    save_corpus([clean, lossy], path)
    return path


def test_tokenize_emits_offset_exact_records(tmp_path):
    infile = tmp_path / "abstracts.tsv"
    infile.write_text("d1\tKITD816V mutation.\tIt alters Cl- flux.\n", encoding="utf-8")
    out = tmp_path / "tokens.tsv"
    assert main(["tokenize", "--in", str(infile), "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert all(len(r) == 6 for r in rows)
    assert rows[0] == ["d1", "0", "0", "KITD", "0", "4"]
    assert rows[1] == ["d1", "0", "1", "816", "4", "7"]
    # second sentence restarts token indexing but keeps absolute offsets
    second = [r for r in rows if r[1] == "1"]
    assert second[0][2] == "0"
    assert int(second[0][4]) == 19


def test_align_stats_writes_report_and_items(tmp_path, capsys):
    corpus = lossy_corpus(tmp_path)
    report = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(corpus), "--report", str(report)]) == 0
    text = report.read_text()
    assert "entities_lost\t1" in text
    assert "relations_lost\t1" in text
    items = (tmp_path / "loss.txt.items.tsv").read_text()
    assert "entity\tdlost\tT1\tunalignable" in items
    assert "relation\tdlost\tT1\tT2\tCPR:4\tlost-argument" in items
    assert "entities_lost\t1" in capsys.readouterr().out


def test_full_pipeline_through_the_cli(tmp_path, micro_dir, config_path):
    ner_ckpt = tmp_path / "ner.ckpt"
    re_ckpt = tmp_path / "re.ckpt"
    assert main(["train-ner", "--corpus", str(micro_dir), "--config", str(config_path),
                 "--seed", "1", "--out", str(ner_ckpt)]) == 0
    assert main(["train-re", "--corpus", str(micro_dir), "--config", str(config_path),
                 "--seed", "1", "--out", str(re_ckpt)]) == 0

    ents = tmp_path / "ents.tsv"
    assert main(["predict-ner", "--ckpt", str(ner_ckpt), "--corpus", str(micro_dir),
                 "--out", str(ents)]) == 0
    for line in ents.read_text().splitlines():
        cols = line.split("\t")
        assert len(cols) == 6
        float(cols[5])

    rels = tmp_path / "rels.tsv"
    assert main(["predict-re", "--ckpt", str(re_ckpt), "--corpus", str(micro_dir),
                 "--out", str(rels)]) == 0
    for line in rels.read_text().splitlines():
        cols = line.split("\t")
        assert len(cols) == 11
        assert cols[5].startswith("CPR:")

    e2e_rels = tmp_path / "e2e_rels.tsv"
    e2e_ents = tmp_path / "e2e_ents.tsv"
    assert main(["predict-e2e", "--ner-ckpt", str(ner_ckpt), "--re-ckpt", str(re_ckpt),
                 "--corpus", str(micro_dir), "--out-rels", str(e2e_rels),
                 "--out-ents", str(e2e_ents)]) == 0
    assert e2e_rels.exists() and e2e_ents.exists()

    score_json = tmp_path / "score.json"
    assert main(["score", "--gold", str(micro_dir), "--pred", str(e2e_ents),
                 "--task", "ner", "--out", str(score_json)]) == 0
    record = json.loads(score_json.read_text())
    assert record["task"] == "NER"
    assert record["tp"] + record["fn"] == 24  # gold entities in the 3 docs

    assert main(["score", "--gold", str(micro_dir), "--pred", str(e2e_rels),
                 "--task", "re"]) == 0

    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--gold", str(micro_dir), "--pred-ents", str(e2e_ents),
                 "--pred-rels", str(e2e_rels), "--out", str(out_dir)]) == 0
    assert (out_dir / "report.txt").exists()
    breakdown = json.loads((out_dir / "report.json").read_text())
    assert breakdown["fn_total"] + breakdown["fp_total"] == breakdown["re_errors_total"]
    for name in ("ner_caused_fn", "ner_caused_fp", "null_fn",
                 "confusion_fn", "confusion_fp", "spurious_fp"):
        assert (out_dir / f"{name}.tsv").exists()


def test_score_with_loss_report_matches_plain_scoring(tmp_path, capsys):
    corpus = lossy_corpus(tmp_path)
    report_path = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(corpus),
                 "--report", str(report_path)]) == 0
    capsys.readouterr()

    # hand-written predictions: the clean document's two entities
    pred = tmp_path / "pred_ents.tsv"
    pred.write_text("dclean\t0\t0\t0\tCHEMICAL\t0.990000\n"
                    "dclean\t0\t2\t3\tGENE\t0.980000\n", encoding="utf-8")
    plain_json = tmp_path / "plain.json"
    loss_json = tmp_path / "with_loss.json"
    assert main(["score", "--gold", str(corpus), "--pred", str(pred),
                 "--task", "ner", "--out", str(plain_json)]) == 0
    assert main(["score", "--gold", str(corpus), "--pred", str(pred), "--task", "ner",
                 "--loss-report", str(report_path), "--out", str(loss_json)]) == 0
    plain = json.loads(plain_json.read_text())
    with_loss = json.loads(loss_json.read_text())
    for field in ("tp", "fp", "fn", "precision", "recall", "f1"):
        assert plain[field] == with_loss[field], field
    assert plain["lost"] == 0 and with_loss["lost"] == 1

    # relation task: predict only the clean document's relation
    pred_rels = tmp_path / "pred_rels.tsv"
    pred_rels.write_text("dclean\t0\t0\t2\t3\tCPR:4\t0.900000\t0\t7\t17\t21\n",
                         encoding="utf-8")
    assert main(["score", "--gold", str(corpus), "--pred", str(pred_rels), "--task", "re",
                 "--loss-report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "counts\ttp=1 fp=0 fn=1 lost=1" in out


@pytest.mark.parametrize("task, records", [
    ("ner", "dclean\t0\t0\t0\tCHEMICAL\t0.990000\ndclean\t0\t2\t3\tGENE\t0.980000\n"),
    ("re", "dclean\t0\t0\t2\t3\tCPR:4\t0.900000\t0\t7\t17\t21\n"),
])
def test_loss_report_with_twin_lost_entities_is_not_stale(tmp_path, capsys, task, records):
    # two lost chemicals with the same offsets and type: 2 lost annotations, 1 key each
    corpus = tmp_path / "twin"
    save_corpus(twin_documents(), corpus)
    report_path = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(corpus), "--report", str(report_path)]) == 0
    assert "entities_lost\t2" in report_path.read_text()
    pred = tmp_path / "pred.tsv"
    pred.write_text(records, encoding="utf-8")
    plain_json, loss_json = tmp_path / "plain.json", tmp_path / "with_loss.json"
    assert main(["score", "--gold", str(corpus), "--pred", str(pred), "--task", task,
                 "--out", str(plain_json)]) == 0
    assert main(["score", "--gold", str(corpus), "--pred", str(pred), "--task", task,
                 "--loss-report", str(report_path), "--out", str(loss_json)]) == 0
    assert "error" not in capsys.readouterr().err
    plain = json.loads(plain_json.read_text())
    with_loss = json.loads(loss_json.read_text())
    for field in ("tp", "fp", "fn", "precision", "recall", "f1"):
        assert plain[field] == with_loss[field], field
    assert plain["lost"] == 0 and with_loss["lost"] == 1


def test_stale_loss_report_is_refused(tmp_path, capsys):
    corpus = lossy_corpus(tmp_path)
    stale = tmp_path / "stale.txt"
    stale.write_text("entities_total\t4\nentities_lost\t3\n"
                     "relations_total\t2\nrelations_lost\t0\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("", encoding="utf-8")
    rc = main(["score", "--gold", str(corpus), "--pred", str(pred),
               "--task", "ner", "--loss-report", str(stale)])
    assert rc == 2
    assert "stale" in capsys.readouterr().err


@pytest.mark.parametrize("edits", [
    {"entities_total": "999", "relations_total": "0"},
    {"entities_total": "999"},
    {"relations_total": "0"},
    {"entities_lost[CHEMICAL]": "1", "entities_lost[GENE]": "1"},
    {"relations_lost[CPR:4]": "1", "relations_lost[CPR:9]": "1"},
], ids=["both-totals", "entities-total", "relations-total", "by-type", "by-group"])
def test_loss_report_with_any_wrong_count_is_stale(tmp_path, capsys, edits):
    # the lost totals stay right, so only the other counts can tell the report is stale
    corpus = tmp_path / "twin"
    save_corpus(twin_documents(), corpus)
    report_path = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(corpus), "--report", str(report_path)]) == 0
    rows = dict(line.split("\t") for line in report_path.read_text().splitlines())
    rows.update(edits)
    report_path.write_text("".join(f"{k}\t{v}\n" for k, v in rows.items()), encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("", encoding="utf-8")
    capsys.readouterr()
    rc = main(["score", "--gold", str(corpus), "--pred", str(pred), "--task", "re",
               "--loss-report", str(report_path)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "stale" in err[0]
    for key in edits:
        assert key in err[0]


def test_sentence_longer_than_max_len_is_one_error_naming_document_and_sentence(
        tmp_path, micro_dir, capsys):
    from chemspan.alignment import DocView
    from chemspan.corpus import load_corpus_dir

    cfg = tiny_cfg()
    cfg.encoder.max_len = 8
    ckpt = tmp_path / "ner.ckpt"
    save_ner_model(ckpt, NerModel(cfg, seed=0))
    views = [DocView.build(doc) for doc in load_corpus_dir(micro_dir)]
    doc_id, sent_id = next((v.doc.doc_id, sent.sent_id) for v in views
                           for sent, tokens in zip(v.sentences, v.tokens) if len(tokens) > 8)
    out = tmp_path / "ents.tsv"
    capsys.readouterr()
    assert main(["predict-ner", "--ckpt", str(ckpt), "--corpus", str(micro_dir),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"document {doc_id!r} sentence {sent_id}:" in err[0]
    assert "max_len=8" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, max_len", [("predict-re", 10), ("train-re", 14)])
def test_relation_sentence_too_long_is_one_error_naming_document_and_sentence(
        tmp_path, micro_dir, capsys, command, max_len):
    from chemspan.alignment import DocView
    from chemspan.corpus import load_corpus_dir
    from chemspan.relation import generate_pairs, recoverable_gold_mentions

    # the first sentence with a gold pair that, with 4 markers and [CLS], exceeds max_len
    views = [DocView.build(doc) for doc in load_corpus_dir(micro_dir)]
    doc_id, sent_id, n = next(
        (v.doc.doc_id, v.sentences[k].sent_id, len(v.tokens[k])) for v in views
        for k, id_mentions in recoverable_gold_mentions(v).items()
        if generate_pairs([m for _, m in id_mentions]) and len(v.tokens[k]) + 5 > max_len)
    out = tmp_path / "out"
    if command == "predict-re":
        cfg = tiny_cfg()
        cfg.encoder.max_len = max_len
        ckpt = tmp_path / "re.ckpt"
        save_re_model(ckpt, RelationModel(cfg, seed=0))
        argv = ["predict-re", "--ckpt", str(ckpt)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"encoder": {"max_len": max_len}}), encoding="utf-8")
        argv = ["train-re", "--config", str(config)]
    capsys.readouterr()
    assert main(argv + ["--corpus", str(micro_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"document {doc_id!r} sentence {sent_id}: {n} tokens" in err[0]
    assert f"max_len={max_len}" in err[0]
    assert "5 symbols more than NER" in err[0]
    assert not out.exists()


def test_checkpoint_kind_mismatch_is_an_error(tmp_path, micro_dir, capsys):
    cfg = PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=64, max_len=64),
        ner=NerConfig(context_window=10),
        relation=RelationConfig(context_window=10, head_hidden=8))
    re_ckpt = tmp_path / "re.ckpt"
    save_re_model(re_ckpt, RelationModel(cfg, seed=0))
    rc = main(["predict-ner", "--ckpt", str(re_ckpt), "--corpus", str(micro_dir),
               "--out", str(tmp_path / "x.tsv")])
    assert rc == 2
    assert "expected 'ner'" in capsys.readouterr().err


def test_missing_gold_directory_is_reported_not_raised(tmp_path, capsys):
    rc = main(["score", "--gold", str(tmp_path / "nowhere"),
               "--pred", str(tmp_path / "nofile"), "--task", "ner"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_a_failed_analyze_leaves_no_directory_it_made(tmp_path, capsys):
    (tmp_path / "kept").mkdir()
    for out in ("outdir/sub", "kept/new"):
        rc = main(["analyze", "--gold", str(tmp_path / "nonexistent"),
                   "--pred-ents", str(tmp_path / "ents.tsv"), "--pred-rels",
                   str(tmp_path / "rels.tsv"), "--out", str(tmp_path / out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert not any((tmp_path / "kept").iterdir())


# ---------------------------------------------------------------------------
# model persistence wrappers


def tiny_cfg():
    return PipelineConfig(
        encoder=EncoderConfig(dim=8, blocks=1, ffn_dim=16, buckets=64, max_len=64),
        ner=NerConfig(context_window=10, max_span_width=4, width_dim=5),
        relation=RelationConfig(context_window=10, head_hidden=8))


def test_ner_model_round_trips_through_a_checkpoint(tmp_path):
    model = NerModel(tiny_cfg(), seed=7)
    path = tmp_path / "m.ckpt"
    save_ner_model(path, model)
    loaded = load_ner_model(path)
    assert loaded.seed == 7
    assert loaded.config.to_dict() == model.config.to_dict()
    for name, value in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name], value)


def test_re_model_round_trips_through_a_checkpoint(tmp_path):
    model = RelationModel(tiny_cfg(), seed=3)
    path = tmp_path / "m.ckpt"
    save_re_model(path, model)
    loaded = load_re_model(path)
    for name, value in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name], value)


def test_loading_the_wrong_kind_raises(tmp_path):
    path = tmp_path / "m.ckpt"
    save_ner_model(path, NerModel(tiny_cfg(), seed=0))
    with pytest.raises(CheckpointError):
        load_re_model(path)


def test_predict_e2e_writes_the_library_predictions(tmp_path, micro_dir):
    from chemspan.corpus import load_corpus_dir
    from chemspan.relation import predict_e2e

    config = small_config_dict()
    config["ner"].update(epochs=20, lr=0.02)  # enough to predict relations
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    ner_ckpt, re_ckpt = tmp_path / "ner.ckpt", tmp_path / "re.ckpt"
    assert main(["train-ner", "--corpus", str(micro_dir), "--config", str(config_path),
                 "--seed", "2", "--out", str(ner_ckpt)]) == 0
    assert main(["train-re", "--corpus", str(micro_dir), "--config", str(config_path),
                 "--seed", "2", "--out", str(re_ckpt)]) == 0
    rels, ents = tmp_path / "rels.tsv", tmp_path / "ents.tsv"
    assert main(["predict-e2e", "--ner-ckpt", str(ner_ckpt), "--re-ckpt", str(re_ckpt),
                 "--corpus", str(micro_dir), "--out-rels", str(rels),
                 "--out-ents", str(ents)]) == 0

    mentions, relations = predict_e2e(load_ner_model(ner_ckpt), load_re_model(re_ckpt),
                                      load_corpus_dir(micro_dir))
    assert mentions and relations
    assert ents.read_text().splitlines() == [
        f"{m.doc_id}\t{m.sent_id}\t{m.token_start}\t{m.token_end}\t{m.etype}\t{m.prob:.6f}"
        for m in mentions]
    # relation records: doc, label, prob and character offsets; token columns are
    # document-level and covered by the full-pipeline test
    rows = [line.split("\t") for line in rels.read_text().splitlines()]
    assert [[r[0]] + r[5:] for r in rows] == [
        [p.doc_id, p.label, f"{p.prob:.6f}", str(p.subject.char_start),
         str(p.subject.char_end), str(p.object.char_start), str(p.object.char_end)]
        for p in relations]


def test_predict_e2e_builds_each_document_view_once(tmp_path, micro_dir, monkeypatch):
    from chemspan.alignment import DocView

    ner_ckpt, re_ckpt = tmp_path / "ner.ckpt", tmp_path / "re.ckpt"
    save_ner_model(ner_ckpt, NerModel(tiny_cfg(), seed=0))
    save_re_model(re_ckpt, RelationModel(tiny_cfg(), seed=0))
    built = []
    original = DocView.build.__func__

    def counting_build(cls, doc):
        built.append(doc.doc_id)
        return original(cls, doc)

    monkeypatch.setattr(DocView, "build", classmethod(counting_build))
    rels = tmp_path / "rels.tsv"
    assert main(["predict-e2e", "--ner-ckpt", str(ner_ckpt), "--re-ckpt", str(re_ckpt),
                 "--corpus", str(micro_dir), "--out-rels", str(rels),
                 "--out-ents", str(tmp_path / "ents.tsv")]) == 0
    assert built == ["MICRO0", "MICRO1", "MICRO2"]
    # relation records are matched on character offsets: no tokenization needed
    built.clear()
    assert main(["score", "--gold", str(micro_dir), "--pred", str(rels), "--task", "re"]) == 0
    assert built == []


# ---------------------------------------------------------------------------
# malformed input files: exit 2 with one error line naming the file and line

ENTITY_RECORD = b"MICRO0\t0\t0\t0\tCHEMICAL\t0.9\n"

# case -> (argv, bytes appended to files in the corpus directory, location named)
BAD_INPUTS = {
    "non-integer token offset in an entity record": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv"],
        {"ents.tsv": ENTITY_RECORD + b"MICRO0\t0\tx\t1\tCHEMICAL\t0.9\n"}, "ents.tsv:2:"),
    "non-integer character offset in a relation record": (
        ["score", "--gold", "{dir}", "--task", "re", "--pred", "{dir}/rels.tsv"],
        {"rels.tsv": b"MICRO0\t0\t0\t2\t3\tCPR:4\t0.9\t0\t7\tq\t21\n"}, "rels.tsv:1:"),
    "loss-report line without a tab": (
        ["score", "--gold", "{dir}", "--task", "re", "--pred", "{dir}/rels.tsv",
         "--loss-report", "{dir}/loss.txt"],
        {"rels.tsv": b"", "loss.txt": b"entities_total\t3\nentities_lost 1\n"}, "loss.txt:2:"),
    "non-integer loss-report count": (
        ["score", "--gold", "{dir}", "--task", "re", "--pred", "{dir}/rels.tsv",
         "--loss-report", "{dir}/loss.txt"],
        {"rels.tsv": b"", "loss.txt": b"entities_total\t3\nentity_loss_rate\t0.500000\n"
                                      b"relations_lost\tmany\n"}, "loss.txt:3:"),
    "non-UTF-8 abstracts file": (
        ["align-stats", "--corpus", "{dir}", "--report", "{dir}/loss.txt"],
        {"abstracts.tsv": b"MICRO9\tT\xff.\tA.\n"}, "abstracts.tsv:4:"),
    "non-UTF-8 prediction file": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv"],
        {"ents.tsv": ENTITY_RECORD + ENTITY_RECORD[:-1] + b"\xe9\n"}, "ents.tsv:2:"),
    "unknown type in an entity record": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv"],
        {"ents.tsv": ENTITY_RECORD + b"MICRO0\t0\t0\t0\tchemical\t0.9\n"},
        "ents.tsv:2: bad type: unknown entity type 'chemical'"),
    "unknown document in a relation record": (
        ["score", "--gold", "{dir}", "--task", "re", "--pred", "{dir}/rels.tsv"],
        {"rels.tsv": b"NOPE\t0\t0\t2\t3\tCPR:4\t0.9\t0\t7\t9\t21\n"},
        "rels.tsv:1: bad doc_id: unknown document 'NOPE'"),
    "non-evaluated label in a relation record": (
        ["analyze", "--gold", "{dir}", "--pred-ents", "{dir}/ents.tsv",
         "--pred-rels", "{dir}/rels.tsv", "--out", "{dir}/analysis"],
        {"ents.tsv": ENTITY_RECORD,
         "rels.tsv": b"MICRO0\t0\t0\t2\t3\tCPR:4\t0.9\t0\t7\t9\t21\n"
                     b"MICRO0\t0\t0\t2\t3\tCPR:1\t0.9\t0\t7\t9\t21\n"},
        "rels.tsv:2: bad label: 'CPR:1' is not an evaluated group"),
    "non-numeric prob in an entity record": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv"],
        {"ents.tsv": ENTITY_RECORD + b"MICRO0\t0\t0\t0\tCHEMICAL\tnot-a-prob\n"},
        "ents.tsv:2: bad prob: 'not-a-prob' is not a number in [0, 1]"),
    "NaN prob in an entity record": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv"],
        {"ents.tsv": b"MICRO0\t0\t0\t0\tCHEMICAL\tnan\n"}, "ents.tsv:1: bad prob"),
    "prob above one in a relation record": (
        ["score", "--gold", "{dir}", "--task", "re", "--pred", "{dir}/rels.tsv"],
        {"rels.tsv": b"MICRO0\t0\t0\t2\t3\tCPR:4\t1.5\t0\t7\t9\t21\n"},
        "rels.tsv:1: bad prob: '1.5' is not a number in [0, 1]"),
    "non-numeric prob in a relation record": (
        ["analyze", "--gold", "{dir}", "--pred-ents", "{dir}/ents.tsv",
         "--pred-rels", "{dir}/rels.tsv", "--out", "{dir}/analysis"],
        {"ents.tsv": ENTITY_RECORD,
         "rels.tsv": b"MICRO0\t0\t0\t2\t3\tCPR:4\tprob?\t0\t7\t9\t21\n"},
        "rels.tsv:1: bad prob"),
    "non-integer token offsets in a relation record": (
        ["score", "--gold", "{dir}", "--task", "re", "--pred", "{dir}/rels.tsv"],
        {"rels.tsv": b"MICRO0\t0\t0\t2\t3\tCPR:4\t0.9\t0\t7\t9\t21\n"
                     b"MICRO0\tx\ty\tz\tw\tCPR:4\tprob?\t0\t7\t9\t21\n"},
        "rels.tsv:2: bad token offsets: non-integer token offsets 'x'/'y'/'z'/'w'"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_line_is_one_error_naming_file_and_line(micro_dir, capsys, case):
    argv, appended, location = BAD_INPUTS[case]
    for name, data in appended.items():
        path = micro_dir / name
        path.write_bytes((path.read_bytes() if path.exists() else b"") + data)
    assert main([arg.format(dir=micro_dir) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"{micro_dir / location}" in err[0], err


# ---------------------------------------------------------------------------
# operating-system errors: exit 2 with one error line naming the path

# case -> (argv, the path the error line names); {dir} is the corpus directory
OS_ERRORS = {
    "config is a directory": (
        ["train-ner", "--corpus", "{dir}", "--config", "{dir}", "--out", "{dir}/ner.ckpt"],
        "{dir}"),
    "checkpoint is a directory": (
        ["predict-ner", "--ckpt", "{dir}", "--corpus", "{dir}", "--out", "{dir}/ents.tsv"],
        "{dir}"),
    "tokenize output is a directory": (
        ["tokenize", "--in", "{dir}/abstracts.tsv", "--out", "{dir}"], "{dir}"),
    "align-stats report is a directory": (
        ["align-stats", "--corpus", "{dir}", "--report", "{dir}"], "{dir}"),
    "analyze output is an existing file": (
        ["analyze", "--gold", "{dir}", "--pred-ents", "{dir}/ents.tsv",
         "--pred-rels", "{dir}/rels.tsv", "--out", "{dir}/abstracts.tsv"],
        "{dir}/abstracts.tsv"),
}


@pytest.mark.parametrize("case", sorted(OS_ERRORS))
def test_os_error_is_one_error_naming_the_path(micro_dir, capsys, case):
    argv, named = OS_ERRORS[case]
    # prediction records that parse, so that analyze reaches its output
    (micro_dir / "ents.tsv").write_bytes(ENTITY_RECORD)
    (micro_dir / "rels.tsv").write_bytes(b"")
    assert main([arg.format(dir=micro_dir) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert repr(named.format(dir=micro_dir)) in err[0], err


# ---------------------------------------------------------------------------
# a command that cannot open one of its outputs writes and prints nothing

# case -> (argv, the path made a directory so that opening it fails, outputs
# the command would otherwise write before it); {dir} is the corpus directory
BLOCKED_OUTPUTS = {
    "score --out is a directory": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv",
         "--out", "{dir}/blocked"], "{dir}/blocked", []),
    "align-stats --items is a directory": (
        ["align-stats", "--corpus", "{dir}", "--report", "{dir}/loss.txt",
         "--items", "{dir}/blocked"], "{dir}/blocked", ["{dir}/loss.txt"]),
    "analyze report.json is a directory": (
        ["analyze", "--gold", "{dir}", "--pred-ents", "{dir}/ents.tsv",
         "--pred-rels", "{dir}/rels.tsv", "--out", "{dir}/analysis"],
        "{dir}/analysis/report.json", ["{dir}/analysis/report.txt"]),
    "predict-e2e --out-ents is a directory": (
        ["predict-e2e", "--ner-ckpt", "{dir}/ner.ckpt", "--re-ckpt", "{dir}/re.ckpt",
         "--corpus", "{dir}", "--out-rels", "{dir}/rels.out", "--out-ents", "{dir}/blocked"],
        "{dir}/blocked", ["{dir}/rels.out"]),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_OUTPUTS))
def test_unopenable_output_leaves_no_complete_looking_output(micro_dir, capsys, case):
    argv, blocked, earlier = BLOCKED_OUTPUTS[case]
    (micro_dir / "ents.tsv").write_bytes(ENTITY_RECORD)
    (micro_dir / "rels.tsv").write_bytes(b"")
    save_ner_model(micro_dir / "ner.ckpt", NerModel(tiny_cfg(), seed=0))
    save_re_model(micro_dir / "re.ckpt", RelationModel(tiny_cfg(), seed=0))
    blocked_dir = Path(blocked.format(dir=micro_dir))
    blocked_dir.mkdir(parents=True)
    assert main([arg.format(dir=micro_dir) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert repr(str(blocked_dir)) in err, err
    for path in earlier:
        path = Path(path.format(dir=micro_dir))
        assert not path.exists() or path.stat().st_size == 0, path


# case -> (argv, the two options, the path both name, bytes there beforehand or None)
SAME_FILE_OUTPUTS = {
    "predict-e2e --out-rels and --out-ents": (
        ["predict-e2e", "--ner-ckpt", "{dir}/ner.ckpt", "--re-ckpt", "{dir}/re.ckpt",
         "--corpus", "{dir}", "--out-rels", "{dir}/out.tsv", "--out-ents", "{dir}/out.tsv"],
        ("--out-rels", "--out-ents"), "{dir}/out.tsv", None),
    "align-stats --report and --items": (
        ["align-stats", "--corpus", "{dir}", "--report", "{dir}/loss.txt",
         "--items", "{dir}/loss.txt"], ("--report", "--items"), "{dir}/loss.txt", None),
    "predict-e2e --out-ents an alias of --out-rels": (
        ["predict-e2e", "--ner-ckpt", "{dir}/ner.ckpt", "--re-ckpt", "{dir}/re.ckpt",
         "--corpus", "{dir}", "--out-rels", "{dir}/w/r.tsv", "--out-ents", "{dir}/w/./r.tsv"],
        ("--out-rels", "--out-ents"), "{dir}/w/r.tsv", b"kept\n"),
}


@pytest.mark.parametrize("case", sorted(SAME_FILE_OUTPUTS))
def test_two_outputs_naming_one_file_are_refused_before_any_is_opened(micro_dir, capsys, case):
    argv, options, path, before = SAME_FILE_OUTPUTS[case]
    save_ner_model(micro_dir / "ner.ckpt", NerModel(tiny_cfg(), seed=0))
    save_re_model(micro_dir / "re.ckpt", RelationModel(tiny_cfg(), seed=0))
    path = Path(path.format(dir=micro_dir))
    path.parent.mkdir(exist_ok=True)
    if before is not None:
        path.write_bytes(before)
    assert main([arg.format(dir=micro_dir) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert all(option in err for option in options), err
    if before is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == before


# case -> (argv, the input option, the path both the input and the output name);
# {dir} is the corpus directory
INPUT_AS_OUTPUT = {
    "predict-ner --out the gold entities": (
        ["predict-ner", "--ckpt", "{dir}/ner.ckpt", "--corpus", "{dir}",
         "--out", "{dir}/entities.tsv"], "--corpus", "{dir}/entities.tsv"),
    "predict-e2e --out-ents the NER checkpoint": (
        ["predict-e2e", "--ner-ckpt", "{dir}/ner.ckpt", "--re-ckpt", "{dir}/re.ckpt",
         "--corpus", "{dir}", "--out-rels", "{dir}/rels.out", "--out-ents", "{dir}/./ner.ckpt"],
        "--ner-ckpt", "{dir}/ner.ckpt"),
    "score --pred X --out X": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv",
         "--out", "{dir}/ents.tsv"], "--pred", "{dir}/ents.tsv"),
    "score --out a hard link to --pred": (
        ["score", "--gold", "{dir}", "--task", "ner", "--pred", "{dir}/ents.tsv",
         "--out", "{dir}/linked.tsv"], "--pred", "{dir}/ents.tsv"),
    "analyze with --pred-ents inside --out": (
        ["analyze", "--gold", "{dir}", "--pred-ents", "{dir}/report.txt",
         "--pred-rels", "{dir}/rels.tsv", "--out", "{dir}"], "--pred-ents", "{dir}/report.txt"),
    "align-stats --report the abstracts": (
        ["align-stats", "--corpus", "{dir}", "--report", "{dir}/abstracts.tsv"],
        "--corpus", "{dir}/abstracts.tsv"),
    "tokenize --in X --out X": (
        ["tokenize", "--in", "{dir}/abstracts.tsv", "--out", "{dir}/abstracts.tsv"],
        "--in", "{dir}/abstracts.tsv"),
    "train-ner --out the config": (
        ["train-ner", "--corpus", "{dir}", "--config", "{dir}/config.json",
         "--out", "{dir}/config.json"], "--config", "{dir}/config.json"),
    "train-re --out the relations": (
        ["train-re", "--corpus", "{dir}", "--out", "{dir}/relations.tsv"],
        "--corpus", "{dir}/relations.tsv"),
}


@pytest.mark.parametrize("case", sorted(INPUT_AS_OUTPUT))
def test_an_output_naming_an_input_is_refused_and_the_input_kept(micro_dir, capsys, case):
    argv, option, path = INPUT_AS_OUTPUT[case]
    (micro_dir / "ents.tsv").write_bytes(ENTITY_RECORD)
    os.link(micro_dir / "ents.tsv", micro_dir / "linked.tsv")
    (micro_dir / "report.txt").write_bytes(ENTITY_RECORD)
    (micro_dir / "rels.tsv").write_bytes(b"")
    (micro_dir / "config.json").write_text(json.dumps(small_config_dict()), encoding="utf-8")
    save_ner_model(micro_dir / "ner.ckpt", NerModel(tiny_cfg(), seed=0))
    save_re_model(micro_dir / "re.ckpt", RelationModel(tiny_cfg(), seed=0))
    before = {p.name: p.read_bytes() for p in micro_dir.iterdir()}
    assert main([arg.format(dir=micro_dir) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert f"input {option} {path.format(dir=micro_dir)} and " in err, err
    assert {p.name: p.read_bytes() for p in micro_dir.iterdir()} == before


@pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
@pytest.mark.parametrize("command", ["train-ner", "train-re"])
def test_a_seed_outside_the_stored_range_exits_2_before_training(
        micro_dir, config_path, tmp_path, capsys, command, seed):
    out = tmp_path / "model.ckpt"
    assert main([command, "--corpus", str(micro_dir), "--config", str(config_path),
                 "--seed", seed, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"seed {seed}" in err[0], err
    assert captured.out == ""
    assert not out.exists()


def test_score_with_loss_report_builds_each_document_view_once(tmp_path, monkeypatch):
    from chemspan.alignment import DocView

    corpus = lossy_corpus(tmp_path)
    report_path = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(corpus), "--report", str(report_path)]) == 0
    pred = tmp_path / "pred_ents.tsv"
    pred.write_text("dclean\t0\t0\t0\tCHEMICAL\t0.990000\n", encoding="utf-8")
    built = []
    original = DocView.build.__func__

    def counting_build(cls, doc):
        built.append(doc.doc_id)
        return original(cls, doc)

    monkeypatch.setattr(DocView, "build", classmethod(counting_build))
    assert main(["score", "--gold", str(corpus), "--pred", str(pred), "--task", "ner",
                 "--loss-report", str(report_path)]) == 0
    assert sorted(built) == ["dclean", "dlost"]


# ---------------------------------------------------------------------------
# malformed config files: exit 2 with one error line naming the key, at load

# case -> (config file bytes, text the error line names)
BAD_CONFIGS = {
    "zero ffn_dim": (b'{"encoder": {"ffn_dim": 0}}', "encoder.ffn_dim"),
    "float max_len": (b'{"encoder": {"max_len": 64.0}}', "encoder.max_len"),
    "string epochs": (b'{"ner": {"epochs": "3"}}', "ner.epochs"),
    "section not an object": (b'{"ner": []}', "ner"),
    "misspelled section": (b'{"encodr": {"dim": 8}}', "encodr"),
    "unknown variant": (b'{"relation": {"variant": "Z"}}', "relation.variant"),
    "unknown section key": (b'{"ner": {"epoch": 3}}', "ner.epoch"),
    "boolean size": (b'{"encoder": {"blocks": true}}', "encoder.blocks"),
    "negative context window": (b'{"relation": {"context_window": -1}}',
                                "relation.context_window"),
    "zero seeds": (b'{"seeds": 0}', "seeds"),
    "non-finite learning rate": (b'{"ner": {"lr": NaN}}', "ner.lr"),
    "zero learning rate": (b'{"relation": {"lr": 0}}', "relation.lr"),
    "not an object": (b'[1, 2]', "config"),
    "malformed JSON": (b'{"ner": {"epochs": 3}', "config.json"),
    "non-UTF-8 file": (b'{"ner": {"lr": "\xff"}}', "config.json"),
    "too many parameters": (b'{"encoder": {"buckets": 1000000000000}}', "encoder.buckets"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_is_one_error_naming_the_key(tmp_path, micro_dir, capsys, case):
    blob, names = BAD_CONFIGS[case]
    config = tmp_path / "config.json"
    config.write_bytes(blob)
    out = tmp_path / "ner.ckpt"
    assert main(["train-ner", "--corpus", str(micro_dir), "--config", str(config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert names in err[0], err
    assert not out.exists()


# ---------------------------------------------------------------------------
# a diverging run reports its error and nothing else; numpy's warnings reach
# stderr only outside pytest's capture, so the command runs in its own process


@pytest.mark.parametrize("command, section", [("train-ner", "ner"), ("train-re", "relation")])
def test_a_diverging_run_prints_only_its_error(tmp_path, micro_dir, command, section):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {"lr": 1e308, "epochs": 2}}), encoding="utf-8")
    out = tmp_path / "model.ckpt"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-m", "chemspan.cli", command, "--corpus",
                           str(micro_dir), "--config", str(config), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite loss"), err
    assert not out.exists()


# a checkpoint whose weights are finite but overflow in prediction is refused
# with one error line and no output; it runs in its own process for the same reason


@pytest.fixture
def overflowing_checkpoints(tmp_path, micro_dir):
    """An RE checkpoint trained at lr 1e308, an untrained NER one, and one scaled by 1e307."""
    paths = {name: tmp_path / f"{name}.ckpt" for name in ("re", "ner", "huge-ner")}
    for command, name, section in [("train-re", "re", {"relation": {"epochs": 1, "lr": 1e308}}),
                                   ("train-ner", "ner", {"ner": {"epochs": 0}})]:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(section), encoding="utf-8")
        assert main([command, "--corpus", str(micro_dir), "--config", str(config),
                     "--out", str(paths[name])]) == 0
    model = load_ner_model(paths["ner"])
    model.encoder.params["tok_emb"] *= 1e307
    assert np.isfinite(model.encoder.params["tok_emb"]).all()
    save_ner_model(paths["huge-ner"], model)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("command", ["predict-ner", "predict-re", "predict-e2e"])
def test_a_checkpoint_that_overflows_in_prediction_is_one_error(
        tmp_path, micro_dir, overflowing_checkpoints, command):
    ckpt = overflowing_checkpoints
    out = tmp_path / "out.tsv"
    options = {"predict-ner": ["--ckpt", ckpt["huge-ner"], "--out", str(out)],
               "predict-re": ["--ckpt", ckpt["re"], "--out", str(out)],
               "predict-e2e": ["--ner-ckpt", ckpt["ner"], "--re-ckpt", ckpt["re"],
                               "--out-rels", str(out), "--out-ents", str(tmp_path / "ents.tsv")]}
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-m", "chemspan.cli", command, "--corpus",
                           str(micro_dir), *options[command]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stderr
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: document 'MICRO"), err
    assert err[0].endswith("probabilities hold NaN or infinity"), err
    assert not out.exists() and not (tmp_path / "ents.tsv").exists()
