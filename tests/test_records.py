"""Golden records: the exact files and texts the report writers produce.

Each case runs a writer on a small corpus and hand-written prediction
records, so the expected values stay short and no model is trained. A
field that drops out of a writer, or a key that changes order, fails here.
"""

import json

from chemspan.cli import main
from chemspan.config import PipelineConfig
from chemspan.corpus import save_corpus
from chemspan.microcorpus import build_micro_corpus
from chemspan.scoring import aggregate_seeds, render_score_report, score_ner


def write_rows(path, rows):
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows),
                    encoding="utf-8")
    return path


def micro_copy(tmp_path, lossy=False):
    """The first three micro documents; ``lossy`` shifts three entity starts mid-token.

    The shifted entities are a gene before two chemicals, in relations of
    CPR:6 then CPR:5, so the loss counts arrive out of sorted order.
    """
    path = tmp_path / ("lossy" if lossy else "micro")
    save_corpus(build_micro_corpus()[:3], path)
    if lossy:
        write_rows(path / "corrections.tsv", [("MICRO0", "T8", 202, 205),
                                              ("MICRO1", "T3", 92, 99),
                                              ("MICRO2", "T1", 50, 57)])
    return path


# doc_id, sent_id, token_start, token_end, type, prob
ENTITY_RECORDS = [
    ("MICRO0", 1, 0, 0, "CHEMICAL", "0.900000"),   # Aspirin
    ("MICRO0", 1, 2, 3, "GENE", "0.800000"),       # COX2
    ("MICRO0", 2, 0, 0, "CHEMICAL", "0.700000"),   # Nicotine
    ("MICRO0", 2, 2, 4, "GENE", "0.600000"),       # HTR2A
    ("MICRO0", 3, 0, 0, "CHEMICAL", "0.900000"),   # Ketamine
    ("MICRO0", 3, 2, 4, "GENE", "0.500000"),       # CYP3A of CYP3A4
    ("MICRO1", 1, 0, 0, "CHEMICAL", "0.900000"),   # Caffeine
    ("MICRO1", 1, 2, 2, "GENE", "0.900000"),       # EGFR
    ("MICRO1", 1, 3, 3, "GENE", "0.550000"),       # activity
    ("MICRO1", 2, 0, 0, "CHEMICAL", "0.900000"),   # Dopamine
    ("MICRO1", 2, 2, 2, "GENE", "0.900000"),       # INSR, no relation predicted
]


def relation_row(doc_id, subj, obj, label):
    # token offsets are not read back; the character offsets are the key
    return (doc_id, 0, 0, 0, 0, label, "0.900000", *subj, *obj)


RELATION_RECORDS = [
    relation_row("MICRO0", (49, 56), (69, 73), "CPR:3"),     # right
    relation_row("MICRO0", (95, 103), (113, 118), "CPR:9"),  # gold is CPR:4
    relation_row("MICRO0", (138, 146), (158, 163), "CPR:5"),  # clipped gene
    relation_row("MICRO0", (49, 56), (113, 118), "CPR:4"),   # no gold relation
    relation_row("MICRO1", (49, 57), (67, 71), "CPR:4"),     # right
    relation_row("MICRO2", (49, 57), (69, 73), "CPR:5"),     # the lossy copy moves 49 to 50
]


def run_score(tmp_path, corpus, task, records, *extra):
    pred = write_rows(tmp_path / f"{task}_pred.tsv", records)
    out = tmp_path / f"{task}_score.json"
    assert main(["score", "--gold", str(corpus), "--pred", str(pred), "--task", task,
                 "--out", str(out), *extra]) == 0
    return out.read_text(encoding="utf-8")


def as_written(record):
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_score_ner_record(tmp_path):
    text = run_score(tmp_path, micro_copy(tmp_path), "ner", ENTITY_RECORDS)
    assert text == as_written({
        "task": "NER", "tp": 9, "fp": 2, "fn": 15, "lost": 0,
        "precision": 0.8181818181818182, "recall": 0.375,
        "f1": 0.5142857142857142, "no_predictions": False, "seeds_aggregated": 1,
        "per_type": {
            "CHEMICAL": {"tp": 5, "fp": 0, "fn": 7, "lost": 0, "precision": 1.0,
                         "recall": 0.4166666666666667, "f1": 0.5882352941176471},
            "GENE": {"tp": 4, "fp": 2, "fn": 8, "lost": 0, "precision": 0.6666666666666666,
                     "recall": 0.3333333333333333, "f1": 0.4444444444444444},
        },
    })


def test_align_stats_report_on_a_lossy_copy(tmp_path, capsys):
    report = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(micro_copy(tmp_path, lossy=True)),
                 "--report", str(report)]) == 0
    expected = ("entities_total\t24\nentities_lost\t3\nentity_loss_rate\t0.125000\n"
                "relations_total\t11\nrelations_lost\t3\nrelation_loss_rate\t0.272727\n"
                "entities_lost[CHEMICAL]\t2\nentities_lost[GENE]\t1\n"
                "relations_lost[CPR:5]\t2\nrelations_lost[CPR:6]\t1\n")
    assert report.read_text(encoding="utf-8") == expected
    assert capsys.readouterr().out.startswith(expected)
    assert (tmp_path / "loss.txt.items.tsv").read_text(encoding="utf-8") == (
        "entity\tMICRO0\tT8\tunalignable\n"
        "entity\tMICRO1\tT3\tunalignable\n"
        "entity\tMICRO2\tT1\tunalignable\n"
        "relation\tMICRO0\tT7\tT8\tCPR:6\tlost-argument\n"
        "relation\tMICRO1\tT3\tT4\tCPR:5\tlost-argument\n"
        "relation\tMICRO2\tT1\tT2\tCPR:5\tlost-argument\n")


def test_score_re_record_with_a_loss_report(tmp_path):
    corpus = micro_copy(tmp_path, lossy=True)
    report = tmp_path / "loss.txt"
    assert main(["align-stats", "--corpus", str(corpus), "--report", str(report)]) == 0
    text = run_score(tmp_path, corpus, "re", RELATION_RECORDS, "--loss-report", str(report))
    assert text == as_written({
        "task": "RE", "tp": 2, "fp": 4, "fn": 9, "lost": 3,
        "precision": 0.3333333333333333, "recall": 0.18181818181818182,
        "f1": 0.23529411764705885, "no_predictions": False, "seeds_aggregated": 1,
        "per_type": {
            "CPR:3": {"tp": 1, "fp": 0, "fn": 0, "lost": 0, "precision": 1.0,
                      "recall": 1.0, "f1": 1.0},
            "CPR:4": {"tp": 1, "fp": 1, "fn": 1, "lost": 0, "precision": 0.5,
                      "recall": 0.5, "f1": 0.5},
            "CPR:5": {"tp": 0, "fp": 2, "fn": 3, "lost": 2, "precision": 0.0,
                      "recall": 0.0, "f1": 0.0},
            "CPR:6": {"tp": 0, "fp": 0, "fn": 3, "lost": 1, "precision": 0.0,
                      "recall": 0.0, "f1": 0.0},
            "CPR:9": {"tp": 0, "fp": 1, "fn": 2, "lost": 0, "precision": 0.0,
                      "recall": 0.0, "f1": 0.0},
        },
    })


def test_aggregated_report_text_and_record():
    gold = {("d", 0, 1, "CHEMICAL"), ("d", 2, 3, "GENE"), ("d", 4, 5, "GENE")}
    first = score_ner(gold, {("d", 0, 1, "CHEMICAL"), ("d", 2, 3, "GENE")})
    second = score_ner(gold, {("d", 0, 1, "CHEMICAL"), ("d", 6, 7, "GENE")},
                       lost_by_type={"GENE": 1})
    mean = aggregate_seeds([first, second])
    assert render_score_report(mean) == (
        "task\tNER\nseeds\t2\ncounts\ttp=1.500 fp=0.500 fn=2 lost=0.500\n"
        "precision\t0.750\nrecall\t0.458\nf1\t0.567\n"
        "type[CHEMICAL]\ttp=1 fp=0 fn=0 lost=0 P=1.000 R=1.000 F=1.000\n"
        "type[GENE]\ttp=0.500 fp=0.500 fn=2 lost=0.500 P=0.500 R=0.250 F=0.333\n"
        "seed[0]\ttp=2 fp=0 fn=1 lost=0\nseed[1]\ttp=1 fp=1 fn=3 lost=1\n")
    assert mean.to_record() == {
        "task": "NER", "tp": 1.5, "fp": 0.5, "fn": 2, "lost": 0.5,
        "precision": 0.75, "recall": 0.4583333333333333, "f1": 0.5666666666666667,
        "no_predictions": False, "seeds_aggregated": 2,
        "per_type": {
            "CHEMICAL": {"tp": 1, "fp": 0, "fn": 0, "lost": 0, "precision": 1.0,
                         "recall": 1.0, "f1": 1.0},
            "GENE": {"tp": 0.5, "fp": 0.5, "fn": 2, "lost": 0.5, "precision": 0.5,
                     "recall": 0.25, "f1": 0.3333333333333333},
        },
        "per_seed_counts": [[2, 0, 1, 0], [1, 1, 3, 1]],
    }


def test_analyze_report_record(tmp_path):
    corpus = micro_copy(tmp_path)
    ents = write_rows(tmp_path / "ents.tsv", ENTITY_RECORDS)
    rels = write_rows(tmp_path / "rels.tsv", RELATION_RECORDS)
    out = tmp_path / "analysis"
    assert main(["analyze", "--gold", str(corpus), "--pred-ents", str(ents),
                 "--pred-rels", str(rels), "--out", str(out)]) == 0
    groups = ("CPR:3", "CPR:4", "CPR:5", "CPR:6", "CPR:9")
    assert (out / "report.json").read_text(encoding="utf-8") == as_written({
        "re_errors_total": 11, "re_errors_joint": 10, "re_errors_ner_caused": 7,
        "fn_total": 8, "fp_total": 3, "ner_caused_fn": 6, "ner_caused_fp": 1,
        "null_fn": 1, "confusion_fn": 1, "confusion_fp": 1, "spurious_fp": 1,
        "null_fn_by_type": dict(zip(groups, (0.0, 0.0, 0.3333333333333333, 0.0, 0.0))),
        "confusion_counts": {"CPR:4->CPR:9": 1},
        "fp_fraction_by_pred_type": dict(zip(groups, (0.0, 0.5, 0.5, 0.0, 1.0))),
        "gold_relations_by_type": dict(zip(groups, (1, 2, 3, 3, 2))),
        "predictions_by_type": dict(zip(groups, (1, 2, 2, 0, 1))),
    })


def test_default_config_record():
    assert PipelineConfig().to_dict() == {
        "encoder": {"dim": 64, "blocks": 2, "ffn_dim": 128, "buckets": 2048, "max_len": 512},
        "ner": {"max_span_width": 16, "width_dim": 25, "context_window": 300, "epochs": 50,
                "batch_size": 16, "lr": 3e-3},
        "relation": {"variant": "C", "head_hidden": 64, "context_window": 100, "epochs": 10,
                     "batch_size": 16, "lr": 3e-3},
    }
