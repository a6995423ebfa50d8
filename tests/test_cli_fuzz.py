"""Every subcommand keeps the exit-2 contract on mutated input files.

A seeded hypothesis search mutates one input file of one command (a line
dropped or repeated, fields swapped or replaced, a byte flipped, an offset
shifted, a column added) and runs the command in-process. It must exit 0,
or exit 2 with exactly one ``error:`` line; any other exception escapes
``main`` as a traceback and fails the test. Seeded checkpoint mutations
(bytes flipped, the file cut short, header fields or config-blob values
edited) hold ``predict-e2e`` to the same contract, with no output on exit 2.
"""

import dataclasses
import io
import json
import random
import shutil
import struct
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemspan.alignment import DocView
from chemspan.checkpoint import HEADER, MAGIC
from chemspan.cli import _entity_records, _relation_records, main
from chemspan.corpus import save_corpus
from chemspan.microcorpus import build_micro_corpus
from chemspan.relation import RelationPrediction, generate_pairs, recoverable_gold_mentions

CORPUS_FILES = ("abstracts.tsv", "entities.tsv", "relations.tsv", "sentences.tsv",
                "corrections.tsv")

# command -> (argv with {base} and {run} holes, the files a mutation may target)
COMMANDS = {
    "tokenize": (["tokenize", "--in", "{run}/corpus/abstracts.tsv", "--out", "{run}/tok.tsv"],
                 ("abstracts.tsv",)),
    "align-stats": (["align-stats", "--corpus", "{run}/corpus", "--report", "{run}/loss.txt"],
                    CORPUS_FILES),
    "train-ner": (["train-ner", "--corpus", "{run}/corpus", "--config", "{base}/config.json",
                   "--out", "{run}/ner.ckpt"], CORPUS_FILES),
    "train-re": (["train-re", "--corpus", "{run}/corpus", "--config", "{base}/config.json",
                  "--out", "{run}/re.ckpt"], CORPUS_FILES),
    "predict-ner": (["predict-ner", "--ckpt", "{base}/ner.ckpt", "--corpus", "{run}/corpus",
                     "--out", "{run}/ents.tsv"], CORPUS_FILES),
    "predict-re": (["predict-re", "--ckpt", "{base}/re.ckpt", "--corpus", "{run}/corpus",
                    "--out", "{run}/rels.tsv"], CORPUS_FILES),
    "predict-e2e": (["predict-e2e", "--ner-ckpt", "{base}/ner.ckpt", "--re-ckpt",
                     "{base}/re.ckpt", "--corpus", "{run}/corpus", "--out-rels",
                     "{run}/rels.tsv", "--out-ents", "{run}/ents.tsv"], CORPUS_FILES),
    "score-ner": (["score", "--task", "ner", "--gold", "{run}/corpus", "--pred",
                   "{run}/pred/ents.tsv", "--loss-report", "{run}/pred/loss.txt"],
                  CORPUS_FILES + ("ents.tsv", "loss.txt")),
    "score-re": (["score", "--task", "re", "--gold", "{run}/corpus", "--pred",
                  "{run}/pred/rels.tsv", "--loss-report", "{run}/pred/loss.txt"],
                 CORPUS_FILES + ("rels.tsv", "loss.txt")),
    "analyze": (["analyze", "--gold", "{run}/corpus", "--pred-ents", "{run}/pred/ents.tsv",
                 "--pred-rels", "{run}/pred/rels.tsv", "--out", "{run}/analysis"],
                CORPUS_FILES + ("ents.tsv", "rels.tsv")),
}

FIELD_VALUES = ["", "x", "0", "-1", "7", "99999", "CHEMICAL", "GENE", "Y", "N", "CPR:4",
                "CPR:10", "T1", "1.5", "é", "\x00"]


def fuzz_config():
    return {
        "encoder": {"dim": 8, "blocks": 1, "ffn_dim": 16, "buckets": 64, "max_len": 96},
        "ner": {"epochs": 1, "context_window": 10, "max_span_width": 4, "width_dim": 4},
        "relation": {"epochs": 1, "context_window": 10, "head_hidden": 8},
    }


def run(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A clean corpus with every optional file, 1-epoch checkpoints and predictions."""
    base = tmp_path_factory.mktemp("fuzz")
    docs = [dataclasses.replace(doc, sentence_boundaries=tuple(
                (s.char_start, s.char_end) for s in DocView.build(doc).sentences))
            for doc in build_micro_corpus()[:3]]
    save_corpus(docs, base / "corpus")
    first = docs[0].entities[0]
    (base / "corpus" / "corrections.tsv").write_text(
        f"{docs[0].doc_id}\t{first.entity_id}\t{first.char_start}\t{first.char_end}\n",
        encoding="utf-8")
    (base / "config.json").write_text(json.dumps(fuzz_config()), encoding="utf-8")
    corpus, pred = base / "corpus", base / "pred"
    pred.mkdir()
    for argv in (["train-ner", "--corpus", corpus, "--config", base / "config.json",
                  "--out", base / "ner.ckpt"],
                 ["train-re", "--corpus", corpus, "--config", base / "config.json",
                  "--out", base / "re.ckpt"],
                 ["align-stats", "--corpus", corpus, "--report", pred / "loss.txt"]):
        assert run(argv)[0] == 0, argv
    # 1-epoch models may predict nothing, so the prediction records are the gold pairs
    ents, rels = [], []
    for view in map(DocView.build, docs):
        for k, id_mentions in recoverable_gold_mentions(view).items():
            mentions = [m for _, m in id_mentions]
            ents += _entity_records(mentions)
            rels += _relation_records([RelationPrediction(s.doc_id, k, s, o, "CPR:4", 0.5)
                                       for s, o in generate_pairs(mentions)], view)
    (pred / "ents.tsv").write_text("".join(r + "\n" for r in ents), encoding="utf-8")
    (pred / "rels.tsv").write_text("".join(r + "\n" for r in rels), encoding="utf-8")
    return base


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with one of the mutations applied to one of its lines."""
    lines = data.split(b"\n")[:-1] or [b""]
    i = draw(st.integers(0, len(lines) - 1), label="line")
    fields = lines[i].split(b"\t")
    kind = draw(st.sampled_from(["drop", "repeat", "swap", "replace", "flip", "shift",
                                 "extra"]), label="mutation")
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "swap":
        a, b = (draw(st.integers(0, len(fields) - 1)) for _ in range(2))
        fields[a], fields[b] = fields[b], fields[a]
    elif kind == "replace":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(
            st.sampled_from(FIELD_VALUES)).encode("utf-8")
    elif kind == "shift":
        numeric = [k for k, f in enumerate(fields) if f.lstrip(b"-").isdigit()] or [0]
        k = draw(st.sampled_from(numeric))
        value = int(fields[k]) if fields[k].lstrip(b"-").isdigit() else 0
        fields[k] = str(value + draw(st.integers(-40, 40))).encode("ascii")
    elif kind == "extra":
        fields.append(b"X")
    if kind in ("swap", "replace", "shift", "extra"):
        lines[i] = b"\t".join(fields)
    out = b"\n".join(lines) + b"\n"
    if kind == "flip":
        at = draw(st.integers(0, len(out) - 1))
        out = out[:at] + bytes([out[at] ^ draw(st.integers(1, 255))]) + out[at + 1:]
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_mutated_input_exits_zero_or_with_one_error_line(base, tmp_path_factory, command,
                                                         data):
    argv, targets = COMMANDS[command]
    target = data.draw(st.sampled_from(targets), label="file")
    run_dir = tmp_path_factory.mktemp("run")
    shutil.copytree(base / "corpus", run_dir / "corpus")
    shutil.copytree(base / "pred", run_dir / "pred")
    path = run_dir / ("corpus" if target in CORPUS_FILES else "pred") / target
    path.write_bytes(data.draw(mutated(path.read_bytes()), label="mutated"))
    rc, err = run([a.format(base=base, run=run_dir) for a in argv])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err
    assert (rc, errors) == (0, []) or (rc == 2 and len(errors) == 1), (rc, err)
    shutil.rmtree(run_dir)


def test_out_of_bounds_correction_is_one_error_line(base, tmp_path):
    shutil.copytree(base / "corpus", tmp_path / "corpus")
    row = (base / "corpus" / "corrections.tsv").read_text(encoding="utf-8").split("\t")
    (tmp_path / "corpus" / "corrections.tsv").write_text(
        "\t".join(row[:3] + ["1000000\n"]), encoding="utf-8")
    rc, err = run(["align-stats", "--corpus", tmp_path / "corpus", "--report",
                   tmp_path / "loss.txt"])
    assert rc == 2 and err.startswith("error: correction for ") and err.count("\n") == 1, err


HEADER_VALUES = {  # each field of HEADER, in its order -> values to write there
    "version": [0, 2, 2 ** 32 - 1],
    "dim": [0, 1, 7, 9, 16, 2 ** 31, 2 ** 32 - 1],
    "blocks": [0, 2, 3, 1000, 2 ** 32 - 1],
    "seed": [-1, 1, 2 ** 62, 2 ** 63 - 1, -2 ** 63],
}
BLOB_VALUES = [0, -1, 1, 3, 10 ** 6, 2 ** 62, 0.5, 1e308, float("nan"), "x", "C", "ner",
               "relation", None, True, [], {}]


def _blob_paths(value, path=()):
    """Every path to a value inside the checkpoint's JSON blob."""
    yield path
    if isinstance(value, dict):
        for key in value:
            yield from _blob_paths(value[key], path + (key,))


def mutate_checkpoint(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one byte flipped, cut short, a header field or a blob value edited."""
    kind = rng.choice(["flip", "truncate", "header", "blob"])
    if kind == "flip":
        at = rng.randrange(len(data))
        return data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    start = len(MAGIC) + HEADER.size
    if kind == "header":
        fields = list(HEADER.unpack(data[len(MAGIC):start]))
        name = rng.choice(sorted(HEADER_VALUES))
        fields[list(HEADER_VALUES).index(name)] = rng.choice(HEADER_VALUES[name])
        return data[:len(MAGIC)] + HEADER.pack(*fields) + data[start:]
    (length,) = struct.unpack("<I", data[start:start + 4])
    meta = json.loads(data[start + 4:start + 4 + length])
    path = rng.choice(list(_blob_paths(meta))[1:])
    parent = meta
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = rng.choice(BLOB_VALUES)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return data[:start] + struct.pack("<I", len(blob)) + blob + data[start + 4 + length:]


def test_mutated_checkpoints_through_predict_e2e_exit_zero_or_with_one_error_line(base, tmp_path):
    rng = random.Random(22)
    out_rels, out_ents = tmp_path / "rels.tsv", tmp_path / "ents.tsv"
    for i in range(64):
        ckpts = {name: tmp_path / f"{name}.ckpt" for name in ("ner", "re")}
        target = rng.choice(sorted(ckpts))
        for name, path in ckpts.items():
            data = (base / f"{name}.ckpt").read_bytes()
            path.write_bytes(mutate_checkpoint(data, rng) if name == target else data)
        rc, err = run(["predict-e2e", "--ner-ckpt", ckpts["ner"], "--re-ckpt", ckpts["re"],
                       "--corpus", base / "corpus", "--out-rels", out_rels,
                       "--out-ents", out_ents])
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert "Traceback" not in err, (i, err)
        if rc == 0:
            assert errors == [], (i, err)
            out_rels.unlink()
            out_ents.unlink()
        else:
            assert rc == 2 and len(errors) == 1, (i, rc, err)
            assert not out_rels.exists() and not out_ents.exists(), i
