#!/usr/bin/env python3
"""Check that two checkouts train bitwise the same models on the micro corpus.

    python3 tools/train_parity.py --parent ../parent --change . --out parity.json

In each checkout, with ``OPENBLAS_NUM_THREADS=1`` and that checkout's
``src`` on ``PYTHONPATH``, one child process trains the default config's
NER and RE models on the shipped micro corpus at seeds 0-4 and reports each
per-epoch loss curve and the sha256 of every parameter array. At
``TRACED_SEED`` it also reports the ``tracemalloc`` peak of each task's
training, traced from after the model and its items are built, and the
bucket table's bytes; these figures are reported, never compared. Then, in a
temporary directory holding a copy of the micro corpus and with
``PYTHONHASHSEED=0``, the CLI runs the commands of ``CLI_RUNS``:
``tokenize`` reads the copied abstracts, ``train-ner`` and ``train-re``
write their seed-1 checkpoints, every predict command, ``align-stats``,
``score`` and ``analyze`` read them, and two trainings stop on a sentence
over ``max_len``. Each run keeps its exit code and the sha256 of its
stdout, its stderr and every file it writes; every path is relative to the
temporary directory, so no output names it.

A seed's verdict is ``bitwise`` when both curves are ``==`` and every array
digest is equal; the checkpoints' verdict is equality of both digests, and
the CLI's is equality of every run. A record written before the CLI runs
were kept has no ``cli`` key and is compared as before. The record also
names each checkout's commit and source digest. numpy and the standard
library only.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, git_head, source_digest  # noqa: E402

SEEDS = (0, 1, 2, 3, 4)
CHECKPOINT_SEED = 1
TRACED_SEED = 0
TASKS = ("ner", "re")

# run in a child process inside one checkout; prints one JSON object
TRAIN = """
import hashlib, json, sys, tracemalloc
import numpy as np
from chemspan.config import PipelineConfig
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import NerModel, train_ner
from chemspan.relation import RelationModel, gold_training_instances, train_re

def digests(model):
    return {k: hashlib.sha256(np.ascontiguousarray(v, "<f8").tobytes()
                              + repr(v.shape).encode()).hexdigest()
            for k, v in sorted(model.parameters().items())}

def trained(train, model, items, seed, peaks, task):
    if seed != traced_seed:
        return train(model, items, seed=seed)
    tracemalloc.start()
    curve = train(model, items, seed=seed)
    peaks[task] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    peaks["table_bytes"] = model.encoder.params["tok_emb"].nbytes
    return curve

docs = load_micro_corpus()
traced_seed = json.loads(sys.argv[2])
out, peaks = {}, {"seed": traced_seed}
for seed in json.loads(sys.argv[1]):
    ner = NerModel(PipelineConfig(), seed=seed)
    ner_curve = trained(train_ner, ner, ner.prepare_documents(docs), seed, peaks, "ner")
    re_model = RelationModel(PipelineConfig(), seed=seed)
    re_curve = trained(train_re, re_model, gold_training_instances(re_model, docs), seed,
                       peaks, "re")
    out[str(seed)] = {"ner": {"curve": ner_curve, "params": digests(ner)},
                      "re": {"curve": re_curve, "params": digests(re_model)}}
print(json.dumps({"seeds": out, "training_peak": peaks}))
"""

CLI = "import sys; from chemspan.cli import main; sys.exit(main(sys.argv[1:]))"
# every sentence of micro is longer than this, with or without relation markers
SHORT_CONFIG = {"encoder": {"max_len": 4}}

# name, CLI arguments and the files or directories it writes, in run order
CLI_RUNS = (
    ("tokenize", ["tokenize", "--in", "micro/abstracts.tsv", "--out", "tokens.tsv"],
     ["tokens.tsv"]),
    *((f"train-{task}", [f"train-{task}", "--corpus", "micro", "--seed", str(CHECKPOINT_SEED),
                         "--out", f"{task}.ckpt"], [f"{task}.ckpt"]) for task in TASKS),
    ("predict-ner", ["predict-ner", "--ckpt", "ner.ckpt", "--corpus", "micro",
                     "--out", "ner.tsv"], ["ner.tsv"]),
    ("predict-re", ["predict-re", "--ckpt", "re.ckpt", "--corpus", "micro",
                    "--out", "re.tsv"], ["re.tsv"]),
    ("predict-e2e", ["predict-e2e", "--ner-ckpt", "ner.ckpt", "--re-ckpt", "re.ckpt",
                     "--corpus", "micro", "--out-rels", "rels.tsv", "--out-ents", "ents.tsv"],
     ["rels.tsv", "ents.tsv"]),
    ("align-stats", ["align-stats", "--corpus", "micro", "--report", "loss.txt"],
     ["loss.txt", "loss.txt.items.tsv"]),
    ("score-ner", ["score", "--gold", "micro", "--pred", "ner.tsv", "--task", "ner",
                   "--out", "score-ner.json"], ["score-ner.json"]),
    ("score-re", ["score", "--gold", "micro", "--pred", "rels.tsv", "--task", "re",
                  "--loss-report", "loss.txt", "--out", "score-re.json"], ["score-re.json"]),
    ("analyze", ["analyze", "--gold", "micro", "--pred-ents", "ents.tsv",
                 "--pred-rels", "rels.tsv", "--out", "analysis"], ["analysis"]),
    *((f"train-{task} over max_len", [f"train-{task}", "--corpus", "micro", "--config",
                                      "short.json", "--out", f"short-{task}.ckpt"],
       [f"short-{task}.ckpt"]) for task in TASKS),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(root: Path, outputs) -> dict:
    """sha256 of each output file, every file of an output directory, and None for an
    output that is missing; keyed by the path relative to ``root``."""
    digests = {}
    for name in outputs:
        path = root / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            key = file.relative_to(root).as_posix()
            digests[key] = sha256(file.read_bytes()) if file.exists() else None
    return digests


def run_cli(checkout: Path, env: dict) -> dict:
    """Each run of ``CLI_RUNS`` in a temporary directory: exit code, and the sha256 of
    stdout, stderr and each output."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(checkout / "src" / "chemspan" / "data" / "micro", root / "micro")
        (root / "short.json").write_text(json.dumps(SHORT_CONFIG))
        for name, arguments, outputs in CLI_RUNS:
            done = subprocess.run([sys.executable, "-c", CLI, *arguments], cwd=root,
                                  env=dict(env, PYTHONHASHSEED="0"), capture_output=True)
            runs[name] = {"exit": done.returncode, "stdout": sha256(done.stdout),
                          "stderr": sha256(done.stderr), "outputs": output_digests(root, outputs)}
    return runs


def train_checkout(checkout: Path) -> dict:
    """One checkout's curves and parameter digests per seed, its traced training
    peaks, its checkpoint digests, and its CLI runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", TRAIN, json.dumps(list(SEEDS)),
                           json.dumps(TRACED_SEED)],
                          env=env, capture_output=True, text=True, check=True)
    cli = run_cli(checkout, env)
    return {**json.loads(done.stdout), "cli": cli,
            "checkpoints": {f"train-{task}": cli[f"train-{task}"]["outputs"][f"{task}.ckpt"]
                            for task in TASKS}}


def compare(parent: dict, change: dict) -> dict:
    """Per seed, whether both tasks' curves and parameter digests are equal; whether
    the checkpoint digests are; whether the CLI runs are, when either record has
    them; and ``bitwise``, all of it. A seed, checkpoint or CLI run one side lacks
    is not bitwise, nor is a checkpoint neither side wrote."""
    seeds = {}
    for seed in sorted(set(parent["seeds"]) | set(change["seeds"]), key=int):
        sides = parent["seeds"].get(seed), change["seeds"].get(seed)
        seeds[seed] = None not in sides and all(
            sides[0][task]["curve"] == sides[1][task]["curve"]
            and sides[0][task]["params"] == sides[1][task]["params"] for task in TASKS)
    checkpoints = (bool(parent["checkpoints"]) and all(parent["checkpoints"].values())
                   and parent["checkpoints"] == change["checkpoints"])
    verdict = {"seeds": seeds, "checkpoints": checkpoints}
    if "cli" in parent or "cli" in change:
        verdict["cli"] = bool(parent.get("cli")) and parent.get("cli") == change.get("cli")
    verdict["bitwise"] = (bool(seeds) and all(seeds.values()) and checkpoints
                          and verdict.get("cli", True))
    return verdict


def peak_lines(runs: dict) -> list:
    """One line per task giving each side's traced training peak in MB and in tables,
    or that a side's record has none; nothing is compared."""
    lines = []
    for task in TASKS:
        figures = []
        for side in SIDES:
            peak = runs[side].get("training_peak")
            figures.append(f"{side} " + (
                f"{peak[task] / 1e6:.2f} MB ({peak[task] / peak['table_bytes']:.2f} tables)"
                if peak else "not recorded"))
        lines.append(f"{task} training peak: " + ", ".join(figures))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: train_checkout(checkouts[side]) for side in SIDES}
    record = {
        "checkouts": {side: {"commit": git_head(path), "source_sha256": source_digest(path)}
                      for side, path in checkouts.items()},
        "seeds": list(SEEDS),
        "checkpoint_seed": CHECKPOINT_SEED,
        "runs": runs,
        "verdict": compare(runs["parent"], runs["change"]),
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in peak_lines(runs):
        print(line, file=sys.stderr)
    print(f"bitwise: {record['verdict']['bitwise']}", file=sys.stderr)
    return 0 if record["verdict"]["bitwise"] else 1


if __name__ == "__main__":
    sys.exit(main())
