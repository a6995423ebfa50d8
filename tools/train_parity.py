#!/usr/bin/env python3
"""Check that two checkouts train bitwise the same models on the micro corpus.

    python3 tools/train_parity.py --parent ../parent --change . --out parity.json

In each checkout, with ``OPENBLAS_NUM_THREADS=1`` and that checkout's
``src`` on ``PYTHONPATH``, one child process trains the default config's
NER and RE models on the shipped micro corpus at seeds 0-4 and reports each
per-epoch loss curve and the sha256 of every parameter array; then
``chemspan train-ner`` and ``chemspan train-re`` write their seed-1
checkpoints, whose sha256 are kept. A seed's verdict is ``bitwise`` when
both curves are ``==`` and every array digest is equal; the checkpoints'
verdict is equality of both digests. The record also names each checkout's
commit and source digest. numpy and the standard library only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, git_head, source_digest  # noqa: E402

SEEDS = (0, 1, 2, 3, 4)
CHECKPOINT_SEED = 1
TASKS = ("ner", "re")

# run in a child process inside one checkout; prints one JSON object
TRAIN = """
import hashlib, json, sys
import numpy as np
from chemspan.config import PipelineConfig
from chemspan.microcorpus import load_micro_corpus
from chemspan.ner import NerModel, train_ner
from chemspan.relation import RelationModel, gold_training_instances, train_re

def digests(model):
    return {k: hashlib.sha256(np.ascontiguousarray(v, "<f8").tobytes()
                              + repr(v.shape).encode()).hexdigest()
            for k, v in sorted(model.parameters().items())}

docs = load_micro_corpus()
out = {}
for seed in json.loads(sys.argv[1]):
    ner = NerModel(PipelineConfig(), seed=seed)
    ner_curve = train_ner(ner, ner.prepare_documents(docs), seed=seed)
    re_model = RelationModel(PipelineConfig(), seed=seed)
    re_curve = train_re(re_model, gold_training_instances(re_model, docs), seed=seed)
    out[str(seed)] = {"ner": {"curve": ner_curve, "params": digests(ner)},
                      "re": {"curve": re_curve, "params": digests(re_model)}}
print(json.dumps(out))
"""

CLI = "import sys; from chemspan.cli import main; sys.exit(main(sys.argv[1:]))"


def train_checkout(checkout: Path) -> dict:
    """One checkout's curves and parameter digests per seed, and its checkpoint digests."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-c", TRAIN, json.dumps(list(SEEDS))],
                          env=env, capture_output=True, text=True, check=True)
    run = {"seeds": json.loads(done.stdout), "checkpoints": {}}
    corpus = checkout / "src" / "chemspan" / "data" / "micro"
    with tempfile.TemporaryDirectory() as tmp:
        for task in TASKS:
            command = f"train-{task}"
            out = Path(tmp) / f"{task}.ckpt"
            subprocess.run([sys.executable, "-c", CLI, command, "--corpus", str(corpus),
                            "--seed", str(CHECKPOINT_SEED), "--out", str(out)],
                           env=env, capture_output=True, check=True)
            run["checkpoints"][command] = hashlib.sha256(out.read_bytes()).hexdigest()
    return run


def compare(parent: dict, change: dict) -> dict:
    """Per seed, whether both tasks' curves and parameter digests are equal; whether
    the checkpoint digests are; and ``bitwise``, all of it. A seed or checkpoint one
    side lacks is not bitwise."""
    seeds = {}
    for seed in sorted(set(parent["seeds"]) | set(change["seeds"]), key=int):
        sides = parent["seeds"].get(seed), change["seeds"].get(seed)
        seeds[seed] = None not in sides and all(
            sides[0][task]["curve"] == sides[1][task]["curve"]
            and sides[0][task]["params"] == sides[1][task]["params"] for task in TASKS)
    checkpoints = (bool(parent["checkpoints"])
                   and parent["checkpoints"] == change["checkpoints"])
    return {"seeds": seeds, "checkpoints": checkpoints,
            "bitwise": bool(seeds) and all(seeds.values()) and checkpoints}


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
    print(f"bitwise: {record['verdict']['bitwise']}", file=sys.stderr)
    return 0 if record["verdict"]["bitwise"] else 1


if __name__ == "__main__":
    sys.exit(main())
