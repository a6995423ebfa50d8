#!/usr/bin/env python3
"""Run the benchmark on a parent and a change checkout in alternating pairs.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload train-micro --workload predict-abstracts --seeds 131-140 \\
        --out BENCH_13.json

For each workload and each seed in the inclusive range, the pair runs
``python3 bench/run.py --workload W --seed S --seconds 40 --trace 0`` once
in each checkout, the parent first in even pairs and the change first in
odd ones; the seconds are ``run_seconds`` of the change's ``BENCHMARK.json``.
Every run's exit code, ``failed`` and ``attempted`` counts, metrics,
prediction fingerprints and environment are kept. Per end-to-end metric the
record gives each side's median and quartiles, its failed runs (non-zero
exit, ``failed`` > 0, or no parseable result), and how many pairs each side
won, in the direction ``BENCHMARK.json`` calls better; ties, and pairs where
either run produced no value, count for neither.

``gain`` says whether the change won at least nine tenths of all the pairs
run, its median is better than the parent's by more than the distance
between the parent's quartiles, and it failed no more runs than the parent.
``regression`` applies the metric's ``bound``: ``worse`` when the change's
median is worse than the parent's by more than bound x |parent median|;
``unresolved`` when the parent's quartiles lie further apart than that
amount, unless every change run beats every parent run; ``ok`` otherwise.
Standard library only.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

SIDES = ("parent", "change")


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and the two quartiles of ``values`` (linear interpolation)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def failed_run(run: dict) -> bool:
    """Whether a run exited non-zero, reported a failed check, or gave no result.

    `parse_run` leaves ``failed`` None when the output held no result; a
    hand-written run without the key counts as exiting 0 with none failed.
    """
    return run.get("exit", 0) != 0 or run.get("failed", 0) != 0


def regression(parent: List[float], change: List[float], sign: float, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one metric; ``sign`` is +1 when higher is better."""
    sides = quartiles(parent), quartiles(change)
    allowed = bound * abs(sides[0]["median"])
    if sign * (sides[1]["median"] - sides[0]["median"]) < -allowed:
        return "worse"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if sides[0]["q3"] - sides[0]["q1"] > allowed and not separated:
        return "unresolved"
    return "ok"


def summarize(pairs: List[dict], better: Dict[str, str],
              bounds: Optional[Dict[str, float]] = None) -> Dict[str, dict]:
    """Per metric of ``better``: each side's quartiles, wins per pair, the gain
    rule and, for a metric in ``bounds``, the regression verdict.

    ``pairs`` holds ``{"parent": run, "change": run}`` where a run is a dict
    with ``"metrics"`` (name -> value) and optionally ``"exit"`` and
    ``"failed"``; a run that produced no value for a metric leaves its pair
    out of that metric's quartiles and wins, but not out of the pairs the
    gain rule counts. ``better`` maps a metric name to ``"lower"`` or
    ``"higher"``; ``bounds`` maps it to its relative bound.
    """
    failed = {side: sum(failed_run(p[side]) for p in pairs) for side in SIDES}
    out = {}
    for name, direction in sorted(better.items()):
        complete = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                    for p in pairs
                    if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not complete:
            continue
        sign = -1.0 if direction == "lower" else 1.0
        wins = {"parent": 0, "change": 0, "tie": 0}
        for parent, change in complete:
            gap = sign * (change - parent)
            wins["change" if gap > 0 else "parent" if gap < 0 else "tie"] += 1
        sides = {side: quartiles([pair[k] for pair in complete])
                 for k, side in enumerate(SIDES)}
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        margin = sign * (sides["change"]["median"] - sides["parent"]["median"])
        out[name] = {
            "better": direction,
            "pairs": len(complete),
            "runs": len(pairs),
            "failed_runs": failed,
            **sides,
            "wins": wins,
            "gain": (wins["change"] >= 0.9 * len(pairs) and margin > spread
                     and failed["change"] <= failed["parent"]),
        }
        if bounds and name in bounds:
            out[name]["regression"] = regression(
                [p for p, _ in complete], [c for _, c in complete], sign, bounds[name])
    return out


def seed_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    first_seed = int(first)
    last_seed = int(last) if last else first_seed
    if last_seed < first_seed:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first_seed, last_seed + 1))


def source_digest(checkout: Path) -> str:
    """sha256 over the package's source files, so a record names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "chemspan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_head(checkout: Path) -> Optional[str]:
    """The checkout's commit, or None when there is none or when ``src`` holds a change
    or an untracked file the commit lacks, so a record names a commit only for its code."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                           capture_output=True, text=True)
    if head.returncode or dirty.returncode or dirty.stdout.strip():
        return None
    return head.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    return parse_run(done.returncode, done.stdout, done.stderr)


def parse_run(exit_code: int, stdout: str, stderr: str) -> dict:
    """One run from its exit code and output: the report and result lines
    ``bench/run.py`` prints last, or, after a non-zero exit or when they are
    missing or do not parse, ``failed`` None and the tail of standard error."""
    run = {"exit": exit_code, "failed": None, "attempted": None, "metrics": {}}
    lines = stdout.strip().splitlines() if exit_code == 0 else []
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        run.update(failed=int(result["failed"]), attempted=int(result["attempted"]),
                   metrics={k: float(v["value"]) for k, v in result["metrics"].items()},
                   fingerprints=report.get("fingerprints"),
                   environment=report.get("environment"))
    except (IndexError, KeyError, TypeError, ValueError, AttributeError):
        run["stderr_tail"] = stderr.strip().splitlines()[-5:]
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of bench/run.py; repeat for several")
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = float(benchmark["run_seconds"])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "seconds": seconds,
        "trace": 0,
        "checkouts": {side: {"commit": git_head(path), "source_sha256": source_digest(path)}
                      for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: exit {pair[side]['exit']}, "
                      f"failed {pair[side]['failed']}", file=sys.stderr, flush=True)
            pairs.append(pair)
        record["workloads"][workload] = {"summary": summarize(pairs, better, bounds),
                                         "pairs": pairs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
