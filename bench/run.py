#!/usr/bin/env python3
"""chemspan benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload train-micro --seed 1 --seconds 40 --trace 0

Run it from the root of a chemspan checkout; it imports the program from
that checkout's ``src/`` and exits 1 before measuring anything when that is
missing. Scratch files go under ``.bench_work/`` in the checkout and are
removed at the end, except the span files traced runs keep.

With ``--trace 0`` the run sets up ``setup_repeats`` times, repeats the
workload's main step (at least once), then its short operations, for about
``--seconds`` in all (the last repetition may run over), and reports each
end-to-end metric as the median of its samples. With ``--trace 1`` it sets up and repeats once untraced and
once traced, and reports the per-layer metrics of the traced pass plus the
tracing overhead.

The second-to-last line of standard output is a JSON report: environment,
input properties, prediction fingerprints, every sample and every failed
check. The last line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. bench/README.md says why each workload and metric exists.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chemspan"
WORK = ROOT / ".bench_work"

END_TO_END = {   # name -> unit
    "setup_s": "s",
    "train_ner_s": "s",
    "train_re_s": "s",
    "predict_docs_per_s": "docs/s",
    "eval_docs_per_s": "docs/s",
    "ner_f1": "ratio",
    "re_f1": "ratio",
    "peak_rss_mb": "MB",
}


def import_program():
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: {PACKAGE} not found; run the benchmark from a chemspan checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import chemspan
    if Path(chemspan.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"error: imported chemspan from {chemspan.__file__}, not from {PACKAGE}")


def blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, report: dict) -> dict:
    """Set up ``setup_repeats`` times; start repetitions of the main step while
    ``seconds - tail_seconds`` have not passed (the last one may run over),
    then repeat the short operations for the workload's ``tail_seconds``. Each
    metric is the median of its samples."""
    samples = {}

    def pool(new):
        for name, values in new.items():
            samples.setdefault(name, []).extend(values)

    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        pool(workload.setup())
        pool({"setup_s": [time.perf_counter() - t0]})
    reps, tails = [], 0
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds - workload.tail_seconds:
        t0 = time.perf_counter()
        pool(workload.rep())
        reps.append(time.perf_counter() - t0)
    start = time.perf_counter()
    while not tails or time.perf_counter() - start < workload.tail_seconds:
        pool(workload.tail())
        tails += 1
    report.update(rep_seconds=reps, tail_rounds=tails, samples=samples)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def traced_metrics(workload, report: dict) -> dict:
    """One untraced and one traced set-up plus repetition; per-layer metrics."""
    import tracing
    t0 = time.perf_counter()
    workload.setup()
    workload.rep()
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.setup()
        workload.rep()
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload.name}-seed{workload.seed}.spans.tsv.gz"
    summary = tracer.summary()
    tracer.write(spans_path)
    report["untraced_seconds"] = untraced
    report["traced_seconds"] = traced
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = layer_metrics(summary)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def layer_metrics(s) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    c = s.counts
    ner_candidates = c["ner.span_candidates"]
    pairs = s.calls_of("relation.RelationModel.classify")
    corpus_loads, corpus_load_s = s.outermost(
        lambda n: n in ("corpus.load_corpus_dir", "corpus.load_corpus",
                        "corpus.load_corpus_with_diagnostics"))
    _, save_s = s.outermost(lambda n: n.startswith("checkpoint.save"))
    _, load_s = s.outermost(lambda n: n.startswith("checkpoint.load"))
    out = {
        "encoder.forward_s": (s.total_of("encoder.TinyEncoder.forward"), "s"),
        "encoder.forward_calls": (s.calls_of("encoder.TinyEncoder.forward"), "count"),
        "encoder.symbols": (c["encoder.symbols"], "count"),
        "encoder.backward_s": (s.total_of("encoder.TinyEncoder.backward"), "s"),
        "encoder.backward_calls": (s.calls_of("encoder.TinyEncoder.backward"), "count"),
        "encoder.adam_step_s": (s.total_of("encoder.Adam.step"), "s"),
        "encoder.adam_steps": (s.calls_of("encoder.Adam.step"), "count"),
        "encoder.surface_bucket_s": (s.total_of("encoder.surface_bucket"), "s"),
        "encoder.surface_bucket_calls": (s.calls_of("encoder.surface_bucket"), "count"),
        "ner.prepare_s": (s.total_of("ner.NerModel.prepare_documents"), "s"),
        "ner.loss_self_s": (s.self_of("ner.NerModel.loss_and_grads"), "s"),
        "ner.classify_self_s": (s.self_of("ner.NerModel.classify_spans"), "s"),
        "ner.span_candidates": (ner_candidates, "count"),
        "ner.useful_ratio": (c["ner.useful_spans"] / ner_candidates if ner_candidates else 0.0,
                             "ratio"),
        "relation.build_instance_s": (s.total_of("relation.RelationModel.build_instance"), "s"),
        "relation.instances": (s.calls_of("relation.RelationModel.build_instance"), "count"),
        "relation.loss_self_s": (s.self_of("relation.RelationModel.loss_and_grads"), "s"),
        "relation.classify_self_s": (s.self_of("relation.RelationModel.classify"), "s"),
        "relation.pairs_classified": (pairs, "count"),
        "relation.useful_ratio": (c["relation.useful_pairs"] / pairs if pairs else 0.0, "ratio"),
        "alignment.docview_build_s": (s.total_of("alignment.DocView.build"), "s"),
        "alignment.docview_builds": (s.calls_of("alignment.DocView.build"), "count"),
        "alignment.loss_report_s": (s.total_of("alignment.compute_loss_report"), "s"),
        "tokenizer.tokenize_s": (s.layer_inclusive["tokenizer"], "s"),
        "tokenizer.tokens": (c["tokenizer.tokens"], "count"),
        "corpus.load_s": (corpus_load_s, "s"),
        "corpus.loads": (corpus_loads, "count"),
        "checkpoint.save_s": (save_s, "s"),
        "checkpoint.load_s": (load_s, "s"),
        "scoring.score_s": (s.layer_inclusive["scoring"], "s"),
        "analysis.analyze_s": (s.layer_inclusive["analysis"], "s"),
        "cli.align_stats_s": (s.total_of("cli.cmd_align_stats"), "s"),
        "cli.score_s": (s.total_of("cli.cmd_score"), "s"),
        "cli.analyze_s": (s.total_of("cli.cmd_analyze"), "s"),
        "trace.spans": (s.spans, "count"),
    }
    for layer, seconds in s.layer_self.items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-micro", "predict-abstracts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed repetitions run (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one core, as the package claims; a second BLAS thread on a small shared
    # host adds stalls that depend on the neighbours, not on the program
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import_program()
    import workloads

    seed = args.seed % 2 ** 31     # the models seed numpy generators, which need it non-negative
    work = WORK / f"{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[args.workload](seed, work, ledger)
    report = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        if args.trace:
            metrics = traced_metrics(workload, report)
        else:
            metrics = {name: (value, END_TO_END[name])
                       for name, value in measure(workload, args.seconds, report).items()}
        report["inputs"] = workload.describe()
    except Exception:   # the run cannot finish: show how far it got, print no result
        report["failures"] = ledger.failures
        print(json.dumps({"report": report}, sort_keys=True, default=str), file=sys.stderr)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["fingerprints"] = workload.fingerprints
    report["failures"] = ledger.failures
    report["failed_share"] = ledger.failed / ledger.attempted
    if not args.trace:
        missing = sorted(set(END_TO_END) - set(metrics))
        if missing:
            raise SystemExit(f"error: {args.workload} produced no samples for {missing}")
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
