"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces every public function and method that a layer
module of ``chemspan`` defines with a wrapper recording one span per call:
name, start, end and the span that was open when the call began. Counts that
need a call's arguments or result are taken by hooks at the same boundary.
Spans live in flat arrays while the workload runs and are written out once,
at the end. ``uninstall`` puts every original back.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

LAYERS = ("tokenizer", "corpus", "alignment", "encoder", "ner", "relation",
          "checkpoint", "scoring", "analysis", "cli")


def _count_symbols(counts, args, kwargs, result):
    counts["encoder.symbols"] += len(args[1])


def _count_ner_training(counts, args, kwargs, result):
    from chemspan.ner import NER_LABELS
    null = NER_LABELS.index("null")
    for example in args[1]:
        counts["ner.span_candidates"] += len(example.candidates)
        counts["ner.useful_spans"] += int((example.labels != null).sum())


def _count_ner_prediction(counts, args, kwargs, result):
    counts["ner.span_candidates"] += len(result)
    counts["ner.useful_spans"] += sum(1 for _, label, _ in result if label != "null")


def _count_relation_prediction(counts, args, kwargs, result):
    counts["relation.useful_pairs"] += result[0] != "null"


def _count_tokens(counts, args, kwargs, result):
    counts["tokenizer.tokens"] += len(result)


COUNTS = ("encoder.symbols", "ner.span_candidates", "ner.useful_spans",
          "relation.useful_pairs", "tokenizer.tokens")

HOOKS: Dict[str, Callable] = {
    "encoder.TinyEncoder.forward": _count_symbols,
    "ner.NerModel.loss_and_grads": _count_ner_training,
    "ner.NerModel.classify_spans": _count_ner_prediction,
    "relation.RelationModel.classify": _count_relation_prediction,
    "tokenizer.tokenize": _count_tokens,
}


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, hook = self._stack, self.counts, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"chemspan.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # functions are re-exported by name into other modules and the package,
        # so every reference to an original is replaced, wherever it lives
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "chemspan" and not mod_name.startswith("chemspan."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._patch(module, attr, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading spans back ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.end)

    def write(self, path) -> None:
        """All spans as gzip'd TSV: id, parent id, name, start, end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{start!r}\t{end!r}\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Calls, total and self time per span name, and layer-level views.

    Self time is a span's duration minus the durations of its direct child
    spans; spans of one thread nest, so the children never overlap.
    """

    def __init__(self, tracer: Tracer):
        n = len(tracer)
        names, parents = tracer.name, tracer.parent
        duration = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += duration[i]
        self.names = tracer.names
        self.counts = dict(tracer.counts)
        self.spans = n
        k = len(tracer.names)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        layer_of = [name.split(".", 1)[0] for name in tracer.names]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        # time inside a layer counted once: spans whose parent lies in another layer
        self.layer_inclusive = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            nid = names[i]
            self.calls[nid] += 1
            self.total[nid] += duration[i]
            own = duration[i] - child[i]
            self.self_time[nid] += own
            layer = layer_of[nid]
            self.layer_self[layer] += own
            p = parents[i]
            if p < 0 or layer_of[names[p]] != layer:
                self.layer_inclusive[layer] += duration[i]
        self._name_of, self._parent, self._duration = names, parents, duration

    def _index(self, name: str):
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def calls_of(self, name: str) -> int:
        i = self._index(name)
        return 0 if i is None else self.calls[i]

    def total_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else self.total[i]

    def self_of(self, name: str) -> float:
        i = self._index(name)
        return 0.0 if i is None else self.self_time[i]

    def outermost(self, predicate) -> Tuple[int, float]:
        """Calls and time of spans matching ``predicate`` with no matching ancestor."""
        names, parents, duration = self._name_of, self._parent, self._duration
        wanted = {i for i, name in enumerate(self.names) if predicate(name)}
        calls, seconds = 0, 0.0
        for i in range(len(duration)):
            if names[i] not in wanted:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in wanted:
                p = parents[p]
            if p < 0:
                calls += 1
                seconds += duration[i]
        return calls, seconds
