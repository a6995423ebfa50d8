"""Every span name the benchmark reads or hooks is a function or method of chemspan.

bench/tracing.py names a traced call ``layer.Qualname`` and bench/run.py
reads per-layer metrics by those names. A name that no longer resolves is
never recorded, so its metric would read 0 without an error. Both files are
parsed here, not imported, and nothing under bench/ is written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
READERS = ("total_of", "self_of", "calls_of", "outermost")


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _assigned(tree, name):
    """The value node of the module-level assignment to ``name``."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"bench/tracing.py assigns no {name}")


TRACING = _tree("tracing.py")
LAYERS = ast.literal_eval(_assigned(TRACING, "LAYERS"))
HOOKED = [key.value for key in _assigned(TRACING, "HOOKS").keys]


def read_names():
    """(name, is a prefix) for every string constant in a reader call of bench/run.py.

    A string handed to ``str.startswith`` inside the call is a prefix of names.
    """
    names = set()
    for node in ast.walk(_tree("run.py")):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in READERS):
            continue
        prefixes = {id(arg) for call in ast.walk(node) if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute) and call.func.attr == "startswith"
                    for arg in call.args}
        names.update((const.value, id(const) in prefixes) for const in ast.walk(node)
                     if isinstance(const, ast.Constant) and isinstance(const.value, str))
    return sorted(names)


def traced_names(layer):
    """The names the tracer gives a layer's public functions and methods."""
    module = importlib.import_module(f"chemspan.{layer}")
    names = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            names.append(f"{layer}.{obj.__qualname__}")
        elif inspect.isclass(obj):
            names.extend(f"{layer}.{obj.__qualname__}.{member}"
                         for member, value in vars(obj).items() if not member.startswith("_")
                         and (inspect.isfunction(value)
                              or isinstance(value, (classmethod, staticmethod))))
    return names


def test_bench_reads_and_hooks_names():
    reads = read_names()
    assert len(reads) >= 20 and len(HOOKED) >= 4
    assert ("relation.RelationModel.build_instance", False) in reads
    assert ("relation.RelationModel.classify", False) in reads
    assert "relation.RelationModel.classify" in HOOKED


@pytest.mark.parametrize("name, prefix", read_names() + [(name, False) for name in HOOKED])
def test_a_benchmark_name_resolves_to_a_traced_function(name, prefix):
    layer = name.split(".", 1)[0]
    assert layer in LAYERS, name
    names = traced_names(layer)
    if prefix:
        assert any(n.startswith(name) for n in names), name
    else:
        assert name in names, name
