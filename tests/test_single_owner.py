"""The corpus label tables are spelled out once, in `corpus.py`.

No other chemspan module holds a string equal to an entity type or to a
`CPR:n` group: they read `ENTITY_TYPES` and `EVAL_GROUPS` from `corpus`, so a
table changed there leaves no stale copy behind. `microcorpus.py` is left out
because its sentence templates are data.
"""

import ast
import re
from pathlib import Path

import pytest

import chemspan

PACKAGE = Path(chemspan.__file__).parent
OWNERS = ("corpus.py", "microcorpus.py")
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in OWNERS)
CPR_GROUP = re.compile(r"CPR:[0-9]+")


def entity_types():
    """The tuple corpus.py assigns to `ENTITY_TYPES`."""
    for node in ast.parse((PACKAGE / "corpus.py").read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "ENTITY_TYPES"):
            return ast.literal_eval(node.value)
    raise AssertionError("corpus.py assigns no ENTITY_TYPES literal")


def label_literals(path):
    """(line, value) of each string constant in the module that is a label."""
    types = set(entity_types())
    return [(node.lineno, node.value)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in types or CPR_GROUP.fullmatch(node.value))]


def test_the_owner_holds_every_label():
    found = {value for _, value in label_literals(PACKAGE / "corpus.py")}
    assert set(entity_types()) | {"CPR:3", "CPR:9"} <= found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_labels_from_corpus(path):
    copies = [f"{path.name}:{line}: {value!r}" for line, value in label_literals(path)]
    assert not copies, "label restated outside corpus.py: " + ", ".join(copies)
