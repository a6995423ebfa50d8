"""Every name a chemspan module imports is used in that module.

`__init__.py` is left out: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

import chemspan

MODULES = sorted(p for p in Path(chemspan.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each import in the module -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree):
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in sorted(imported_names(tree).items(), key=lambda kv: kv[1])
              if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)
