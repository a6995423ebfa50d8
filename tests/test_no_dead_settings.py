"""Every config setting is read somewhere outside `config.py`, and owned by it alone.

A field of a config section that no chemspan module reads is a value users
can set to no effect, which checkpoints still carry. Reads are found by
attribute name, so a field counts as read when any module other than
`config.py` loads an attribute of that name. A function parameter named
after a field and given its own default is a second owner of the setting.
"""

import ast
from pathlib import Path

import pytest

import chemspan

PACKAGE = Path(chemspan.__file__).parent
SECTIONS = ("EncoderConfig", "NerConfig", "RelationConfig", "PipelineConfig")


def settings():
    """(class, field) for each annotated field of the config classes."""
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    return [(node.name, item.target.id)
            for node in tree.body if isinstance(node, ast.ClassDef) and node.name in SECTIONS
            for item in node.body if isinstance(item, ast.AnnAssign)]


def attributes_read():
    """Names of the attributes any module but config.py loads."""
    return {node.attr
            for path in PACKAGE.glob("*.py") if path.name != "config.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


READ = attributes_read()


def test_every_section_declares_settings():
    assert {cls for cls, _ in settings()} == set(SECTIONS)


@pytest.mark.parametrize("setting", settings(), ids=lambda s: f"{s[0]}.{s[1]}")
def test_setting_is_read_outside_config(setting):
    cls, name = setting
    assert name in READ, f"{cls}.{name} is read by no chemspan module but config.py"


def defaulted_parameters(tree):
    """(owner, parameter) for each parameter with a default in a module's functions.

    The owner is the function's name, ``Class.method`` for a method, or the
    class name for its ``__init__``.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                owner = (cls if child.name == "__init__" else f"{cls}.{child.name}"
                         ) if cls else child.name
                found.extend((owner, a.arg) for a in defaulted)
                visit(child, None)

    visit(tree, None)
    return found


def test_no_function_restates_a_setting_with_its_own_default():
    """A defaulted parameter named after a config field is a second owner of
    that setting: a caller that omits it gets a value the config never stated."""
    names = {name for _, name in settings()}
    restated = sorted(f"{path.stem}: {owner}.{name}"
                      for path in PACKAGE.glob("*.py") if path.name != "config.py"
                      for owner, name in defaulted_parameters(
                          ast.parse(path.read_text(encoding="utf-8")))
                      if name in names)
    assert restated == [], f"defaulted parameters named after config fields: {restated}"
