"""Every config setting is read somewhere outside `config.py`.

A field of a config section that no chemspan module reads is a value users
can set to no effect, which checkpoints still carry. Reads are found by
attribute name, so a field counts as read when any module other than
`config.py` loads an attribute of that name.
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
