"""Every CLI output goes through the one writer in `cli.py`.

`_writer` reserves a command's outputs before its work and replaces them all
after it. No other function in `cli.py` opens a file or writes one, directly
(`open`, `os.open`, `write_text`, `write_bytes`) or through a checkpoint
`save_*` function, so no command can write an output that skips the checks
and the all-or-nothing replacement.
"""

import ast
from pathlib import Path

import chemspan

CLI = Path(chemspan.__file__).parent / "cli.py"
WRITER = "_writer"
WRITING_CALLS = {"open", "write_text", "write_bytes"}


def called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def direct_writes(source: str):
    """(function, line, callee) of each writing call outside the writer."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name == WRITER:
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = called_name(call)
                if name in WRITING_CALLS or name.startswith("save_"):
                    found.append((node.name, call.lineno, name))
    return found


def test_only_the_writer_writes_files():
    source = CLI.read_text(encoding="utf-8")
    assert WRITER in {node.name for node in ast.parse(source).body
                      if isinstance(node, ast.FunctionDef)}
    assert not direct_writes(source), direct_writes(source)


def test_every_command_goes_through_the_writer():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def writes_through(name, seen=()):
        calls = {called_name(c) for c in ast.walk(functions[name]) if isinstance(c, ast.Call)}
        return WRITER in calls or any(writes_through(callee, seen + (name,))
                                      for callee in calls & functions.keys() - {name, *seen})

    commands = [name for name in functions if name.startswith("cmd_")]
    assert commands and all(writes_through(name) for name in commands), commands


def test_the_check_sees_a_command_that_writes_directly():
    source = ("def cmd_x(args):\n"
              "    with open(args.out, 'w') as fh:\n"
              "        fh.write('x')\n"
              "def cmd_y(args, model):\n"
              "    save_ner_model(args.out, model)\n"
              "    Path(args.out).write_bytes(b'')\n")
    assert [name for _, _, name in direct_writes(source)] == [
        "open", "save_ner_model", "write_bytes"]
