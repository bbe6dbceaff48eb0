"""Module boundaries of the gmgan package, checked on its source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gmgan"


def test_no_private_or_function_level_relative_imports():
    # a module uses only another module's public names, and imports them at
    # module top, so the dependency graph is visible and has no hidden cycles
    files = sorted(SRC.glob("*.py"))
    assert files, "no sources under %s" % SRC
    problems = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            where = "%s:%d" % (path.name, node.lineno)
            private = [a.name for a in node.names if a.name.startswith("_")]
            if private:
                problems.append("%s imports private %s" % (where, private))
            if id(node) not in top_level:
                problems.append("%s imports below module top" % where)
    assert not problems, problems


def _functions_stepping_decoder(tree):
    """Names of the top-level functions that call lstm_cell on dec_w_x."""
    found = set()
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "lstm_cell"
                    and any(isinstance(a, ast.Attribute)
                            and a.attr == "dec_w_x" for a in node.args)):
                found.add(func.name)
    return found


def test_decoder_is_stepped_in_one_loop():
    # sampling, greedy decoding, teacher forcing and reward traces share one
    # decode loop; the soft-argmax rollout feeds the decoder embeddings, not
    # ids, and keeps its own
    stepping = {path.name: _functions_stepping_decoder(
                    ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py"))}
    generator = stepping.pop("generator.py")
    assert len(generator) == 1, generator
    assert {name: funcs for name, funcs in stepping.items() if funcs} == {
        "style.py": {"soft_transfer_rollout"}}
