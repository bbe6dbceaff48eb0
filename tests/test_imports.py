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
