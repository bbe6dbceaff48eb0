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
    # sampling and greedy decoding share one decode loop; teacher forcing
    # knows every input in advance and runs all its steps in one multi-step
    # call (a reward-inspection trace of a known sentence steps only the
    # guider); the soft-argmax rollout feeds the decoder embeddings, not
    # ids, and keeps its own loop
    stepping = {path.name: _functions_stepping_decoder(
                    ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(SRC.glob("*.py"))}
    assert {name: funcs for name, funcs in stepping.items() if funcs} == {
        "generator.py": {"decode", "teacher_forced_log_probs"},
        "style.py": {"soft_transfer_rollout"}}


MODULES = {path.stem for path in SRC.glob("*.py")} | {"ad"}


def _scopes(tree):
    """(name, node) of each top-level function and method; other top-level
    statements are named <module>."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for f in top.body:
                if isinstance(f, ast.FunctionDef):
                    yield "%s.%s" % (top.name, f.name), f
        else:
            yield "<module>", top


def _callers(name):
    """file:scope of every scope that calls `name`, bare or as an attribute
    of a gmgan module (so `vocab.decode` is not `decode`)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, body in _scopes(tree):
            for node in ast.walk(body):
                f = node.func if isinstance(node, ast.Call) else None
                if (isinstance(f, ast.Name) and f.id == name
                        or isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name)
                        and f.value.id in MODULES):
                    found.add("%s:%s" % (path.name, scope))
    return found


def test_one_dual_cosine_and_one_sampling_loop():
    # the guider's loss, its diagnostics and the per-step rewards share one
    # dual cosine, and only sampling runs the decode loop
    assert _callers("row_cosine") == {"guider.py:dual_cosines"}
    assert _callers("dual_cosines") == {
        "guider.py:guider_loss_batch", "guider.py:objective_cosines",
        "rewards.py:feature_matching_reward"}
    assert _callers("decode") == {"generator.py:sample_sequence"}
    # rewards.py takes no norm, dot product or cosine of its own
    rewards = list(ast.walk(ast.parse(
        (SRC / "rewards.py").read_text(encoding="utf-8"))))
    called = {node.func.attr if isinstance(node.func, ast.Attribute)
              else getattr(node.func, "id", None)
              for node in rewards if isinstance(node, ast.Call)}
    assert not called & {"norm", "dot", "vdot", "inner", "row_cosine"}
    assert not any(isinstance(node, ast.MatMult) for node in rewards)
    assert not any(isinstance(node, ast.FunctionDef) and "cos" in node.name
                   for node in rewards)
