"""Module boundaries of the gmgan package, checked on its source."""

import ast
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gmgan"


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
    """(name, node) of each top-level function and method; a class's bases
    and other statements are named by the class, other top-level
    statements <module>."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for f in top.body + top.bases + top.decorator_list:
                yield ("%s.%s" % (top.name, f.name)
                       if isinstance(f, ast.FunctionDef) else top.name), f
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
        "guider.py:guider_loss_batch", "rewards.py:feature_matching_reward"}
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


def _names(node):
    """Every name a tree defines, binds, imports or reads."""
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            yield n.name
        elif isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


def test_only_the_report_builds_bleu_tables():
    # bleu, test_bleu and self_bleu score against tables they are given,
    # so each reference set is tabulated once, where the report is made
    assert _callers("NgramTables") == {"metrics.py:bleu_report"}


def test_style_labels_live_in_the_guider_state():
    # a row's style label is part of its guider state: only guider.py
    # builds a state or reads the label embeddings, no call hands
    # guider_step labels of its own, and a reward is a plain Q array
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {c.split(":")[0] for c in _callers("GuiderState")} == {"guider.py"}
    assert {name for name, tree in trees.items()
            if "label_init" in set(_names(tree))} == {"guider.py"}
    labelled_steps = [
        "%s:%d" % (name, node.lineno)
        for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "guider_step" in set(_names(node.func))
        and any(k.arg == "labels" for k in node.keywords)]
    assert not labelled_steps
    gone = {"RewardTrace", "initial_state_for_labels"}
    assert {name: gone & set(_names(tree)) for name, tree in trees.items()
            if gone & set(_names(tree))} == {}


PERFBENCH = SRC.parent.parent / "perfbench"
# options and methods removed because no program caller used them
REMOVED = {
    "conv1d": {"apply_relu"}, "init_matrix": {"scale_override"},
    "encode_batch": {"stop_gradient"}, "mean_feature_norm": {"batch"},
    "Adam": {"beta1", "beta2", "eps"}, "build_vocabulary": {"min_freq"},
    "load_corpus": {"min_freq"}, "train_style_classifier": {"lr"},
    "train_latent_probe": {"epochs", "lr", "batch_size"},
    "sample_sequence": {"seed", "max_len", "mode"},
    "decode": {"mode"}, "_draw": {"mode"}, "teacher_force_trace": {"label"},
    "GrammarSpec": {"nonterminals"}, "BleuReport": {"from_json"},
    "pretrain_mle": {"include_guider"}, "validation_mle_loss": {"batch_size"},
}


def _signatures(tree):
    """{callee name: (parameter names, [(name, position or None)] of the
    parameters with a default)}. A method's positions skip self, and a
    constructor is keyed by its class, which also lists its methods."""
    out, parents = {}, {}
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        methods = [f for f in cls.body if isinstance(f, ast.FunctionDef)]
        out[cls.name] = ({f.name for f in methods}, [])
        parents.update((id(f), cls.name) for f in methods)
    for func in [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        a, bound = func.args, int(id(func) in parents)
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        key = (parents[id(func)] if func.name == "__init__" and bound
               else func.name)
        names, defaulted = out.setdefault(key, (set(), []))
        names.update(arg.arg for arg in pos + a.kwonlyargs)
        defaulted += [(arg.arg, i - bound)
                      for i, arg in enumerate(pos[first:], first)]
        defaulted += [(arg.arg, None)
                      for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
    return out


def _call_arguments(tree):
    """(callee name, positional count, keyword names) of every call; a
    `cls(...)` or `super().__init__(...)` call names the class it builds,
    and a *args or **kwargs call passes everything."""
    builds = {}
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        for node in ast.walk(cls):
            f = getattr(node, "func", None)
            if isinstance(f, ast.Name) and f.id == "cls":
                builds[id(node)] = [cls.name]
            elif (isinstance(f, ast.Attribute) and f.attr == "__init__"
                    and isinstance(f.value, ast.Call)
                    and getattr(f.value.func, "id", None) == "super"):
                builds[id(node)] = [b.id for b in cls.bases
                                    if isinstance(b, ast.Name)]
    for node in [n for n in ast.walk(tree) if isinstance(n, ast.Call)]:
        f = node.func
        spread = (any(isinstance(a, ast.Starred) for a in node.args)
                  or any(k.arg is None for k in node.keywords))
        for name in builds.get(id(node), [getattr(f, "id", None)
                                          or getattr(f, "attr", None)]):
            yield (name, float("inf") if spread else len(node.args),
                   {k.arg for k in node.keywords})


def test_every_option_has_a_program_caller():
    # an option that no code path sets is one more concept for one
    # behaviour: each default-valued parameter is passed, by keyword or by
    # position, somewhere in the package or the benchmark
    callers = {}
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for name, n_pos, keywords in _call_arguments(
                ast.parse(path.read_text(encoding="utf-8"))):
            callers.setdefault(name, []).append((n_pos, keywords))
    signatures, uncalled = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for key, (names, defaulted) in _signatures(
                ast.parse(path.read_text(encoding="utf-8"))).items():
            signatures.setdefault(key, set()).update(names)
            uncalled |= {(key, param) for param, i in defaulted
                         if not any(param in kw or i is not None and n > i
                                    for n, kw in callers.get(key, []))}
    assert not uncalled, uncalled
    assert set(REMOVED) <= set(signatures)
    back = {key: REMOVED[key] & signatures[key] for key in REMOVED}
    assert not any(back.values()), back


# public names with no reference in a program path, each with its reason
UNREFERENCED = {
    "autodiff.set_debug_checks": "the public switch of the NaN/Inf checks, "
                                 "which only tests turn on",
}
# names removed because only tests used them; a method named like a numpy
# attribute (Tensor.size) takes numpy's uses for its own, so only this list
# keeps it out
REMOVED_NAMES = {
    "autodiff.sigmoid", "autodiff.tanh", "autodiff.slice_cols",
    "autodiff.Tensor.detach", "autodiff.Tensor.size",
    "guider.objective_cosines", "style.classifier_accuracy",
    "trainer.Models.clone", "autodiff.sub",
}


def _references(path, tree):
    """(key, scope) of each reference a file makes. A top-level name is
    keyed (module, name): bare where it is defined or imported, or as an
    attribute of its module (`ad.exp`). Any other attribute, and each
    dotted part of a string (the benchmark names what it wraps), is keyed
    (None, name), as a method is."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = ["gmgan"] * (node.level > 0) + [
                p for p in (node.module or "").split(".") if p]
            for a in node.names:
                if parts == ["gmgan"]:                # `from . import x`
                    modules[a.asname or a.name] = a.name
                elif parts[0] == "gmgan":
                    imported[a.asname or a.name] = (parts[-1], a.name)
    own = path.stem if path.parent == SRC else None
    for scope, body in _scopes(tree):
        for node in ast.walk(body):
            if isinstance(node, ast.Name) and (own or node.id in imported):
                yield imported.get(node.id, (own, node.id)), scope
            elif isinstance(node, ast.Attribute):
                yield (modules.get(getattr(node.value, "id", None)),
                       node.attr), scope
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                yield from (((None, p), scope) for p in node.value.split("."))


def test_every_public_name_has_a_program_reference():
    # src holds only what a program path uses: each public top-level
    # function and class, and each non-dunder method, is referenced outside
    # its own body somewhere in the package or the benchmark
    defined, used = {}, {}
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = path.stem if path.parent == SRC else None
        for key, scope in _references(path, tree):
            used.setdefault(key, set()).add("%s.%s" % (own, scope))
        for top in tree.body if own else []:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")):
                defined["%s.%s" % (own, top.name)] = (own, top.name)
        defined.update(("%s.%s" % (own, scope), (None, scope.split(".")[1]))
                       for scope, _ in (_scopes(tree) if own else [])
                       if "." in scope and not scope.endswith("__"))
    unreferenced = {name for name, key in defined.items()
                    if all(where == name or where.startswith(name + ".")
                           for where in used.get(key, ()))}
    assert unreferenced == set(UNREFERENCED)
    assert not set(defined) & REMOVED_NAMES


def test_every_classifier_loss_is_the_one_cross_entropy():
    # pick serves only cross_entropy and teacher forcing; autodiff has no
    # log of its own (numpy's log and the training log keep the name, so
    # only autodiff's definitions are read) and the discriminator no
    # clamped sigmoid
    assert _callers("pick") == {"autodiff.py:cross_entropy",
                                "generator.py:teacher_forced_log_probs"}
    tree = ast.parse((SRC / "autodiff.py").read_text(encoding="utf-8"))
    assert "log" not in {f.name for f in tree.body
                         if isinstance(f, ast.FunctionDef)}
    gone = {"_clamped", "_CLAMP", "soft_argmax_embedding"}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: gone & set(_names(t)) for name, t in trees.items()
            if gone & set(_names(t))} == {}


def test_every_update_is_one_minimize():
    # a training step records its loss, backpropagates it, steps its group
    # and clears that group's gradients in one place, so no loss leaves a
    # gradient behind and no caller repeats backward's non-finite check
    calls, back = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        back |= {"check_finite", "TrainingDiverged", "zero_all"} & set(
            _names(tree))
        for scope, body in _scopes(tree):
            calls |= {"%s:%s" % (path.name, scope) for node in ast.walk(body)
                      if isinstance(node, ast.Call)
                      and (getattr(node.func, "attr", None)
                           or getattr(node.func, "id", None))
                      in ("tape", "backward", "step")}
    assert calls == {"optim.py:Adam.minimize"}
    assert not back, back


def test_every_import_is_read():
    # an import nothing reads is a dependency with no use; an import kept
    # for its side effects says so with `# noqa: F401`
    unread = []
    for path in (sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
                 + sorted(PERFBENCH.glob("*.py"))):
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread += ["%s:%d %s" % (path.name, node.lineno, name)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and "noqa: F401" not in lines[node.lineno - 1]
                   for name in [a.asname or a.name.split(".")[0]
                                for a in node.names]
                   if name not in read]
    assert not unread, unread


# each method whose bare name another gmgan class, a top-level gmgan
# function, or an attribute of str, bytes, list, dict or numpy shares, with
# a program scope that uses it on its own class's objects
SHARED_NAME_CALLERS = {
    "autodiff.Tape.record": "autodiff.py:add",
    "autodiff.Tensor.item": "optim.py:Adam.minimize",
    "autodiff.Tensor.shape": "encoder.py:TokenCNN.apply",
    "checkpoint._Reader.take": "checkpoint.py:_unpack_sections",
    "checkpoint._ZeroInit.normal": "autodiff.py:init_matrix",
    "corpus.GrammarSpec.load": "cli.py:cmd_eval",
    "corpus.GrammarSpec.save": "workloads.py:GenerateEval.setup",
    "corpus.GrammarSpec.to_json": "corpus.py:GrammarSpec.save",
    "corpus.Vocabulary.decode": "corpus.py:save_corpus",
    "corpus.Vocabulary.encode": "corpus.py:load_corpus",
    "corpus.Vocabulary.load": "cli.py:_load_training_data",
    "encoder.TokenCNN.tensors": "trainer.py:Models.generator_tensors",
    "generator.GeneratorParams.tensors": "trainer.py:Models.generator_tensors",
    "guider.GuiderParams.tensors": "trainer.py:Models.optimizer_groups",
    "metrics.BleuReport.to_json": "cli.py:cmd_eval",
    "style.LatentProbe.tensors": "style.py:train_latent_probe",
}


def test_every_shared_method_name_has_its_own_caller():
    # the reference guard keys a method by its bare name, so a method named
    # like another (`Vocabulary.encode` beside `str.encode`) passes on the
    # other's uses; each such method names the program scope that uses it,
    # and a new one needs an entry
    shadowing = set().union(*map(dir, (str, bytes, list, dict, np.ndarray,
                                       np.random.Generator, np)))
    program = sorted(SRC.glob("*.py")) + sorted(
        p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))
    functions, methods, uses = set(), {}, {}
    for path in program:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, body in _scopes(tree):
            where = "%s:%s" % (path.name, scope)
            uses.setdefault(where, set()).update(
                n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute))
            if path.parent != SRC or not isinstance(body, ast.FunctionDef):
                continue
            if "." not in scope:
                functions.add(scope)
            elif not scope.endswith("__"):
                methods.setdefault(body.name, []).append(
                    "%s.%s" % (path.stem, scope))
    shared = {m for name, defs in methods.items() for m in defs
              if len(defs) > 1 or name in functions | shadowing}
    assert shared == set(SHARED_NAME_CALLERS)
    wrong = {m: where for m, where in SHARED_NAME_CALLERS.items()
             if m.split(".")[-1] not in uses.get(where, ())
             or where == "%s.py:%s" % tuple(m.split(".", 1))}
    assert not wrong, wrong


# run settings that TrainConfig validates for every run and every loaded
# checkpoint, under the names the program passes them by
SETTINGS = {"c", "gamma", "convention", "discount_convention", "mode",
            "ablation", "temperature", "soft_argmax_temperature", "lr"}


def test_run_settings_are_checked_only_in_the_config():
    # a setting is refused once, where it enters the program: no other
    # branch that raises tests one
    checks = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, body in _scopes(tree):
            checks += ["%s:%d" % (path.name, node.lineno)
                       for node in ast.walk(body) if isinstance(node, ast.If)
                       and any(isinstance(s, ast.Raise) for s in node.body)
                       and SETTINGS & set(_names(node.test))
                       and scope != "TrainConfig.__post_init__"]
    assert not checks, checks
