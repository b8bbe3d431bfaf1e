"""The package's public surface: ``chunkvote.__all__``."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import chunkvote


def test_every_export_resolves():
    missing = [name for name in chunkvote.__all__ if not hasattr(chunkvote, name)]
    assert missing == []
    assert len(set(chunkvote.__all__)) == len(chunkvote.__all__)


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(chunkvote).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(chunkvote.__all__)) == []


# The benchmark's in-process steps and checks call the package directly.
BENCHMARK_SOURCES = ("step.py", "checks.py")


def _bind(signature, call, bound_self=False):
    """Bind a call's arguments to a signature; a starred argument stands for
    any number, so only the spelled-out ones are bound then."""
    args = [None] * (bound_self + sum(not isinstance(a, ast.Starred) for a in call.args))
    kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
    if len(args) - bound_self < len(call.args) or len(kwargs) < len(call.keywords):
        signature.bind_partial(*args, **kwargs)
    else:
        signature.bind(*args, **kwargs)


@pytest.mark.parametrize("source", BENCHMARK_SOURCES)
def test_benchmark_calls_into_the_package_still_bind(source):
    """Every name the benchmark imports from the package exists, every call
    of one binds to its signature, and every attribute the benchmark reads
    off an instance it builds, or takes as an annotated argument, exists."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / source).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chunkvote":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported

    def called(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in imported

    for node in ast.walk(tree):
        if called(node):
            _bind(inspect.signature(imported[node.func.id]), node)
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        instances = {}
        for arg in function.args.args:
            if isinstance(arg.annotation, ast.Name) and isinstance(imported.get(arg.annotation.id), type):
                instances[arg.arg] = imported[arg.annotation.id]
        for node in ast.walk(function):
            if (isinstance(node, ast.Assign) and called(node.value)
                    and isinstance(imported[node.value.func.id], type)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        instances[target.id] = imported[node.value.func.id]
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in instances:
                cls = instances[node.value.id]
                fields = getattr(cls, "_fields", ())
                assert node.attr in fields or hasattr(cls, node.attr), f"{cls.__name__}.{node.attr}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) and node.func.value.id in instances:
                method = getattr(instances[node.func.value.id], node.func.attr)
                _bind(inspect.signature(method), node, bound_self=True)


def test_exports_are_the_objects_of_their_defining_modules():
    for name in chunkvote.__all__:
        module = importlib.import_module(f"chunkvote.{chunkvote._MODULE_OF[name]}")
        value = getattr(chunkvote, name)
        assert value is getattr(module, name), name
        if hasattr(value, "__module__"):  # functions and classes: the table names their home
            assert value.__module__ == module.__name__, name
        assert name in dir(chunkvote)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chunkvote.no_such_name
    with pytest.raises(ImportError):
        from chunkvote import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace = {}
    exec("from chunkvote import *", namespace)
    assert sorted(set(chunkvote.__all__) - set(namespace)) == []


ROOT = Path(__file__).resolve().parent.parent


def _uses(tree, own_definitions):
    """Names a module loads or imports, each counted only outside the
    top-level statement that defines it when ``own_definitions``."""
    used = set()
    for statement in tree.body:
        defined = set()
        if own_definitions:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.add(statement.name)
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        used -= defined
    return used


def test_every_export_is_used_outside_the_tests():
    """A public name lives for the command line, the library's own code or
    the benchmark, never for tests alone."""
    used = set()
    for path in (ROOT / "src" / "chunkvote").glob("*.py"):
        if path.name != "__init__.py":
            used |= _uses(ast.parse(path.read_text()), own_definitions=True)
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        used.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "chunkvote" for alias in node.names)
    assert sorted(set(chunkvote.__all__) - used) == []


def test_model_fields_the_benchmark_reads_exist(tiny_corpus):
    """The fields ``perfbench`` reads off the models that ``loads_model``,
    ``LearnerSpec.train`` and ``stacked_train`` return, which the import
    guard above cannot follow."""
    from chunkvote import LearnerSpec, dumps_model, loads_model, read_table, stacked_train

    options = {"knn": {"k": 2}, "maxent": {"iterations": 3}}
    models = {kind: LearnerSpec("sys", kind, **options.get(kind, {})).train(tiny_corpus)
              for kind in ("knn", "igtree", "maxent", "rules")}
    loaded = {kind: loads_model(dumps_model(model)) for kind, model in models.items()}
    for knn in (models["knn"], loaded["knn"]):
        assert knn.k == 2 and knn.memory and knn.weights and knn.class_counts
        assert knn.window is not None
    for tree in (models["igtree"], loaded["igtree"]):
        assert tree.root.children and tree.root.default
    trace = models["maxent"].trace
    assert trace.iterations == 3 and len(trace.loglik) == 4  # one before each pass, one after
    assert models["maxent"].weights
    rules = loaded["rules"]
    vector = next(iter(loaded["knn"].memory))[0]
    assert rules.window is not None and rules.rules
    assert all(rule.matches(vector) in (True, False) for rule in rules.rules)

    tuning = read_table("gold pos a b\nB-NP DT B-NP O\nI-NP NN I-NP I-NP\n\nO VB O O\n")
    stacked_knn = stacked_train(tuning, learner="knn", add_pos=True)
    assert stacked_knn.memory and stacked_knn.weights and stacked_knn.k and stacked_knn.class_counts
    assert stacked_train(tuning, learner="igtree").root.default
