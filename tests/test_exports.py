"""The public names: every ``__all__`` entry and every package re-export
resolves, so a deleted function cannot leave a stale name behind; and
every module-level private name is read somewhere in ``src/``, so a
refactor cannot leave a dead helper behind."""

import ast
import collections
import importlib
import inspect
import pathlib

import pytest

import masseykit

MODULES = ("errors", "gf_core", "unitriangular", "groups", "cohomology",
           "massey", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"masseykit.{name}")
    for public in getattr(module, "__all__", ()):
        assert hasattr(module, public), (name, public)
    namespace = {}
    exec(f"from masseykit.{name} import *", namespace)
    for public in getattr(module, "__all__", ()):
        assert namespace[public] is getattr(module, public)


def test_package_reexports_resolve():
    # the names masseykit/__init__.py imports from its modules: each is
    # the module's own object and listed in the module's __all__
    tree = ast.parse(inspect.getsource(masseykit))
    seen = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            module = importlib.import_module(f"masseykit.{node.module}")
            for alias in node.names:
                name = alias.asname or alias.name
                assert getattr(masseykit, name) \
                    is getattr(module, alias.name), name
                assert alias.name in module.__all__, name
                seen += 1
    assert seen >= 40


def _private_definitions(tree):
    """The module-level private functions, classes and constants of a
    parsed module, as (name, defining node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _references(node):
    """Every name a subtree reads: loaded names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_helper_is_used():
    # a module-level private name that nothing in src/ reads outside its
    # own definition is a helper that only tests (or nothing) use
    src = pathlib.Path(masseykit.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    used = collections.Counter(
        name for tree in trees.values() for name in _references(tree))
    unused = [
        (module, name) for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if used[name] <= collections.Counter(_references(node))[name]]
    assert not unused
