"""The public names: every ``__all__`` entry and every package re-export
resolves, so a deleted function cannot leave a stale name behind."""

import ast
import importlib
import inspect

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
