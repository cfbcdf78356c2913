"""The package's export list names exactly what it binds, and each name is
declared public once, in the module that defines it."""

import ast
import importlib
import inspect
import types

import pytest

import lindeg

MODULES = [
    "errors",
    "linalg",
    "representations",
    "orbits",
    "classifier",
    "enumeration",
    "verification",
]


def module(name):
    return importlib.import_module(f"lindeg.{name}")


def test_all_is_unique_and_resolves():
    assert len(lindeg.__all__) == len(set(lindeg.__all__))
    for name in lindeg.__all__:
        assert hasattr(lindeg, name), name


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(lindeg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(lindeg.__all__) == bound


def top_level_definitions(mod):
    """Names a module binds by its own def, class or assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_only_its_own_names(name):
    mod = module(name)
    assert isinstance(mod.__all__, list) and mod.__all__
    defined = top_level_definitions(mod)
    for public in mod.__all__:
        assert public in defined, public
        value = getattr(mod, public)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == mod.__name__, public


def test_no_name_is_exported_by_two_modules():
    names = [public for name in MODULES for public in module(name).__all__]
    assert len(names) == len(set(names))


def test_package_all_concatenates_the_module_lists():
    assert lindeg.__all__ == [public for name in MODULES for public in module(name).__all__]


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from lindeg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(lindeg.__all__)
