"""The package's export list names exactly what it binds, each name is
declared public once, in the module that defines it, and something other
than the tests reads it."""

import ast
import importlib
import inspect
import types
from pathlib import Path

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


# Public names that no library, demo or bench code reads as a name, each with
# its reader: the bench tracer looks these up by string with getattr, and the
# README's quick start calls the last one.
READ_ELSEWHERE = {
    "rref": "bench/tracing.py",
    "span": "bench/tracing.py",
    "map_subspace": "bench/tracing.py",
    "subspaces_iter": "bench/tracing.py",
    "classify_matrices": "README.md",
}


def names_read(root):
    """Every name that the Python files under ``root``, tests aside, load as
    a variable or an attribute, or import."""
    names = set()
    for path in root.rglob("*.py"):
        if "tests" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_reader():
    """No export that only the tests read: a public name is read by the
    library, a demo or the bench, or is listed above with its reader."""
    repo = Path(__file__).resolve().parents[1]
    read = set().union(*(names_read(repo / part) for part in ("src/lindeg", "demos", "bench")))
    unread = [name for name in lindeg.__all__ if name not in read and name not in READ_ELSEWHERE]
    assert not unread
    assert not set(READ_ELSEWHERE) & read
