"""The package's export list names exactly what it binds."""

import types

import lindeg


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
