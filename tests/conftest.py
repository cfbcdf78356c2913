import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def decompose_calls(monkeypatch) -> list:
    """The tables handed to decompose_from_ranks from now on, through every
    lindeg module that binds it."""
    from lindeg import decompose_from_ranks as original

    calls = []

    def counted(table):
        calls.append(table)
        return original(table)

    for name, module in list(sys.modules.items()):
        if name.startswith("lindeg") and getattr(module, "decompose_from_ranks", None) is original:
            monkeypatch.setattr(module, "decompose_from_ranks", counted)
    return calls
