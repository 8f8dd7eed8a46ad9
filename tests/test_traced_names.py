"""The names that the benchmark's traced run wraps exist in the program.

``perfbench/layers.py`` wraps each (module, attribute) of its ``WRAPPED``
table; a name that a refactor moves away makes the traced run fail.  The
file is loaded from the checkout without writing anything beside it.
"""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("traced_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPPED
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in layers.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
