"""The package's public surface and its module dependencies."""

import importlib.util
import sys
from pathlib import Path

import evfront


def test_every_export_is_listed_once_and_resolves():
    names = evfront.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(evfront, name)]
    assert missing == []


def test_detect_and_matching_are_leaf_modules(monkeypatch):
    # each loads alone, outside the package, so neither imports another
    # evfront module at run time
    for name in ("detect", "matching"):
        alone = f"_alone_{name}"
        path = Path(evfront.__file__).with_name(f"{name}.py")
        spec = importlib.util.spec_from_file_location(alone, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, alone, module)  # for dataclasses
        spec.loader.exec_module(module)
        assert module.__package__ == ""
