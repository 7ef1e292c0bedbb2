"""Every name a paratori module exports in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import paratori

MODULES = ["paratori"] + [f"paratori.{m.name}" for m in pkgutil.iter_modules(paratori.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
