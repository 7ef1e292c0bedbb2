"""Every name a paratori module exports in ``__all__`` exists in that module,
every private module-level helper is named in the package outside its own
definition, and every module-level import is used by its module."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import paratori

MODULES = ["paratori"] + [f"paratori.{m.name}" for m in pkgutil.iter_modules(paratori.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def _private_definitions_and_uses():
    """Each private module-level function and class of ``src/paratori`` as
    (file, name, first line, last line), and every name the sources use (a
    name, an attribute or an import) as (file, name, line)."""
    defs, uses = [], []
    for path in sorted(pathlib.Path(paratori.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [(path.name, node.name, node.lineno, node.end_lineno) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                 and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                uses.append((path.name, node.name, node.lineno))
    return defs, uses


def test_every_private_helper_has_a_caller():
    # a private function or class that nothing in src/ names outside its
    # own definition is a dead helper, or one kept only for tests
    defs, uses = _private_definitions_and_uses()
    unused = [f"{file}:{first} {name}" for file, name, first, last in defs
              if not any(n == name and not (f == file and first <= line <= last) for f, n, line in uses)]
    assert unused == []


def test_every_module_level_import_is_used():
    # an import that its module neither names nor exports in __all__ is
    # dead, unless its line says why it stays with "# noqa: F401"
    unused = []
    for path in sorted(pathlib.Path(paratori.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module("paratori" if path.stem == "__init__" else f"paratori.{path.stem}")
        used |= set(getattr(module, "__all__", ()))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}" for alias in node.names
                       if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
