"""Every name a paratori module exports in ``__all__`` exists in that module
and is named outside its own definition, every private module-level helper
is named in the package outside its own definition, and every module-level
import is used by its module."""

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


SRC = pathlib.Path(paratori.__file__).parent
ROOT = SRC.parent.parent


def _uses(tree):
    """Every name ``tree`` uses (a name, an attribute or an import) as (name, line)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def _sources():
    """Each module of ``src/paratori`` as (file, syntax tree), and every name
    the sources use as (file, name, line)."""
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    return trees, [(file, name, line) for file, tree in trees for name, line in _uses(tree)]


def _named_outside(name, file, first, last, uses):
    """Whether a use names ``name`` outside lines first..last of ``file``."""
    return any(n == name and not (f == file and first <= line <= last) for f, n, line in uses)


def test_every_private_helper_has_a_caller():
    # a private function or class that nothing in src/ names outside its
    # own definition is a dead helper, or one kept only for tests
    trees, uses = _sources()
    unused = [f"{file}:{node.lineno} {node.name}" for file, tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
              and not node.name.startswith("__")
              and not _named_outside(node.name, file, node.lineno, node.end_lineno, uses)]
    assert unused == []


def test_every_module_level_import_is_used():
    # an import that its module neither names nor exports in __all__ is
    # dead, unless its line says why it stays with "# noqa: F401"
    unused = []
    for path in sorted(SRC.glob("*.py")):
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


def _exports(tree):
    """Each entry of the module's ``__all__`` as (name, first line, last
    line) of the module-level statement that binds it."""
    spans, entries = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                entries = ast.literal_eval(node.value)
        elif isinstance(node, ast.ImportFrom):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        spans.update((name, (node.lineno, node.end_lineno)) for name in names)
    return [(name, *spans[name]) for name in entries]


# no command writes the primary-system record that `restricted-demo
# --system` reads: a user writes it with this
_EXPORTED_FOR_USERS = {("serialize.py", "primary_system_to_obj")}


def test_every_exported_name_is_reached():
    # an __all__ entry that nothing else in src/, no benchmark workload and
    # no acceptance criterion names is public code that nothing runs
    trees, uses = _sources()
    readers = [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    outside = {name for path in readers for name, _ in _uses(ast.parse(path.read_text()))}
    unreached = [f"{file}:{first} {name}" for file, tree in trees for name, first, last in _exports(tree)
                 if name not in outside and (file, name) not in _EXPORTED_FOR_USERS
                 and not _named_outside(name, file, first, last, uses)]
    assert unreached == []
