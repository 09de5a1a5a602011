"""Source hygiene: every name a module of normset_lab imports is used there,
every private module-level function or class is used somewhere, every
attribute a module assigns on self is read somewhere, and only the CLI
encodes records.

Stdlib-only static checks over the package sources. The package's
__init__ is exempt from the import check, since its imports are its public
re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "normset_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent
READERS = sorted(p for top in ("src", "tests", "scripts", "perfbench")
                 for p in (ROOT / top).rglob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [getattr(n, attr) for n in ast.walk(tree)
                   for attr in ("annotation", "returns") if getattr(n, attr, None)]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"arith", "cli", "monoid_core", "quadratic"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but unused {unused}"


def test_check_sees_an_unused_import():
    tree = ast.parse("from typing import Any, Optional\nimport os.path\n"
                     "from .quadratic import QuadElem\n"
                     "def f(x: 'QuadElem') -> Any:\n    return 'Optional'\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Optional", "os"}


def _orphans(trees: dict[str, ast.Module]) -> set[str]:
    """The module-level _name functions and classes that no statement of the
    package reads, apart from the definition's own statement."""
    readers: dict[str, set] = {}
    for mod, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                readers.setdefault(name, set()).add((mod, i))
    return {f"{mod}.{stmt.name}"
            for mod, tree in trees.items() for i, stmt in enumerate(tree.body)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not readers.get(stmt.name, set()) - {(mod, i)}}


def test_every_private_helper_is_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert not _orphans(trees)


def test_check_sees_an_orphaned_helper():
    trees = {
        "a": ast.parse("def _used():\n    return 1\n"
                       "def _orphan(n):\n    return _orphan(n - 1) if n else 0\n"
                       "class _Alone:\n    pass\n"
                       "def _imported():\n    pass\n"),
        "b": ast.parse("from .a import _imported\nimport a\n"
                       "def f():\n    return a._used()\n"),
    }
    assert _orphans(trees) == {"a._orphan", "a._Alone"}


def _write_only(package: dict[str, ast.Module], readers: list[ast.Module]) -> set[str]:
    """The attributes a package module assigns on self that no reader tree
    reads: a read is a load of the attribute name, on any object, or an
    augmented assignment to it."""
    reads = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                reads.add(node.target.attr)
    return {f"{mod}.{node.attr}" for mod, tree in package.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in reads}


def test_no_attribute_is_write_only():
    package = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = [ast.parse(p.read_text(encoding="utf-8")) for p in READERS]
    assert not _write_only(package, readers)


def test_check_sees_a_write_only_attribute():
    package = {"a": ast.parse("class A:\n"
                              "    def __init__(self):\n"
                              "        self.read, self.dropped = 1, 2\n"
                              "        self.counted = self.elsewhere = 0\n"
                              "        other.stored = 3\n"
                              "    def tick(self):\n"
                              "        self.counted += 1\n"
                              "        return self.read\n")}
    readers = [*package.values(), ast.parse("def f(a):\n    return a.elsewhere\n")]
    assert _write_only(package, readers) == {"a.dropped"}
    assert _write_only(package, list(package.values())) == {"a.dropped", "a.elsewhere"}


def _record_encoders(trees: dict[str, ast.Module]) -> set[str]:
    """Where a module other than cli encodes records itself: a function
    named to_record or to_records, or an import of json."""
    found = set()
    for mod, tree in trees.items():
        if mod == "cli":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("to_record", "to_records"):
                found.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json"
                                                      for a in node.names):
                found.add(f"{mod} imports json")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "json"):
                found.add(f"{mod} imports json")
    return found


def test_only_the_cli_encodes_records():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert "cli" in trees
    assert not _record_encoders(trees)


def test_check_sees_a_record_encoder():
    trees = {
        "cli": ast.parse("import json\ndef to_record(v):\n    return json.dumps(v)\n"),
        "a": ast.parse("import json.decoder\n"
                       "class A:\n    def to_record(self):\n        return {}\n"),
        "b": ast.parse("from json import dumps\ndef to_records(rows):\n    return rows\n"),
        "c": ast.parse("from .json import x\ndef record(v):\n    return v\n"),
    }
    assert _record_encoders(trees) == {"a.to_record", "a imports json",
                                       "b.to_records", "b imports json"}
