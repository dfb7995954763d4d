"""Source hygiene checks that need no linter: every name a module of the
package imports is used in that module, and every error class of the
package is raised somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "betadrop"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ERRORS = PACKAGE / "errors.py"


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for each imported name that ``source`` never reads.

    A name counts as read when it appears as a name or as a string in
    ``__all__``.  Imports from ``__future__`` and lines marked ``# noqa``
    (names held for other code to read) are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .x import a, b as c\n"
              "from .y import d  # noqa: F401\n"
              "__all__ = ['a']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["c (line 4)", "os (line 2)"]


def unraised_errors(errors_source: str, sources) -> list[str]:
    """Each class that ``errors_source`` defines, but the base ``BetadropError``,
    that no ``raise`` statement of ``sources`` names, in definition order."""
    defined = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef) and node.name != "BetadropError"]
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return [name for name in defined if name not in raised]


def package_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]


def test_every_error_class_is_raised():
    assert unraised_errors(ERRORS.read_text(encoding="utf-8"), package_sources()) == []


def test_the_scan_finds_an_unraised_error():
    planted = ERRORS.read_text(encoding="utf-8") + (
        "\n\nclass PlantedError(BetadropError, RuntimeError):\n    pass\n")
    assert unraised_errors(planted, package_sources()) == ["PlantedError"]
    errors = ("class BetadropError(Exception): pass\n"
              "class CalledError(BetadropError): pass\nclass NamedError(BetadropError): pass\n"
              "class AttrError(BetadropError): pass\nclass ReadError(BetadropError): pass\n")
    module = ("raise CalledError('x')\nraise NamedError\nraise errors.AttrError()\n"
              "held = ReadError\nraise ValueError(ReadError)\n")
    assert unraised_errors(errors, [module]) == ["ReadError"]
