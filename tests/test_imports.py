"""Import hygiene of the package, checked on its syntax trees: every name a
module imports is used there, and every import kept for an outside reader
says who reads it.  Imports in ``__init__.py`` are the package's exports."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nessent"
MODULES = sorted(PACKAGE.glob("*.py"))

#: a kept import must name its reader: ``# noqa: F401  read by <reader>``
NOQA = re.compile(r"#\s*noqa:\s*F401\b(?P<rest>.*)$")
READER = re.compile(r"^\s+read by \S+")


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, in string annotations too."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a forward reference such as -> "CorrelationMatrix"
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = [
        f"{path.name}:{line}: {name}"
        for name, line in imported_names(tree)
        if name not in used and not NOQA.search(lines[line - 1])
    ]
    assert not unused, "unused imports: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_kept_import_names_its_reader(path):
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        kept = NOQA.search(line)
        assert not kept or READER.match(kept["rest"]), f"{path.name}:{number}: noqa F401 without 'read by <reader>'"


def test_the_check_sees_an_unused_import():
    source = "import os, re\nfrom pathlib import Path as P\nx: 'P' = re.compile('os')\n"
    tree = ast.parse(source)
    assert [name for name, _ in imported_names(tree) if name not in used_names(tree)] == ["os"]
