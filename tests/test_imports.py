"""Import hygiene of the package, checked on its syntax trees: every name a
module imports is used there, every import kept for an outside reader
says who reads it, and every module-level private name is read somewhere in
the package.  Imports in ``__init__.py`` are the package's exports.  The
first two checks also cover the test-support modules beside this file (the
Fock-space and kernel oracles, the undeflated reference paths)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nessent"
MODULES = sorted(PACKAGE.glob("*.py"))
#: modules in tests/ that the tests import rather than collect
SUPPORT = sorted(p for p in Path(__file__).parent.glob("*.py") if not p.name.startswith("test_"))

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
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a forward reference such as -> "CorrelationMatrix"
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"] + SUPPORT, ids=lambda p: p.name)
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


@pytest.mark.parametrize("path", MODULES + SUPPORT, ids=lambda p: p.name)
def test_every_kept_import_names_its_reader(path):
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        kept = NOQA.search(line)
        assert not kept or READER.match(kept["rest"]), f"{path.name}:{number}: noqa F401 without 'read by <reader>'"


def test_the_check_sees_an_unused_import():
    source = "import os, re\nfrom pathlib import Path as P\nx: 'P' = re.compile('os')\n"
    tree = ast.parse(source)
    assert [name for name, _ in imported_names(tree) if name not in used_names(tree)] == ["os"]


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every module-level private function, class and
    assignment target (``_name``, not ``__dunder__``)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out if name.startswith("_") and not name.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, bare or as an attribute (``module._name``)."""
    return used_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = set().union(*map(read_names, trees.values()))
    unread = [
        f"{name}:{line}: {private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree)
        if private not in read
    ]
    assert not unread, "private names nothing in the package reads: " + ", ".join(unread)


def test_the_check_sees_an_unread_private_name():
    tree = ast.parse("import os\n_kept = 1\n_dead, ok = 2, 3\ndef _unused(): return os.sep + str(_kept)\n")
    names = [name for name, _ in private_definitions(tree)]
    assert names == ["_kept", "_dead", "_unused"]
    assert [name for name in names if name not in read_names(tree)] == ["_dead", "_unused"]


def test_a_serial_cli_run_does_not_import_the_thread_pool():
    # concurrent.futures, with the logging and queue it pulls in, is imported
    # only when a sweep runs on more than one thread
    code = "import sys, nessent.cli; print('concurrent.futures' in sys.modules)"
    src = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_serial_distance_sweep_does_not_import_numpy_ma(tmp_path):
    # numpy 2.4's np.unique imports numpy.ma on first use, 14-19 ms of every distance
    # process; the sweep sorts its centers as a set instead
    config = tmp_path / "distance.cfg"
    config.write_text(
        "scenario = sweep-distance\nk_fl = 2*pi/3\nk_fr = pi/2\nell = 8\n"
        "d_over_ell_min = 2\nd_over_ell_max = 6\nn_centers = 3\nmeasures = mi\n"
    )
    code = "import sys, nessent.cli; status = nessent.cli.main(sys.argv[1:]); print(status, 'numpy.ma' in sys.modules)"
    args = ["sweep-distance", "--config", str(config), "--out", str(tmp_path / "out.csv"), "--threads", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
