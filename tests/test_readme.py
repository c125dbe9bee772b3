"""The README's library examples run as written, and the names it and the
modules' ``__all__`` lists give exist."""

import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import nessent
from nessent.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python example"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_references_and_module_exports_resolve():
    refs = set(re.findall(r"\bnessent\.(\w+)\.(\w+)", README.read_text(encoding="utf-8")))
    assert refs, "README.md names no nessent.<module>.<name>"
    for module, name in sorted(refs):
        assert hasattr(importlib.import_module(f"nessent.{module}"), name), f"README.md names nessent.{module}.{name}"
    for info in pkgutil.iter_modules(nessent.__path__):
        module = importlib.import_module(f"nessent.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"nessent.{info.name}.__all__ lists {missing}"


def test_readme_config_keys_are_the_config_fields():
    # the bullet list under "Config format": each bullet names its scenarios
    # before the colon and its keys after it; parentheses hold values
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    bullets = re.search(r"^\* .*?(?=\n\n)", section, re.M | re.S).group(0)
    keys = set()
    for bullet in re.split(r"^\* ", re.sub(r"\([^)]*\)", "", bullets), flags=re.M)[1:]:
        keys.update(re.findall(r"`(\w+)`", bullet.split(":", 1)[1]))
    assert keys == {f.name for f in fields(ExperimentConfig)}
