"""The README's Python examples and CLI quickstart run, and the API names it
quotes exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import gnepkit
from gnepkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
CLI = re.search(r"^## Quickstart \(CLI\)\n(.*?)^## ", README, flags=re.S | re.M).group(1)
COMMANDS = re.findall(r"^gnep (.+)$", CLI, flags=re.M)
MODULES = "|".join(m.name for m in pkgutil.iter_modules(gnepkit.__path__))
# `gnepkit.name`, `gnepkit.module.name` or `module.name`, optionally called
REFS = sorted(set(re.findall(
    rf"`((?:gnepkit\.)?(?:{MODULES})(?:\.\w+)+|gnepkit(?:\.\w+)+)(?:\([^`]*\))?`", README)))


def test_readme_has_examples_and_references():
    assert BLOCKS and COMMANDS and REFS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0])
def test_python_block_runs(block, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_quickstart_line_exits_zero(line, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    # the last --out-dir wins, so outputs go to tmp_path, not the checkout
    assert main([*shlex.split(line), "--out-dir", str(tmp_path)]) == 0


def test_every_exported_name_resolves():
    # __all__ is kept by hand, so a name taken out of the package must leave
    # it too
    assert [name for name in gnepkit.__all__ if not hasattr(gnepkit, name)] == []


@pytest.mark.parametrize("ref", REFS)
def test_reference_resolves(ref):
    parts = ref.split(".")
    if parts[0] != "gnepkit":
        parts.insert(0, "gnepkit")
    obj = gnepkit
    for j, name in enumerate(parts[1:], start=2):
        if not hasattr(obj, name):
            importlib.import_module(".".join(parts[:j]))
        obj = getattr(obj, name)
