"""The README's Python examples run, and the API names it quotes exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gnepkit

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
MODULES = "|".join(m.name for m in pkgutil.iter_modules(gnepkit.__path__))
# `gnepkit.name`, `gnepkit.module.name` or `module.name`, optionally called
REFS = sorted(set(re.findall(
    rf"`((?:gnepkit\.)?(?:{MODULES})(?:\.\w+)+|gnepkit(?:\.\w+)+)(?:\([^`]*\))?`", README)))


def test_readme_has_examples_and_references():
    assert BLOCKS and REFS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0])
def test_python_block_runs(block, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})


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
