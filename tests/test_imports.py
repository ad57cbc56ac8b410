"""Every name a gnepkit module imports is used in that module, every
private module-level function or class is named somewhere in the package,
and every function of _lp is named by another of its modules.

Read with the standard library's ast: a name counts as used when it
appears as a name anywhere in the module's code (an annotation included,
not a string one).  The package's __init__ imports to re-export, so it is
left out of the first check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gnepkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """{bound name: line} of the module's imports, __future__ left out."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def test_the_package_has_modules():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused {unused}"


def _named(tree):
    """Every name the module's code reads: bare, as an attribute or as an
    imported name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_every_private_definition_is_named():
    """A private (_-prefixed) module-level function or class that no code
    in the package names is dead: a leftover of a replaced path."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    named = set().union(*map(_named, trees.values()))
    dead = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in named]
    assert not dead, f"defined but never named: {dead}"


def test_every_lp_function_is_named_by_another_module():
    """Each module-level function of _lp serves some other module of the
    package, so no test-only oracle (such as the active-set enumeration in
    tests/qp_reference.py) sits in the solver's helpers."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    lp = trees.pop("_lp.py")
    named = set().union(*map(_named, trees.values()))
    functions = [node.name for node in lp.body if isinstance(node, ast.FunctionDef)]
    assert functions and [f for f in functions if f not in named] == []


def test_convexsets_decides_emptiness_without_an_lp_margin():
    """Emptiness in convexsets is the interval, the vertex candidates or the
    least-distance NNLS: the module names neither the strict-margin LP nor
    the raw LP, so neither can come back into the verdict unseen."""
    tree = ast.parse((PACKAGE / "convexsets.py").read_text())
    assert not {"max_slack", "solve_lp"} & _named(tree)


def test_no_module_calls_unique_with_an_axis():
    """np.unique(..., axis=...) sorts each row as a structured record
    through numpy's generic comparator; the package groups rows with a
    lexsort (solvers._rival_groups), so that sort cannot come back unseen."""
    calls = [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unique"
             and any(k.arg == "axis" for k in node.keywords)]
    assert not calls, f"np.unique with axis= at {calls}"
