"""Lint: every name ``src/``, ``tests/`` and ``benchmarks/`` import is used.

An import nothing reads still costs a module load, ties the module to
code it does not need and tells a reader the name matters.  A name
counts as used when the module reads it (a bare name, or the root of an
attribute chain), names it in a string annotation (``"ExecutionPlan"``)
or lists it in ``__all__``.  A package's ``__init__.py`` imports to
re-export, so the scan skips it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")


def _names_in(text: str) -> set:
    """The names a string annotation reads (none if it does not parse)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _annotations(tree) -> list:
    """Every annotation expression in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _exported(tree) -> set:
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)
            )
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names_in(node.value)
    used |= _exported(tree)
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_every_import_is_used():
    offenders = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not offenders, "delete the unused imports:\n" + "\n".join(
        offenders
    )


def test_the_scan_sees_every_use():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Dict, List, Optional\n"
        "from x import Plan, Shown, Unused as Alias\n"
        "__all__ = ['Shown']\n"
        "def f(plan: Optional['Plan']) -> Dict:\n"
        "    return os.path.join('a', 'b')\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "List"), (5, "Alias")]
