"""Lint: ``src/repro`` reads two environment variables, no more.

The planner's calibration comes from one profile file
(``REPRO_PLANNER_PROFILE``, read in ``planner/profile.py``) and a chaos
drill's fault plan from ``REPRO_FAULT_PLAN`` (``runtime/faults.py``).
Every other knob is an argument, a plan field or a module constant, so
what a run does is decided by what its caller passed, not by what a
shell happened to export.  This scan keeps per-setting environment
overrides from coming back.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {
    "planner/profile.py": {"REPRO_PLANNER_PROFILE"},
    "runtime/faults.py": {"REPRO_FAULT_PLAN"},
}


def _os_attr(node, *names) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr in names
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def env_reads(source: str) -> list:
    """``(line, what)`` for every environment access in ``source``.

    ``what`` is the variable a read names — a string literal or a
    module-level string constant — ``"?"`` when the name is computed,
    and the bare expression for any other use of ``os.environ``.
    """
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def named(arg) -> str:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return constants.get(arg.id, "?")
        return "?"

    hits, resolved = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in ("environ", "getenv")
            ]
        elif isinstance(node, ast.Call) and node.args:
            if _os_attr(node.func, "getenv"):
                source_node = node.func
            elif isinstance(node.func, ast.Attribute) and _os_attr(
                node.func.value, "environ"
            ):
                source_node = node.func.value
            else:
                continue
            resolved.add(id(source_node))
            hits.append((node.lineno, named(node.args[0])))
        elif isinstance(node, ast.Subscript) and _os_attr(
            node.value, "environ"
        ):
            resolved.add(id(node.value))
            hits.append((node.lineno, named(node.slice)))
    hits += [
        (node.lineno, f"os.{node.attr}")
        for node in ast.walk(tree)
        if _os_attr(node, "environ", "getenv") and id(node) not in resolved
    ]
    return sorted(hits)


def test_src_reads_only_the_two_documented_variables():
    offenders, found = [], {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for line, what in env_reads(path.read_text()):
            if what in ALLOWED.get(relative, ()):
                found.setdefault(relative, set()).add(what)
            else:
                offenders.append(f"{relative}:{line}: {what}")
    assert not offenders, (
        "take the setting as an argument or a plan field instead of an "
        "environment variable:\n" + "\n".join(offenders)
    )
    # The allowlist must not outlive the reads it permits.
    assert found == ALLOWED


def test_the_scan_sees_every_read_form():
    source = (
        "import os\n"
        "from os import environ\n"
        "a = os.environ.get('A')\n"
        "b = os.environ['B']\n"
        "c = os.getenv('C')\n"
        "NAME = 'D'\n"
        "d = os.environ.get(NAME)\n"
        "e = 'E' in os.environ\n"
        "f = os.path.join('x', 'y')\n"
    )
    assert env_reads(source) == [
        (2, "from os import environ"),
        (3, "A"),
        (4, "B"),
        (5, "C"),
        (7, "D"),
        (8, "os.environ"),
    ]
