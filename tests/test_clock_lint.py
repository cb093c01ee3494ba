"""Lint: time in ``repro.runtime`` comes only from the injected clock.

Every timer in the serving runtime — deadlines, watchdog budgets,
breaker windows, revive waits — must read :mod:`repro.runtime.clock`,
so a ``FakeClock`` drives it deterministically in tests.  A direct
``time.monotonic()`` (or ``perf_counter`` / ``time`` / ``sleep``) call
silently mixes wall time into fake-clock epochs; this scan keeps that
bug class from coming back.  ``clock.py`` is the one module allowed to
touch the real clock.
"""

import ast
from pathlib import Path

RUNTIME = Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
FORBIDDEN = frozenset(("monotonic", "perf_counter", "time", "sleep"))


def direct_time_reads(source: str) -> list:
    """``(line, what)`` for every direct real-clock read in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            hits += [
                (node.lineno, f"from time import {alias.name}")
                for alias in node.names
                if alias.name in FORBIDDEN
            ]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "time"
            and node.func.attr in FORBIDDEN
        ):
            hits.append((node.lineno, f"time.{node.func.attr}()"))
    return hits


def test_runtime_reads_time_only_through_the_clock():
    offenders = [
        f"{path.name}:{line}: {what}"
        for path in sorted(RUNTIME.glob("*.py"))
        if path.name != "clock.py"
        for line, what in direct_time_reads(path.read_text())
    ]
    assert not offenders, (
        "read time through the injected Clock instead:\n"
        + "\n".join(offenders)
    )


def test_the_scan_sees_every_forbidden_form():
    source = (
        "import time\n"
        "from time import sleep\n"
        "a = time.monotonic()\n"
        "b = time.perf_counter()\n"
        "c = time.time()\n"
        "time.sleep(1)\n"
        "d = time.strftime('%Y')\n"
    )
    assert [what for _, what in direct_time_reads(source)] == [
        "from time import sleep",
        "time.monotonic()",
        "time.perf_counter()",
        "time.time()",
        "time.sleep()",
    ]
