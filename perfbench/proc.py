"""Process-level bookkeeping: peak memory, shared-memory leaks, helpers.

Peak resident memory is the benchmark process's own peak plus the peak
of every live descendant (shard workers, host processes and their
workers), read from ``/proc`` just before teardown.  Leaked arena
segments are the POSIX shared-memory names (``psm_*`` in ``/dev/shm``)
that appeared during a workload and outlive its teardown.
"""

from __future__ import annotations

import os
import resource
from typing import Dict, List, Set

SHM_DIR = "/dev/shm"


def shm_segments() -> Set[str]:
    """Names of the Python shared-memory segments that exist now."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _parents() -> Dict[int, int]:
    """pid -> parent pid for every process visible in ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat[stat.rindex(")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
    return parents


def descendants(pid: int = 0) -> List[int]:
    """Every live process below ``pid`` (default: this process)."""
    pid = pid or os.getpid()
    children: Dict[int, List[int]] = {}
    for child, parent in _parents().items():
        children.setdefault(parent, []).append(child)
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Own peak RSS plus the peaks of all live descendants, in MB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_peak_kb(pid) for pid in descendants())) / 1024.0


def stop_helpers() -> None:
    """Stop the interpreter-wide helper processes multiprocessing started.

    The forkserver (host processes are forked from it) and the shared-
    memory resource tracker would otherwise linger until interpreter
    exit; both ``_stop`` calls wait for the helper to end.
    """
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
