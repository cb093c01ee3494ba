"""A set-associative, write-allocate, LRU cache simulator.

The paper's central memory argument — "CPUs have usually faster random
accesses to external memories than programmable logic, thanks to caches
and higher clock frequencies" (section III-A) — needs a cache model to be
quantitative.  The CPU cost model uses *analytic* penalties for speed
(millions of accesses per image); this simulator exists to derive and
validate those penalties on small traces, and is exercised directly by
the cache property tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import PlatformError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int
    ways: int

    def __post_init__(self) -> None:
        for name in ("size_bytes", "line_bytes", "ways"):
            value = getattr(self, name)
            if value < 1:
                raise PlatformError(f"{name} must be >= 1, got {value}")
        if self.line_bytes & (self.line_bytes - 1):
            raise PlatformError("line_bytes must be a power of two")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise PlatformError(
                "size_bytes must be a multiple of line_bytes * ways"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


#: ARM Cortex-A9 L1 data cache: 32 KiB, 4-way, 32-byte lines.
A9_L1D = CacheConfig(size_bytes=32 * 1024, line_bytes=32, ways=4)

#: Zynq PL310 L2 cache: 512 KiB, 8-way, 32-byte lines.
ZYNQ_L2 = CacheConfig(size_bytes=512 * 1024, line_bytes=32, ways=8)


@dataclass
class CacheStats:
    """Hit/miss counters accumulated by :class:`CacheSim`."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheSim:
    """Single-level set-associative LRU cache simulator.

    Tracks tags only (no data).  ``access`` returns True on hit.  Chain
    two instances (L1 then L2 on L1 miss) to model the Zynq hierarchy, as
    :meth:`hierarchy_access` does.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        # sets[set_index] is a list of tags in LRU order (front = MRU).
        self._sets: Dict[int, List[int]] = {}

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._sets.clear()
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        if address < 0:
            raise PlatformError(f"address must be non-negative, got {address}")
        cfg = self.config
        line = address // cfg.line_bytes
        set_index = line % cfg.num_sets
        tag = line // cfg.num_sets
        entries = self._sets.setdefault(set_index, [])
        self.stats.accesses += 1
        if tag in entries:
            entries.remove(tag)
            entries.insert(0, tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        entries.insert(0, tag)
        if len(entries) > cfg.ways:
            entries.pop()
        return False

    def run_trace(self, addresses) -> CacheStats:
        """Access every address in order; returns the cumulative stats."""
        for addr in addresses:
            self.access(int(addr))
        return self.stats


@dataclass
class CacheHierarchy:
    """L1 + L2 with per-level hit costs, producing average access cycles."""

    l1: CacheSim = field(default_factory=lambda: CacheSim(A9_L1D))
    l2: CacheSim = field(default_factory=lambda: CacheSim(ZYNQ_L2))
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 8
    memory_cycles: int = 60

    def access_cycles(self, address: int) -> int:
        """Cycles for one load through the hierarchy."""
        if self.l1.access(address):
            return self.l1_hit_cycles
        if self.l2.access(address):
            return self.l2_hit_cycles
        return self.memory_cycles
