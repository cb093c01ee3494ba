"""Tests for repro.platform.cpu and repro.platform.cache."""

import numpy as np
import pytest

from repro.errors import PlatformError
from repro.platform import ArmCortexA9Model, CacheConfig, CacheSim, CpuCosts
from repro.platform.cache import A9_L1D, CacheHierarchy
from repro.platform.cpu import SwKernelTrace


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=32 * 1024, line_bytes=32, ways=4)
        assert cfg.num_sets == 256

    def test_validation(self):
        with pytest.raises(PlatformError):
            CacheConfig(size_bytes=0, line_bytes=32, ways=4)
        with pytest.raises(PlatformError):
            CacheConfig(size_bytes=1024, line_bytes=33, ways=1)
        with pytest.raises(PlatformError):
            CacheConfig(size_bytes=1000, line_bytes=32, ways=4)


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        sim = CacheSim(A9_L1D)
        assert sim.access(0x1000) is False
        assert sim.access(0x1000) is True
        assert sim.access(0x1004) is True  # same line

    def test_sequential_miss_rate_is_per_line(self):
        sim = CacheSim(A9_L1D)
        stats = sim.run_trace(range(0, 8192, 4))
        # One miss per 32-byte line = 1/8 of 4-byte accesses.
        assert stats.miss_rate == pytest.approx(1 / 8, abs=0.01)

    def test_large_stride_always_misses(self):
        sim = CacheSim(A9_L1D)
        # Stride = 4096 bytes over a 1 MiB span >> 32 KiB cache.
        addresses = [(i * 4096) % (1 << 22) for i in range(4096)]
        stats = sim.run_trace(addresses)
        assert stats.miss_rate > 0.95

    def test_working_set_within_capacity_hits(self):
        sim = CacheSim(A9_L1D)
        addresses = list(range(0, 16 * 1024, 4)) * 3
        stats = sim.run_trace(addresses)
        assert stats.miss_rate < 0.1

    def test_lru_eviction(self):
        cfg = CacheConfig(size_bytes=4 * 32, line_bytes=32, ways=4)  # 1 set
        sim = CacheSim(cfg)
        for i in range(4):
            sim.access(i * 32)
        sim.access(0)           # touch line 0 (now MRU)
        sim.access(4 * 32)      # evicts LRU = line 1
        assert sim.access(0) is True
        assert sim.access(1 * 32) is False

    def test_reset(self):
        sim = CacheSim(A9_L1D)
        sim.access(0)
        sim.reset()
        assert sim.stats.accesses == 0
        assert sim.access(0) is False

    def test_negative_address_rejected(self):
        with pytest.raises(PlatformError):
            CacheSim(A9_L1D).access(-4)


class TestCacheHierarchy:
    def test_l1_hit_cheapest(self):
        h = CacheHierarchy()
        h.access_cycles(0)
        assert h.access_cycles(0) == h.l1_hit_cycles

    def test_l2_catches_l1_evictions(self):
        h = CacheHierarchy()
        # Walk 64 KiB (> L1 32K, < L2 512K) twice: second pass hits L2.
        span = list(range(0, 64 * 1024, 32))
        for addr in span:
            h.access_cycles(addr)
        costs = [h.access_cycles(a) for a in span]
        assert np.mean(costs) <= h.l2_hit_cycles + 1


class TestAnalyticCpuModel:
    def test_analytic_sequential_matches_simulator(self):
        # The analytic "miss per line" rule must track the simulator.
        cpu = ArmCortexA9Model()
        count = 4096
        analytic = cpu.sequential_load_cycles(count)
        sim = CacheHierarchy(
            l1_hit_cycles=int(cpu.costs.load_l1),
            l2_hit_cycles=int(cpu.costs.l2_hit_penalty),
            memory_cycles=int(cpu.costs.ddr_penalty),
        )
        simulated = sum(sim.access_cycles(i * 4) for i in range(count))
        # L2 is cold in the simulator but the analytic model assumes
        # streaming prefetch; allow 2x.
        assert analytic <= simulated <= 8 * analytic

    def test_strided_worse_than_sequential(self):
        cpu = ArmCortexA9Model()
        n = 10_000
        assert cpu.strided_load_cycles(n, 64 * 1024) > cpu.sequential_load_cycles(n)

    def test_random_worse_than_strided(self):
        cpu = ArmCortexA9Model()
        n = 10_000
        assert cpu.random_load_cycles(n) > cpu.strided_load_cycles(n, 64 * 1024)

    def test_strided_beyond_l2_pays_ddr(self):
        cpu = ArmCortexA9Model()
        in_l2 = cpu.strided_load_cycles(1000, 256 * 1024)
        beyond = cpu.strided_load_cycles(1000, 4 << 20)
        assert beyond > in_l2

    def test_trace_pricing_additive(self):
        cpu = ArmCortexA9Model()
        a = SwKernelTrace(flops=100)
        b = SwKernelTrace(pow_calls=10)
        combined = SwKernelTrace(flops=100, pow_calls=10)
        assert cpu.cycles(combined) == pytest.approx(
            cpu.cycles(a) + cpu.cycles(b)
        )

    def test_seconds_scale_with_frequency(self):
        trace = SwKernelTrace(flops=1_000_000)
        slow = ArmCortexA9Model(freq_mhz=333.0)
        fast = ArmCortexA9Model(freq_mhz=666.0)
        assert slow.seconds(trace) == pytest.approx(2 * fast.seconds(trace),
                                                    rel=1e-3)

    def test_pow_dominates_masking_style_trace(self):
        # The PS-side profile must be pow-dominated, as the flow's ~19 s
        # remainder requires.
        cpu = ArmCortexA9Model()
        trace = SwKernelTrace(pow_calls=1000, flops=3000, stores=1000)
        pow_only = SwKernelTrace(pow_calls=1000)
        assert cpu.cycles(pow_only) / cpu.cycles(trace) > 0.9

    def test_validation(self):
        with pytest.raises(PlatformError):
            CpuCosts(flop=-1.0)
        with pytest.raises(PlatformError):
            SwKernelTrace(flops=-5)
        with pytest.raises(PlatformError):
            ArmCortexA9Model(freq_mhz=0.0)
        with pytest.raises(PlatformError):
            ArmCortexA9Model().seconds_for_cycles(-1)
