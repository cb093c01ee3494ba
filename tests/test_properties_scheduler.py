"""Property-based tests for the HLS scheduler and cache simulator."""

from hypothesis import given, settings, strategies as st

from repro.hls import (
    AccessKind,
    ArrayDecl,
    ArrayPartitionPragma,
    CarriedDependence,
    Kernel,
    KernelArg,
    Loop,
    MemAccess,
    OpKind,
    PartitionKind,
    PipelinePragma,
    Statement,
    apply_pragmas,
    schedule_kernel,
)
from repro.platform.cache import CacheConfig, CacheSim


def build_mac_kernel(trip, reads, fixed, carried):
    add = OpKind.ADD if fixed else OpKind.FADD
    mul = OpKind.MUL if fixed else OpKind.FMUL
    stmt = Statement(
        "mac",
        chain=(OpKind.LOAD, mul, add),
        ops={OpKind.LOAD: reads, mul: 1, add: 1},
        accesses=(MemAccess("buf", AccessKind.READ, count=reads),),
        carried=CarriedDependence(1, (add,)) if carried else None,
    )
    return Kernel(
        name="k",
        args=[KernelArg("buf", AccessKind.READ, max(trip, 64), 32)],
        arrays=[ArrayDecl("buf", max(trip, 64), 32)],
        loops=[Loop("loop", trip_count=trip, statements=[stmt])],
    )


class TestSchedulerInvariants:
    @given(
        trip=st.integers(min_value=1, max_value=10_000),
        reads=st.integers(min_value=1, max_value=32),
        fixed=st.booleans(),
        carried=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_ii_at_least_one_and_latency_positive(
        self, trip, reads, fixed, carried
    ):
        kernel = apply_pragmas(
            build_mac_kernel(trip, reads, fixed, carried),
            [PipelinePragma("loop")],
        )
        sched = schedule_kernel(kernel).find("loop")
        assert sched.ii >= 1
        assert sched.latency_cycles >= trip  # cannot beat 1 cycle/iter

    @given(
        trip=st.integers(min_value=64, max_value=10_000),
        reads=st.integers(min_value=1, max_value=32),
        fixed=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_pipelining_never_slower_at_scale(self, trip, reads, fixed):
        # At tiny trip counts pipeline fill/flush can lose (a real HLS
        # effect); from a few dozen iterations up it must always win or
        # tie, because II <= non-pipelined iteration latency.
        base = build_mac_kernel(trip, reads, fixed, carried=True)
        piped = apply_pragmas(base, [PipelinePragma("loop")])
        plain = schedule_kernel(base).find("loop").latency_cycles
        fast = schedule_kernel(piped).find("loop").latency_cycles
        assert fast <= plain

    @given(
        reads=st.integers(min_value=2, max_value=32),
        factor=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_partitioning_never_raises_ii(self, reads, factor):
        base = apply_pragmas(
            build_mac_kernel(100, reads, fixed=True, carried=False),
            [PipelinePragma("loop")],
        )
        parted = apply_pragmas(
            build_mac_kernel(100, reads, fixed=True, carried=False),
            [
                PipelinePragma("loop"),
                ArrayPartitionPragma("buf", PartitionKind.CYCLIC, factor),
            ],
        )
        ii_base = schedule_kernel(base).find("loop").ii
        ii_part = schedule_kernel(parted).find("loop").ii
        assert ii_part <= ii_base

    @given(
        trip=st.integers(min_value=1, max_value=1000),
        fixed=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_recurrence_lower_bound(self, trip, fixed):
        # II >= RecMII always.
        kernel = apply_pragmas(
            build_mac_kernel(trip, 1, fixed, carried=True),
            [PipelinePragma("loop")],
        )
        sched = schedule_kernel(kernel).find("loop")
        assert sched.ii >= sched.ii_breakdown.rec_mii

    @given(trip=st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=50, deadline=None)
    def test_latency_monotone_in_trip_count(self, trip):
        a = schedule_kernel(
            build_mac_kernel(trip, 1, True, False)
        ).total_cycles
        b = schedule_kernel(
            build_mac_kernel(trip + 1, 1, True, False)
        ).total_cycles
        assert b >= a


class TestCacheProperties:
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 20), min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_counters_consistent(self, addresses):
        sim = CacheSim(CacheConfig(size_bytes=1024, line_bytes=32, ways=2))
        stats = sim.run_trace(addresses)
        assert stats.hits + stats.misses == stats.accesses == len(addresses)
        assert 0.0 <= stats.miss_rate <= 1.0

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 16), min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_immediate_repeat_hits(self, addresses):
        sim = CacheSim(CacheConfig(size_bytes=1024, line_bytes=32, ways=2))
        for addr in addresses:
            sim.access(addr)
            assert sim.access(addr) is True

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_larger_cache_never_worse_on_repeated_scan(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        trace = list(rng.integers(0, 1 << 14, 400)) * 2
        small = CacheSim(CacheConfig(size_bytes=512, line_bytes=32, ways=2))
        large = CacheSim(CacheConfig(size_bytes=8192, line_bytes=32, ways=2))
        small_stats = small.run_trace(trace)
        large_stats = large.run_trace(trace)
        assert large_stats.misses <= small_stats.misses + 4
