"""Chaos suite: seeded fault plans against real worker processes.

Where ``test_reliability.py`` unit-tests the mechanisms on a fake
clock, these scenarios inject *real* faults — in-worker SIGKILL, hangs
only the attempt budget can break, arena exhaustion, slow jitter —
through :class:`repro.runtime.FaultPlan` and assert the end-to-end
recovery contract:

* a hung batch's attempt kills its workers at its budget and the batch
  is hedge-replayed, bit-identically — the budget runs on the pool's
  injected clock;
* a *persistently* hung batch surfaces
  :class:`~repro.errors.ShardTimeoutError` with honest attributes;
* arena exhaustion degrades to transient (copy-out) slabs, not failure;
* under an arbitrary seeded fault plan, every submitted frame resolves
  exactly once — a result or a taxonomy error, never a hang, never a
  duplicate (the hypothesis property at the bottom);
* frame deadlines ride into the pool: a hang burns the budget, the
  frame fails loudly instead of waiting out the hang.

Everything here is marked ``fault`` for the per-PR chaos CI job.
"""

from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ShardCrashError,
    ShardTimeoutError,
)
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    BreakerPolicy,
    FakeClock,
    FaultPlan,
    ShardPool,
    ToneMapIngestor,
    ToneMapService,
)
from repro.tonemap.pipeline import ToneMapParams

pytestmark = pytest.mark.fault

PARAMS = ToneMapParams(sigma=2.0, radius=6)

#: Long enough that only the attempt budget can end the hang, short enough not
#: to matter if a test fails and the worker is reaped by pool close.
HANG_MS = 30_000.0
#: Per-attempt budget: generous against CI noise, tiny against HANG_MS.
TIMEOUT_S = 1.0


def _stack(frames=4, size=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((frames, size, size), dtype=np.float32)


def _want(stack):
    return BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)


class TestWatchdogAndHedgedReplay:
    def test_hung_batch_is_killed_and_hedge_replayed(self):
        stack = _stack()
        plan = FaultPlan(hang_batches=(0,), hang_ms=HANG_MS)
        with ShardPool(PARAMS, shards=2, faults=plan) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            got = pool.run_leased(lease, timeout=TIMEOUT_S).materialize()
            lease.release()
            np.testing.assert_array_equal(got, _want(stack))
            assert pool.watchdog_kills >= 1
            assert pool.hedged_replays == 1
            assert pool.worker_respawns >= 1
            assert pool.arena.stats.leases_active == 0

    def test_persistent_hang_surfaces_shard_timeout(self):
        stack = _stack(seed=1)
        plan = FaultPlan(hang_batches=(0, 1), hang_ms=HANG_MS)
        with ShardPool(PARAMS, shards=2, faults=plan) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            with pytest.raises(ShardTimeoutError) as excinfo:
                pool.run_leased(lease, timeout=TIMEOUT_S)
            lease.release()
            assert excinfo.value.retries == 1  # the hedge was spent
            assert excinfo.value.elapsed_ms >= 2 * TIMEOUT_S * 1e3
            # Both attempts were ended by the watchdog, not by luck.
            assert pool.watchdog_kills >= 2
            assert pool.arena.stats.leases_active == 0
            # The plan is exhausted: the pool still serves.
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            pool.run_leased(lease, timeout=TIMEOUT_S).release()
            lease.release()

    def test_default_timeout_arms_the_watchdog(self):
        stack = _stack(seed=2)
        plan = FaultPlan(hang_batches=(0,), hang_ms=HANG_MS)
        with ShardPool(
            PARAMS, shards=2, faults=plan,
            default_timeout_ms=TIMEOUT_S * 1e3,
        ) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            got = pool.run_leased(lease).materialize()  # no explicit timeout
            lease.release()
            np.testing.assert_array_equal(got, _want(stack))
            assert pool.watchdog_kills >= 1 and pool.hedged_replays == 1

    def test_budget_follows_the_injected_clock(self):
        # Real time alone never ends the budget: the hung attempt runs
        # on, unkilled, until the test moves the pool's clock past it.
        stack = _stack(seed=5)
        clock = FakeClock()
        plan = FaultPlan(hang_batches=(0,), hang_ms=HANG_MS)
        with ShardPool(PARAMS, shards=2, faults=plan, clock=clock) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            with ThreadPoolExecutor(max_workers=1) as runner:
                future = runner.submit(
                    lambda: pool.run_leased(
                        lease, timeout=TIMEOUT_S
                    ).materialize()
                )
                done, _ = wait([future], timeout=1.5)
                assert not done
                assert pool.watchdog_kills == 0
                clock.advance(2 * TIMEOUT_S)
                got = future.result(timeout=60)
            lease.release()
            np.testing.assert_array_equal(got, _want(stack))
            assert pool.watchdog_kills == 1
            assert pool.hedged_replays == 1
            assert pool.arena.stats.leases_active == 0


class TestArenaExhaustion:
    def test_exhaustion_degrades_to_transient_slabs(self):
        stack = _stack(seed=3)
        plan = FaultPlan(exhaust_batches=(0,))
        with ShardPool(PARAMS, shards=2, faults=plan) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            got = pool.run_leased(lease).materialize()
            lease.release()
            np.testing.assert_array_equal(got, _want(stack))
            assert pool.arena.stats.overflow >= 1
            assert pool.arena.stats.leases_active == 0


class TestBreakerBrownoutEndToEnd:
    def test_real_kills_trip_the_breaker_into_brownout(self):
        stack = _stack(seed=4)
        want = _want(stack)
        plan = FaultPlan(kill_probability=1.0)  # every shard attempt dies
        policy = BreakerPolicy(
            failure_threshold=1, window_s=60.0, cooldown_s=600.0,
            probe_batches=1,
        )
        with ToneMapService(
            PARAMS, batch_size=4, shards=2, breaker=policy, faults=plan
        ) as service:
            for round_index in range(2):
                lease = service.lease_input(stack.shape[1:])
                lease.array[: len(stack)] = stack
                outputs = service.submit_stack(
                    lease,
                    len(stack),
                    [f"r{round_index}f{i}" for i in range(len(stack))],
                ).result(timeout=120)
                got = np.stack([o.pixels for o in outputs]).astype(np.float32)
                np.testing.assert_array_equal(got, want)
            reliability = service.stats.reliability
            assert reliability.breaker_state == "open"
            assert reliability.brownout_batches == 2
            assert reliability.breaker_transitions == 1


class TestDeadlinePropagation:
    def test_deadline_budget_rides_into_the_pool(self):
        # Every shard attempt hangs; the frame's own deadline becomes
        # the attempt budget.  The frame must fail loudly (timeout once
        # the hedge budget is spent) — never wait out a 30 s hang.
        images = [
            make_scene(
                "window_interior", SceneParams(height=24, width=24, seed=s)
            )
            for s in range(2)
        ]
        plan = FaultPlan(hang_probability=1.0, hang_ms=HANG_MS)
        with ToneMapService(PARAMS, batch_size=2, shards=1, faults=plan) as service:
            with ToneMapIngestor(service, queue_limit=8) as ingestor:
                futures = [
                    ingestor.submit(img, deadline_ms=1_500.0) for img in images
                ]
                for future in futures:
                    with pytest.raises((ShardTimeoutError, DeadlineExceededError)):
                        future.result(timeout=120)
            assert service.pool.arena.stats.leases_active == 0
            assert service.pool.watchdog_kills >= 1


# -- Exactly-once property ---------------------------------------------------

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**16),
    kill_batches=st.lists(
        st.integers(min_value=0, max_value=5), max_size=2, unique=True
    ).map(tuple),
    hang_batches=st.lists(
        st.integers(min_value=0, max_value=5), max_size=1, unique=True
    ).map(tuple),
    exhaust_batches=st.lists(
        st.integers(min_value=0, max_value=5), max_size=2, unique=True
    ).map(tuple),
    kill_probability=st.sampled_from([0.0, 0.3]),
    slow_probability=st.sampled_from([0.0, 0.5]),
    hang_ms=st.just(HANG_MS),
    jitter_ms=st.just(2.0),
)


@given(plan=fault_plans)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_frame_resolves_exactly_once_under_any_plan(plan):
    """The exactly-once contract: N frames in, N resolutions out.

    Whatever the plan injects — crashes, hangs, exhaustion, jitter —
    every submitted future resolves exactly once with either a real
    output or a taxonomy error.  No hangs (the ``result`` timeout would
    trip), no lost frames, no duplicates, no leaked leases.
    """
    images = [
        make_scene("window_interior", SceneParams(height=24, width=24, seed=s))
        for s in range(6)
    ]
    policy = BreakerPolicy(
        failure_threshold=2, window_s=60.0, cooldown_s=600.0, probe_batches=1
    )
    results, errors = [], []
    with ToneMapService(
        PARAMS, batch_size=2, shards=1, faults=plan, breaker=policy,
        shard_timeout_ms=TIMEOUT_S * 1e3,
    ) as service:
        with ToneMapIngestor(service, queue_limit=16) as ingestor:
            futures = [ingestor.submit(img) for img in images]
            for future in futures:
                try:
                    results.append(future.result(timeout=120))
                except ReproError as exc:
                    errors.append(exc)
        assert len(results) + len(errors) == len(images)
        assert all(out is not None for out in results)
        # Only taxonomy errors may surface — and with the breaker
        # browning persistent failure out, shard errors need the
        # breaker's threshold not yet met.
        assert all(
            isinstance(e, (ShardCrashError, ShardTimeoutError)) for e in errors
        )
        assert service.pool.arena.stats.leases_active == 0
