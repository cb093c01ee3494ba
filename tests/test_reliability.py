"""Unit tests for the reliability layer: clock, fault plans, breaker,
deadline shedding, and brownout routing.

Everything time-dependent runs against :class:`repro.runtime.FakeClock`
— no sleeps, no wall-clock flakiness.  Integration-grade chaos (real
SIGKILLs, real watchdog timeouts) lives in ``test_chaos.py``.
"""

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ShardCrashError,
    ToneMapError,
)
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    BreakerPolicy,
    CircuitBreaker,
    FakeClock,
    FaultInjector,
    FaultPlan,
    ToneMapIngestor,
    ToneMapService,
)
from repro.runtime.faults import NETWORK_FAULT_KINDS, resolve_injector
from repro.runtime.reliability import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
)
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)


class TestFakeClock:
    def test_now_advance_and_sleep(self):
        clock = FakeClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5
        clock.sleep(0.5)  # sleep is just advance: no real waiting
        assert clock.now() == 13.0

    def test_negative_advance_rejected(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = "kill@4:5,hang@1,slow%0.2,seed=7,hang_ms=500"
        plan = FaultPlan.from_spec(spec)
        assert plan.kill_batches == (4, 5)
        assert plan.hang_batches == (1,)
        assert plan.slow_probability == 0.2
        assert plan.seed == 7
        assert plan.hang_ms == 500
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan(kill_batches=(0,)).empty
        assert FaultPlan.from_spec("") == FaultPlan()

    def test_kinds_for_is_deterministic(self):
        plan = FaultPlan(seed=11, hang_probability=0.5, kill_batches=(3,))
        first = [plan.kinds_for(i) for i in range(64)]
        second = [plan.kinds_for(i) for i in range(64)]
        assert first == second
        assert "kill" in plan.kinds_for(3)
        # A different seed draws a different probabilistic pattern.
        other = FaultPlan(seed=12, hang_probability=0.5)
        assert [plan.kinds_for(i) - {"kill"} for i in range(64)] != [
            other.kinds_for(i) for i in range(64)
        ]

    def test_validation(self):
        with pytest.raises(ToneMapError):
            FaultPlan(kill_probability=1.5)
        with pytest.raises(ToneMapError):
            FaultPlan(kill_batches=(-1,))
        with pytest.raises(ToneMapError):
            FaultPlan(hang_ms=0)
        with pytest.raises(ToneMapError):
            FaultPlan.from_spec("explode@3")
        with pytest.raises(ToneMapError, match="unknown fault kind"):
            FaultPlan.from_spec("overload-storm@1")
        with pytest.raises(ToneMapError):
            FaultPlan.from_spec("kill@notanumber")

    def test_injector_streams_are_independent_and_counted(self):
        plan = FaultPlan(kill_batches=(0,), slow_batches=(0, 1))
        injector = FaultInjector(plan)
        index, kinds = injector.next_attempt()
        assert index == 0 and kinds == {"kill", "slow"}
        # The in-process stream only ever reports slow-jitter: brownout
        # execution must not "crash" the parent process.
        index, kinds = injector.next_inproc()
        assert kinds <= {"slow"}
        assert injector.attempts == 1
        assert injector.injected["kill"] == 1

    def test_worker_directive_kill_outranks_hang(self):
        injector = FaultInjector(FaultPlan(hang_ms=100))
        assert injector.worker_directive({"kill", "hang"}) == ("kill", 0.0)
        kind, value = injector.worker_directive({"hang"})
        assert kind == "hang" and value == pytest.approx(0.1)
        assert injector.worker_directive({"slow", "exhaust"}) is None

    def test_resolve_injector_forms(self):
        injector = FaultInjector(FaultPlan())
        assert resolve_injector(injector) is injector
        assert isinstance(resolve_injector("kill@1"), FaultInjector)
        assert isinstance(resolve_injector(FaultPlan()), FaultInjector)
        with pytest.raises(ToneMapError):
            resolve_injector(123)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "hang@2,seed=5")
        plan = FaultPlan.from_env()
        assert plan.hang_batches == (2,) and plan.seed == 5
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert FaultPlan.from_env() is None

    def test_network_kind_spec_round_trip(self):
        spec = "host-loss@1,partition@3,slow-link%0.25,jitter_ms=4"
        plan = FaultPlan.from_spec(spec)
        assert plan.host_loss_batches == (1,)
        assert plan.partition_batches == (3,)
        assert plan.slow_link_probability == 0.25
        # Hyphen and underscore spellings parse identically; to_spec
        # emits the hyphen display form and round-trips.
        underscored = "host_loss@1,partition@3,slow_link%0.25,jitter_ms=4"
        assert FaultPlan.from_spec(underscored) == plan
        assert "slow-link" in plan.to_spec()
        assert FaultPlan.from_spec(plan.to_spec()) == plan
        assert set(NETWORK_FAULT_KINDS) == {
            "partition", "slow_link", "host_loss"
        }

    def test_slow_link_jitter_stream_is_independent(self):
        plan = FaultPlan(jitter_ms=10.0, seed=3)
        slow = [plan.jitter_s(i) for i in range(8)]
        link = [plan.jitter_s(i, kind="slow_link") for i in range(8)]
        # Same seed, distinct streams: a plan jittering both the shard
        # dispatch and the wire draws different (but replayable) delays.
        assert slow != link
        assert link == [plan.jitter_s(i, kind="slow_link") for i in range(8)]
        assert all(0.005 <= delay <= 0.010 for delay in slow + link)

    def test_network_kinds_are_not_worker_directives(self):
        # Network faults execute in the *client* pool (hostpool dispatch
        # loop); a worker handed one must do nothing with it.
        injector = FaultInjector(FaultPlan(host_loss_batches=(0,)))
        assert injector.worker_directive(frozenset(NETWORK_FAULT_KINDS)) is None


class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        policy = BreakerPolicy(
            failure_threshold=overrides.pop("failure_threshold", 2),
            window_s=overrides.pop("window_s", 10.0),
            cooldown_s=overrides.pop("cooldown_s", 5.0),
            probe_batches=overrides.pop("probe_batches", 2),
        )
        assert not overrides
        return CircuitBreaker(policy, clock=clock)

    def test_opens_after_threshold_in_window(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED  # one strike is not enough
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_shard()
        assert breaker.transitions == 1

    def test_stale_failures_age_out_of_the_window(self):
        clock = FakeClock()
        breaker = self._breaker(clock, window_s=10.0)
        breaker.record_failure()
        clock.advance(11.0)  # first strike is now outside the window
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self._breaker(clock, probe_batches=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_shard()  # cooldown not elapsed
        clock.advance(5.0)
        assert breaker.allow_shard()  # probe token
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.record_success()
        assert breaker.state == BREAKER_HALF_OPEN  # one probe of two
        assert breaker.allow_shard()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.transitions == 3  # closed→open→half_open→closed

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self._breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow_shard()
        breaker.record_failure()  # the probe failed
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_shard()  # a fresh cooldown has started
        clock.advance(5.0)
        assert breaker.allow_shard()

    def test_policy_validation(self):
        with pytest.raises(ToneMapError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ToneMapError):
            BreakerPolicy(window_s=0)
        with pytest.raises(ToneMapError):
            BreakerPolicy(cooldown_s=-1)
        with pytest.raises(ToneMapError):
            BreakerPolicy(probe_batches=0)


class TestDeadlineShedding:
    def _image(self, seed=0, size=24):
        return make_scene(
            "window_interior", SceneParams(height=size, width=size, seed=seed)
        )

    def test_expired_frame_sheds_with_deadline_error(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        clock = FakeClock()
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            with ToneMapIngestor(
                service, queue_limit=8, clock=clock
            ) as ingestor:
                # The blocker holds the one slot, so the frames below
                # stay queued where their budgets are checked.
                blocker = ingestor.submit(self._image(5))
                assert entered.wait(timeout=30)
                doomed = ingestor.submit(self._image(0), deadline_ms=50.0)
                clock.advance(0.2)  # fake time blows through the budget
                # A second arrival wakes the coalescer, whose expiry
                # sweep runs before any scheduling decision.
                survivor = ingestor.submit(self._image(1))
                with pytest.raises(DeadlineExceededError) as excinfo:
                    doomed.result(timeout=30)
                assert excinfo.value.deadline_ms == 50.0
                assert excinfo.value.elapsed_ms >= 50.0
                assert excinfo.value.tenant == "default"
                # The survivor leaves once the slot frees.
                gate.set()
                assert blocker.result(timeout=30) is not None
                assert survivor.result(timeout=30) is not None
                stats = ingestor.stats
                assert stats.reliability.deadline_shed == 1
            assert_ledger_closed(ingestor.stats)

    def test_default_deadline_applies_to_every_frame(
        self, gated_blur, assert_ledger_closed
    ):
        params, entered, gate = gated_blur
        clock = FakeClock()
        with ToneMapService(params, batch_size=8, max_workers=1) as service:
            with ToneMapIngestor(
                service,
                queue_limit=8,
                clock=clock,
                default_deadline_ms=100.0,
            ) as ingestor:
                blocker = ingestor.submit(self._image(5), deadline_ms=1e9)
                assert entered.wait(timeout=30)
                doomed = ingestor.submit(self._image(2))
                clock.advance(1.0)
                ingestor.submit(self._image(3), deadline_ms=5_000.0)
                with pytest.raises(DeadlineExceededError):
                    doomed.result(timeout=30)
                gate.set()
                assert blocker.result(timeout=30) is not None
            assert_ledger_closed(ingestor.stats)

    def test_deadline_validation(self):
        with ToneMapService(PARAMS, batch_size=4) as service:
            with pytest.raises(ToneMapError):
                ToneMapIngestor(service, default_deadline_ms=0)
            with ToneMapIngestor(service) as ingestor:
                with pytest.raises(ToneMapError):
                    ingestor.submit(self._image(4), deadline_ms=-5)


class TestBrownoutRouting:
    def test_persistent_shard_failure_browns_out_bit_identically(self):
        rng = np.random.default_rng(17)
        stack = rng.random((4, 24, 24), dtype=np.float32)
        want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
        policy = BreakerPolicy(
            failure_threshold=1, window_s=60.0, cooldown_s=600.0,
            probe_batches=1,
        )
        with ToneMapService(
            PARAMS, batch_size=4, shards=1, breaker=policy
        ) as service:
            pool = service.pool

            def always_crashing(in_lease, count=None, retries=1, **kwargs):
                raise ShardCrashError("injected: persistent shard failure")

            pool.run_leased = always_crashing
            for round_index in range(2):
                lease = service.lease_input((24, 24))
                lease.array[:4] = stack
                outputs = service.submit_stack(
                    lease, 4, [f"r{round_index}f{i}" for i in range(4)]
                ).result(timeout=60)
                got = np.stack([o.pixels for o in outputs]).astype(np.float32)
                np.testing.assert_array_equal(got, want)
            stats = service.stats
            assert stats.reliability.breaker_state == BREAKER_OPEN
            # Round 1 tripped the breaker and brown out; round 2 never
            # touched the (still-broken) pool.
            assert stats.reliability.brownout_batches == 2
            assert stats.reliability.breaker_transitions == 1

    def test_no_breaker_means_shard_errors_surface(self):
        with ToneMapService(PARAMS, batch_size=4, shards=1) as service:
            pool = service.pool

            def always_crashing(in_lease, count=None, retries=1, **kwargs):
                raise ShardCrashError("injected: persistent shard failure")

            pool.run_leased = always_crashing
            lease = service.lease_input((24, 24))
            lease.array[:2] = np.random.default_rng(0).random(
                (2, 24, 24), dtype=np.float32
            )
            with pytest.raises(ShardCrashError):
                service.submit_stack(lease, 2, ["a", "b"]).result(timeout=60)

    def test_reliability_knobs_require_a_pool(self):
        with pytest.raises(ToneMapError):
            ToneMapService(PARAMS, shard_timeout_ms=100.0)
        with pytest.raises(ToneMapError):
            ToneMapService(PARAMS, breaker=True)


class TestInjectableServiceClock:
    """Regression: every service timing read goes through the clock.

    Three batch-completion paths formerly read ``time.perf_counter()``
    directly, so their durations mixed wall time into ``FakeClock``
    epochs — deadline math drifted and fake-clock tests saw nonzero
    latencies.  With a never-advanced ``FakeClock`` a correctly routed
    service must measure every batch as **exactly** 0.0 seconds; any
    other value means a wall-clock read leaked back in.
    """

    def _images(self, count, size=24):
        return [
            make_scene(
                "window_interior",
                SceneParams(height=size, width=size, seed=40 + i),
            )
            for i in range(count)
        ]

    def test_in_process_batches_measure_fake_zero(self):
        clock = FakeClock(start=123.0)
        with ToneMapService(PARAMS, batch_size=4, clock=clock) as service:
            service.map_many(self._images(4))
            service.map_many(self._images(3))
            stats = service.stats
        assert stats.batches >= 2 and stats.images == 7
        assert stats.seconds == 0.0
        assert stats.latency_p95_ms == 0.0

    def test_sharded_submit_stack_measures_fake_zero(self):
        # The zero-copy admission path (the former direct perf_counter
        # read in the leased-batch runner) with real workers: wall time
        # passes in the pool, but the *service* clock never moves.
        clock = FakeClock()
        stack = np.random.default_rng(5).random(
            (4, 24, 24), dtype=np.float32
        )
        with ToneMapService(
            PARAMS, batch_size=4, shards=1, clock=clock
        ) as service:
            lease = service.lease_input((24, 24))
            lease.array[:4] = stack
            outputs = service.submit_stack(
                lease, 4, [f"f{i}" for i in range(4)]
            ).result(timeout=60)
            assert len(outputs) == 4
            stats = service.stats
        assert stats.batches == 1
        assert stats.seconds == 0.0
        assert stats.latency_p95_ms == 0.0
