"""The one attempt policy of :class:`repro.runtime.backend.Backend`.

A scripted fake transport plays one outcome per attempt on a
``FakeClock`` — no worker processes, no sockets — so every budget
decision of the shared loop is pinned exactly: one crash replay, one
hedge, free replays for batches that raced a respawn, everything else
propagated unchanged, every failed attempt's output slab released, and
the admission gate's drain semantics.  The in-process transport,
:class:`~repro.runtime.backend.LocalBackend`, runs the same loop over
a fake mapper.
"""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ShardCrashError, ShardTimeoutError, ToneMapError
from repro.image import HDRImage
from repro.runtime import (
    FakeClock,
    FaultInjector,
    FaultPlan,
    ToneMapService,
)
from repro.runtime.backend import (
    Backend,
    FreeReplay,
    Hedge,
    LocalBackend,
    Replay,
)
from repro.runtime.overload import LADDER_BROWNOUT
from repro.tonemap.pipeline import ToneMapParams

#: FakeClock seconds each scripted attempt takes.
ATTEMPT_S = 0.25


class ScriptedBackend(Backend):
    """Plays ``script`` one entry per attempt: ``None`` succeeds (output
    = 2 x input), an exception instance is raised, an ``Event`` is
    waited on before succeeding."""

    def __init__(self, script, default_timeout_ms=None, faults=None):
        self.clock = FakeClock()
        super().__init__(2, default_timeout_ms, faults, self.clock)
        self.script = list(script)
        self.attempts = []

    def _attempt(self, in_lease, out, timeout, index, kinds, avoid):
        step = self.script.pop(0)
        lease = out.take()
        self.attempts.append(
            dict(lease=lease, timeout=timeout, kinds=kinds, avoid=avoid)
        )
        self.clock.advance(ATTEMPT_S)
        if isinstance(step, threading.Event):
            assert step.wait(timeout=30)
        elif step is not None:
            raise step
        lease.array[:] = in_lease.array[: out.shape[0]] * 2
        return lease

    def _shutdown(self):
        pass


def _caused(failure, cause):
    """A classified failure chained to its cause, as transports raise it."""
    failure.__cause__ = cause
    return failure


@pytest.fixture
def stack():
    return np.random.default_rng(0).random((3, 8, 8), dtype=np.float32)


def _run(backend, stack, **kwargs):
    in_lease = backend.lease_input(stack.shape)
    in_lease.array[:] = stack
    try:
        return backend.run_leased(in_lease, **kwargs)
    finally:
        in_lease.release()


class TestAttemptPolicy:
    def test_a_crash_gets_one_replay(self, stack):
        with ScriptedBackend([Replay("lost a worker"), None]) as backend:
            out = _run(backend, stack)
            np.testing.assert_array_equal(out.array, stack * 2)
            out.release()
            assert len(backend.attempts) == 2
            assert backend.hedged_replays == 0

    def test_a_second_crash_raises_shard_crash_error(self, stack):
        cause = OSError("worker died")
        script = [Replay("lost a worker"), _caused(Replay("lost it"), cause)]
        with ScriptedBackend(script) as backend:
            with pytest.raises(ShardCrashError, match="3-frame batch lost it"):
                _run(backend, stack)
            assert len(backend.attempts) == 2

    def test_a_timeout_gets_one_hedge(self, stack):
        with ScriptedBackend([Hedge("hung"), None]) as backend:
            _run(backend, stack).release()
            assert backend.hedged_replays == 1

    def test_a_second_timeout_raises_shard_timeout_error(self, stack):
        cause = TimeoutError("no reply")
        script = [Hedge("hung"), _caused(Hedge("hung again"), cause)]
        with ScriptedBackend(script) as backend:
            with pytest.raises(ShardTimeoutError) as excinfo:
                _run(backend, stack)
            assert excinfo.value.retries == 1
            # Both attempts' time, read from the injected clock.
            assert excinfo.value.elapsed_ms == 2 * ATTEMPT_S * 1e3
            assert excinfo.value.__cause__ is cause
            assert backend.hedged_replays == 1

    def test_free_replays_spend_no_budget(self, stack):
        script = [
            FreeReplay(), Replay("crashed"), FreeReplay(), Hedge("hung"),
            FreeReplay(), None,
        ]
        with ScriptedBackend(script) as backend:
            _run(backend, stack).release()
            assert len(backend.attempts) == 6

    @pytest.mark.parametrize(
        "error", [KeyError("boom"), ToneMapError("bad frame")],
        ids=["bug", "taxonomy"],
    )
    def test_other_errors_propagate_unchanged(self, stack, error):
        with ScriptedBackend([error, None]) as backend:
            with pytest.raises(type(error)) as excinfo:
                _run(backend, stack)
            assert excinfo.value is error
            assert len(backend.attempts) == 1

    def test_every_failed_attempt_releases_its_output_lease(self, stack):
        script = [Replay("a"), Hedge("b"), FreeReplay(), KeyError("c")]
        with ScriptedBackend(script) as backend:
            with pytest.raises(KeyError):
                _run(backend, stack)
            assert all(a["lease"].array is None for a in backend.attempts)
            assert backend.arena.stats.leases_active == 0

    def test_the_next_attempt_avoids_where_the_last_one_failed(self, stack):
        script = [Hedge("hung", where="host0"), None]
        with ScriptedBackend(script) as backend:
            _run(backend, stack).release()
            assert [a["avoid"] for a in backend.attempts] == [None, "host0"]

    def test_one_fault_draw_per_attempt(self, stack):
        plan = FaultPlan(kill_batches=(1,))
        with ScriptedBackend([Replay("a"), None], faults=plan) as backend:
            _run(backend, stack).release()
            assert backend.faults.attempts == 2
            assert [a["kinds"] for a in backend.attempts] == [
                frozenset(), frozenset({"kill"})
            ]

    def test_every_attempt_gets_the_full_budget(self, stack):
        script = [Hedge("hung"), None, None]
        with ScriptedBackend(script, default_timeout_ms=500.0) as backend:
            _run(backend, stack).release()
            _run(backend, stack, timeout=2.0).release()
            assert [a["timeout"] for a in backend.attempts] == [0.5, 0.5, 2.0]


class TestValidationAndCounters:
    @pytest.mark.parametrize(
        "timeout", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_timeouts_are_refused_before_any_attempt(self, stack, timeout):
        with ScriptedBackend([None]) as backend:
            with pytest.raises(ToneMapError, match="timeout"):
                _run(backend, stack, timeout=timeout)
            assert backend.attempts == []
            assert backend.arena.stats.leases_active == 0

    def test_bad_counts_and_released_leases_are_refused(self, stack):
        with ScriptedBackend([None]) as backend:
            lease = backend.lease_input(stack.shape)
            for count in (0, 4):
                with pytest.raises(ToneMapError, match="count"):
                    backend.run_leased(lease, count)
            lease.release()
            with pytest.raises(ToneMapError, match="released"):
                backend.run_leased(lease)
            assert backend.attempts == []

    def test_counters_add_up(self, stack):
        with ScriptedBackend([None, Replay("a"), None, None]) as backend:
            _run(backend, stack).release()
            _run(backend, stack, count=2).release()
            got = _run(backend, stack).materialize()
            np.testing.assert_array_equal(got, stack * 2)
            stats = backend.data_plane_stats
            assert (stats.batches, stats.frames) == (3, 8)
            assert stats.bytes_served == 8 * 8 * 8 * 4
            # The materialize is the only staging.
            assert stats.bytes_staged == stack.nbytes

    def test_concurrent_batches_lose_no_count(self, stack):
        threads, per_thread = 8, 25
        backend = ScriptedBackend([None] * threads * per_thread)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [
                        _run(backend, stack).release()
                        for _ in range(per_thread)
                    ]
                )
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = backend.data_plane_stats
        assert stats.batches == threads * per_thread
        assert stats.frames == threads * per_thread * len(stack)
        assert backend.arena.stats.leases_active == 0
        backend.drain()  # in-flight count is back at zero: returns at once


class TestAdmissionGate:
    @pytest.mark.parametrize("stop", ["close", "drain"])
    def test_stopped_backends_refuse_work(self, stop):
        backend = ScriptedBackend([None])
        probe = backend.lease_input((1, 2, 2))
        getattr(backend, stop)()
        with pytest.raises(ToneMapError, match="closed"):
            backend.run_leased(probe)
        assert backend.attempts == []
        probe.release()

    def test_drain_refuses_new_work_and_waits_for_in_flight(self, stack):
        release = threading.Event()
        backend = ScriptedBackend([release])
        probe = backend.lease_input((1, 2, 2))
        results = []
        runner = threading.Thread(
            target=lambda: results.append(_run(backend, stack).materialize())
        )
        runner.start()
        for _ in range(3000):  # until the batch is inside its attempt
            if backend.attempts:
                break
            release.wait(0.01)
        assert backend.attempts
        drainer = threading.Thread(target=backend.drain)
        drainer.start()
        drainer.join(timeout=0.2)
        assert drainer.is_alive(), "drain returned with a batch in flight"
        with pytest.raises(ToneMapError, match="draining"):
            backend.run_leased(probe)
        release.set()
        runner.join(timeout=30)
        drainer.join(timeout=30)
        assert not drainer.is_alive()
        np.testing.assert_array_equal(results[0], stack * 2)
        with pytest.raises(ToneMapError, match="closed"):
            backend.run_leased(probe)
        assert len(backend.attempts) == 1
        probe.release()


class FakeMapper:
    """Doubles the stack into ``out``; optionally waits on ``gate`` or
    raises ``error`` first; records calls and ``close``."""

    def __init__(self, gate=None, error=None):
        self.gate = gate
        self.error = error
        self.calls = 0
        self.closed = False

    def run_stack(self, stack, out):
        self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if self.error is not None:
            raise self.error
        out[:] = stack * 2
        return out

    def close(self):
        self.closed = True


class TestLocalBackend:
    def test_runs_the_mapper_into_the_output_slab(self, stack):
        mapper = FakeMapper()
        with LocalBackend(mapper, arena_slots=2) as backend:
            out = _run(backend, stack, count=2)
            np.testing.assert_array_equal(out.array, stack[:2] * 2)
            out.release()
            np.testing.assert_array_equal(
                _run(backend, stack).materialize(), stack * 2
            )
            stats = backend.data_plane_stats
            assert (stats.batches, stats.frames) == (2, 5)
            assert backend.arena.stats.leases_active == 0
            # Counters the transport lacks read zero.
            assert (
                backend.active_shards, backend.watchdog_kills,
                backend.hosts_lost, backend.worker_respawns,
                backend.hedged_replays,
            ) == (0, 0, 0, 0, 0)
        assert mapper.closed

    def test_errors_propagate_after_one_attempt(self, stack):
        # A thread cannot be killed, so nothing is replayed or hedged.
        error = KeyError("boom")
        mapper = FakeMapper(error=error)
        with LocalBackend(mapper) as backend:
            with pytest.raises(KeyError) as excinfo:
                _run(backend, stack)
            assert excinfo.value is error
            assert mapper.calls == 1
            assert backend.arena.stats.leases_active == 0

    def test_the_attempt_budget_is_ignored(self, stack):
        with LocalBackend(FakeMapper()) as backend:
            out = _run(backend, stack, timeout=1e-9)
            np.testing.assert_array_equal(out.array, stack * 2)
            out.release()

    def test_draws_only_from_the_in_process_stream(self, stack):
        injector = FaultInjector(
            FaultPlan(kill_batches=(0,), hang_batches=(1,), slow_batches=(1,))
        )
        with LocalBackend(FakeMapper(), faults=injector) as backend:
            for _ in range(2):
                _run(backend, stack).release()
        assert injector.attempts == 0
        assert injector.injected["kill"] == injector.injected["hang"] == 0
        assert injector.injected["slow"] == 1

    def test_slow_jitter_advances_the_injected_clock(self, stack):
        plan = FaultPlan(slow_batches=(0,), jitter_ms=4.0)
        clock = FakeClock()
        with LocalBackend(FakeMapper(), faults=plan, clock=clock) as backend:
            _run(backend, stack).release()
            assert clock.now() == plan.jitter_s(0) > 0.0
            _run(backend, stack).release()
            assert clock.now() == plan.jitter_s(0)

    def test_drain_waits_for_the_batch_in_flight(self, stack):
        release = threading.Event()
        mapper = FakeMapper(gate=release)
        backend = LocalBackend(mapper)
        probe = backend.lease_input((1, 2, 2))
        results = []
        runner = threading.Thread(
            target=lambda: results.append(_run(backend, stack).materialize())
        )
        runner.start()
        for _ in range(3000):  # until the batch is inside its attempt
            if mapper.calls:
                break
            release.wait(0.01)
        drainer = threading.Thread(target=backend.drain)
        drainer.start()
        drainer.join(timeout=0.2)
        assert drainer.is_alive(), "drain returned with a batch in flight"
        with pytest.raises(ToneMapError, match="draining"):
            backend.run_leased(probe)
        release.set()
        runner.join(timeout=30)
        drainer.join(timeout=30)
        assert not drainer.is_alive()
        np.testing.assert_array_equal(results[0], stack * 2)
        assert mapper.closed and mapper.calls == 1
        probe.release()
        assert backend.arena.stats.leases_active == 0

    def test_browned_out_service_leaves_pool_attempts_unchanged(self):
        params = ToneMapParams(sigma=2.0, radius=6)
        rng = np.random.default_rng(1)
        images = [
            HDRImage(rng.random((16, 16), dtype=np.float32), name=f"f{i}")
            for i in range(2)
        ]
        plan = FaultPlan(slow_batches=(0,), jitter_ms=1.0)
        with ToneMapService(
            params, batch_size=2, shards=1, arena_slots=2, faults=plan
        ) as service:
            healthy = service.map_many(images)
            injector = service.pool.faults
            assert injector.attempts == 1
            service.apply_overload_rung(LADDER_BROWNOUT)
            browned = service.map_many(images)
            assert injector.attempts == 1
            assert service.stats.reliability.brownout_batches == 1
        for got, want in zip(browned, healthy):
            np.testing.assert_array_equal(got.pixels, want.pixels)
