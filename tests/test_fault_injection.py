"""Fault injection: shard workers die, the pool must not.

The scenarios SIGKILL real worker processes (or make them suicide on
their first slab) and assert the recovery contract of
``ShardPool.run_leased``:

* the broken batch is replayed once on a respawned worker set (callers
  see a result, not an exception, for a one-off crash);
* a *persistently* crashing workload surfaces
  :class:`~repro.errors.ShardCrashError` instead of hanging;
* no arena lease is leaked on any path and ``/dev/shm`` ends clean;
* futures handed out by the ingestor always resolve — no hung callers.

Persistent-crash injection goes through the first-class
:class:`~repro.runtime.FaultPlan` (seeded, in-worker SIGKILL at chosen
batch indices) rather than monkeypatching the slab task — the same
mechanism the chaos suite and the ``--fault-plan`` CLI flag use.
Worker-kill tests fork fresh pools per test and are marked ``fault`` so
the per-PR CI job can select them explicitly (they run in the default
suite too — each is sub-second).
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro.errors import ShardCrashError
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    FaultPlan,
    ShardPool,
    ToneMapIngestor,
    ToneMapService,
)
from repro.tonemap.fixed_blur import make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams

pytestmark = pytest.mark.fault

PARAMS = ToneMapParams(sigma=2.0, radius=6)
SHM_DIR = "/dev/shm"


def shm_names():
    if not os.path.isdir(SHM_DIR):
        pytest.skip("no /dev/shm to scan on this platform")
    return set(os.listdir(SHM_DIR))


def _stack(frames=4, size=64, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (frames, size, size)).astype(np.float32)


class TestWorkerKillRecovery:
    def test_killed_worker_batch_replayed_and_pool_recovers(
        self, wait_for_corpse
    ):
        baseline = shm_names()
        stack = _stack()
        want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
        with ShardPool(PARAMS, shards=2) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            pool.run_leased(lease).release()  # warm, known-good
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            wait_for_corpse(pool)
            # The next batch trips over the corpse, respawns, replays —
            # and the caller never notices.
            out = pool.run_leased(lease)
            got = out.array.copy()
            out.release()
            lease.release()
            np.testing.assert_array_equal(got, want)
            assert pool.worker_respawns >= 1
            assert pool.data_plane_stats.worker_respawns == pool.worker_respawns
            assert pool.arena.stats.leases_active == 0
        assert shm_names() <= baseline

    def test_kill_mid_batch_no_hung_caller_no_leaked_lease(
        self, wait_for_corpse
    ):
        stack = _stack(frames=8, size=256)
        with ShardPool(PARAMS, shards=2) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            pool.run_leased(lease).release()  # warm
            results = []
            failures = []
            first_done = threading.Event()
            killed = threading.Event()

            def hammer():
                for index in range(4):
                    try:
                        out = pool.run_leased(lease)
                        results.append(out.array.copy())
                        out.release()
                    except ShardCrashError as exc:  # pragma: no cover
                        failures.append(exc)
                    first_done.set()
                    if index == 0:
                        # Batch 2 starts only after the signal landed, so
                        # a later submission is guaranteed to trip over
                        # the corpse — no lucky all-done-before-the-kill
                        # timing.
                        killed.wait(timeout=60)

            thread = threading.Thread(target=hammer)
            thread.start()
            assert first_done.wait(timeout=60)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            wait_for_corpse(pool)
            killed.set()
            thread.join(timeout=120)
            assert not thread.is_alive(), "caller hung after worker kill"
            # Every batch either replayed to success or failed loudly.
            assert len(results) + len(failures) == 4
            assert not failures, "single crash must be absorbed by replay"
            want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
            for got in results:
                np.testing.assert_array_equal(got, want)
            lease.release()
            assert pool.worker_respawns >= 1
            assert pool.arena.stats.leases_active == 0

    def test_fixed_point_respawn_unpickles_the_blur(self, wait_for_corpse):
        # The first workers fork with the params already in memory; the
        # crash respawn goes through the forkserver, which must unpickle
        # the fixed-point blur — and the replay stays bit-identical.
        params = ToneMapParams(
            sigma=2.0, radius=6, blur_fn=make_fixed_blur_fn()
        )
        stack = _stack()
        want = BatchToneMapper(params).run_stack(stack).astype(np.float32)
        with ShardPool(params, shards=2) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            pool.run_leased(lease).release()  # warm, known-good
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            wait_for_corpse(pool)
            out = pool.run_leased(lease)
            got = out.array.copy()
            out.release()
            lease.release()
            assert pool.worker_respawns >= 1
        np.testing.assert_array_equal(got, want)

    def test_persistent_crash_raises_shard_crash_error(self):
        # A FaultPlan SIGKILLs a worker on batch attempts 0 and 1: the
        # replay crashes too, which must surface as ShardCrashError
        # (bounded retries), not an infinite respawn loop or a hang.
        stack = _stack()
        plan = FaultPlan(kill_batches=(0, 1))
        with ShardPool(PARAMS, shards=2, faults=plan) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            with pytest.raises(ShardCrashError):
                pool.run_leased(lease)
            assert pool.worker_respawns == 2  # initial crash + failed replay
            assert pool.arena.stats.leases_active == 1  # only the input
            # The plan's kill indices are exhausted: attempt 2 runs the
            # workload clean on the respawned workers.
            out = pool.run_leased(lease)
            want = BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)
            np.testing.assert_array_equal(out.array, want)
            out.release()
            lease.release()
            assert pool.arena.stats.leases_active == 0


class TestServiceAndIngestorFaultPaths:
    def test_ingestor_futures_resolve_across_worker_kill(
        self, wait_for_corpse
    ):
        baseline = shm_names()
        images = [
            make_scene(
                "window_interior",
                SceneParams(height=32, width=32, seed=7 + i),
            )
            for i in range(12)
        ]
        with ToneMapService(PARAMS, batch_size=4, shards=2) as service:
            with ToneMapIngestor(service) as ingestor:
                futures = []
                for index, image in enumerate(images):
                    futures.append(ingestor.submit(image))
                    if index == 5:
                        os.kill(
                            service.pool.worker_pids()[0], signal.SIGKILL
                        )
                        wait_for_corpse(service.pool)
                outcomes = [f.result(timeout=120) for f in futures]
            # Replay absorbed the crash: every frame got a real result.
            assert all(out is not None for out in outcomes)
            assert service.pool.arena.stats.leases_active == 0
            assert service.stats.shard_respawns >= 1
        assert shm_names() <= baseline

    def test_parent_side_crash_fails_futures_without_hanging(self):
        # If the pool gives up (ShardCrashError), every affected future
        # must fail promptly — and the service must keep serving once
        # the fault clears.
        images = [
            make_scene(
                "window_interior",
                SceneParams(height=24, width=24, seed=60 + i),
            )
            for i in range(4)
        ]
        with ToneMapService(PARAMS, batch_size=2, shards=1) as service:
            pool = service.pool
            real = pool.run_leased

            def always_crashing(in_lease, count=None, retries=1, **kwargs):
                raise ShardCrashError("injected: workers crash persistently")

            pool.run_leased = always_crashing
            try:
                with ToneMapIngestor(service) as ingestor:
                    futures = [ingestor.submit(img) for img in images[:2]]
                    for future in futures:
                        with pytest.raises(ShardCrashError):
                            future.result(timeout=30)
            finally:
                pool.run_leased = real
            assert pool.arena.stats.leases_active == 0
            # Fault cleared: the same service serves again.
            with ToneMapIngestor(service) as ingestor:
                outputs = ingestor.map_many(images[2:])
            assert len(outputs) == 2
            assert pool.arena.stats.leases_active == 0
