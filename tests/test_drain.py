"""Drain semantics: zero-loss graceful shutdown at every layer.

``close()`` has always meant "flush queued work, then stop".  ``drain()``
is its operator-facing sibling: refuse *new* work immediately, finish
everything already admitted, and (at the ingest edge) fail queued
best-effort frames fast so the flush completes sooner.  These tests pin
the contract layer by layer — ingestor, service, shard pool, host pool —
plus the ``serve-host`` SIGTERM path and the fault-marked rolling
restart.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServiceOverloadedError, ToneMapError
from repro.image import HDRImage
from repro.image.synthetic import SceneParams, make_scene
from repro.runtime import (
    BatchToneMapper,
    FaultPlan,
    HostPool,
    HostServer,
    ShardPool,
    ToneMapIngestor,
    ToneMapService,
)
from repro.tonemap.gaussian import separable_blur
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)


def scenes(count, size=24, base=100):
    return [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=base + i),
        )
        for i in range(count)
    ]


def gated_params():
    """Params whose blur blocks until the returned event is set."""
    gate = threading.Event()

    def slow_blur(plane, kernel):
        gate.wait(timeout=30)
        return separable_blur(plane, kernel)

    return ToneMapParams(sigma=2.0, radius=6, blur_fn=slow_blur), gate


def _stack(frames=4, size=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((frames, size, size), dtype=np.float32)


def _want(stack):
    return BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)


def _wait_for(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestIngestorDrain:
    def test_drain_flushes_queued_sheds_best_effort_refuses_new(
        self, assert_ledger_closed
    ):
        params, gate = gated_params()
        with ToneMapService(params, batch_size=1, max_workers=1) as service:
            ingestor = ToneMapIngestor(
                service, max_delay_ms=0, max_inflight_batches=1
            )
            kept = [ingestor.submit(image) for image in scenes(3)]
            cheap = ingestor.submit(
                scenes(1, base=900)[0], priority="best_effort"
            )
            drainer = threading.Thread(target=ingestor.drain)
            drainer.start()
            try:
                # Queued best-effort fails fast, before the flush ends
                # (the gate is still closed, so nothing has completed).
                with pytest.raises(ServiceOverloadedError, match="drain"):
                    cheap.result(timeout=30)
                # New admissions are refused from the drain call on.
                with pytest.raises(ToneMapError, match="draining"):
                    ingestor.submit(scenes(1, base=901)[0])
            finally:
                gate.set()
                drainer.join(timeout=60)
            assert not drainer.is_alive()
            # Every admitted interactive/standard frame got a real result.
            for future in kept:
                assert future.result(timeout=0).pixels.shape == (24, 24, 3)
            # drain closed the ingestor (close is now a no-op) ...
            ingestor.close()
            assert_ledger_closed(ingestor.stats)
            with pytest.raises(ToneMapError, match="draining|closed"):
                ingestor.submit(scenes(1, base=902)[0])
            # ... but the borrowed service stays open — the caller owns it.
            service.map_many(scenes(1, base=903))

    def test_close_serves_queued_best_effort_frames(self):
        # close() is the zero-refusal flush: unlike drain(), queued
        # best-effort work still resolves to a real result.
        with ToneMapService(PARAMS, batch_size=4) as service:
            ingestor = ToneMapIngestor(service, max_delay_ms=60_000)
            future = ingestor.submit(
                scenes(1)[0], priority="best_effort"
            )
            ingestor.close()
            assert future.result(timeout=0).pixels.shape == (24, 24, 3)

    def test_drain_is_idempotent_on_an_idle_ingestor(self):
        with ToneMapService(PARAMS, batch_size=1) as service:
            ingestor = ToneMapIngestor(service)
            ingestor.drain()
            ingestor.drain()
            ingestor.close()


class TestServiceDrain:
    def test_drain_finishes_admitted_then_refuses(self):
        with ToneMapService(PARAMS, batch_size=2) as service:
            futures = []
            for image in scenes(3):
                lease = service.lease_input(image.pixels.shape)
                lease.array[0] = image.pixels
                futures.append(service.submit_stack(lease, 1, [image.name]))
            service.drain()
            for future in futures:
                (output,) = future.result(timeout=0)
                assert output.pixels.shape == (24, 24, 3)
            with pytest.raises(ToneMapError, match="drain|closed"):
                service.map_many(scenes(1))

    def test_drain_closes_the_shard_pool_gracefully(self, run_materialized):
        images = scenes(2, size=16)
        with ToneMapService(
            PARAMS, batch_size=2, shards=1, arena_slots=2
        ) as service:
            pool = service.pool
            service.map_many(images)
            service.drain()
            # The pool was drained (graceful), not just closed: it now
            # refuses leases as a drained pool.
            with pytest.raises(ToneMapError, match="draining|closed"):
                run_materialized(pool, _stack(frames=2, size=16))

    def test_shard_pool_drain_refuses_new_leases(self, run_materialized):
        with ToneMapService(
            PARAMS, batch_size=2, shards=1, arena_slots=2
        ) as service:
            pool = service.pool
            got = run_materialized(pool, _stack(frames=2, size=16, seed=7))
            np.testing.assert_array_equal(
                got, _want(_stack(frames=2, size=16, seed=7))
            )
            pool.drain()
            # lease_input hits the closed arena first; run_leased's own
            # guard is the draining message — either way it refuses.
            with pytest.raises(ToneMapError, match="draining|closed"):
                run_materialized(pool, _stack(frames=2, size=16))


class TestHostPoolDrain:
    def test_drain_waits_for_in_flight_then_refuses(self, run_materialized):
        stack = _stack(seed=11)
        want = _want(stack)
        results = []
        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, arena_slots=4
        ) as pool:
            loader = threading.Thread(
                target=lambda: results.append(run_materialized(pool, stack))
            )
            loader.start()
            time.sleep(0.05)  # let the batch reach the wire
            pool.drain()
            loader.join(timeout=30)
            assert not loader.is_alive()
            # The in-flight batch finished with a real, correct result.
            assert len(results) == 1
            np.testing.assert_array_equal(results[0], want)
            with pytest.raises(ToneMapError, match="draining|closed"):
                run_materialized(pool, stack)
        # No reviver thread survives a drain (close joins them).
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("repro-host-revive") and t.is_alive()
        ]

    def test_rolling_restart_requires_owned_hosts(self):
        server = HostServer(ShardPool(PARAMS, shards=1, arena_slots=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HostPool([server.address]) as pool:
                with pytest.raises(ToneMapError, match="owns its host"):
                    pool.rolling_restart()
        finally:
            server.close()
            thread.join(timeout=10)


@pytest.mark.fault
class TestRollingRestartChaos:
    def test_rolling_restart_under_faulted_load_loses_nothing(
        self, run_materialized
    ):
        # Slow links jitter the wire while every host is cycled under
        # sustained load: the contract is the bench gate's — zero
        # admitted frames lost, outputs bit-identical throughout.
        plan = FaultPlan(slow_link_batches=(0, 1, 2, 3), jitter_ms=2.0)
        batches = [_stack(seed=50 + i) for i in range(3)]
        wants = [_want(stack) for stack in batches]
        errors = []
        served = [0]
        stop = threading.Event()

        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, faults=plan
        ) as pool:
            def load():
                index = 0
                while not stop.is_set():
                    i = index % len(batches)
                    index += 1
                    try:
                        got = run_materialized(pool, batches[i])
                        np.testing.assert_array_equal(got, wants[i])
                        served[0] += 1
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            loader = threading.Thread(target=load)
            loader.start()
            try:
                time.sleep(0.2)
                drained = pool.rolling_restart()
            finally:
                stop.set()
                loader.join(timeout=60)
            assert errors == []
            assert drained == 2
            assert pool.hosts_drained == 2
            assert served[0] >= 1
            # The restarted fleet is whole and still serving.
            assert _wait_for(lambda: pool.active_shards == 2)
            got = run_materialized(pool, batches[0])
            np.testing.assert_array_equal(got, wants[0])


class TestServeHostSignals:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_and_releases_shm_segments(
        self, signum, run_materialized
    ):
        before = set(os.listdir("/dev/shm"))
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro.cli",
                "serve-host", "--shards", "1", "--arena-slots", "2",
                "--sigma", "2.0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=repo,
        )
        try:
            line = proc.stdout.readline()
            assert "serving" in line, line
            address = line.strip().rsplit(" ", 1)[-1]
            # Serve one real batch so the host's lazily-leased arena
            # segments actually exist before the stop signal arrives.
            stack = _stack(frames=2, size=16, seed=13)
            want = (
                BatchToneMapper(ToneMapParams(sigma=2.0))
                .run_stack(stack)
                .astype(np.float32)
            )
            with HostPool([address]) as client:
                np.testing.assert_array_equal(
                    run_materialized(client, stack), want
                )
            created = set(os.listdir("/dev/shm")) - before
            assert created  # the arena lives in /dev/shm
            proc.send_signal(signum)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 0  # graceful drain, not a crash
        # Every segment the host created is gone — an orchestrator's
        # stop signal never leaks shared memory (resource-tracker
        # cleanup of multiprocessing internals may lag a moment).
        assert _wait_for(
            lambda: not (created & set(os.listdir("/dev/shm"))),
            timeout_s=15.0,
        )
