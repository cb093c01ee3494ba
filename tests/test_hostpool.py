"""Multi-host data plane: :class:`HostServer` / :class:`HostPool`.

The single-host suite proves batches move between processes as
pointers; this suite proves the same batches cross a *socket* — the
repo's model of the paper's CPU→FPGA AXI hop — bit-identically and
with every staging byte counted.  The non-fault classes run a real
2-host localhost fleet end-to-end (the leased path, the service +
ingestor front end, an externally-served host).  The ``fault``-marked
chaos class then injects the network fault kinds — ``host-loss``,
``slow-link``, ``partition`` — and asserts the PR 9 recovery contract:
zero frames lost, dead hosts respawned, outputs unchanged.
"""

import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ToneMapError
from repro.image import HDRImage
from repro.runtime import (
    BatchToneMapper,
    FaultPlan,
    HostPool,
    HostServer,
    ShardPool,
    ToneMapIngestor,
    ToneMapService,
)
from repro.runtime import hostpool as hostpool_module
from repro.runtime.hostpool import parse_address
from repro.runtime.net import (
    MSG_ERR,
    MSG_OK,
    MSG_RUN,
    recv_message,
    send_message,
)
from repro.tonemap.fixed_blur import make_fixed_blur_fn
from repro.tonemap.pipeline import ToneMapParams

PARAMS = ToneMapParams(sigma=2.0, radius=6)

FRAMES = 4
SIZE = 32


def _stack(frames=FRAMES, size=SIZE, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((frames, size, size), dtype=np.float32)


def _want(stack):
    return BatchToneMapper(PARAMS).run_stack(stack).astype(np.float32)


def _wait_for(predicate, timeout_s=60.0, interval_s=0.05):
    """Poll ``predicate`` until true; background revival is asynchronous."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestParseAddress:
    def test_accepts_string_and_tuple_forms(self):
        assert parse_address("127.0.0.1:8421") == ("127.0.0.1", 8421)
        assert parse_address(("localhost", "9000")) == ("localhost", 9000)
        assert parse_address(("10.0.0.7", 80)) == ("10.0.0.7", 80)

    @pytest.mark.parametrize(
        "bad", ["localhost", ":80", "host:", "host:http", 8421, None]
    )
    def test_rejects_malformed_addresses(self, bad):
        with pytest.raises(ToneMapError, match="host address"):
            parse_address(bad)


class TestRemoteError:
    def test_msg_err_names_map_to_verdicts_and_types(self):
        from types import SimpleNamespace

        from repro.errors import ImageError
        from repro.runtime.backend import Hedge, Replay

        host = SimpleNamespace(label="host[0]@127.0.0.1:1")

        def mapped(name):
            return HostPool._remote_error(
                host, {"error": name, "message": "boom"}
            )

        assert isinstance(mapped("ShardTimeoutError"), Hedge)
        assert isinstance(mapped("ShardCrashError"), Replay)
        assert isinstance(mapped("HostUnavailableError"), Replay)
        # An untrusted blur's bad outputs keep their type across the wire.
        error = mapped("ImageError")
        assert type(error) is ImageError and "boom" in str(error)
        assert type(mapped("ValueError")) is ToneMapError


class TestHostPoolEndToEnd:
    """One spawned 2-host fleet shared across the happy-path cases."""

    @pytest.fixture(scope="class")
    def pool(self):
        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, arena_slots=4
        ) as pool:
            yield pool

    def test_leased_path_is_bit_identical_and_zero_copy(self, pool):
        stack = _stack()
        before = pool.data_plane_stats
        lease = pool.lease_input(stack.shape)
        lease.array[:] = stack
        out = pool.run_leased(lease)
        np.testing.assert_array_equal(np.asarray(out.array), _want(stack))
        out.release()
        lease.release()
        after = pool.data_plane_stats
        # The batch crossed a real socket both ways ...
        assert after.net.messages_sent - before.net.messages_sent == 1
        assert (
            after.net.payload_bytes_sent - before.net.payload_bytes_sent
            == stack.nbytes
        )
        assert (
            after.net.payload_bytes_received
            - before.net.payload_bytes_received
            == stack.nbytes
        )
        # ... without a single userspace staging byte on this endpoint:
        # sendmsg read the input slot, recv_into filled the output slab.
        assert after.bytes_staged - before.bytes_staged == 0
        assert after.frames - before.frames == FRAMES
        assert pool.arena.stats.leases_active == 0

    def test_shard_pool_compatible_surface(self, pool):
        assert pool.active_shards == 2
        assert len(pool.host_addresses()) == 2
        assert pool.hosts_lost == 0
        assert pool.data_plane_stats.worker_respawns == pool.worker_respawns

    def test_rejects_bad_counts_and_released_leases(self, pool):
        stack = _stack(frames=2, seed=3)
        lease = pool.lease_input(stack.shape)
        lease.array[:] = stack
        with pytest.raises(ToneMapError, match="count"):
            pool.run_leased(lease, count=3)
        lease.release()
        with pytest.raises(ToneMapError, match="released"):
            pool.run_leased(lease)


class TestExternallyServedHost:
    """A pool routing to a host it does not own (the ``serve-host`` shape)."""

    def test_in_process_server_serves_a_pool(self, run_materialized):
        stack = _stack(seed=4)
        server = HostServer(ShardPool(PARAMS, shards=1, arena_slots=4))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HostPool([server.address]) as pool:
                got = run_materialized(pool, stack)
                np.testing.assert_array_equal(got, _want(stack))
                assert pool.host_addresses() == [server.address]
            # The serving endpoint counted the mirror-image traffic, and
            # its receive landed straight in a leased arena slot.
            assert server.net_stats.messages_received == 1
            assert server.net_stats.payload_bytes_received == stack.nbytes
            assert server.net_stats.bytes_staged == 0
            # The server thread releases its output lease after sending
            # the reply, so the client may read the counter first.
            assert _wait_for(
                lambda: server.pool.arena.stats.leases_active == 0
            )
        finally:
            server.close()
            thread.join(timeout=10)

    def test_spawn_local_validates_count(self):
        with pytest.raises(ToneMapError, match="hosts must be >= 1"):
            HostPool.spawn_local(0, PARAMS)


class TestSpawnLocal:
    """``spawn_local`` starts every host before it awaits any address."""

    def _record(self, monkeypatch, fail_second=False):
        events, processes = [], []
        start = hostpool_module._start_host
        address = hostpool_module._host_address

        def recording_start(context, spawn_kwargs):
            process, conn = start(context, spawn_kwargs)
            processes.append(process)
            events.append(("start", process.pid))
            return process, conn

        def recording_address(process, conn):
            events.append(("await", process.pid))
            if fail_second and len(events) == 4:
                raise ToneMapError("host did not report")
            return address(process, conn)

        monkeypatch.setattr(hostpool_module, "_start_host", recording_start)
        monkeypatch.setattr(
            hostpool_module, "_host_address", recording_address
        )
        return events, processes

    def test_hosts_start_before_the_first_address_is_awaited(
        self, monkeypatch, run_materialized
    ):
        events, processes = self._record(monkeypatch)
        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, arena_slots=2
        ) as pool:
            assert [kind for kind, _ in events] == [
                "start", "start", "await", "await",
            ]
            assert [pid for _, pid in events[2:]] == [
                process.pid for process in processes
            ]
            assert [host.process for host in pool._hosts] == processes
            stack = _stack(frames=2, seed=9)
            np.testing.assert_array_equal(
                run_materialized(pool, stack), _want(stack)
            )
        assert not any(process.is_alive() for process in processes)

    def test_a_host_that_fails_to_report_leaves_no_process(
        self, monkeypatch
    ):
        events, processes = self._record(monkeypatch, fail_second=True)
        with pytest.raises(ToneMapError, match="did not report"):
            HostPool.spawn_local(2, PARAMS, shards_per_host=1, arena_slots=2)
        assert len(processes) == 2 and len(events) == 4
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()


class _HookedCondition:
    """A condition that calls ``after`` each time a ``with`` block on it
    ends (the lock already released); everything else delegates."""

    def __init__(self, inner, after):
        self._inner = inner
        self._after = after

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, *exc):
        result = self._inner.__exit__(*exc)
        self._after()
        return result

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestHostStates:
    def test_loss_on_a_draining_host_counts_nothing(self):
        # A draining host is rolling_restart's to replace: a batch that
        # fails on it replays elsewhere, with no loss and no revival.
        server = HostServer(ShardPool(PARAMS, shards=1, arena_slots=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HostPool([server.address]) as pool:
                host = pool._hosts[0]
                with pool._state:
                    host.state = hostpool_module.DRAINING
                pool._mark_lost(host)
                assert host.state == hostpool_module.DRAINING
                assert pool.hosts_lost == 0 and not pool._revivers
                assert pool.active_shards == 0
        finally:
            server.close()
            thread.join(timeout=10)

    def test_loss_right_after_a_revival_starts_a_new_revival(
        self, monkeypatch, run_materialized
    ):
        # Regression: a batch thread that lost the host in the gap
        # between the revive thread making it live and that thread
        # finishing found a revival "still running", so no thread ever
        # revived it again — the healthy host stayed out of rotation.
        monkeypatch.setattr(hostpool_module, "REVIVE_WAIT_S", 2.0)
        stack = _stack(frames=2, seed=7)
        server = HostServer(ShardPool(PARAMS, shards=1, arena_slots=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HostPool([server.address]) as pool:
                host = pool._hosts[0]
                fired = []

                def after():
                    # Once, on the revive thread, as soon as a critical
                    # section left the host live again.
                    if fired or not threading.current_thread().name.startswith(
                        "repro-host-revive"
                    ):
                        return
                    fired.append(True)
                    if pool.active_shards == 1:
                        pool._mark_lost(host)
                    else:
                        fired.clear()

                pool._state = _HookedCondition(pool._state, after)
                pool._mark_lost(host)
                assert _wait_for(lambda: pool.active_shards == 1, 10.0)
                assert fired and pool.hosts_lost == 2
                assert not pool._revivers  # finished threads are dropped
                np.testing.assert_array_equal(
                    run_materialized(pool, stack), _want(stack)
                )
        finally:
            server.close()
            thread.join(timeout=10)


class TestFixedPointParams:
    def test_fixed_blur_bit_identical_across_every_hop(self, run_materialized):
        # params.blur_fn pickles as-is: into shard workers and into a
        # spawned host process (and its own workers) alike.
        params = replace(PARAMS, blur_fn=make_fixed_blur_fn())
        stack = _stack(seed=5)
        want = BatchToneMapper(params).run_stack(stack).astype(np.float32)
        assert not np.array_equal(want, _want(stack))  # really fixed point
        with ShardPool(params, shards=2) as shards:
            np.testing.assert_array_equal(
                run_materialized(shards, stack), want
            )
        with HostPool.spawn_local(
            1, params, shards_per_host=1, arena_slots=2
        ) as hosts:
            np.testing.assert_array_equal(
                run_materialized(hosts, stack), want
            )


class TestWireTimeoutValidation:
    """A RUN frame's ``timeout`` is checked before the host dispatches.

    Regression: a zero or negative budget armed the host's watchdog
    already past its deadline (each such frame cost two watchdog kills
    and two worker-set respawns before the host answered), and a NaN
    budget — which ``json.loads`` accepts — ran with no budget at all.
    """

    def _exchange(self, sock, stack, timeout):
        send_message(
            sock,
            MSG_RUN,
            {"shape": list(stack.shape), "dtype": "float32",
             "timeout": timeout},
            payload=stack,
        )
        return recv_message(sock)

    def test_bad_timeouts_get_an_error_with_workers_untouched(self):
        stack = _stack(frames=2, seed=6)
        server = HostServer(ShardPool(PARAMS, shards=1, arena_slots=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.address, timeout=60) as sock:
                for timeout in (0, -1, float("nan")):
                    msg_type, meta, _ = self._exchange(sock, stack, timeout)
                    assert msg_type == MSG_ERR
                    assert meta["error"] == "ToneMapError", meta
                msg_type, _, payload = self._exchange(sock, stack, 30.0)
                assert msg_type == MSG_OK
                got = np.frombuffer(payload, dtype=np.float32)
                np.testing.assert_array_equal(
                    got.reshape(stack.shape), _want(stack)
                )
            pool = server.pool
            assert pool.watchdog_kills == 0
            assert pool.worker_respawns == 0
            assert _wait_for(lambda: pool.arena.stats.leases_active == 0)
            # The client refuses the same budgets before sending a byte.
            with HostPool([server.address]) as client:
                lease = client.lease_input(stack.shape)
                lease.array[:] = stack
                with pytest.raises(ToneMapError, match="timeout"):
                    client.run_leased(lease, timeout=float("nan"))
                lease.release()
                assert client.net_stats.messages_sent == 0
        finally:
            server.close()
            thread.join(timeout=10)


class TestHostedService:
    def test_service_and_ingestor_over_two_hosts(self):
        stack = _stack(frames=8, seed=5)
        want = _want(stack)
        with ToneMapService(PARAMS, batch_size=4, hosts=2) as service:
            ingestor = ToneMapIngestor(service, max_delay_ms=5.0)
            futures = [
                ingestor.submit(HDRImage.adopt(stack[i], name=f"f{i}"))
                for i in range(len(stack))
            ]
            outputs = [f.result(timeout=120) for f in futures]
            ingestor.close()
            got = np.stack([o.pixels for o in outputs]).astype(np.float32)
            np.testing.assert_array_equal(got, want)
            assert service.stats.reliability.hosts_lost == 0


@pytest.mark.fault
class TestHostChaos:
    """Seeded network faults against a real 2-host fleet.

    Every scenario asserts the same contract the single-host chaos
    suite holds workers to, one level up: no frame is ever lost, every
    recovered batch is bit-identical, and the failure is visible in the
    honest counters (``hosts_lost``, ``worker_respawns``) rather than
    silently absorbed.
    """

    def _serve_batches(self, pool, batches):
        for index, stack in enumerate(batches):
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            out = pool.run_leased(lease, timeout=30.0)
            np.testing.assert_array_equal(
                np.asarray(out.array), _want(stack)
            )
            out.release()
            lease.release()

    def test_host_loss_is_replayed_and_respawned(self):
        batches = [_stack(seed=10 + i) for i in range(4)]
        plan = FaultPlan(host_loss_batches=(1,))
        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, faults=plan
        ) as pool:
            self._serve_batches(pool, batches)  # zero frames lost
            assert pool.hosts_lost >= 1
            # The SIGKILLed host comes back: the revive thread respawns
            # the process and the fleet returns to full strength.
            assert _wait_for(lambda: pool.active_shards == 2)
            assert pool.worker_respawns >= 1
            assert pool.faults.injected["host_loss"] == 1
            # The healed fleet still serves with zero staging bytes.
            assert pool.data_plane_stats.net.bytes_staged == 0

    def test_partition_fails_over_to_the_peer(self):
        batches = [_stack(seed=20 + i) for i in range(3)]
        plan = FaultPlan(partition_batches=(0,))
        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, faults=plan
        ) as pool:
            self._serve_batches(pool, batches)
            assert pool.hosts_lost >= 1
            # A partitioned (but healthy) host needs no respawn — the
            # revive thread reconnects and it rejoins the rotation.
            assert _wait_for(lambda: pool.active_shards == 2)

    def test_slow_link_jitters_without_losing_frames(self):
        batches = [_stack(seed=30 + i) for i in range(3)]
        plan = FaultPlan(slow_link_batches=(0, 1), jitter_ms=5.0)
        with HostPool.spawn_local(
            2, PARAMS, shards_per_host=1, faults=plan
        ) as pool:
            self._serve_batches(pool, batches)
            assert pool.hosts_lost == 0
            assert pool.faults.injected["slow_link"] == 2
            assert pool.data_plane_stats.frames == sum(
                len(stack) for stack in batches
            )

    def test_host_side_timeout_is_hedged_by_the_client(self):
        # The host's watchdog kills both of its attempts and it answers
        # ShardTimeoutError; the client spends its own hedge on the
        # batch (the only host again), whose third host attempt is clean.
        stack = _stack(seed=41)
        plan = FaultPlan(hang_batches=(0, 1), hang_ms=30_000.0)
        server = HostServer(
            ShardPool(PARAMS, shards=1, arena_slots=2, faults=plan)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HostPool([server.address]) as pool:
                lease = pool.lease_input(stack.shape)
                lease.array[:] = stack
                out = pool.run_leased(lease, timeout=1.0)
                np.testing.assert_array_equal(
                    np.asarray(out.array), _want(stack)
                )
                out.release()
                lease.release()
                assert pool.hedged_replays == 1
                assert pool.watchdog_kills == 0  # no local wire timeout
                assert pool.hosts_lost == 0
            assert server.pool.watchdog_kills >= 2
        finally:
            server.close()
            thread.join(timeout=10)

    def test_worker_faults_ship_to_the_hosts(self):
        # A worker-kind fault (in-worker SIGKILL) in the plan must
        # execute on the serving host's own pool — the client sees a
        # clean result, the failure shows in the *host's* replay
        # machinery, not the client's host-level counters.
        stack = _stack(seed=40)
        plan = FaultPlan(kill_batches=(0,))
        with HostPool.spawn_local(
            1, PARAMS, shards_per_host=2, faults=plan
        ) as pool:
            lease = pool.lease_input(stack.shape)
            lease.array[:] = stack
            out = pool.run_leased(lease, timeout=30.0)
            np.testing.assert_array_equal(
                np.asarray(out.array), _want(stack)
            )
            out.release()
            lease.release()
            assert pool.hosts_lost == 0
