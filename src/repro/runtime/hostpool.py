"""Multi-host data plane: serving hosts and the routing host pool.

:class:`~repro.runtime.shard.ShardPool` scales the paper's accelerator
model across the *cores* of one machine; this module scales it across
*machines*.  The analogy stays the same one the single-host stack was
built on — the batch hop to a worker is the CPU→FPGA AXI transfer — but
across hosts the hop is a real network transfer, so it goes through the
length-prefixed scatter-gather protocol in :mod:`repro.runtime.net`:
one kernel-mediated copy per direction, zero userspace staging, and
every fallback byte counted in ``DataPlaneStats.net.bytes_staged``.

Two classes:

* :class:`HostServer` — the serving side.  One per host process: it
  serves, and closes, the :class:`~repro.runtime.shard.ShardPool` it is
  handed (the host's workers), accepts client connections, and serves
  ``MSG_RUN`` frames.  Incoming payloads land **directly in an arena
  input slot** (the receive sink leases the slot before the payload
  bytes are read), the batch runs
  through ``run_leased``, and the result slab is sent back by
  reference — the wire hop adds zero staging copies on the host.
  ``repro-tonemap serve-host`` wraps it for the command line.
* :class:`HostPool` — the routing client, the socket transport of
  :class:`~repro.runtime.backend.Backend`: the same surface and attempt
  policy as ``ShardPool``, so
  :class:`~repro.runtime.service.ToneMapService` and the ingestor run
  unchanged on top of it (``ToneMapService(hosts=2)``).  Batches
  round-robin across live hosts; each host serializes its in-flight
  request on one connection, so concurrency comes from the service's
  thread pool spreading batches over hosts.

**Host failure lifecycle.**  Each host is in one state, guarded by the
pool's ``_state`` condition: ``live`` (routed to), ``lost`` or
``draining``.  A connection failure (refused, reset, truncated frame,
injected partition) moves a live host to **lost** (``hosts_lost``)
and the batch replays on another live host; a socket *timeout* is a
budget signal, not a loss — the connection is severed and the batch is
hedged elsewhere.  Entering ``lost`` starts the host's one revive
thread, which reconnects it and health-checks it (``MSG_PING``); a
pool-owned host whose process died is **respawned** first
(``worker_respawns`` counts these), a merely partitioned host heals by
reconnection alone.  Moving the host back to ``live`` is that thread's
last act.  :meth:`HostPool.rolling_restart` alone moves a host to
``draining`` and back.  When no host is live for
:data:`REVIVE_WAIT_S`, :class:`~repro.errors.HostUnavailableError`
surfaces.  It subclasses ``ShardCrashError``, so a service breaker
browns the batch out to the in-process mapper exactly as it does for a
single-host pool failure — callers see latency, not errors.

**Fault injection.**  The pool consumes the *network* kinds of a
:class:`~repro.runtime.faults.FaultPlan` client-side, in each attempt:
``slow_link`` sleeps seeded jitter before the send, ``host_loss``
SIGKILLs the picked host's process group (the exchange then finds the
link torn), and ``partition`` — like ``host_loss`` on a host the pool
did not spawn — loses the picked host before the send and replays the
batch.  Worker kinds (``kill`` / ``hang`` / ``exhaust`` / ``slow``)
are executed by each host's *own* pool — spawned hosts receive the
plan spec, so one chaos plan exercises both tiers (each endpoint
consumes its own attempt stream, so worker-kind indices are
host-local).
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import signal
import socket
import sys
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    HostUnavailableError,
    ImageError,
    ToneMapError,
    WireProtocolError,
)
from repro.runtime.arena import ArenaLease
from repro.runtime.backend import Backend, Hedge, OutputSlot, Replay
from repro.runtime.clock import MONOTONIC, Clock
from repro.runtime.faults import resolve_injector
from repro.runtime.net import (
    MSG_ERR,
    MSG_OK,
    MSG_PING,
    MSG_PONG,
    MSG_RUN,
    NetCounters,
    NetStats,
    recv_message,
    send_message,
)
from repro.runtime.shard import ShardPool
from repro.tonemap.pipeline import ToneMapParams

#: An address is ``(host, port)``; string form ``"host:port"`` accepted.
HostAddress = Tuple[str, int]

#: Wire dtypes a RUN frame may carry; a closed set so a corrupt frame
#: cannot make ``np.dtype`` evaluate arbitrary type strings.
_WIRE_DTYPES = frozenset(("float32",))

#: TCP connect budget per attempt.
CONNECT_TIMEOUT_S = 10.0

#: How long a batch that finds *no* live host waits for a background
#: revival before :class:`~repro.errors.HostUnavailableError` — the
#: host-level analogue of ``ShardPool`` blocking on its synchronous
#: respawn.
REVIVE_WAIT_S = 30.0

#: Real-time interval at which clock-deadline waits re-read the
#: injected clock, so a ``FakeClock`` advanced by a test is noticed
#: promptly (a budgeted shard attempt polls the same way).
_POLL_S = 0.05

#: The states of a host (see the module docstring).  Only
#: ``HostPool._mark_lost`` enters ``LOST`` and only that host's revive
#: thread leaves it; only ``rolling_restart`` enters and leaves
#: ``DRAINING``.
LIVE, LOST, DRAINING = "live", "lost", "draining"


def parse_address(value: Union[str, Tuple[str, int]]) -> HostAddress:
    """Normalize ``"host:port"`` / ``(host, port)`` to a tuple."""
    if isinstance(value, tuple):
        host, port = value
        return str(host), int(port)
    if isinstance(value, str):
        host, sep, port = value.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ToneMapError(
                f"host address must look like 'host:port', got {value!r}"
            )
        return host, int(port)
    raise ToneMapError(
        f"host address must be 'host:port' or (host, port), got "
        f"{type(value)!r}"
    )


# ----------------------------------------------------------------------
# Serving side
# ----------------------------------------------------------------------
class HostServer:
    """Serve tone-map batches over the wire protocol from one host.

    Serves ``pool`` (a :class:`~repro.runtime.shard.ShardPool`, which
    the server then owns and closes) on a listening TCP socket; each
    accepted connection gets a serving thread that loops frames until
    the client hangs up.  Incoming ``MSG_RUN`` payloads are received
    straight into a leased arena input slot (zero staging copies), run
    through the pool, and answered with ``MSG_OK`` carrying the output
    slab by reference — or ``MSG_ERR`` carrying the failure class and
    message, which the client re-raises on its side.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  Use :meth:`serve_forever` on a dedicated (main)
    thread and :meth:`close` to stop — or run it via the
    ``repro-tonemap serve-host`` CLI.
    """

    def __init__(
        self,
        pool: ShardPool,
        bind: str = "127.0.0.1",
        port: int = 0,
        clock: Clock = MONOTONIC,
    ):
        self._pool = pool
        self._clock = clock
        self._net = NetCounters()
        self._closed = False
        self._conn_lock = threading.Lock()
        # Open connections and the thread serving each; a thread drops
        # its entry when its client goes.
        self._conns: Dict[socket.socket, threading.Thread] = {}
        # In-flight RUN requests; drain() waits for this to hit zero so
        # a SIGTERM never swallows a reply the client is owed.
        self._run_state = threading.Condition()
        self._active_runs = 0
        try:
            self._listener = socket.create_server((bind, port))
        except OSError:
            self._pool.close()
            raise
        # Short accept timeout so serve_forever notices close() (and a
        # SIGTERM-raised SystemExit) promptly without busy-waiting.
        self._listener.settimeout(0.2)
        self.address: HostAddress = self._listener.getsockname()[:2]

    @property
    def pool(self) -> ShardPool:
        """The host's worker pool (for tests and introspection)."""
        return self._pool

    @property
    def net_stats(self) -> NetStats:
        """Wire counters of this serving endpoint."""
        return self._net.stats

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`close`."""
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                if self._closed:
                    conn.close()
                    break
                thread = self._conns[conn] = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-host-conn",
                    daemon=True,
                )
                thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one client until clean close or a wire error."""
        try:
            while not self._closed:
                holder: dict = {}
                try:
                    frame = recv_message(
                        conn, sink=self._make_sink(holder), counters=self._net
                    )
                except (WireProtocolError, OSError):
                    self._release(holder)
                    return
                if frame is None:
                    self._release(holder)
                    return  # client hung up between frames
                msg_type, meta, _payload = frame
                try:
                    if msg_type == MSG_PING:
                        send_message(conn, MSG_PONG, {}, counters=self._net)
                    elif msg_type == MSG_RUN:
                        self._serve_run(conn, meta, holder)
                    else:
                        send_message(
                            conn,
                            MSG_ERR,
                            {
                                "error": "WireProtocolError",
                                "message": f"host cannot serve message "
                                f"type {msg_type}",
                            },
                            counters=self._net,
                        )
                except (WireProtocolError, OSError):
                    return  # reply failed: connection is gone
                finally:
                    self._release(holder)
        finally:
            with self._conn_lock:
                self._conns.pop(conn, None)
            try:
                conn.close()
            except OSError:
                pass

    def _make_sink(self, holder: dict):
        """A receive sink that leases an arena input slot for RUN payloads.

        The lease happens *before* the payload bytes are read, so the
        kernel copies them straight into shared memory — the slot the
        pool's workers will read.  Non-RUN payloads (there are none in
        the protocol today) fall back to staged buffers, counted.
        """

        def sink(msg_type: int, meta: dict):
            if msg_type != MSG_RUN:
                return None
            shape, dtype = self._run_geometry(meta)
            lease = self._pool.lease_input(shape, dtype)
            holder["lease"] = lease
            return lease.array

        return sink

    @staticmethod
    def _run_geometry(meta: dict) -> Tuple[tuple, np.dtype]:
        """Validate a RUN frame's shape/dtype before any allocation."""
        shape = meta.get("shape")
        if (
            not isinstance(shape, list)
            or not 3 <= len(shape) <= 4
            or not all(isinstance(s, int) and s > 0 for s in shape)
        ):
            raise WireProtocolError(
                f"RUN frame shape must be a list of 3-4 positive ints, "
                f"got {shape!r}"
            )
        dtype = meta.get("dtype", "float32")
        if dtype not in _WIRE_DTYPES:
            raise WireProtocolError(
                f"RUN frame dtype must be one of {sorted(_WIRE_DTYPES)}, "
                f"got {dtype!r}"
            )
        return tuple(shape), np.dtype(dtype)

    def _serve_run(self, conn: socket.socket, meta: dict, holder: dict) -> None:
        """Execute one received batch and send the reply frame."""
        in_lease: ArenaLease = holder["lease"]
        timeout = meta.get("timeout")
        with self._run_state:
            self._active_runs += 1
        try:
            try:
                # run_leased validates the wire budget before it
                # dispatches: a zero, negative or NaN timeout is refused
                # with the host's workers untouched.
                out_lease = self._pool.run_leased(
                    in_lease,
                    timeout=None if timeout is None else float(timeout),
                )
            except Exception as exc:  # noqa: BLE001 - becomes a typed reply
                send_message(
                    conn,
                    MSG_ERR,
                    {"error": type(exc).__name__, "message": str(exc)},
                    counters=self._net,
                )
                return
            try:
                send_message(
                    conn,
                    MSG_OK,
                    {
                        "shape": list(out_lease.array.shape),
                        "dtype": "float32",
                    },
                    payload=out_lease.array,
                    counters=self._net,
                )
            finally:
                out_lease.release()
        finally:
            with self._run_state:
                self._active_runs -= 1
                self._run_state.notify_all()

    @staticmethod
    def _release(holder: dict) -> None:
        lease = holder.pop("lease", None)
        if lease is not None:
            lease.release()

    def drain(self, timeout_s: float = 30.0) -> None:
        """Graceful stop: refuse new connections, answer in-flight
        requests, then :meth:`close`.

        The difference from a bare :meth:`close`: the listener goes
        down first (new clients are refused), but a RUN request already
        executing gets to send its reply before the connection is torn
        — so a host stopped this way (the ``serve-host`` SIGTERM /
        SIGINT handlers call it) loses zero frames.  ``timeout_s``
        bounds the wait so a hung worker cannot hold shutdown hostage;
        :meth:`close` (which this ends in) still releases the pool's
        ``/dev/shm`` arena segments either way.
        """
        try:
            self._listener.close()
        except OSError:
            pass
        deadline = self._clock.now() + timeout_s
        with self._run_state:
            while self._active_runs > 0 and self._clock.now() < deadline:
                self._run_state.wait(timeout=_POLL_S)
        self.close()

    def close(self) -> None:
        """Stop accepting, drop live connections, shut the pool down."""
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread in conns.values():
            thread.join(timeout=5.0)
        self._pool.close()

    def __enter__(self) -> "HostServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _host_main(pipe, kwargs: dict) -> None:
    """Entry point of a spawned host process.

    Builds the server around a ``ShardPool(**kwargs)``, reports the
    bound address back through ``pipe``, and serves until SIGTERM
    (mapped to a clean ``SystemExit`` so the ``finally`` joins the
    host's worker processes — a host that dies *un*gracefully is what
    ``os.killpg`` on our own process group is for, see
    :func:`_kill_group`).
    """
    # Own process group: the host's ShardPool workers join it, so a
    # chaos SIGKILL of the group takes the whole host down at once
    # instead of orphaning workers.
    try:
        os.setpgrp()
    except OSError:  # pragma: no cover - already a group leader
        pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    server = HostServer(ShardPool(**kwargs))
    try:
        pipe.send(server.address)
        pipe.close()
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        # Drain, not close: a SIGTERM mid-batch still answers the
        # client before the pool (and its shm segments) go away.
        server.drain()


# ----------------------------------------------------------------------
# Routing side
# ----------------------------------------------------------------------
class _Host:
    """Client-side record of one serving host."""

    __slots__ = ("index", "address", "process", "sock", "lock", "state")

    def __init__(self, index: int, address: HostAddress):
        self.index = index
        self.address = address
        self.process = None  # mp.Process for pool-owned hosts
        self.sock: Optional[socket.socket] = None
        self.lock = threading.Lock()  # serializes this host's wire I/O
        self.state = LIVE  # guarded by the pool's _state condition

    @property
    def label(self) -> str:
        return f"host[{self.index}]@{self.address[0]}:{self.address[1]}"


class HostPool(Backend):
    """Route batches across N shard hosts; the socket transport.

    Construct with a list of addresses of already-running
    :class:`HostServer` processes (``["10.0.0.1:7070", ...]``), or let
    :meth:`spawn_local` start ``count`` localhost host processes and
    own their lifecycle — ``ToneMapService(hosts=2)`` does the latter.

    The pool owns a client-side :class:`~repro.runtime.arena.ShmArena`:
    producers write frames into leased input stacks exactly as with a
    ``ShardPool``, the send hands the slot to the kernel by reference,
    and replies land in freshly leased output slabs via the receive
    sink — so ``data_plane_stats.copies_per_frame`` stays **0.0** on
    the leased path even though every batch crossed a socket twice.
    See the module docstring for the host failure lifecycle.

    Parameters
    ----------
    hosts:
        Host addresses (``"host:port"`` strings or tuples).
    arena_slots:
        Ring/pool depth per size class of the client arena.
    default_timeout_ms:
        Per-attempt execution budget forwarded to the serving host
        (where *its* pool's attempts enforce it) when ``run_leased``
        gets no explicit ``timeout``.
    faults:
        Chaos plan/spec/injector; the pool consumes the network kinds
        (``partition`` / ``slow_link`` / ``host_loss``) client-side.
    clock:
        Injectable time source shared with the reliability machinery.
    """

    def __init__(
        self,
        hosts: Sequence[Union[str, Tuple[str, int]]],
        arena_slots: int = 4,
        default_timeout_ms: Optional[float] = None,
        faults=None,
        clock: Clock = MONOTONIC,
    ):
        addresses = [parse_address(value) for value in hosts]
        if not addresses:
            raise ToneMapError("HostPool needs at least one host")
        super().__init__(arena_slots, default_timeout_ms, faults, clock)
        self._hosts = [
            _Host(index, address) for index, address in enumerate(addresses)
        ]
        self._net = NetCounters()
        # Starts one host process and returns (address, process); set by
        # spawn_local, whose pool owns its hosts' processes.
        self._spawn = None
        # Host states live under the backend's _state: revivals notify
        # waiters in _pick_host that a host came back.  The set holds
        # the revive threads still running.
        self._revivers: set = set()
        self._hosts_drained = 0
        self._hosts_lost = 0
        self._rr = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def spawn_local(
        cls,
        count: int,
        params: Optional[ToneMapParams] = None,
        plan=None,
        shards_per_host: int = 2,
        arena_slots: int = 4,
        default_timeout_ms: Optional[float] = None,
        faults=None,
        clock: Clock = MONOTONIC,
    ) -> "HostPool":
        """Start ``count`` localhost host processes and route over them.

        Each host process binds an ephemeral port, reports it back over
        a pipe, and runs ``shards_per_host`` workers built from
        ``(params, plan)``, both pickled to the host.  Every process
        starts before the first address is awaited, so the hosts start
        up side by side; if one fails to report, every host already
        started is terminated.  The pool owns the processes: a host that
        dies is respawned with the same recipe, and :meth:`close`
        terminates them all.  The fault plan's spec (if any) ships to
        every host so worker-kind faults inject there while the pool
        injects the network kinds here.
        """
        if count < 1:
            raise ToneMapError(f"hosts must be >= 1, got {count}")
        injector = resolve_injector(faults)
        context = (
            mp.get_context("forkserver")
            if "forkserver" in mp.get_all_start_methods()
            else mp.get_context("spawn")
        )
        spawn_kwargs = {
            "params": params,
            "shards": shards_per_host,
            "plan": plan,
            "arena_slots": arena_slots,
            "default_timeout_ms": default_timeout_ms,
            "faults": (
                injector.plan.to_spec() if injector is not None else None
            ),
        }
        started: List = []
        try:
            for _ in range(count):
                started.append(_start_host(context, spawn_kwargs))
            addresses = [_host_address(*host) for host in started]
            pool = cls(
                addresses,
                arena_slots=arena_slots,
                default_timeout_ms=default_timeout_ms,
                faults=injector,
                clock=clock,
            )
        except BaseException:
            for process, conn in started:
                conn.close()
                _terminate_host(process)
            raise
        pool._spawn = functools.partial(_spawn_host, context, spawn_kwargs)
        for host, (process, _) in zip(pool._hosts, started):
            host.process = process
        return pool

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_shards(self) -> int:
        """Live hosts a batch can currently route to."""
        with self._state:
            return sum(1 for host in self._hosts if host.state == LIVE)

    @property
    def hosts_lost(self) -> int:
        """Hosts declared lost (connection lost, partitioned, killed)."""
        with self._count_lock:
            return self._hosts_lost

    @property
    def net_stats(self) -> NetStats:
        """Wire counters of the client endpoint."""
        return self._net.stats

    def host_addresses(self) -> List[HostAddress]:
        """Current addresses, respawn-fresh (for tooling and tests)."""
        with self._state:
            return [host.address for host in self._hosts]

    # ------------------------------------------------------------------
    # The transport
    # ------------------------------------------------------------------
    def _attempt(
        self,
        in_lease: ArenaLease,
        out: OutputSlot,
        timeout: Optional[float],
        index: int,
        kinds: frozenset,
        avoid: object,
    ) -> ArenaLease:
        """One request-response exchange, preferring a host other than
        the one the previous attempt failed on."""
        if "slow_link" in kinds:
            self._clock.sleep(
                self.faults.plan.jitter_s(index, kind="slow_link")
            )
        host = self._pick_host(avoid)
        if "host_loss" in kinds and host.process is not None:
            _kill_group(host.process)  # the exchange finds the link torn
        try:
            if "partition" in kinds or (
                "host_loss" in kinds and host.process is None
            ):
                # An injected partition, or a host this pool cannot
                # kill: the link drops before the send.
                raise WireProtocolError(
                    f"injected fault cut the link to {host.label}"
                )
            return self._dispatch(
                host, in_lease.array[: out.shape[0]], out, timeout
            )
        except TimeoutError as exc:
            # Local wire timeout: the reply never came.  Sever the (now
            # mid-frame) connection; the host may still be alive and is
            # reconnected on its next dispatch.
            self._sever(host)
            with self._count_lock:
                self._watchdog_kills += 1
            raise Hedge(
                f"timed out on the wire to {host.label}", where=host
            ) from exc
        except (WireProtocolError, OSError) as exc:
            # The connection (or the host behind it) died.  Mark it
            # lost — its revive thread heals it in the background.
            self._mark_lost(host)
            raise Replay(
                f"lost {host.label} (hosts lost so far: {self.hosts_lost})",
                where=host,
            ) from exc

    def _pick_host(self, avoid: object) -> _Host:
        """Round-robin over live hosts, preferring not to reuse ``avoid``.

        When *no* host is live the batch does not fail immediately: a
        revive thread is already working in the background, so this
        blocks up to :data:`REVIVE_WAIT_S` for one to come back.  Only
        then does :class:`~repro.errors.HostUnavailableError` surface
        (and the service breaker browns out).
        """
        deadline = self._clock.now() + REVIVE_WAIT_S
        with self._state:
            while True:
                live = [host for host in self._hosts if host.state == LIVE]
                if live:
                    preferred = (
                        [host for host in live if host is not avoid] or live
                    )
                    host = preferred[self._rr % len(preferred)]
                    self._rr += 1
                    return host
                if self._closed or self._clock.now() >= deadline:
                    raise HostUnavailableError(
                        f"all {len(self._hosts)} shard hosts are dead or "
                        "partitioned away — no host left to serve the "
                        f"batch (waited {REVIVE_WAIT_S:.0f} s for a "
                        "revival)"
                    )
                self._state.wait(timeout=_POLL_S)

    @staticmethod
    def _wire_timeout(timeout: Optional[float]) -> Optional[float]:
        """Socket budget for one request-response exchange.

        Deliberately looser than the host-side execution budget: the
        host pool's own attempts kill a hang at that budget and hedge
        it (answering with a typed ``ShardTimeoutError`` once the hedge
        is spent), so the wire budget only has to catch a host that
        stopped answering at all.
        """
        if timeout is None:
            return None
        return timeout * 3.0 + 5.0

    @staticmethod
    def _connect(host: _Host) -> socket.socket:
        sock = socket.create_connection(
            host.address, timeout=CONNECT_TIMEOUT_S
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _dispatch(
        self,
        host: _Host,
        payload: np.ndarray,
        out: OutputSlot,
        timeout: Optional[float],
    ) -> ArenaLease:
        """One request-response exchange with one host.

        Holds the host's wire lock for the duration (one in-flight
        batch per host; concurrency comes from routing across hosts).
        The request payload goes out by reference; the reply payload
        lands in the output slab the receive sink takes from ``out``
        once the reply header proved its shape.  Any failure severs the
        connection; the backend releases a half-filled slab.
        """

        def sink(msg_type: int, meta: dict):
            if msg_type != MSG_OK:
                return None  # ERR frames carry no payload
            got = tuple(
                int(s) for s in meta.get("shape", ())
                if isinstance(s, int)
            )
            if got != out.shape:
                raise WireProtocolError(
                    f"host replied with shape {got}, expected {out.shape}"
                )
            return out.take().array

        with host.lock:
            try:
                if host.sock is None:
                    host.sock = self._connect(host)
                sock = host.sock
                sock.settimeout(self._wire_timeout(timeout))
                send_message(
                    sock,
                    MSG_RUN,
                    {
                        "shape": list(out.shape),
                        "dtype": "float32",
                        "timeout": timeout,
                    },
                    payload=payload,
                    counters=self._net,
                )
                frame = recv_message(sock, sink=sink, counters=self._net)
            except BaseException:
                self._close_sock(host)
                raise
            if frame is None:
                self._close_sock(host)
                raise WireProtocolError(
                    f"{host.label} closed the connection mid-request"
                )
        msg_type, meta, _payload = frame
        if msg_type == MSG_OK:
            return out.lease
        if msg_type == MSG_ERR:
            raise self._remote_error(host, meta)
        raise WireProtocolError(
            f"{host.label} answered a RUN with message type {msg_type}"
        )

    @staticmethod
    def _remote_error(host: _Host, meta: dict) -> Exception:
        """Map a MSG_ERR frame to an attempt verdict or a typed error.

        A host that answers at all is alive: its own attempt budget and
        hedge giving up is a hedge here, its own pool crashing past its
        replay a replay — both on another host when one is live.  An
        untrusted ``blur_fn``'s bad outputs stay an :class:`ImageError`,
        as on every other backend.
        """
        name = meta.get("error", "ToneMapError")
        message = f"{host.label}: {meta.get('message', 'unknown failure')}"
        if name == "ShardTimeoutError":
            return Hedge(f"timed out on {message}", where=host)
        if name in ("ShardCrashError", "HostUnavailableError"):
            return Replay(f"crashed on {message}", where=host)
        if name == "ImageError":
            return ImageError(message)
        return ToneMapError(f"{message} ({name})")

    @staticmethod
    def _close_sock(host: _Host) -> None:
        # caller holds host.lock
        if host.sock is not None:
            try:
                host.sock.close()
            except OSError:
                pass
            host.sock = None

    def _sever(self, host: _Host) -> None:
        """Drop a host's connection without declaring the host lost."""
        with host.lock:
            self._close_sock(host)

    # ------------------------------------------------------------------
    # Failure handling / revival
    # ------------------------------------------------------------------
    def _mark_lost(self, host: _Host) -> None:
        """Move a live host to ``lost`` and start its one revive thread.

        A host that is already lost has its revive thread; a draining
        one is ``rolling_restart``'s to replace — neither counts a loss.
        """
        self._sever(host)
        with self._state:
            if host.state != LIVE or self._closed:
                return
            host.state = LOST
            thread = threading.Thread(
                target=self._revive,
                args=(host,),
                name=f"repro-host-revive-{host.index}",
                daemon=True,
            )
            self._revivers.add(thread)
            # Started under the lock: _shutdown never joins a thread
            # that has not started.
            thread.start()
        with self._count_lock:
            self._hosts_lost += 1

    def _revive(self, host: _Host) -> None:
        """Bring a lost host back: respawn its process, then reconnect.

        Runs on a background thread so in-flight batches replay on the
        surviving hosts immediately.  A pool-owned host whose process
        died is restarted with the original recipe (counted in
        ``worker_respawns``); a partitioned host just needs a working
        connection + PING again.  Retries with capped backoff until it
        succeeds or the pool closes.  Moving the host back to ``live``
        is the thread's last act, so a loss reported after it starts a
        new revival.
        """
        backoff = 0.05
        revived = False
        try:
            while not revived and not self._closed:
                try:
                    if (
                        host.process is not None
                        and not host.process.is_alive()
                    ):
                        if not self._replace_process(host):
                            break  # the pool closed
                        with self._count_lock:
                            self._respawns += 1
                    self._ping(host)
                    revived = True
                except (WireProtocolError, OSError, ToneMapError):
                    self._clock.sleep(backoff)
                    backoff = min(backoff * 2.0, 1.0)
        finally:
            with self._state:
                if revived:
                    host.state = LIVE
                self._revivers.discard(threading.current_thread())
                self._state.notify_all()

    def _ping(self, host: _Host) -> None:
        """Health-check ``host`` on a new connection; raise if it fails.

        The next dispatch opens its own connection, to the address the
        host has then.
        """
        with self._connect(host) as sock:
            sock.settimeout(5.0)
            send_message(sock, MSG_PING, {}, counters=self._net)
            frame = recv_message(sock, counters=self._net)
        if frame is None or frame[0] != MSG_PONG:
            raise WireProtocolError(f"{host.label} failed its health check")

    def _replace_process(self, host: _Host) -> bool:
        """Terminate a pool-owned host's process, spawn its successor
        with the same recipe and install the successor's address.

        Returns False, with no process left behind, when the pool closed
        during the spawn.
        """
        _terminate_host(host.process)
        address, process = self._spawn()
        with self._state:
            if self._closed:
                _terminate_host(process)
                return False
            host.address = address
            host.process = process
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def hosts_drained(self) -> int:
        """Hosts cycled through a graceful drain by ``rolling_restart``."""
        with self._count_lock:
            return self._hosts_drained

    def rolling_restart(self) -> int:
        """Restart every owned host process, one at a time, zero-loss.

        For each host in turn: take it out of the routing set
        (``draining``), then — holding ``host.lock`` so any exchange
        currently on its wire finishes first — terminate the process,
        spawn a replacement with the same recipe, and install the new
        address.  Peers absorb the traffic meanwhile: ``_pick_host``
        routes only to live hosts, and a batch that raced onto this host
        just before it left the set either completes on the old
        process (the swap waits for the lock) or reconnects to the new
        address (``_connect`` reads ``host.address`` under the lock).
        A batch that fails on a draining host replays elsewhere without
        counting a loss.  Either way no admitted frame is lost — the
        chaos benchmark ``test_rolling_restart_small`` gates
        ``frames_lost == 0``.

        Returns the number of hosts restarted.  Raises
        :class:`~repro.errors.ToneMapError` when the pool does not own
        its host processes (external hosts restart externally).
        """
        if self._spawn is None:
            raise ToneMapError(
                "rolling_restart needs a pool that owns its host "
                "processes (HostPool.spawn_local / ToneMapService(hosts=N))"
            )
        restarted = 0
        for host in self._hosts:
            with self._state:
                # A lost host is already being replaced; wait briefly
                # for its reviver, then skip it if it is still lost.
                deadline = self._clock.now() + REVIVE_WAIT_S
                while (
                    host.state == LOST
                    and not self._closed
                    and self._clock.now() < deadline
                ):
                    self._state.wait(timeout=_POLL_S)
                if self._closed:
                    break
                if host.state == LOST:
                    continue
                host.state = DRAINING
            try:
                with host.lock:
                    self._close_sock(host)
                    if not self._replace_process(host):
                        break
                restarted += 1
                with self._count_lock:
                    self._hosts_drained += 1
            finally:
                with self._state:
                    host.state = LIVE
                    self._state.notify_all()
        return restarted

    def _shutdown(self) -> None:
        """Join the revivers, drop connections, stop owned host processes.

        Revive threads are joined first: one mid-respawn could
        otherwise hand a *fresh* (non-daemon) host process to a record
        this pass already terminated, leaving an orphan that blocks
        interpreter exit.
        """
        with self._state:
            revivers = list(self._revivers)
        for thread in revivers:
            # Generous: a thread can be inside a respawn, which waits
            # up to 120 s for the new host to report its address.
            thread.join(timeout=150.0)
        for host in self._hosts:
            with host.lock:
                self._close_sock(host)
        for host in self._hosts:
            if host.process is not None:
                _terminate_host(host.process)


# ----------------------------------------------------------------------
# Spawn plumbing
# ----------------------------------------------------------------------
def _start_host(context, spawn_kwargs: dict) -> Tuple[object, object]:
    """Start one host process; returns it and the pipe end its address
    arrives on (:func:`_host_address`)."""
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_host_main,
        args=(child_conn, spawn_kwargs),
        name="repro-host",
        daemon=False,  # hosts own worker processes of their own
    )
    process.start()
    child_conn.close()
    return process, parent_conn


def _host_address(process, parent_conn) -> HostAddress:
    """Wait for a started host to report its address; a host that does
    not report is terminated."""
    try:
        if not parent_conn.poll(timeout=120.0):
            raise ToneMapError(
                "shard host process failed to report its address within "
                "120 s of starting"
            )
        address = parent_conn.recv()
    except (EOFError, OSError) as exc:
        _terminate_host(process)
        raise ToneMapError(
            "shard host process died before reporting its address"
        ) from exc
    except BaseException:
        _terminate_host(process)
        raise
    finally:
        parent_conn.close()
    return str(address[0]), int(address[1])


def _spawn_host(context, spawn_kwargs: dict) -> Tuple[HostAddress, object]:
    """Start one host process; returns its reported address."""
    process, parent_conn = _start_host(context, spawn_kwargs)
    return _host_address(process, parent_conn), process


def _kill_group(process) -> None:
    """SIGKILL a live host process's group: the host and its workers."""
    if not process.is_alive():
        return
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except OSError:
        try:
            os.kill(process.pid, signal.SIGKILL)
        except OSError:
            pass
    process.join(timeout=10.0)


def _terminate_host(process) -> None:
    """Stop one host process: SIGTERM (graceful), then SIGKILL the group."""
    if process is None:
        return
    try:
        if process.is_alive():
            process.terminate()  # SIGTERM → clean SystemExit in the host
            process.join(timeout=10.0)
        _kill_group(process)  # a host stuck past its SIGTERM
    except (ValueError, OSError):  # pragma: no cover - already reaped
        pass
