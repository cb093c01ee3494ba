"""Length-prefixed zero-copy wire protocol for the multi-host data plane.

The single-host stack moves batches between processes as *pointers*
(segment name + slab bounds into a shared :class:`~repro.runtime.arena.
ShmArena`).  Across hosts there is no shared memory — the batch must
cross a socket, which is this repo's model of the paper's CPU→FPGA AXI
transfer: the hop exists, so the only honest goal is to make it cost
exactly one kernel-mediated transfer per direction and **zero userspace
staging copies** on either side.

The protocol keeps that discipline with scatter-gather I/O:

* **Send** — ``socket.sendmsg([prelude, metadata, payload])`` writes the
  frame in one call straight *from* the arena slot's buffer.  No
  concatenation, no intermediate ``bytes``: the payload ``memoryview``
  is handed to the kernel as-is.
* **Receive** — the fixed prelude and the metadata are read into small
  reusable buffers, then the payload is read with
  ``socket.recv_into`` directly *into* a buffer the caller supplies
  (an arena slot on both the serving host and the client).  A caller
  that cannot supply a sink gets a fresh ``bytearray`` — and that
  fallback is **counted** in :class:`NetStats.bytes_staged`, the same
  honesty contract as :class:`~repro.runtime.arena.ArenaStats`.

Frame layout (big-endian)::

    offset  size  field
    0       4     magic  b"RTMP"
    4       1     protocol version (1)
    5       1     message type (MSG_*)
    6       2     reserved (0)
    8       4     metadata length  M  (u32, JSON bytes)
    12      8     payload length   P  (u64, raw array bytes)
    20      M     metadata: a JSON object (shape, dtype, count, ...)
    20+M    P     payload: C-contiguous array bytes

Every frame is self-delimiting, so a connection carries any number of
frames back to back and a partially-delivered frame is always
detectable (:class:`~repro.errors.WireProtocolError` on short reads —
the host pool treats that as a dead host and replays elsewhere).

This module is pure protocol: it knows sockets and buffers, never
pools or mappers.  The serving endpoint and the routing client live in
:mod:`repro.runtime.hostpool`.
"""

from __future__ import annotations

import json
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import WireProtocolError

#: Frame magic — rejects peers that are not speaking this protocol.
MAGIC = b"RTMP"

#: Protocol version; bumped on any incompatible layout change.
VERSION = 1

#: Message types.
MSG_RUN = 1   #: client → host: tone-map the payload stack
MSG_OK = 2    #: host → client: the tone-mapped result stack
MSG_ERR = 3   #: host → client: execution failed (metadata carries why)
MSG_PING = 4  #: client → host: health probe
MSG_PONG = 5  #: host → client: health probe reply

_MSG_TYPES = frozenset((MSG_RUN, MSG_OK, MSG_ERR, MSG_PING, MSG_PONG))

_PRELUDE = struct.Struct(">4sBBHIQ")

#: Fixed prelude size in bytes (20).
PRELUDE_BYTES = _PRELUDE.size

#: Metadata is a small JSON object; anything bigger is a corrupt frame.
MAX_META_BYTES = 1 << 20

#: Payload ceiling — far above any real batch, well below a u64 that
#: would make a corrupted length field allocate the host to death.
MAX_PAYLOAD_BYTES = 1 << 34


@dataclass(frozen=True)
class NetStats:
    """Counters of one wire endpoint (a consistent snapshot).

    Attributes
    ----------
    messages_sent / messages_received:
        Whole frames moved, all message types.
    bytes_sent / bytes_received:
        Total wire traffic including preludes and metadata.
    payload_bytes_sent / payload_bytes_received:
        Array payload bytes only — the batch traffic the copies-per-hop
        table in ``docs/architecture.md`` accounts for.
    bytes_staged:
        Userspace staging copies on this endpoint: payload bytes that
        landed in (or left from) a temporary buffer instead of moving
        arena-slot ↔ socket directly.  The zero-copy framing keeps this
        **0**; any fallback path is counted here, never hidden — the
        same honesty contract as
        :class:`~repro.runtime.arena.ArenaStats`.
    """

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    bytes_staged: int = 0


class NetCounters:
    """Thread-safe mutable accumulator behind :class:`NetStats`.

    One instance per endpoint (client connection set or serving host);
    the frame functions take it as an optional ``counters`` argument so
    the protocol layer stays usable without any bookkeeping.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(NetStats.__dataclass_fields__, 0)

    def _bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def count_sent(self, wire_bytes: int, payload_bytes: int) -> None:
        self._bump(
            messages_sent=1,
            bytes_sent=wire_bytes,
            payload_bytes_sent=payload_bytes,
        )

    def count_received(self, wire_bytes: int, payload_bytes: int) -> None:
        self._bump(
            messages_received=1,
            bytes_received=wire_bytes,
            payload_bytes_received=payload_bytes,
        )

    def count_staged(self, nbytes: int) -> None:
        self._bump(bytes_staged=nbytes)

    @property
    def stats(self) -> NetStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return NetStats(**self._counts)


def _byte_view(buffer) -> memoryview:
    """A flat writable-or-readable byte view of ``buffer``.

    Requires C-contiguity — the protocol hands buffers to the kernel
    as-is, and a strided view would silently serialize garbage.
    """
    view = memoryview(buffer)
    if not view.contiguous:
        raise WireProtocolError(
            "wire payloads must be C-contiguous (got a strided view); "
            "copy the array first if it cannot be made contiguous"
        )
    return view.cast("B")


def _sendmsg_all(sock, buffers) -> int:
    """Write every buffer with scatter-gather, absorbing partial sends.

    ``sendmsg`` on a stream socket may accept fewer bytes than offered
    (full send buffer); the loop advances the iovec list past what the
    kernel took and re-offers the rest — no coalescing copy, ever.
    """
    pending = [view for view in buffers if view.nbytes > 0]
    total = 0
    while pending:
        try:
            sent = sock.sendmsg(pending)
        except TimeoutError:
            # Socket timeouts are a *budget* signal (the host pool's
            # hedge machinery consumes them), not a protocol error.
            raise
        except OSError as exc:
            raise WireProtocolError(
                f"connection lost mid-frame while sending: {exc}"
            ) from exc
        if sent <= 0:  # pragma: no cover - kernels return >0 or raise
            raise WireProtocolError("socket refused to accept frame bytes")
        total += sent
        while sent > 0:
            head = pending[0]
            if sent >= head.nbytes:
                sent -= head.nbytes
                pending.pop(0)
            else:
                pending[0] = head[sent:]
                sent = 0
    return total


def _recv_exact_into(sock, view: memoryview, allow_eof: bool = False) -> int:
    """Fill ``view`` completely from the socket (looping partial reads).

    Returns the byte count read (``view.nbytes``), or 0 when
    ``allow_eof`` and the peer closed cleanly *before the first byte*
    — how a serving loop distinguishes "client hung up between frames"
    from "frame truncated mid-flight" (always an error).
    """
    got = 0
    while got < view.nbytes:
        try:
            n = sock.recv_into(view[got:])
        except TimeoutError:
            raise  # a budget signal, not a protocol error — see above
        except OSError as exc:
            raise WireProtocolError(
                f"connection lost mid-frame while receiving: {exc}"
            ) from exc
        if n == 0:
            if got == 0 and allow_eof:
                return 0
            raise WireProtocolError(
                f"peer closed the connection mid-frame "
                f"({got}/{view.nbytes} bytes received)"
            )
        got += n
    return got


def send_message(
    sock,
    msg_type: int,
    meta: dict,
    payload=None,
    counters: Optional[NetCounters] = None,
) -> int:
    """Send one frame; returns the wire bytes written.

    ``payload`` is any C-contiguous buffer (typically an arena slot's
    NumPy array) — it is handed to ``sendmsg`` by reference, so the
    call performs **zero** payload copies.  The caller must keep the
    buffer alive and unmodified until this returns (trivially true for
    a held :class:`~repro.runtime.arena.ArenaLease`).
    """
    if msg_type not in _MSG_TYPES:
        raise WireProtocolError(f"unknown message type {msg_type}")
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    if len(meta_bytes) > MAX_META_BYTES:
        raise WireProtocolError(
            f"frame metadata too large ({len(meta_bytes)} bytes)"
        )
    payload_view = _byte_view(payload) if payload is not None else None
    payload_nbytes = 0 if payload_view is None else payload_view.nbytes
    if payload_nbytes > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(
            f"frame payload too large ({payload_nbytes} bytes)"
        )
    prelude = _PRELUDE.pack(
        MAGIC, VERSION, msg_type, 0, len(meta_bytes), payload_nbytes
    )
    buffers = [memoryview(prelude), memoryview(meta_bytes)]
    if payload_view is not None:
        buffers.append(payload_view)
    total = _sendmsg_all(sock, buffers)
    if counters is not None:
        counters.count_sent(total, payload_nbytes)
    return total


def recv_message(
    sock,
    sink: Optional[Callable[[int, dict], object]] = None,
    counters: Optional[NetCounters] = None,
) -> Optional[Tuple[int, dict, object]]:
    """Receive one frame; returns ``(msg_type, meta, payload)``.

    ``sink(msg_type, meta)`` supplies the buffer the payload is read
    *into* — a writable C-contiguous buffer of exactly the payload
    length (the serving host and the client both hand over a freshly
    leased arena slot, which is what makes the hop zero-copy).  A
    ``None`` sink (or a sink returning ``None``) falls back to a fresh
    ``bytearray``, and that staging allocation is counted in
    ``counters.bytes_staged``.

    Returns ``None`` on a clean peer close *between* frames; raises
    :class:`~repro.errors.WireProtocolError` on truncation, bad magic,
    a version mismatch, or a mis-sized sink buffer.
    """
    prelude = bytearray(PRELUDE_BYTES)
    if _recv_exact_into(sock, memoryview(prelude), allow_eof=True) == 0:
        return None
    magic, version, msg_type, _, meta_len, payload_len = _PRELUDE.unpack(
        bytes(prelude)
    )
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (peer is not speaking the "
            "repro wire protocol)"
        )
    if version != VERSION:
        raise WireProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this end speaks {VERSION}"
        )
    if msg_type not in _MSG_TYPES:
        raise WireProtocolError(f"unknown message type {msg_type}")
    if meta_len > MAX_META_BYTES:
        raise WireProtocolError(f"frame metadata too large ({meta_len})")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(f"frame payload too large ({payload_len})")
    meta_bytes = bytearray(meta_len)
    if meta_len:
        _recv_exact_into(sock, memoryview(meta_bytes))
    try:
        meta = json.loads(bytes(meta_bytes).decode("utf-8")) if meta_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"undecodable frame metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise WireProtocolError(
            f"frame metadata must be a JSON object, got {type(meta)!r}"
        )
    payload: object = None
    if payload_len:
        if sink is not None:
            payload = sink(msg_type, meta)
        if payload is None:
            payload = bytearray(payload_len)
            if counters is not None:
                counters.count_staged(payload_len)
        view = _byte_view(payload)
        if view.nbytes != payload_len:
            raise WireProtocolError(
                f"payload sink supplied {view.nbytes} bytes for a "
                f"{payload_len}-byte payload"
            )
        if view.readonly:
            raise WireProtocolError("payload sink buffer is read-only")
        _recv_exact_into(sock, view)
    wire_bytes = PRELUDE_BYTES + meta_len + payload_len
    if counters is not None:
        counters.count_received(wire_bytes, payload_len)
    return msg_type, meta, payload
