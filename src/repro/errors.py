"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FixedPointError(ReproError):
    """Invalid fixed-point format or conversion failure."""


class BusAlignmentError(FixedPointError):
    """A hardware-function argument width violates SDSoC bus alignment.

    SDSoC requires accelerator argument widths of 8, 16, 32 or 64 bits
    (paper section III-C); other widths cannot cross the PS/PL boundary.
    """


class ImageError(ReproError):
    """Invalid image shape, dtype, or file format."""


class ImageFormatError(ImageError):
    """A file could not be parsed as the expected image format."""


class ToneMapError(ReproError):
    """Invalid tone-mapping parameters."""


class ServiceOverloadedError(ReproError):
    """The serving queue is full and the admission policy refused the work.

    Raised by the runtime's backpressure layer (``repro.runtime``): under
    the ``reject`` policy the submitter gets this immediately; under
    ``shed-oldest`` the oldest queued submission's future fails with it
    when a newer arrival takes its slot.

    Attributes
    ----------
    tenant:
        The tenant whose admission limit triggered the refusal (``None``
        for the single-tenant / global limit).
    shed_count:
        How many frames share this exception context.  Under a shed
        storm the ingestor fails every victim of one storm with a single
        coalesced instance instead of constructing one per frame; the
        counter grows as victims join the storm.
    """

    def __init__(self, message: str, tenant: str | None = None,
                 shed_count: int = 0):
        super().__init__(message)
        self.tenant = tenant
        self.shed_count = shed_count


class ShardCrashError(ReproError):
    """A shard worker process died and the batch could not be replayed.

    The pool respawns its worker set after a crash and replays the
    failed batch once on the fresh workers; this error surfaces only
    when the replay itself also loses a worker (persistent crash —
    e.g. the workload reliably OOM-kills workers).
    """


class DeadlineExceededError(ReproError):
    """A frame's latency budget expired before it could be dispatched.

    Raised onto a frame's future by the ingestor when the deadline
    stamped at ``submit(..., deadline_ms=...)`` passes while the frame
    is still queued: computing a result nobody can use anymore would
    only steal batch seats from frames that can still make their
    budgets, so expired frames are shed at dispatch time instead.

    Attributes
    ----------
    tenant:
        The tenant the frame was submitted under.
    elapsed_ms:
        How long the frame actually waited before being shed.
    deadline_ms:
        The budget it was submitted with.
    """

    def __init__(self, message: str, tenant: str | None = None,
                 elapsed_ms: float = 0.0, deadline_ms: float | None = None):
        super().__init__(message)
        self.tenant = tenant
        self.elapsed_ms = elapsed_ms
        self.deadline_ms = deadline_ms


class WireProtocolError(ReproError):
    """A multi-host wire frame could not be sent or decoded.

    Raised by :mod:`repro.runtime.net` when a peer speaks the wrong
    protocol (bad magic/version), a frame header is malformed or
    oversized, or the connection dies mid-frame.  The host pool treats
    it like a connection loss: the victim host is marked dead and the
    batch replays on another host.
    """


class HostUnavailableError(ShardCrashError):
    """No shard host is left to serve a batch.

    Raised by :class:`~repro.runtime.hostpool.HostPool` when every host
    is dead (or partitioned away) and the replay budget cannot buy a
    live one.  Subclasses :class:`ShardCrashError` on purpose: the
    service's circuit breaker already browns that error out to the
    in-process mapper, and total host loss deserves exactly the same
    fallback.
    """


class ShardTimeoutError(ReproError):
    """A sharded batch exceeded its execution budget and replay failed.

    A batch attempt still running at its budget (an explicit
    ``timeout``, the pool's ``default_timeout_ms`` or the frames'
    remaining deadline) SIGKILLs its own workers, and the batch is
    replayed once on a respawned worker set — a *hedged replay*.  This
    error surfaces only when the replay budget is exhausted too: the
    batch hung repeatedly, or the remaining deadline budget cannot fit
    another attempt.

    Attributes
    ----------
    tenant:
        The tenant whose budget drove the timeout (``None`` when the
        batch mixed tenants or the pool was called directly).
    elapsed_ms:
        Wall-clock spent across all attempts before giving up.
    retries:
        Hedged replays performed before this error.
    """

    def __init__(self, message: str, tenant: str | None = None,
                 elapsed_ms: float = 0.0, retries: int = 0):
        super().__init__(message)
        self.tenant = tenant
        self.elapsed_ms = elapsed_ms
        self.retries = retries


class HlsError(ReproError):
    """High-level-synthesis front-end or scheduling failure."""


class PragmaError(HlsError):
    """An HLS pragma is malformed or applied to a non-existent target."""


class ResourceError(HlsError):
    """A synthesized design does not fit the target device."""


class PlatformError(ReproError):
    """Invalid platform configuration (clocks, memories, ports)."""


class DataMoverError(PlatformError):
    """No data mover can implement the requested transfer."""


class PowerError(ReproError):
    """Invalid power-model configuration or query."""


class FlowError(ReproError):
    """The SDSoC co-design flow was driven with inconsistent inputs."""
