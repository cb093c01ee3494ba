"""First-class chaos injection for the serving runtime.

The reliability layer (shard watchdog, hedged replay, circuit-breaker
brownout — see :mod:`repro.runtime.shard` and
:mod:`repro.runtime.service`) exists to absorb faults that are, by
nature, rare and unreproducible in a unit test.  This module makes them
common and reproducible: a :class:`FaultPlan` declares *which* dispatch
attempts misbehave and *how*, and the pool's :class:`FaultInjector`
executes the plan deterministically — the chaos tests, the
``bench_runtime`` chaos case, and ad-hoc CLI runs all drive the same
mechanism instead of monkeypatching worker internals.

Four fault kinds, mirroring the real failure modes:

``kill``
    The victim worker SIGKILLs itself mid-slab — the OOM-killer /
    segfault scenario the generation-counted respawn absorbs.
``hang``
    The victim worker sleeps ``hang_ms`` before touching its slab — the
    stuck-I/O / livelock scenario only the watchdog can detect (a hung
    worker never breaks the process pool by itself).
``exhaust``
    The batch's output lease is forced onto the arena's transient
    overflow path, as if every ring slab were held by slow consumers —
    the arena-exhaustion scenario (allocation cost, no deadlock).
``slow``
    The dispatch is delayed by a seeded jitter — enough to trip
    deadline shedding and latency-sensitive assertions without killing
    anything.

Three more kinds cover the **network hop** of the multi-host tier
(:mod:`repro.runtime.hostpool` consumes them; they are inert on a
single-host :class:`~repro.runtime.shard.ShardPool`):

``partition``
    The victim attempt loses the host it picked before anything is
    sent — the network-partition scenario: the host is healthy but
    this client cannot reach it, so the pool marks the host lost (its
    revive thread reconnects it) and the batch replays on another host.
``slow-link``
    The dispatch's send is delayed by the seeded jitter — a congested
    or lossy link, distinct from ``slow`` so a plan can jitter the
    wire without jittering in-process dispatches (``slow_link_*``
    field names; the spec syntax accepts both ``slow-link`` and
    ``slow_link``).
``host-loss``
    The victim attempt's host process group is SIGKILLed before the
    send, which then finds the link torn — the machine-died scenario
    host respawn and "another host" replay exist for (``host_loss_*``
    field names).  A host the pool did not spawn cannot be killed from
    the client, so there the fault acts as ``partition``.

Faults are keyed by **dispatch attempt index**: the pool consumes one
index per ``run_leased`` attempt (replays included), so ``kill@4``
kills exactly one attempt and its replay runs clean, while
``kill@4:5`` makes the replay die too — the persistent-crash scenario.
Probabilistic plans (``kill%0.05``) draw per-index from a seeded RNG,
so a given (seed, index) always misbehaves the same way regardless of
thread interleaving.

Plans are plain frozen dataclasses: build them in code, parse them from
the compact spec syntax (``FaultPlan.from_spec("kill@4:5,hang@1,
seed=7")`` — the CLI's ``--fault-plan`` accepts the same), or pull them
from the ``REPRO_FAULT_PLAN`` environment variable via
:func:`FaultPlan.from_env` (how a deployed service opts into a chaos
drill without a redeploy).
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, Optional, Tuple

from repro.errors import ToneMapError

#: The injectable fault kinds, in spec/display order.  The last three
#: are the network kinds consumed by the multi-host tier; field names
#: use underscores (``slow_link_batches``), spec tokens accept either
#: ``slow-link`` or ``slow_link``.
FAULT_KINDS = (
    "kill", "hang", "exhaust", "slow", "partition", "slow_link", "host_loss",
)

#: The kinds that act on the networked hop (inert on a single-host pool).
NETWORK_FAULT_KINDS = ("partition", "slow_link", "host_loss")

#: Environment variable :func:`FaultPlan.from_env` reads.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Per-kind salt so the (seed, index) RNG streams are independent.
_KIND_SALT = {
    "kill": 0x9E3779B1,
    "hang": 0x85EBCA77,
    "exhaust": 0xC2B2AE3D,
    "slow": 0x27D4EB2F,
    "partition": 0x165667B1,
    "slow_link": 0xD3A2646C,
    "host_loss": 0xFD7046C5,
}


def _rng(seed: int, index: int, kind: str) -> random.Random:
    """Deterministic per-(seed, attempt, kind) stream — hash-seed-proof."""
    return random.Random(
        (seed & 0xFFFFFFFF) ^ (index * 0x100000001B3) ^ _KIND_SALT[kind]
    )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seedable schedule of injected faults.

    ``*_batches`` name explicit dispatch-attempt indices;
    ``*_probability`` adds a seeded per-attempt coin flip on top.  An
    empty plan (``FaultPlan()``) injects nothing — handy as a base for
    ``dataclasses.replace``.

    Parameters
    ----------
    seed:
        Seeds every probabilistic draw and the jitter magnitudes; two
        runs with the same plan observe identical fault schedules.
    kill_batches / hang_batches / exhaust_batches / slow_batches /
    partition_batches / slow_link_batches / host_loss_batches:
        Dispatch-attempt indices (0-based, replays included) that
        suffer the respective fault.
    kill_probability / hang_probability / exhaust_probability /
    slow_probability / partition_probability / slow_link_probability /
    host_loss_probability:
        Per-attempt fault probability in ``[0, 1]``, drawn
        deterministically from ``seed`` and the attempt index.
    hang_ms:
        How long a hung worker sleeps.  Pick well past the watchdog
        budget under test — a "hang" that finishes before the watchdog
        fires is just a slow batch.
    jitter_ms:
        Upper bound of the ``slow`` and ``slow-link`` dispatch delays.
    """

    seed: int = 0
    kill_batches: Tuple[int, ...] = ()
    hang_batches: Tuple[int, ...] = ()
    exhaust_batches: Tuple[int, ...] = ()
    slow_batches: Tuple[int, ...] = ()
    partition_batches: Tuple[int, ...] = ()
    slow_link_batches: Tuple[int, ...] = ()
    host_loss_batches: Tuple[int, ...] = ()
    kill_probability: float = 0.0
    hang_probability: float = 0.0
    exhaust_probability: float = 0.0
    slow_probability: float = 0.0
    partition_probability: float = 0.0
    slow_link_probability: float = 0.0
    host_loss_probability: float = 0.0
    hang_ms: float = 30000.0
    jitter_ms: float = 2.0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            batches = getattr(self, f"{kind}_batches")
            cleaned = tuple(sorted({int(i) for i in batches}))
            if any(i < 0 for i in cleaned):
                raise ToneMapError(
                    f"{kind}_batches indices must be >= 0, got {batches}"
                )
            object.__setattr__(self, f"{kind}_batches", cleaned)
            probability = getattr(self, f"{kind}_probability")
            if not 0.0 <= probability <= 1.0:
                raise ToneMapError(
                    f"{kind}_probability must be in [0, 1], got {probability}"
                )
        if self.hang_ms <= 0:
            raise ToneMapError(f"hang_ms must be > 0, got {self.hang_ms}")
        if self.jitter_ms < 0:
            raise ToneMapError(
                f"jitter_ms must be >= 0, got {self.jitter_ms}"
            )

    @property
    def empty(self) -> bool:
        """True when this plan can never inject anything."""
        return not any(
            getattr(self, f"{kind}_batches")
            or getattr(self, f"{kind}_probability") > 0.0
            for kind in FAULT_KINDS
        )

    def kinds_for(self, index: int) -> FrozenSet[str]:
        """The fault kinds attempt ``index`` suffers under this plan."""
        kinds = set()
        for kind in FAULT_KINDS:
            if index in getattr(self, f"{kind}_batches"):
                kinds.add(kind)
                continue
            probability = getattr(self, f"{kind}_probability")
            if probability > 0.0 and (
                _rng(self.seed, index, kind).random() < probability
            ):
                kinds.add(kind)
        return frozenset(kinds)

    def jitter_s(self, index: int, kind: str = "slow") -> float:
        """The seeded delay (seconds) for attempt ``index``.

        ``kind`` selects the RNG stream: ``"slow"`` (in-process and
        shard-dispatch jitter) or ``"slow_link"`` (wire-send jitter) —
        the two streams are independent, so a plan jittering both draws
        different magnitudes.
        """
        if self.jitter_ms <= 0.0:
            return 0.0
        return (
            _rng(self.seed, index, kind).uniform(0.5, 1.0)
            * self.jitter_ms
            / 1e3
        )

    # ------------------------------------------------------------------
    # Spec syntax (CLI / environment)
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse the compact spec syntax.

        Comma-separated tokens; three forms::

            kill@4:5        explicit attempt indices (':'-separated)
            hang%0.05       per-attempt probability
            seed=7          numeric field (seed, hang_ms, jitter_ms)

        ``FaultPlan.from_spec("kill@4:5,hang@1,slow%0.2,seed=7")``.
        """
        kwargs: Dict[str, object] = {}
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            try:
                if "@" in token:
                    kind, _, indices = token.partition("@")
                    kind = kind.strip().replace("-", "_")
                    if kind not in FAULT_KINDS:
                        raise ValueError(f"unknown fault kind {kind!r}")
                    kwargs[f"{kind}_batches"] = tuple(
                        int(part) for part in indices.split(":")
                    )
                elif "%" in token:
                    kind, _, probability = token.partition("%")
                    kind = kind.strip().replace("-", "_")
                    if kind not in FAULT_KINDS:
                        raise ValueError(f"unknown fault kind {kind!r}")
                    kwargs[f"{kind}_probability"] = float(probability)
                elif "=" in token:
                    name, _, value = token.partition("=")
                    name = name.strip()
                    if name not in ("seed", "hang_ms", "jitter_ms"):
                        raise ValueError(f"unknown field {name!r}")
                    kwargs[name] = (
                        int(value) if name == "seed" else float(value)
                    )
                else:
                    raise ValueError("expected kind@i[:i...], kind%p or k=v")
            except ValueError as exc:
                raise ToneMapError(
                    f"bad fault-plan token {token!r}: {exc}"
                ) from None
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_spec(self) -> str:
        """The spec string round-tripping through :meth:`from_spec`."""
        tokens = []
        for kind in FAULT_KINDS:
            display = kind.replace("_", "-")
            batches = getattr(self, f"{kind}_batches")
            if batches:
                tokens.append(
                    f"{display}@" + ":".join(str(i) for i in batches)
                )
            probability = getattr(self, f"{kind}_probability")
            if probability > 0.0:
                tokens.append(f"{display}%{probability:g}")
        defaults = {f.name: f.default for f in fields(self)}
        for name in ("seed", "hang_ms", "jitter_ms"):
            value = getattr(self, name)
            if value != defaults[name]:
                tokens.append(f"{name}={value:g}")
        return ",".join(tokens)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None`` if unset.

        Read at pool construction (not import) so a test or an operator
        can arm a chaos drill per process without touching code.
        """
        spec = os.environ.get(FAULT_PLAN_ENV)
        if not spec:
            return None
        return cls.from_spec(spec)


class FaultInjector:
    """Executes a :class:`FaultPlan` against a stream of dispatches.

    The pool asks :meth:`next_attempt` once per ``run_leased`` attempt;
    the injector allocates the next attempt index (thread-safe — under
    concurrent batches the *set* of indices is deterministic even when
    their assignment to batches races) and reports which fault kinds
    that attempt suffers.  Worker-side faults (``kill``/``hang``) are
    shipped to the victim slab as a plain directive tuple — the worker
    needs no copy of the plan, which keeps the injection observable
    from the parent and trivially picklable.

    The in-process transport,
    :class:`~repro.runtime.backend.LocalBackend`, draws from an
    independent stream (:meth:`next_inproc`), so ``slow`` jitter keeps
    applying after the breaker routes batches away from the pool while
    the pool's own attempt indices stay untouched.
    """

    def __init__(self, plan: FaultPlan):
        if not isinstance(plan, FaultPlan):
            raise ToneMapError(
                f"expected a FaultPlan, got {type(plan)!r}"
            )
        self.plan = plan
        self._lock = threading.Lock()
        self._next_index = 0
        self._next_inproc = 0
        self._injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def next_attempt(self) -> Tuple[int, FrozenSet[str]]:
        """Allocate the next dispatch index and its fault kinds."""
        with self._lock:
            index = self._next_index
            self._next_index += 1
            kinds = self.plan.kinds_for(index)
            for kind in kinds:
                self._injected[kind] += 1
        return index, kinds

    def next_inproc(self) -> Tuple[int, FrozenSet[str]]:
        """Like :meth:`next_attempt`, on the in-process fault stream.

        Only ``slow`` applies in-process (there is no worker to kill or
        hang), so the kinds reported are at most ``{"slow"}``.
        """
        with self._lock:
            index = self._next_inproc
            self._next_inproc += 1
            kinds = self.plan.kinds_for(index) & {"slow"}
            for kind in kinds:
                self._injected[kind] += 1
        return index, kinds

    def worker_directive(
        self, kinds: FrozenSet[str]
    ) -> Optional[Tuple[str, float]]:
        """The fault tuple shipped to the victim slab (or ``None``).

        ``kill`` outranks ``hang`` when a plan schedules both — a dead
        worker cannot also sleep.
        """
        if "kill" in kinds:
            return ("kill", 0.0)
        if "hang" in kinds:
            return ("hang", self.plan.hang_ms / 1e3)
        return None

    @property
    def injected(self) -> Dict[str, int]:
        """Faults injected so far, by kind (a snapshot copy)."""
        with self._lock:
            return dict(self._injected)

    @property
    def attempts(self) -> int:
        """Dispatch attempts consumed from the plan so far."""
        with self._lock:
            return self._next_index


def resolve_injector(
    faults: Optional[object],
) -> Optional[FaultInjector]:
    """Normalize a ``faults=`` argument to an injector (or ``None``).

    Accepts ``None`` (then consults ``REPRO_FAULT_PLAN``), a
    :class:`FaultPlan`, a spec string, or a ready
    :class:`FaultInjector` (shared between a pool and its service so
    both observe one attempt stream).
    """
    if faults is None:
        plan = FaultPlan.from_env()
        return FaultInjector(plan) if plan is not None else None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, str):
        return FaultInjector(FaultPlan.from_spec(faults))
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    raise ToneMapError(
        f"faults must be a FaultPlan, spec string or FaultInjector, got "
        f"{type(faults)!r}"
    )
