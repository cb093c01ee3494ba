"""The stream workloads: one submitting thread feeding the ingestor.

Frames go through ``ToneMapIngestor`` into a ``ToneMapService`` backed by
a shard pool (``stream_sharded``) or by localhost shard hosts
(``stream_hosted``).  A run has two measured phases:

* **open loop** — arrivals follow a seeded Poisson schedule at the
  workload's fixed rate; each frame's latency runs from when it was
  *due*, so a stalled generator shows up as lateness, not as a quiet
  system;
* **closed loop** — the generator keeps ``in_flight`` frames in the
  system; frames per second counts the correct results of the phase.

The generator never holds more frames than the ingestor's queue limit.
Every result is checked against the staged reference in the future's
done callback, which also releases lease-native result handles.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.image.hdr import HDRImage
from repro.planner import Planner, Workload as PlanWorkload
from repro.runtime import BatchToneMapper, HostPool, ToneMapIngestor, ToneMapService

import probes
import proc
from spans import clock, closure, median, percentile, repeat_setup, timed_into, wrap_method
from workloads import TENANTS, Arrival, Outcome, Workload, make_schedule

#: Longest wait for in-flight frames before the run is declared stuck.
WAIT_S = 60.0
PROBE_REPS = 20
#: Untraced/traced closed-loop segment pairs of the traced run.
PAIRS = 3
#: Width of the due-time windows open-loop latency percentiles are
#: taken over (1 s holds 400-600 frames: 20-30 beyond the p95).
LATENCY_WINDOW_S = 1.0
#: Schedule phases: each draws its own seeded arrival sequence.
WARM, OPEN, CLOSED = 0, 1, 2


class _Frame:
    __slots__ = ("serial", "arrival", "due", "sent", "admitted", "done", "ok")

    def __init__(self, serial: int, arrival: Arrival, due: float):
        self.serial = serial
        self.arrival = arrival
        self.due = due
        self.sent = self.admitted = self.done = 0.0
        self.ok = False


class _Batch:
    """What the traced service saw of one dispatched batch."""

    __slots__ = ("submitted", "count", "run_start", "run_end")

    def __init__(self, submitted: float, count: int):
        self.submitted = submitted
        self.count = count
        self.run_start = self.run_end = 0.0


class Stream:
    """The service under test plus the single-threaded load generator."""

    def __init__(self, workload: Workload, params, frames, refs, seed: int,
                 outcome: Outcome):
        self.workload = workload
        self.params = params
        self.frames = frames
        self.refs = refs
        self.seed = seed
        self.outcome = outcome
        self.service: Optional[ToneMapService] = None
        self.ingestor: Optional[ToneMapIngestor] = None
        self.plan = None
        self.exact = True
        self.plan_s: List[float] = []
        self.records: List[_Frame] = []
        self.errors: List[str] = []
        self.batches: List[_Batch] = []
        self.batch_of_name: Dict[str, int] = {}
        self.lease_s: List[float] = []
        self._unwrap: List = []

    # ------------------------------------------------------------------
    # Construction and teardown
    # ------------------------------------------------------------------
    def build(self) -> float:
        """Plan, start the pool and ingestor, return seconds to first result."""
        w = self.workload
        height, width = w.shapes[0]
        start = clock()
        plan = Planner().plan(
            PlanWorkload(height, width, batch=w.batch, sigma=w.sigma, color=w.color)
        )
        self.plan_s.append(clock() - start)
        if w.hosts:
            hosts = HostPool.spawn_local(w.hosts, self.params, plan=plan, shards_per_host=1)
            try:
                self.service = ToneMapService(self.params, batch_size=w.batch, hosts=hosts, plan=plan)
            except BaseException:
                hosts.close()
                raise
        else:
            self.service = ToneMapService(
                self.params, batch_size=w.batch, shards=w.shards, plan=plan
            )
        self.ingestor = ToneMapIngestor(
            self.service, queue_limit=w.queue_limit, tenants=TENANTS,
            lease_results=w.lease_results,
        )
        self.plan = plan
        self.exact = probes.exact_contract(plan)
        slots = threading.BoundedSemaphore(1)
        slots.acquire()
        self._submit(Arrival(0.0, w.shapes[0], 0, "a", "standard"), clock(), slots)
        self._wait_idle(slots, 1)
        return clock() - start

    def teardown(self) -> None:
        """Close ingestor and service; an outstanding lease is a failure."""
        ingestor, service = self.ingestor, self.service
        self.ingestor = self.service = None
        try:
            if ingestor is not None:
                ingestor.close()
        finally:
            if service is not None:
                active = service.pool.arena.stats.leases_active
                if active:
                    self.outcome.problems.append(f"{active} arena leases still active")
                service.close()

    # ------------------------------------------------------------------
    # Load generation
    # ------------------------------------------------------------------
    def _submit(self, arrival: Arrival, due: float, slots) -> None:
        frame = _Frame(len(self.records), arrival, due)
        self.records.append(frame)
        image = HDRImage.adopt(self.frames[arrival.shape][arrival.frame], name=str(frame.serial))
        frame.sent = clock()
        try:
            future = self.ingestor.submit(image, arrival.tenant, priority=arrival.priority)
        except Exception as exc:  # refused: counted as a failed frame
            frame.admitted = frame.done = clock()
            self.errors.append(repr(exc))
            slots.release()
            return
        frame.admitted = clock()
        future.add_done_callback(lambda f: self._finish(f, frame, slots))

    def _finish(self, future, frame: _Frame, slots) -> None:
        frame.done = clock()
        try:
            result = future.result()
            try:
                want = self.refs[frame.arrival.shape][frame.arrival.frame]
                frame.ok = result.name == f"{frame.serial}:tonemapped" and probes.matches(
                    result.pixels, want, self.exact
                )
            finally:
                if self.workload.lease_results:
                    result.release()
        except Exception as exc:  # the callback must always free its slot
            self.errors.append(repr(exc))
        finally:
            slots.release()

    def _wait_idle(self, slots, capacity: int) -> None:
        taken = 0
        for _ in range(capacity):
            if not slots.acquire(timeout=WAIT_S):
                self.outcome.problems.append(f"frames still in flight after {WAIT_S:.0f} s")
                break
            taken += 1
        for _ in range(taken):
            slots.release()

    def open_loop(self, seconds: float) -> List[_Frame]:
        """Poisson arrivals at the fixed rate; returns the phase's frames."""
        w = self.workload
        schedule = make_schedule(w, self.seed, OPEN, int(w.rate_fps * seconds * 1.5) + 64)
        slots = threading.BoundedSemaphore(w.queue_limit)
        first = len(self.records)
        start = clock()
        for arrival in schedule:
            if arrival.due >= seconds:
                break
            due = start + arrival.due
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            slots.acquire()
            self._submit(arrival, due, slots)
        self._wait_idle(slots, w.queue_limit)
        return self.records[first:]

    def closed_loop(self, seconds: float, phase: int = CLOSED) -> float:
        """Hold ``in_flight`` frames in the system; returns frames/s.

        The rate counts the correct results that completed while the
        phase was submitting.
        """
        w = self.workload
        schedule = make_schedule(w, self.seed, phase, 4096)
        slots = threading.BoundedSemaphore(w.in_flight)
        first = len(self.records)
        start = clock()
        end = start + seconds
        while clock() < end:
            slots.acquire()
            self._submit(schedule[(len(self.records) - first) % len(schedule)], clock(), slots)
        self._wait_idle(slots, w.in_flight)
        served = sum(f.ok and f.done <= end for f in self.records[first:])
        return served / seconds

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def install_hooks(self) -> None:
        """Wrap the service's and pool's public methods on the instances."""
        pool = self.service.pool
        batch_of_lease: Dict[int, int] = {}

        def on_submit_stack(start, args, kwargs):
            in_lease, count, names = args[0], args[1], args[2]
            index = len(self.batches)
            self.batches.append(_Batch(start, count))
            batch_of_lease[id(in_lease)] = index
            for name in names[:count]:
                self.batch_of_name[name] = index
            return lambda end, result: None

        def on_run_leased(start, args, kwargs):
            index = batch_of_lease.get(id(args[0]))

            def finish(end, result):
                if index is not None:
                    self.batches[index].run_start = start
                    self.batches[index].run_end = end

            return finish

        self._unwrap = [
            wrap_method(self.service, "submit_stack", on_submit_stack),
            wrap_method(pool, "run_leased", on_run_leased),
            wrap_method(pool.arena, "lease_input", timed_into(self.lease_s)),
            wrap_method(pool.arena, "lease_output", timed_into(self.lease_s)),
        ]

    def remove_hooks(self) -> None:
        for unwrap in self._unwrap:
            unwrap()
        self._unwrap = []

    def frame_spans(self, frames: List[_Frame], pool_span: str) -> None:
        """Join each frame to its batch by name and record its spans."""
        tracer = self.outcome.spans
        for frame in frames:
            index = self.batch_of_name.get(str(frame.serial))
            if not frame.ok or index is None or not self.batches[index].run_end:
                continue
            batch = self.batches[index]
            serial = frame.serial
            root = tracer.add("frame", frame.due, frame.done, frame=serial, batch=index)
            for name, lo, hi in (
                ("ingest.admit", frame.sent, frame.admitted),
                ("ingest.queue_wait", frame.admitted, batch.submitted),
                ("service.exec_wait", batch.submitted, batch.run_start),
                (pool_span, batch.run_start, batch.run_end),
                ("service.deliver", batch.run_end, frame.done),
            ):
                tracer.add(name, lo, hi, root, serial, index)

    # ------------------------------------------------------------------
    # Probes of the traced run
    # ------------------------------------------------------------------
    def probe_batch(self) -> Tuple[np.ndarray, np.ndarray]:
        """A full batch of main-shape frames and its reference outputs."""
        shape = self.workload.shapes[0]
        picks = [i % len(self.frames[shape]) for i in range(self.workload.batch)]
        return (
            np.stack([self.frames[shape][i] for i in picks]),
            np.stack([self.refs[shape][i] for i in picks]),
        )

    def dispatch_probe(self, stack: np.ndarray, want: np.ndarray) -> Tuple[float, float, int]:
        """Median ``run_leased`` seconds per batch, and one worker's share.

        A shard pool splits a batch into one slab per worker; a host gets
        the whole batch.  The share is the in-process ``run_stack`` of the
        largest slab with the same plan on one thread, as the workers run
        it.  Returns both medians and the slab's frame count.
        """
        pool = self.service.pool
        lease = pool.lease_input(stack.shape)
        leased: List[float] = []
        try:
            lease.array[:] = stack
            for _ in range(PROBE_REPS + 1):
                t0 = clock()
                out = pool.run_leased(lease, stack.shape[0])
                leased.append(clock() - t0)
                if not probes.matches(out.array, want, self.exact):
                    self.outcome.problems.append("run_leased probe output differs")
                out.release()
        finally:
            lease.release()
        workers = 1 if self.workload.hosts else pool.active_shards
        slab = stack[: -(-len(stack) // workers)]
        local: List[float] = []
        out = np.empty(slab.shape, dtype=np.float32)
        mapper = BatchToneMapper(self.params, plan=self.plan, threads=1)
        try:
            for _ in range(PROBE_REPS + 1):
                t0 = clock()
                mapper.run_stack(slab, out)
                local.append(clock() - t0)
        finally:
            mapper.close()
        return median(leased[1:]), median(local[1:]), len(slab)


def _latency_ms(frames: List[_Frame], fraction: float) -> float:
    """Open-loop latency percentile, from when each frame was due.

    Taken per window of due times and the median window reported, so a
    stall of the host moves one window rather than the whole run.
    """
    windows: Dict[int, List[float]] = {}
    start = frames[0].due
    for frame in frames:
        if frame.ok:
            slot = int((frame.due - start) / LATENCY_WINDOW_S)
            windows.setdefault(slot, []).append((frame.done - frame.due) * 1e3)
    return median([percentile(v, fraction) for v in windows.values()])


def _lateness(frames) -> Dict[str, float]:
    late = [(f.sent - f.due) * 1e3 for f in frames]
    return {
        "loadgen.lateness_p99_ms": percentile(late, 0.99),
        "loadgen.lateness_max_ms": max(late, default=0.0),
    }


def run(workload: Workload, params, frames, refs, seed: int, seconds: float,
        traced: bool, outcome: Outcome) -> None:
    """Measure one stream workload."""
    stream = Stream(workload, params, frames, refs, seed, outcome)
    try:
        setup_s = repeat_setup(stream.build, stream.teardown)
        stream.closed_loop(min(1.0, seconds / 4), phase=WARM)
        if not traced:
            opened = stream.open_loop(seconds / 2)
            fps = stream.closed_loop(seconds / 2)
            outcome.end_to_end.update(
                setup_s=median(setup_s),
                frames_per_s=fps,
                frame_p50_ms=_latency_ms(opened, 0.50),
                peak_rss_mb=proc.peak_rss_mb(),
            )
            outcome.report_ms.update(frame_p95_ms=_latency_ms(opened, 0.95), **_lateness(opened))
        else:
            _traced(stream, seconds, outcome)
    finally:
        stream.teardown()
        outcome.attempted += len(stream.records)
        outcome.failed += sum(not f.ok for f in stream.records)
        outcome.problems.extend(sorted(set(stream.errors))[:5])


def _counters(pool, hosted: bool) -> Dict[str, int]:
    """Cumulative arena and wire counters of the pool's client side."""
    arena = pool.arena.stats
    counters = {"segments": arena.segments_created, "overflow": arena.overflow}
    if hosted:
        net = pool.net_stats
        counters.update(sent=net.bytes_sent, received=net.bytes_received)
    return counters


def _traced(stream: Stream, seconds: float, outcome: Outcome) -> None:
    """Traced open loop, then untraced/traced closed-loop segment pairs.

    Alternating the closed-loop segments keeps slow drift of the host out
    of ``trace.overhead``.
    """
    w = stream.workload
    pool = stream.service.pool
    hosted = bool(w.hosts)
    pool_span = "hostpool.run_leased" if hosted else "shard.run_leased"
    stream.install_hooks()
    try:
        opened = stream.open_loop(seconds / 3)
    finally:
        stream.remove_hooks()
    segment = seconds * 2 / 3 / (2 * PAIRS)
    plain_fps, traced_fps, closed = [], [], []
    frames = 0
    delta = dict.fromkeys(_counters(pool, hosted), 0)
    for _ in range(PAIRS):
        plain_fps.append(stream.closed_loop(segment))
        first_batch, first_frame = len(stream.batches), len(stream.records)
        before = _counters(pool, hosted)
        stream.install_hooks()
        try:
            traced_fps.append(stream.closed_loop(segment))
        finally:
            stream.remove_hooks()
        for name, value in _counters(pool, hosted).items():
            delta[name] += value - before[name]
        closed += stream.batches[first_batch:]
        frames += len(stream.records) - first_frame
    frames = max(1, frames)
    stream.frame_spans(opened, pool_span)
    spans = outcome.spans
    stats = stream.ingestor.stats
    run_ms = [(b.run_end - b.run_start) * 1e3 for b in closed]
    def span_ms(name: str, fraction: float) -> float:
        return percentile(spans.durations(name), fraction) * 1e3

    layers = {
        "planner.plan_ms": median(stream.plan_s) * 1e3,
        "ingest.admit_p50_ms": span_ms("ingest.admit", 0.50),
        "ingest.admit_p99_ms": span_ms("ingest.admit", 0.99),
        "ingest.queue_wait_p50_ms": span_ms("ingest.queue_wait", 0.50),
        "ingest.queue_wait_p95_ms": span_ms("ingest.queue_wait", 0.95),
        "ingest.batch_fill": sum(b.count for b in closed) / max(1, len(closed)) / w.batch,
        "ingest.rejected": float(stats.rejected),
        "ingest.shed": float(stats.shed),
        "service.exec_wait_p50_ms": span_ms("service.exec_wait", 0.50),
        "service.exec_wait_p95_ms": span_ms("service.exec_wait", 0.95),
        "service.deliver_p50_ms": span_ms("service.deliver", 0.50),
        "service.deliver_p95_ms": span_ms("service.deliver", 0.95),
        "service.brownout_batches": float(stats.reliability.brownout_batches),
        "arena.lease_ms": median(stream.lease_s) * 1e3,
        "arena.allocs_per_batch": delta["segments"] / max(1, len(closed)),
        "arena.overflow": float(delta["overflow"]),
        "arena.resident_mb": pool.arena.stats.pooled_bytes / 1e6,
        "trace.overhead": 1.0 - median(traced_fps) / median(plain_fps),
        "trace.closure": closure(spans.spans, "frame"),
    }
    layers.update(_lateness(opened))
    if hosted:
        layers.update(
            {
                "hostpool.run_leased_p50_ms": percentile(run_ms, 0.50),
                "hostpool.run_leased_p95_ms": percentile(run_ms, 0.95),
                "hostpool.hosts_lost": float(pool.hosts_lost),
                "net.bytes_sent_per_frame": delta["sent"] / frames,
                "net.bytes_received_per_frame": delta["received"] / frames,
                "net.bytes_staged": float(pool.net_stats.bytes_staged),
            }
        )
    else:
        layers.update(
            {
                "shard.run_leased_p50_ms": percentile(run_ms, 0.50),
                "shard.run_leased_p95_ms": percentile(run_ms, 0.95),
                "shard.copies_per_frame": pool.data_plane_stats.copies_per_frame,
                "shard.worker_respawns": float(pool.worker_respawns),
            }
        )
    stack, want = stream.probe_batch()
    leased_s, local_s, slab = stream.dispatch_probe(stack, want)
    layers["batch.run_stack_ms"] = local_s * 1e3 / slab
    if not hosted:
        layers["shard.dispatch_overhead_ms"] = (leased_s - local_s) * 1e3
    stages, identical = probes.stage_probe(stream.params, stack, PROBE_REPS)
    layers.update(stages)
    if not identical:
        outcome.problems.append("staged stage composition differs from run_stack")
    if stream.plan.engine == "fused":
        # Shard workers (and each host's workers) run the fused engine
        # with one thread each.
        fused, ok = probes.fused_probe(
            stream.params, stream.plan, stack, 1, PROBE_REPS, want, stream.exact
        )
        layers.update(fused)
        if not ok:
            outcome.problems.append("fused probe output differs from the reference")
    outcome.layers.update(layers)
