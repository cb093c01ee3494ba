"""Extension studies beyond the paper's evaluation.

Natural next steps the paper's setup invites but does not measure:

* **Transfer/compute overlap** (:func:`overlap_study`) — the streaming
  kernel consumes pixels as the DMA delivers them, so with stream
  (DATAFLOW-style) interfaces the transfer and the computation overlap
  instead of serializing.  The study quantifies the blur-time saving per
  implementation.
* **Video throughput** (:func:`video_throughput`) — the paper's intro
  motivates mobile/continuous imaging; with double buffering the PS
  stages of frame *n+1* run while the PL blurs frame *n*, so the
  steady-state frame rate is set by the slower of the two sides, not by
  their sum.
* **Measured software runtime** (:func:`runtime_throughput`) — the
  analytic accelerator rates above are only meaningful next to what the
  batched/sharded software runtime (``repro.runtime``) actually sustains
  on the host: the same frame stream is pushed through a
  :class:`~repro.runtime.service.ToneMapService` and the measured frames/s
  is reported beside the model's, so the study answers "how many CPUs
  worth of serving does the FPGA displace".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import FlowError
from repro.experiments.calibration import make_paper_flow
from repro.sdsoc.flow import ImplementationResult, OptimizationFlow


@dataclass(frozen=True)
class OverlapResult:
    """Blur time with serialized vs overlapped transfers."""

    key: str
    serialized_s: float
    overlapped_s: float

    @property
    def saving_fraction(self) -> float:
        if self.serialized_s == 0:
            return 0.0
        return 1.0 - self.overlapped_s / self.serialized_s


@dataclass(frozen=True)
class OverlapStudy:
    results: List[OverlapResult]

    def result(self, key: str) -> OverlapResult:
        for result in self.results:
            if result.key == key:
                return result
        raise KeyError(key)

    def render(self) -> str:
        lines = ["EXTENSION: transfer/compute overlap (blur time)"]
        for r in self.results:
            lines.append(
                f"  {r.key:12s} serialized {r.serialized_s:8.4f} s -> "
                f"overlapped {r.overlapped_s:8.4f} s "
                f"({r.saving_fraction * 100:4.1f}% saved)"
            )
        return "\n".join(lines)


def overlapped_blur_seconds(result: ImplementationResult) -> float:
    """Blur time when DMA streams overlap the accelerator pipeline.

    The streaming kernel starts computing on the first beats, and the
    output DMA drains as pixels emerge, so the wall time is the maximum
    of the three streams plus the PS-side stub — not their sum.  Only
    meaningful for DMA-fed variants; zero-copy and software pass through
    unchanged.
    """
    if not result.uses_hardware or result.transfer_seconds == 0.0:
        return result.blur_seconds
    streamed = max(result.pl_busy_seconds, result.transfer_seconds)
    return result.stub_seconds + streamed


def overlap_study(flow: Optional[OptimizationFlow] = None) -> OverlapStudy:
    """Quantify the overlap saving for every hardware implementation."""
    flow = flow or make_paper_flow()
    results = []
    for key in ("sequential", "pragmas", "fxp"):
        impl = flow.run_variant(key)
        results.append(
            OverlapResult(
                key=key,
                serialized_s=impl.blur_seconds,
                overlapped_s=overlapped_blur_seconds(impl),
            )
        )
    return OverlapStudy(results=results)


@dataclass(frozen=True)
class ThroughputResult:
    """Frames per second, single-frame latency, and the binding side."""

    key: str
    fps_sequential: float
    fps_pipelined: float
    bound_by: str

    @property
    def pipelining_gain(self) -> float:
        if self.fps_sequential == 0:
            return 0.0
        return self.fps_pipelined / self.fps_sequential


@dataclass(frozen=True)
class ThroughputStudy:
    results: List[ThroughputResult]

    def result(self, key: str) -> ThroughputResult:
        for result in self.results:
            if result.key == key:
                return result
        raise KeyError(key)

    def render(self) -> str:
        lines = ["EXTENSION: video throughput (frames/s)"]
        for r in self.results:
            lines.append(
                f"  {r.key:12s} single-buffer {r.fps_sequential:7.4f} fps -> "
                f"double-buffer {r.fps_pipelined:7.4f} fps "
                f"(x{r.pipelining_gain:4.2f}, bound by {r.bound_by})"
            )
        return "\n".join(lines)


def runtime_throughput(
    size: int = 256,
    frames: int = 8,
    shards: Optional[int] = None,
    batch_size: int = 4,
    fixed: bool = False,
) -> ThroughputResult:
    """Measure the software runtime's sustained frames/s on this host.

    Streams ``frames`` synthetic gray frames of ``size`` x ``size`` through
    a :class:`~repro.runtime.service.ToneMapService` and compares against
    the seed serving model — one frame at a time through
    :class:`~repro.tonemap.pipeline.ToneMapper`.  With ``shards`` the
    frames go through the full production serving edge — the
    :class:`~repro.runtime.ingest.ToneMapIngestor` writing each frame
    straight into the pool's shared-memory arena (the zero-copy data
    plane) — so the number reported next to the accelerator model is the
    deployable path, not a pre-grouped best case.  Returned as a
    :class:`ThroughputResult` so :func:`video_throughput` can list the
    measured software rate next to the accelerator model's analytic
    rate: ``fps_sequential`` is the per-frame baseline,
    ``fps_pipelined`` the batched/sharded runtime.
    """
    from repro.image.synthetic import SceneParams, make_scene
    from repro.runtime import ToneMapIngestor, ToneMapService
    from repro.tonemap.fixed_blur import make_fixed_blur_fn
    from repro.tonemap.pipeline import ToneMapParams, ToneMapper

    params = ToneMapParams(blur_fn=make_fixed_blur_fn() if fixed else None)
    images = [
        make_scene(
            "window_interior",
            SceneParams(height=size, width=size, seed=2018 + i, color=False),
        )
        for i in range(frames)
    ]

    mapper = ToneMapper(params)
    start = time.perf_counter()
    for image in images:
        mapper.run(image)
    baseline = time.perf_counter() - start

    with ToneMapService(
        params, batch_size=batch_size, shards=shards
    ) as service:
        if shards is not None:
            # The production edge: zero-copy ingest into the arena.
            with ToneMapIngestor(service, max_delay_ms=5.0) as ingestor:
                start = time.perf_counter()
                ingestor.map_many(images)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            service.map_many(images)
            elapsed = time.perf_counter() - start

    label = "sw-batch" if shards is None else f"sw-shard{shards}"
    blur = "fxp" if fixed else "float"
    return ThroughputResult(
        key=label,
        fps_sequential=frames / baseline if baseline > 0 else 0.0,
        fps_pipelined=frames / elapsed if elapsed > 0 else 0.0,
        bound_by=f"host cpu (measured, {size}x{size} {blur})",
    )


def video_throughput(
    flow: Optional[OptimizationFlow] = None,
    runtime: Optional[Sequence[ThroughputResult]] = None,
) -> ThroughputStudy:
    """Steady-state frame rate with and without frame-level pipelining.

    With double buffering, the PS stages (normalization, masking,
    adjustment) of the next frame run while the PL blurs the current
    one: the steady-state period is ``max(ps_work, blur)`` instead of
    ``ps_work + blur``.  Software-only implementations cannot overlap
    (one CPU does everything).

    ``runtime`` rows — typically from :func:`runtime_throughput` — are
    appended to the study so the measured batched/sharded software
    runtime's frames/s reads next to the accelerator model's (for a
    runtime row, "single-buffer" is the per-frame baseline and
    "double-buffer" the batched/sharded service).
    """
    flow = flow or make_paper_flow()
    results = []
    for key in flow.variants:
        impl = flow.run_variant(key)
        total = impl.total_seconds
        fps_seq = 1.0 / total if total > 0 else 0.0
        if not impl.uses_hardware:
            results.append(
                ThroughputResult(
                    key=key, fps_sequential=fps_seq, fps_pipelined=fps_seq,
                    bound_by="cpu (no overlap possible)",
                )
            )
            continue
        ps_work = total - impl.blur_seconds + impl.stub_seconds
        blur = impl.blur_seconds
        period = max(ps_work, blur)
        if period <= 0:
            raise FlowError(f"degenerate period for {key!r}")
        bound = "ps stages" if ps_work >= blur else "pl blur"
        results.append(
            ThroughputResult(
                key=key,
                fps_sequential=fps_seq,
                fps_pipelined=1.0 / period,
                bound_by=bound,
            )
        )
    if runtime:
        results.extend(runtime)
    return ThroughputStudy(results=results)
