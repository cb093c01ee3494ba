"""Analytic candidate costing: the planner's cost-model consult.

The planner's *decisions* come from the calibrated crossovers (see
``repro.planner.profile`` — absolute host constants can only come from
measurement), but every emitted plan carries a **cost rationale**: the
candidate execution paths priced through the same platform cost model
the HLS side of this repo schedules against
(:class:`repro.platform.cpu.ArmCortexA9Model` pricing a
:class:`~repro.platform.cpu.SwKernelTrace` of per-path operation
counts, the software twin of the ``repro.hls`` operator-latency
library).  The model's relative ordering is what makes a rationale
legible — "the unblocked folded pass streams 3x the memory traffic of
the band ring here", "the FFT does O(W log W) work per row regardless
of taps" — and the tests pin that its ordering *agrees* with the
calibrated decision in the regimes the crossover defaults were
measured in.

All estimates cover the blur of one ``(batch, H, W)`` luminance volume
plus, for the engine comparison, the surrounding stage traffic (the
staged path streams several full-frame temporaries per stage; the fused
path touches the frame roughly once and keeps its scratch band-resident).
Element counts are priced in float64 unless noted.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.platform.cpu import ArmCortexA9Model, SwKernelTrace

#: One shared pricing model.  The A9 constants are not this host — no
#: analytic model is — but the *ratios* between candidate paths (flop
#: counts, cache-class memory traffic) are what the rationale reports,
#: and those transfer.
_MODEL = ArmCortexA9Model()

#: Full real-FFT butterfly constant: ~5 real ops per point per log2
#: level, and a row pass does forward transform, spectrum multiply, and
#: inverse transform.
_FFT_OPS_PER_POINT_LEVEL = 5.0


def _blur_trace_sliding(
    rows: int, width: int, taps: int, cache_resident: bool
) -> SwKernelTrace:
    """Operation counts of a folded sliding-window row pass over *rows*.

    ``ceil(taps/2)`` multiply passes (mirrored taps share a
    coefficient): each output element reads two mirrored inputs, adds
    them, multiplies by the coefficient, and accumulates.
    ``cache_resident`` distinguishes the fused band ring (its working
    set stays in L2-class cache) from the staged folded pass on planes
    whose three full-plane temporaries stream through memory.
    """
    pairs = (taps + 1) // 2
    elements = rows * width
    flops = elements * pairs * 3  # add + mul + accumulate per pair
    loads = elements * pairs * 2
    trace = SwKernelTrace(
        name="sliding",
        flops=flops,
        sequential_loads=loads if cache_resident else 0,
        strided_loads=0 if cache_resident else loads,
        strided_working_set_bytes=0 if cache_resident else width * 8 * 3,
        stores=elements * pairs,
        element_bytes=8,
    )
    return trace


def _blur_trace_fft(rows: int, width: int, taps: int) -> SwKernelTrace:
    """Operation counts of an FFT row pass over *rows*."""
    radius = (taps - 1) // 2
    n = width + 2 * radius + taps - 1  # linear-convolution length
    levels = max(1.0, math.log2(n))
    per_row = 2 * _FFT_OPS_PER_POINT_LEVEL * n * levels + 6 * n
    elements = rows * width
    return SwKernelTrace(
        name="fft",
        flops=int(rows * per_row),
        sequential_loads=rows * n * 4,  # transform buffers stream
        stores=elements,
        element_bytes=8,
    )


def _stage_traffic_trace(frames: int, height: int, width: int, passes: float) -> SwKernelTrace:
    """Memory traffic of the non-blur stages: *passes* full-frame
    read+write sweeps (normalize, mask, adjust materializations)."""
    elements = int(frames * height * width * passes)
    return SwKernelTrace(
        name="stages",
        sequential_loads=elements,
        stores=elements,
        element_bytes=8,
    )


def estimate_blur_seconds(
    method: str, frames: int, height: int, width: int, taps: int
) -> float:
    """Model-seconds for both separable passes of one blur method."""
    rows = frames * height  # a vertical pass transposes: same row count
    if method == "fft":
        trace = _blur_trace_fft(rows, width, taps)
    elif method == "folded":
        resident = height * width * 8 * 3 <= _MODEL.l2.size_bytes
        trace = _blur_trace_sliding(rows, width, taps, cache_resident=resident)
    else:
        raise ValueError(f"unknown blur method {method!r}")
    return 2.0 * _MODEL.seconds(trace)


def estimate_candidates(
    frames: int, height: int, width: int, taps: int
) -> Dict[str, float]:
    """Model-seconds for every candidate execution path of a workload.

    Keys: ``staged-folded``, ``staged-fft`` (blur via each staged
    row-convolution strategy plus the staged stage traffic),
    ``fused-folded`` (the band ring: folded blur arithmetic on a
    cache-resident working set with band-resident stage traffic —
    roughly one frame sweep instead of several) and ``fused-fft`` (the
    whole-plane FFT mask: the FFT blur with the same band-resident stage
    traffic).
    """
    stage_staged = _MODEL.seconds(
        _stage_traffic_trace(frames, height, width, passes=3.0)
    )
    stage_fused = _MODEL.seconds(
        _stage_traffic_trace(frames, height, width, passes=1.0)
    )
    folded = estimate_blur_seconds("folded", frames, height, width, taps)
    fft = estimate_blur_seconds("fft", frames, height, width, taps)
    ring = 2.0 * _MODEL.seconds(
        _blur_trace_sliding(frames * height, width, taps, cache_resident=True)
    )
    return {
        "staged-folded": folded + stage_staged,
        "staged-fft": fft + stage_staged,
        "fused-folded": ring + stage_fused,
        "fused-fft": fft + stage_fused,
    }


def format_candidates(costs: Dict[str, float]) -> list:
    """Human-readable cost lines, cheapest first, normalized to it."""
    ordered = sorted(costs.items(), key=lambda item: item[1])
    cheapest = ordered[0][1] or 1.0
    return [
        f"{name}: {seconds * 1e3:.2f} model-ms ({seconds / cheapest:.2f}x)"
        for name, seconds in ordered
    ]
