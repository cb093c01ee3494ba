"""Ablation studies: which design choice buys what.

DESIGN.md calls out the load-bearing choices of the reproduction; each
function here isolates one of them and quantifies its effect, the way a
longer version of the paper would:

* :func:`ablate_pragmas` — PIPELINE and ARRAY_PARTITION individually
  (the paper applies them together in step 2).
* :func:`ablate_word_packing` — the FxP step with and without packing
  two 16-bit pixels per BRAM word (isolates the memory half of the
  fixed-point gain from the arithmetic half).
* :func:`ablate_axi_latency` — Marked-HW blur time vs the single-beat
  AXI round trip (how bad the naive offload gets as the interconnect
  gets slower).
* :func:`ablate_pl_clock` — accelerated blur time vs PL clock.
* :func:`ablate_partition_factor` — line-buffer banking sweep: II and
  BRAM cost per factor.
* :func:`ablate_device` — the same design on Z-7010/7020/7045.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.accel.geometry import BlurGeometry
from repro.accel.specs import streaming_blur_kernel, streaming_pragmas
from repro.errors import ResourceError
from repro.experiments.calibration import (
    calibrated_external_model,
    paper_geometry,
)
from repro.hls.pragmas import (
    ArrayPartitionPragma,
    PartitionKind,
    PipelinePragma,
)
from repro.hls.scheduler import ExternalAccessModel
from repro.hls.synthesis import synthesize
from repro.platform.device import ZYNQ_7010, ZYNQ_7020, ZYNQ_7045


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation sweep."""

    label: str
    blur_seconds: Optional[float]
    pixels_ii: Optional[int] = None
    bram18: Optional[int] = None
    dsp: Optional[int] = None
    note: str = ""

    @property
    def feasible(self) -> bool:
        return self.blur_seconds is not None


@dataclass(frozen=True)
class AblationSeries:
    """A labelled sweep."""

    name: str
    points: List[AblationPoint]

    def point(self, label: str) -> AblationPoint:
        for point in self.points:
            if point.label == label:
                return point
        raise KeyError(label)

    def render(self) -> str:
        lines = [f"ABLATION: {self.name}"]
        for point in self.points:
            if not point.feasible:
                lines.append(f"  {point.label:36s} infeasible  {point.note}")
                continue
            extra = []
            if point.pixels_ii is not None:
                extra.append(f"II={point.pixels_ii}")
            if point.bram18 is not None:
                extra.append(f"BRAM18={point.bram18}")
            if point.dsp is not None:
                extra.append(f"DSP={point.dsp}")
            lines.append(
                f"  {point.label:36s} {point.blur_seconds:9.4f} s  "
                + " ".join(extra)
            )
        return "\n".join(lines)


def _design_point(
    label: str,
    fixed: bool,
    pragmas,
    geom: BlurGeometry,
    clock_mhz: float = 100.0,
    device=ZYNQ_7020,
    external: Optional[ExternalAccessModel] = None,
    note: str = "",
) -> AblationPoint:
    kernel = streaming_blur_kernel(geom, fixed=fixed)
    try:
        design = synthesize(
            kernel,
            clock_mhz=clock_mhz,
            pragmas=pragmas,
            external=external or calibrated_external_model(),
            device_limits=device.limits,
        )
    except ResourceError as exc:
        return AblationPoint(label=label, blur_seconds=None, note=str(exc))
    try:
        ii = design.loop_ii("pixels")
    except Exception:
        ii = None
    return AblationPoint(
        label=label,
        blur_seconds=design.latency_seconds,
        pixels_ii=ii,
        bram18=design.resources.bram18,
        dsp=design.resources.dsp,
        note=note,
    )


def ablate_pragmas(geom: Optional[BlurGeometry] = None) -> AblationSeries:
    """PIPELINE and ARRAY_PARTITION, separately and together."""
    geom = geom or paper_geometry()
    configs = [
        ("no pragmas (sequential)", []),
        ("PIPELINE only", [PipelinePragma("pixels")]),
        (
            "ARRAY_PARTITION only",
            [
                ArrayPartitionPragma("hwindow", PartitionKind.COMPLETE),
                ArrayPartitionPragma("coeffs", PartitionKind.COMPLETE),
            ],
        ),
        ("PIPELINE + ARRAY_PARTITION", streaming_pragmas(True)),
    ]
    points = [
        _design_point(label, fixed=False, pragmas=pragmas, geom=geom)
        for label, pragmas in configs
    ]
    return AblationSeries(name="pragma contributions (float)", points=points)


def ablate_word_packing(geom: Optional[BlurGeometry] = None) -> AblationSeries:
    """The FxP step with and without 16-bit word packing.

    Separates the fixed-point conversion's memory benefit (double port
    throughput) from its arithmetic benefit (single-cycle MACs): without
    packing the fixed kernel keeps the float version's port-limited II.
    """
    geom = geom or paper_geometry()
    packed_kernel = streaming_blur_kernel(geom, fixed=True)
    unpacked_kernel = packed_kernel.copy()
    unpacked_kernel.replace_array(
        replace(unpacked_kernel.array("linebuf"), word_packed=False)
    )
    pragmas = streaming_pragmas(True)
    external = calibrated_external_model()

    points = []
    for label, kernel in (
        ("fxp, word-packed line buffer", packed_kernel),
        ("fxp, unpacked line buffer", unpacked_kernel),
    ):
        design = synthesize(kernel, clock_mhz=100.0, pragmas=pragmas,
                            external=external)
        points.append(
            AblationPoint(
                label=label,
                blur_seconds=design.latency_seconds,
                pixels_ii=design.loop_ii("pixels"),
                bram18=design.resources.bram18,
                dsp=design.resources.dsp,
            )
        )
    # Float baseline for reference.
    points.append(
        _design_point("float baseline", fixed=False,
                      pragmas=pragmas, geom=geom)
    )
    return AblationSeries(name="FxP word packing", points=points)


def ablate_axi_latency(
    geom: Optional[BlurGeometry] = None,
    latencies=(50, 100, 138, 200, 300),
) -> AblationSeries:
    """Marked-HW blur time as a function of the AXI round trip."""
    geom = geom or paper_geometry()
    from repro.accel.specs import naive_offload_kernel

    kernel = naive_offload_kernel(geom)
    points = []
    for latency in latencies:
        design = synthesize(
            kernel,
            clock_mhz=100.0,
            external=ExternalAccessModel(read_latency=latency, write_latency=12),
        )
        points.append(
            AblationPoint(
                label=f"read latency {latency} cycles",
                blur_seconds=design.latency_seconds,
            )
        )
    return AblationSeries(name="Marked-HW vs AXI latency", points=points)


def ablate_pl_clock(
    geom: Optional[BlurGeometry] = None, clocks=(50.0, 100.0, 142.9, 200.0)
) -> AblationSeries:
    """Accelerated (FxP) blur time vs PL clock frequency."""
    geom = geom or paper_geometry()
    points = [
        _design_point(
            f"PL @ {clock:.1f} MHz",
            fixed=True,
            pragmas=streaming_pragmas(True),
            geom=geom,
            clock_mhz=clock,
        )
        for clock in clocks
    ]
    return AblationSeries(name="FxP blur vs PL clock", points=points)


def ablate_partition_factor(
    geom: Optional[BlurGeometry] = None, factors=(1, 2, 4, 8, 16, 32)
) -> AblationSeries:
    """Line-buffer banking: II falls, BRAM rises."""
    geom = geom or paper_geometry()
    points = []
    for factor in factors:
        pragmas = list(streaming_pragmas(True))
        if factor > 1:
            pragmas.append(
                ArrayPartitionPragma("linebuf", PartitionKind.CYCLIC, factor)
            )
        points.append(
            _design_point(
                f"linebuf x{factor}", fixed=False, pragmas=pragmas, geom=geom
            )
        )
    return AblationSeries(name="line-buffer partition factor (float)",
                          points=points)


def ablate_device(geom: Optional[BlurGeometry] = None) -> AblationSeries:
    """The pragma design on each catalog device (fit + timing)."""
    geom = geom or paper_geometry()
    points = []
    for device in (ZYNQ_7010, ZYNQ_7020, ZYNQ_7045):
        point = _design_point(
            device.name,
            fixed=False,
            pragmas=streaming_pragmas(True),
            geom=geom,
            device=device,
        )
        points.append(point)
    return AblationSeries(name="device sweep (float pragma design)",
                          points=points)


def run_all_ablations(geom: Optional[BlurGeometry] = None) -> List[AblationSeries]:
    """Every ablation series, for the CLI and EXPERIMENTS.md appendix."""
    geom = geom or paper_geometry()
    return [
        ablate_pragmas(geom),
        ablate_word_packing(geom),
        ablate_axi_latency(geom),
        ablate_pl_clock(geom),
        ablate_partition_factor(geom),
        ablate_device(geom),
    ]
