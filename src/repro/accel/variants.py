"""The five-variant registry: one entry per Table II row.

Each :class:`BlurVariant` bundles what the SDSoC flow needs to price an
implementation (kernel IR, pragma set, data movers) with the functional
blur used for image-quality results.  Rows 2-4 share one kernel source
and differ only in pragmas/arithmetic — exactly the paper's methodology
of iterating on the same C function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.accel.geometry import BlurGeometry
from repro.accel.specs import (
    naive_offload_kernel,
    streaming_blur_kernel,
    streaming_pragmas,
)
from repro.errors import FlowError
from repro.fixedpoint import FixedFormat, Overflow, Quant
from repro.hls.ir import Kernel
from repro.hls.pragmas import Pragma
from repro.platform.axi import AxiPort, DataMover, DataMoverKind
from repro.tonemap.fixed_blur import FixedBlurConfig, make_fixed_blur_fn
from repro.tonemap.gaussian import GaussianKernel, separable_blur

#: Functional blur signature shared with the tone-mapping pipeline.
BlurFn = Callable[[np.ndarray, GaussianKernel], np.ndarray]

#: Table II row keys, in paper order.
VARIANT_KEYS = ("sw", "marked_hw", "sequential", "pragmas", "fxp")


def paper_fxp_config() -> FixedBlurConfig:
    """The 16-bit format inferred for the paper's accelerator.

    16 total bits (the bus-aligned width the paper names), truncation
    quantization (the Vivado HLS default mode) and conservative integer
    headroom — a designer sizing without formal range analysis.  This
    configuration lands within a few dB of the paper's 66 dB PSNR; see
    EXPERIMENTS.md.
    """
    return FixedBlurConfig(
        data_fmt=FixedFormat(16, 6, signed=True, quant=Quant.TRN,
                             overflow=Overflow.SAT),
        coeff_fmt=FixedFormat(16, 0, signed=False, quant=Quant.TRN,
                              overflow=Overflow.SAT),
        renormalize_coefficients=False,
    )


@dataclass(frozen=True)
class BlurVariant:
    """One implementation rung of the optimization ladder."""

    key: str
    title: str
    description: str
    uses_hardware: bool
    fixed_point: bool
    functional: BlurFn
    kernel: Optional[Kernel] = None
    pragmas: List[Pragma] = field(default_factory=list)
    data_movers: Dict[str, DataMover] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.uses_hardware and self.kernel is None:
            raise FlowError(f"hardware variant {self.key!r} needs a kernel")
        if not self.uses_hardware and self.kernel is not None:
            raise FlowError(f"software variant {self.key!r} must not carry a kernel")


def make_variants(
    geom: BlurGeometry = BlurGeometry(),
    fxp_config: Optional[FixedBlurConfig] = None,
) -> Dict[str, BlurVariant]:
    """Build the five Table II variants for one blur geometry."""
    fxp_config = fxp_config or paper_fxp_config()
    dma = DataMover(DataMoverKind.AXI_DMA_SIMPLE, AxiPort.HP)
    zero_copy = DataMover(DataMoverKind.ZERO_COPY, AxiPort.HP)

    stream_kernel = streaming_blur_kernel(geom, fixed=False)
    stream_kernel_fxp = streaming_blur_kernel(geom, fixed=True)

    return {
        "sw": BlurVariant(
            key="sw",
            title="SW source code",
            description="Full pipeline on the ARM core; blur in software.",
            uses_hardware=False,
            fixed_point=False,
            functional=separable_blur,
        ),
        "marked_hw": BlurVariant(
            key="marked_hw",
            title="Marked HW function",
            description=(
                "Unmodified blur marked for hardware: random single-beat "
                "AXI accesses to shared DDR per tap."
            ),
            uses_hardware=True,
            fixed_point=False,
            functional=separable_blur,
            kernel=naive_offload_kernel(geom),
            data_movers={"src": zero_copy, "dst": zero_copy},
        ),
        "sequential": BlurVariant(
            key="sequential",
            title="Sequential memory accesses",
            description=(
                "Restructured dataflow: DMA streams pixels into a BRAM "
                "line buffer (paper Fig. 4); tap loops still sequential."
            ),
            uses_hardware=True,
            fixed_point=False,
            functional=separable_blur,
            kernel=stream_kernel,
            pragmas=streaming_pragmas(enable_pipeline=False),
            data_movers={"in_stream": dma, "out_stream": dma},
        ),
        "pragmas": BlurVariant(
            key="pragmas",
            title="HLS pragmas",
            description=(
                "PIPELINE on the pixel loop plus ARRAY_PARTITION of the "
                "window and coefficients; line-buffer ports limit the II."
            ),
            uses_hardware=True,
            fixed_point=False,
            functional=separable_blur,
            kernel=stream_kernel,
            pragmas=streaming_pragmas(enable_pipeline=True),
            data_movers={"in_stream": dma, "out_stream": dma},
        ),
        "fxp": BlurVariant(
            key="fxp",
            title="FlP to FxP conversion",
            description=(
                "16-bit ap_fixed datapath: single-cycle MACs, two pixels "
                "per BRAM word, half the transfer bytes."
            ),
            uses_hardware=True,
            fixed_point=True,
            functional=make_fixed_blur_fn(fxp_config),
            kernel=stream_kernel_fxp,
            pragmas=streaming_pragmas(enable_pipeline=True),
            data_movers={"in_stream": dma, "out_stream": dma},
        ),
    }


def get_variant(key: str, geom: BlurGeometry = BlurGeometry()) -> BlurVariant:
    """Fetch a single variant by Table II key."""
    variants = make_variants(geom)
    if key not in variants:
        raise FlowError(f"unknown variant {key!r}; known: {VARIANT_KEYS}")
    return variants[key]
