"""The Gaussian-blur accelerator: one variant per Table II row.

The same C function goes through the paper's optimization ladder; this
package carries each rung as a :class:`~repro.accel.variants.BlurVariant`
bundling

* a **functional model** (computes the actual pixels — float for rungs
  0-3, bit-accurate 16-bit fixed point for rung 4);
* a **performance model** (a software trace for the CPU rung, a kernel IR
  + pragma set + data movers for the hardware rungs).

Modules:

* :mod:`repro.accel.linebuffer` — streaming line-buffer / shift-window
  structures (the functional form of the paper's Fig. 4 restructuring).
* :mod:`repro.accel.geometry` — the blur geometry shared by all layers.
* :mod:`repro.accel.specs` — kernel IR builders and software traces.
* :mod:`repro.accel.variants` — the five-variant registry.
"""

from repro.accel.geometry import BlurGeometry
from repro.accel.linebuffer import (
    LineBuffer,
    ShiftWindow,
    streaming_blur_plane_scalar,
)
from repro.accel.specs import (
    naive_offload_kernel,
    streaming_blur_kernel,
    streaming_pragmas,
    sw_blur_trace,
    sw_pipeline_traces,
)
from repro.accel.variants import (
    VARIANT_KEYS,
    BlurVariant,
    get_variant,
    make_variants,
)

__all__ = [
    "BlurGeometry",
    "LineBuffer",
    "ShiftWindow",
    "streaming_blur_plane_scalar",
    "naive_offload_kernel",
    "streaming_blur_kernel",
    "streaming_pragmas",
    "sw_blur_trace",
    "sw_pipeline_traces",
    "VARIANT_KEYS",
    "BlurVariant",
    "get_variant",
    "make_variants",
]
