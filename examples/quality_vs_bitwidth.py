#!/usr/bin/env python
"""Image quality versus fixed-point word length.

Section III-C: "the width must be 8, 16, 32, or 64 bits" for hardware
function arguments, and the paper picks 16.  This example shows what that
choice costs and buys: PSNR/SSIM of the tone-mapped output for each legal
width, the ~6 dB/bit growth a designer would expect, and the widths that
are rejected: 32 bits, whose 64-bit coefficient product does not fit the
int64 model, and an unaligned width, which cannot cross the bus.

Run:  python examples/quality_vs_bitwidth.py [size]
"""

import sys

from repro.errors import BusAlignmentError, FixedPointError
from repro.experiments.workload import paper_workload
from repro.fixedpoint import FixedFormat, Overflow, Quant
from repro.image.metrics import psnr, ssim
from repro.tonemap import ToneMapParams, ToneMapper
from repro.tonemap.fixed_blur import FixedBlurConfig, make_fixed_blur_fn

SIZE = int(sys.argv[1]) if len(sys.argv) > 1 else 256


def fixed_params(base: ToneMapParams, width: int) -> ToneMapParams:
    config = FixedBlurConfig(
        data_fmt=FixedFormat(width, 6, signed=True, quant=Quant.TRN,
                             overflow=Overflow.SAT),
        coeff_fmt=FixedFormat(width, 0, signed=False, quant=Quant.TRN,
                              overflow=Overflow.SAT),
        renormalize_coefficients=False,
    )
    return ToneMapParams(
        sigma=base.sigma, radius=base.radius, masking=base.masking,
        adjust=base.adjust, blur_fn=make_fixed_blur_fn(config),
    )


def main() -> None:
    workload = paper_workload(size=SIZE)
    reference = ToneMapper(workload.params).run(workload.image).output
    print(f"image {SIZE}x{SIZE}; reference: 32-bit float blur")
    print(f"{'width':>6s} {'PSNR(dB)':>9s} {'SSIM':>9s}")

    for width in (8, 16, 32):
        params = fixed_params(workload.params, width)
        try:
            out = ToneMapper(params).run(workload.image).output
        except FixedPointError as exc:
            print(f"{width:6d} rejected by the int64 model: {exc}")
            continue
        p = psnr(reference, out, 1.0)
        s = float(ssim(reference, out, 1.0))
        marker = "   <- the paper's choice" if width == 16 else ""
        print(f"{width:6d} {p:9.2f} {s:9.6f}{marker}")

    # Unaligned widths cannot cross the PS/PL bus.
    try:
        FixedBlurConfig(data_fmt=FixedFormat(12, 4))
    except BusAlignmentError as exc:
        print(f"\nwidth 12 rejected as expected: {exc}")


if __name__ == "__main__":
    main()
