"""Tests for repro.hls.resources, repro.hls.report and repro.hls.synthesis."""

import pytest

from repro.errors import HlsError, ResourceError
from repro.hls import (
    AccessKind,
    ArrayDecl,
    ArrayPartitionPragma,
    Kernel,
    KernelArg,
    Loop,
    MemAccess,
    OpKind,
    PartitionKind,
    PipelinePragma,
    ResourceUsage,
    Statement,
    estimate_resources,
    schedule_kernel,
    synthesize,
)
from repro.hls.resources import BRAM18_BITS


def small_kernel(taps=8, fixed=False):
    mul = OpKind.MUL if fixed else OpKind.FMUL
    add = OpKind.ADD if fixed else OpKind.FADD
    return Kernel(
        name="small",
        args=[KernelArg("x", AccessKind.READ, 256, 32)],
        arrays=[ArrayDecl("buf", 256, 32)],
        loops=[
            Loop(
                "pixels",
                trip_count=256,
                subloops=[
                    Loop(
                        "taps",
                        trip_count=taps,
                        statements=[
                            Statement(
                                "mac",
                                chain=(OpKind.LOAD, mul, add),
                                accesses=(MemAccess("buf", AccessKind.READ),),
                            )
                        ],
                    )
                ],
            )
        ],
    )


class TestResourceUsage:
    def test_add(self):
        a = ResourceUsage(lut=10, ff=20, dsp=1, bram18=2)
        b = ResourceUsage(lut=5, ff=5, dsp=1, bram18=0)
        c = a + b
        assert (c.lut, c.ff, c.dsp, c.bram18) == (15, 25, 2, 2)

    def test_fits(self):
        small = ResourceUsage(lut=10, ff=10, dsp=1, bram18=1)
        big = ResourceUsage(lut=100, ff=100, dsp=10, bram18=10)
        assert small.fits(big)
        assert not big.fits(small)

    def test_utilization(self):
        used = ResourceUsage(lut=50, ff=25, dsp=5, bram18=2)
        limits = ResourceUsage(lut=100, ff=100, dsp=10, bram18=4)
        util = used.utilization(limits)
        assert util["LUT"] == pytest.approx(0.5)
        assert util["BRAM18"] == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(HlsError):
            ResourceUsage(lut=-1)


class TestEstimateResources:
    def test_bram_from_array_size(self):
        kernel = small_kernel()
        sched = schedule_kernel(kernel)
        res = estimate_resources(kernel, sched)
        expected_bram = max(1, -(-256 * 32 // BRAM18_BITS))
        assert res.bram18 >= expected_bram

    def test_partitioned_array_uses_more_brams(self):
        from repro.hls import apply_pragmas

        base = small_kernel()
        parted = apply_pragmas(
            base, [ArrayPartitionPragma("buf", PartitionKind.CYCLIC, 8)]
        )
        res_base = estimate_resources(base, schedule_kernel(base))
        res_part = estimate_resources(parted, schedule_kernel(parted))
        assert res_part.bram18 > res_base.bram18

    def test_complete_partition_uses_ff_not_bram(self):
        from repro.hls import apply_pragmas

        parted = apply_pragmas(
            small_kernel(), [ArrayPartitionPragma("buf", PartitionKind.COMPLETE)]
        )
        res = estimate_resources(parted, schedule_kernel(parted))
        base = estimate_resources(small_kernel(), schedule_kernel(small_kernel()))
        assert res.ff > base.ff

    def test_pipelining_replicates_operators(self):
        # At II=1 the unrolled tap MACs each need an operator instance.
        base = small_kernel(fixed=True)
        sched_base = schedule_kernel(base)
        from repro.hls import apply_pragmas

        piped = apply_pragmas(
            base,
            [
                PipelinePragma("pixels"),
                ArrayPartitionPragma("buf", PartitionKind.COMPLETE),
            ],
        )
        sched_piped = schedule_kernel(piped)
        res_base = estimate_resources(base, sched_base)
        res_piped = estimate_resources(piped, sched_piped)
        assert res_piped.dsp > res_base.dsp

    def test_fixed_point_cheaper_than_float(self):
        flt = small_kernel(fixed=False)
        fxp = small_kernel(fixed=True)
        res_flt = estimate_resources(flt, schedule_kernel(flt))
        res_fxp = estimate_resources(fxp, schedule_kernel(fxp))
        assert res_fxp.dsp <= res_flt.dsp
        assert res_fxp.lut < res_flt.lut


class TestSynthesize:
    def test_design_latency_conversion(self):
        design = synthesize(small_kernel(), clock_mhz=100)
        assert design.latency_seconds == pytest.approx(
            design.total_cycles * 1e-8
        )

    def test_loop_ii_accessor(self):
        from repro.hls import apply_pragmas  # noqa: F401  (API surface)

        design = synthesize(
            small_kernel(fixed=True),
            pragmas=[PipelinePragma("taps")],
        )
        assert design.loop_ii("taps") == 1

    def test_invalid_clock(self):
        with pytest.raises(HlsError):
            synthesize(small_kernel(), clock_mhz=0)

    def test_device_fit_enforced(self):
        tiny = ResourceUsage(lut=10, ff=10, dsp=0, bram18=0)
        with pytest.raises(ResourceError, match="does not fit"):
            synthesize(small_kernel(), device_limits=tiny)

    def test_fit_passes_on_large_device(self):
        from repro.platform import ZYNQ_7020

        design = synthesize(small_kernel(), device_limits=ZYNQ_7020.limits)
        assert design.resources.fits(ZYNQ_7020.limits)


class TestReport:
    def test_report_contains_sections(self):
        design = synthesize(
            small_kernel(),
            pragmas=[PipelinePragma("pixels")],
        )
        text = design.report()
        assert "HLS Report: small" in text
        assert "Loop summary" in text
        assert "Resource estimate" in text
        assert "pixels" in text

    def test_report_explains_ii_bottleneck(self):
        design = synthesize(
            small_kernel(),  # float MACs, unpartitioned BRAM
            pragmas=[PipelinePragma("pixels")],
        )
        text = design.report()
        assert "II bottleneck" in text
        assert "limited by" in text
