"""Tests for repro.platform: device, clock, memory, axi, soc."""

import pytest

from repro.errors import DataMoverError, PlatformError
from repro.platform import (
    ZYNQ_7010,
    ZYNQ_7020,
    ZYNQ_7045,
    ArmCortexA9Model,
    AxiPort,
    BramModel,
    ClockDomain,
    DataMover,
    DataMoverKind,
    DdrModel,
    ZynqSoC,
    transfer_cost,
)
from repro.platform.clock import PL_CLOCK_100


class TestDevice:
    def test_catalog_ordering(self):
        assert ZYNQ_7010.lut < ZYNQ_7020.lut < ZYNQ_7045.lut

    def test_limits_roundtrip(self):
        limits = ZYNQ_7020.limits
        assert limits.lut == 53200
        assert limits.dsp == 220
        assert limits.bram18 == 280

    def test_bram_capacity(self):
        # Z-7020: 280 x 18Kb = 630 KB.
        assert ZYNQ_7020.bram_kbytes == pytest.approx(630.0)


class TestClock:
    def test_period(self):
        clk = ClockDomain("pl", 100.0)
        assert clk.period_ns == pytest.approx(10.0)

    def test_cycles_to_seconds(self):
        clk = ClockDomain("pl", 100.0)
        assert clk.cycles_to_seconds(1_000_000) == pytest.approx(0.01)

    def test_seconds_to_cycles_rounds_up(self):
        clk = ClockDomain("pl", 100.0)
        assert clk.seconds_to_cycles(1.5e-8) == 2

    def test_invalid_frequency(self):
        with pytest.raises(PlatformError):
            ClockDomain("bad", 0.0)

    def test_negative_cycles_rejected(self):
        with pytest.raises(PlatformError):
            PL_CLOCK_100.cycles_to_seconds(-1)


class TestDdrModel:
    def test_burst_faster_than_beats(self):
        ddr = DdrModel()
        num_bytes = 1 << 20
        burst = ddr.burst_transfer_seconds(num_bytes)
        beats = ddr.single_beat_seconds(num_bytes // 4)
        assert burst < beats / 10

    def test_zero_bytes_free(self):
        assert DdrModel().burst_transfer_seconds(0) == 0.0

    def test_effective_bandwidth(self):
        ddr = DdrModel(peak_bandwidth_bytes_per_s=4e9, burst_efficiency=0.5)
        assert ddr.effective_bandwidth == pytest.approx(2e9)

    def test_validation(self):
        with pytest.raises(PlatformError):
            DdrModel(peak_bandwidth_bytes_per_s=0)
        with pytest.raises(PlatformError):
            DdrModel(burst_efficiency=1.5)


class TestBramModel:
    def test_brams_for(self):
        bram = BramModel()
        assert bram.brams_for(depth=512, width_bits=36) == 1
        assert bram.brams_for(depth=2048, width_bits=32) == 4

    def test_lines_fit(self):
        bram = BramModel(total_bram18=280)
        # 1024-pixel 32-bit lines: 32 Kb each; 280*18Kb*0.75 usable.
        lines = bram.lines_fit(1024, 32)
        assert 100 <= lines <= 130

    def test_paper_line_buffer_fits(self):
        # 57 lines of 1024 32-bit pixels must fit the Z-7020 (the
        # feasibility condition of the Fig. 4 restructuring).
        assert BramModel().lines_fit(1024, 32) >= 57

    def test_validation(self):
        with pytest.raises(PlatformError):
            BramModel().brams_for(0, 32)
        with pytest.raises(PlatformError):
            BramModel().lines_fit(1024, 32, reserve_fraction=1.0)


class TestDataMovers:
    def test_dma_burst_cost_scales_with_size(self):
        ddr = DdrModel()
        mover = DataMover(DataMoverKind.AXI_DMA_SIMPLE)
        small = transfer_cost(1 << 12, mover, ddr, PL_CLOCK_100)
        large = transfer_cost(1 << 22, mover, ddr, PL_CLOCK_100)
        assert large.bus_seconds > small.bus_seconds

    def test_simple_dma_size_limit(self):
        ddr = DdrModel()
        mover = DataMover(DataMoverKind.AXI_DMA_SIMPLE)
        with pytest.raises(DataMoverError, match="at most"):
            transfer_cost(16 << 20, mover, ddr, PL_CLOCK_100)

    def test_sg_dma_handles_large(self):
        ddr = DdrModel()
        mover = DataMover(DataMoverKind.AXI_DMA_SG)
        cost = transfer_cost(16 << 20, mover, ddr, PL_CLOCK_100)
        assert cost.bus_seconds > 0

    def test_coherent_mover_skips_cache_maintenance(self):
        ddr = DdrModel()
        hp = DataMover(DataMoverKind.AXI_DMA_SIMPLE, AxiPort.HP)
        acp = DataMover(DataMoverKind.AXI_DMA_SIMPLE, AxiPort.ACP)
        num_bytes = 1 << 20
        cost_hp = transfer_cost(num_bytes, hp, ddr, PL_CLOCK_100)
        cost_acp = transfer_cost(num_bytes, acp, ddr, PL_CLOCK_100)
        assert cost_acp.cpu_cycles < cost_hp.cpu_cycles

    def test_zero_copy_defers_to_kernel(self):
        ddr = DdrModel()
        cost = transfer_cost(
            1 << 20, DataMover(DataMoverKind.ZERO_COPY), ddr, PL_CLOCK_100
        )
        assert cost.bus_seconds == 0.0

    def test_axi_lite_per_word(self):
        ddr = DdrModel()
        mover = DataMover(DataMoverKind.AXI_LITE, AxiPort.GP)
        cost4 = transfer_cost(4, mover, ddr, PL_CLOCK_100)
        cost64 = transfer_cost(64, mover, ddr, PL_CLOCK_100)
        assert cost64.bus_seconds > cost4.bus_seconds

    def test_axi_lite_requires_gp(self):
        with pytest.raises(DataMoverError):
            DataMover(DataMoverKind.AXI_LITE, AxiPort.HP)

    def test_total_seconds(self):
        ddr = DdrModel()
        cost = transfer_cost(
            1 << 16, DataMover(DataMoverKind.AXI_DMA_SIMPLE), ddr, PL_CLOCK_100
        )
        total = cost.total_seconds(cpu_freq_mhz=666.7)
        assert total > cost.bus_seconds

    def test_negative_bytes_rejected(self):
        ddr = DdrModel()
        with pytest.raises(DataMoverError):
            transfer_cost(-1, DataMover(DataMoverKind.AXI_DMA_SIMPLE), ddr,
                          PL_CLOCK_100)


class TestZynqSoC:
    def test_defaults(self):
        soc = ZynqSoC()
        assert soc.device.name == "XC7Z020"
        assert soc.ps_clock.freq_mhz / soc.pl_clock.freq_mhz == pytest.approx(
            6.667, rel=1e-3
        )

    def test_cycle_conversions(self):
        soc = ZynqSoC()
        assert soc.pl_cycles_to_seconds(100e6) == pytest.approx(1.0)
        assert soc.ps_cycles_to_seconds(666.7e6) == pytest.approx(1.0)

    def test_with_pl_clock(self):
        soc = ZynqSoC().with_pl_clock(142.9)
        assert soc.pl_clock.freq_mhz == pytest.approx(142.9)

    def test_excessive_pl_clock_rejected(self):
        with pytest.raises(PlatformError):
            ZynqSoC().with_pl_clock(400.0)

    def test_cpu_overclock_rejected(self):
        cpu = ArmCortexA9Model(freq_mhz=900.0)
        with pytest.raises(PlatformError):
            ZynqSoC(cpu=cpu, ps_clock=ClockDomain("ps", 900.0))
