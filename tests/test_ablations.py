"""Tests for repro.experiments.ablations and .extensions."""

import pytest

from repro.accel import BlurGeometry
from repro.experiments.ablations import (
    ablate_axi_latency,
    ablate_device,
    ablate_partition_factor,
    ablate_pl_clock,
    ablate_pragmas,
    ablate_word_packing,
    run_all_ablations,
)
from repro.experiments.calibration import make_paper_flow
from repro.experiments.extensions import (
    overlap_study,
    overlapped_blur_seconds,
    runtime_throughput,
    video_throughput,
)

# Small geometry keeps the sweeps fast; mechanisms are size-independent.
GEOM = BlurGeometry(height=256, width=256, radius=12, sigma=4.0)
FLOW = make_paper_flow()


class TestPragmaAblation:
    SERIES = ablate_pragmas(GEOM)

    def test_pipeline_alone_helps(self):
        base = self.SERIES.point("no pragmas (sequential)").blur_seconds
        piped = self.SERIES.point("PIPELINE only").blur_seconds
        assert piped < base / 5

    def test_partition_alone_useless(self):
        # Without pipelining, extra ports have nothing to feed: the
        # paper's insight that the knobs must compose.
        base = self.SERIES.point("no pragmas (sequential)").blur_seconds
        parted = self.SERIES.point("ARRAY_PARTITION only").blur_seconds
        assert parted == pytest.approx(base, rel=0.01)

    def test_combination_is_best(self):
        times = [p.blur_seconds for p in self.SERIES.points if p.feasible]
        combo = self.SERIES.point("PIPELINE + ARRAY_PARTITION").blur_seconds
        assert combo == min(times)

    def test_render(self):
        text = self.SERIES.render()
        assert "ABLATION" in text and "PIPELINE" in text


class TestWordPackingAblation:
    SERIES = ablate_word_packing(GEOM)

    def test_packing_halves_ii(self):
        packed = self.SERIES.point("fxp, word-packed line buffer")
        unpacked = self.SERIES.point("fxp, unpacked line buffer")
        assert packed.pixels_ii < unpacked.pixels_ii
        assert packed.blur_seconds < unpacked.blur_seconds

    def test_unpacked_fxp_matches_float_ii(self):
        # Without packing, fixed point has the same port bottleneck as
        # float: the memory half of the FxP gain is isolated here.
        unpacked = self.SERIES.point("fxp, unpacked line buffer")
        flt = self.SERIES.point("float baseline")
        assert unpacked.pixels_ii == flt.pixels_ii

    def test_fxp_uses_less_area(self):
        packed = self.SERIES.point("fxp, word-packed line buffer")
        flt = self.SERIES.point("float baseline")
        assert packed.bram18 < flt.bram18
        assert packed.dsp < flt.dsp


class TestLatencyClockDeviceSweeps:
    def test_axi_latency_monotone(self):
        series = ablate_axi_latency(GEOM, latencies=(50, 150, 300))
        times = [p.blur_seconds for p in series.points]
        assert times[0] < times[1] < times[2]

    def test_pl_clock_inverse_scaling(self):
        series = ablate_pl_clock(GEOM, clocks=(100.0, 200.0))
        t100 = series.point("PL @ 100.0 MHz").blur_seconds
        t200 = series.point("PL @ 200.0 MHz").blur_seconds
        assert t100 == pytest.approx(2 * t200, rel=1e-6)

    def test_partition_factor_tradeoff(self):
        series = ablate_partition_factor(GEOM, factors=(1, 4))
        x1 = series.point("linebuf x1")
        x4 = series.point("linebuf x4")
        assert x4.blur_seconds < x1.blur_seconds
        assert x4.dsp > x1.dsp  # lower II needs more operator instances

    def test_over_partitioning_hits_device_limits(self):
        # At the paper geometry, huge banking overflows the Z-7020.
        series = ablate_partition_factor(factors=(1, 32))
        assert not series.point("linebuf x32").feasible
        assert "does not fit" in series.point("linebuf x32").note

    def test_device_sweep_all_devices_evaluated(self):
        series = ablate_device(GEOM)
        assert [p.label for p in series.points] == [
            "XC7Z010", "XC7Z020", "XC7Z045",
        ]
        assert all(p.feasible for p in series.points)

    def test_run_all_ablations(self):
        all_series = run_all_ablations(GEOM)
        assert len(all_series) == 6
        for series in all_series:
            assert series.points, series.name


class TestOverlapExtension:
    STUDY = overlap_study(FLOW)

    def test_overlap_never_slower(self):
        for result in self.STUDY.results:
            assert result.overlapped_s <= result.serialized_s

    def test_saving_fraction_bounded(self):
        for result in self.STUDY.results:
            assert 0.0 <= result.saving_fraction < 1.0

    def test_sw_passthrough(self):
        impl = FLOW.run_variant("sw")
        assert overlapped_blur_seconds(impl) == impl.blur_seconds

    def test_render(self):
        assert "overlap" in self.STUDY.render()


class TestThroughputExtension:
    STUDY = video_throughput(FLOW)

    def test_all_variants_present(self):
        keys = [r.key for r in self.STUDY.results]
        assert keys == list(FLOW.variants)

    def test_pipelining_never_hurts(self):
        for result in self.STUDY.results:
            assert result.fps_pipelined >= result.fps_sequential - 1e-12

    def test_sw_cannot_overlap(self):
        result = self.STUDY.result("sw")
        assert result.fps_pipelined == result.fps_sequential

    def test_accelerated_variants_are_ps_bound(self):
        # Once the blur is fast, the frame rate is set by the PS stages —
        # the Amdahl observation implicit in the paper's totals.
        for key in ("pragmas", "fxp"):
            assert self.STUDY.result(key).bound_by == "ps stages"

    def test_fxp_beats_sw_throughput(self):
        assert (
            self.STUDY.result("fxp").fps_pipelined
            > self.STUDY.result("sw").fps_pipelined
        )

    def test_render(self):
        assert "frames/s" in self.STUDY.render()


@pytest.fixture(scope="module")
def runtime_row():
    # One small live measurement shared by the assertions below (the
    # frame size only scales the rates, not the study's mechanics).
    # A fixture, not a class attribute: it must run lazily at test time,
    # not during collection.
    return runtime_throughput(size=48, frames=3, batch_size=2)


class TestRuntimeThroughputRows:
    def test_measured_rates_are_positive(self, runtime_row):
        assert runtime_row.fps_sequential > 0.0
        assert runtime_row.fps_pipelined > 0.0
        assert "measured" in runtime_row.bound_by

    def test_rows_append_to_video_study(self, runtime_row):
        study = video_throughput(FLOW, runtime=[runtime_row])
        keys = [r.key for r in study.results]
        assert keys[: len(FLOW.variants)] == list(FLOW.variants)
        assert keys[-1] == "sw-batch"
        assert study.result("sw-batch") is runtime_row
        assert "sw-batch" in study.render()

    def test_sharded_key_names_the_shard_count(self):
        row = runtime_throughput(size=32, frames=2, shards=1, batch_size=2)
        assert row.key == "sw-shard1"

    def test_fixed_row_labels_the_blur(self):
        row = runtime_throughput(size=32, frames=2, fixed=True, batch_size=2)
        assert "fxp" in row.bound_by
