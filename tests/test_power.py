"""Tests for repro.power: rails, model, energy decomposition, PMBus."""

import pytest

from repro.errors import PowerError
from repro.power import (
    ExecutionPhase,
    PmBusMonitor,
    PowerModel,
    Rail,
    RailPowers,
    compute_energy,
)


def phases(sw_seconds=2.0, hw_seconds=1.0):
    return [
        ExecutionPhase("pre", 0.5, ps_active=True, pl_active=False),
        ExecutionPhase("blur", hw_seconds, ps_active=False, pl_active=True),
        ExecutionPhase("post", sw_seconds, ps_active=True, pl_active=False),
    ]


class TestRailPowers:
    def test_total(self):
        rp = RailPowers.of(ps=1.0, pl=0.5, ddr=0.25, bram=0.25)
        assert rp.total == 2.0

    def test_missing_rail_rejected(self):
        with pytest.raises(PowerError):
            RailPowers({Rail.PS: 1.0})

    def test_negative_rejected(self):
        with pytest.raises(PowerError):
            RailPowers.of(ps=-1.0)

    def test_plus_and_scaled(self):
        a = RailPowers.of(ps=1.0, pl=1.0, ddr=0.0, bram=0.0)
        b = RailPowers.of(ps=0.5, pl=0.0, ddr=0.5, bram=0.0)
        assert a.plus(b)[Rail.PS] == 1.5
        assert a.scaled(2.0)[Rail.PL] == 2.0

    def test_uniform(self):
        assert RailPowers.uniform(0.1).total == pytest.approx(0.4)


class TestPowerModel:
    def test_pl_idle_grows_with_utilization(self):
        model = PowerModel()
        empty = model.idle_powers(0.0)[Rail.PL]
        half = model.idle_powers(0.5)[Rail.PL]
        full = model.idle_powers(1.0)[Rail.PL]
        assert empty < half < full
        assert empty == pytest.approx(model.pl_base_w)

    def test_ddr_constant_across_activity(self):
        # Paper: DDR/BRAM "does not vary when moving from idle to
        # execution".
        model = PowerModel()
        idle = model.phase_powers(
            ExecutionPhase("idle", 1.0, False, False), 0.5
        )
        busy = model.phase_powers(
            ExecutionPhase("busy", 1.0, True, True), 0.5
        )
        assert idle[Rail.DDR] == busy[Rail.DDR]
        assert idle[Rail.BRAM] == busy[Rail.BRAM]

    def test_ps_overhead_only_when_active(self):
        model = PowerModel()
        off = model.active_overhead(False, False, 0.0)
        on = model.active_overhead(True, False, 0.0)
        assert off[Rail.PS] == 0.0
        assert on[Rail.PS] == model.ps_active_w

    def test_pl_overhead_scales_with_utilization(self):
        model = PowerModel()
        low = model.active_overhead(False, True, 0.1)[Rail.PL]
        high = model.active_overhead(False, True, 0.8)[Rail.PL]
        assert high > low

    def test_utilization_range_checked(self):
        with pytest.raises(PowerError):
            PowerModel().idle_powers(1.5)

    def test_timeline_duration(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.2)
        assert timeline.total_duration == pytest.approx(3.5)

    def test_power_at_selects_phase(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.2)
        pre = timeline.power_at(0.25)
        blur = timeline.power_at(1.0)
        assert pre[Rail.PS] > blur[Rail.PS]   # PS idle during HW blur
        assert blur[Rail.PL] > pre[Rail.PL]

    def test_energy_exact_integration(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.2)
        energy = timeline.energy_joules()
        by_hand = 0.0
        for phase, powers in timeline.segments:
            by_hand += powers.total * phase.duration_s
        assert sum(energy[r] for r in Rail) == pytest.approx(by_hand)

    def test_empty_timeline_rejected(self):
        with pytest.raises(PowerError):
            PowerModel().timeline_powers([], 0.0)


class TestComputeEnergy:
    def test_bottomline_is_idle_times_duration(self):
        model = PowerModel()
        report = compute_energy("x", phases(), 0.3, model)
        idle = model.idle_powers(0.3)
        duration = 3.5
        for rail in Rail:
            assert report.rail(rail).bottomline_j == pytest.approx(
                idle[rail] * duration
            )

    def test_overhead_only_during_activity(self):
        model = PowerModel()
        report = compute_energy("x", phases(hw_seconds=1.0), 0.3, model)
        assert report.rail(Rail.PL).overhead_j == pytest.approx(
            model.pl_util_active_w * 0.3 * 1.0
        )
        # PS active 2.5 s of the 3.5 s run.
        assert report.rail(Rail.PS).overhead_j == pytest.approx(
            model.ps_active_w * 2.5
        )

    def test_ddr_has_no_overhead(self):
        report = compute_energy("x", phases(), 0.3)
        assert report.rail(Rail.DDR).overhead_j == 0.0
        assert report.rail(Rail.BRAM).overhead_j == 0.0

    def test_totals_consistent(self):
        report = compute_energy("x", phases(), 0.3)
        assert report.total_j == pytest.approx(
            report.bottomline_j + report.overhead_j
        )

    def test_matches_timeline_integration(self):
        model = PowerModel()
        report = compute_energy("x", phases(), 0.3, model)
        timeline = model.timeline_powers(phases(), 0.3)
        exact = timeline.energy_joules()
        for rail in Rail:
            assert report.rail(rail).total_j == pytest.approx(exact[rail])

    def test_empty_phases_rejected(self):
        with pytest.raises(PowerError):
            compute_energy("x", [], 0.0)


class TestPmBusMonitor:
    def test_noiseless_measurement_matches_exact_energy(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.3)
        monitor = PmBusMonitor(sample_interval_s=1e-3)
        measured = monitor.measure_energy(timeline)
        exact = timeline.energy_joules()
        for rail in Rail:
            assert measured[rail] == pytest.approx(exact[rail], rel=0.02)

    def test_noise_is_reproducible(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.3)
        a = PmBusMonitor(noise_rms_w=0.05, seed=7).measure_energy(timeline)
        b = PmBusMonitor(noise_rms_w=0.05, seed=7).measure_energy(timeline)
        assert a == b

    def test_noise_converges_with_samples(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.3)
        exact = sum(timeline.energy_joules()[r] for r in Rail)
        fine = PmBusMonitor(sample_interval_s=2e-4, noise_rms_w=0.05, seed=1)
        measured = sum(fine.measure_energy(timeline).values())
        assert measured == pytest.approx(exact, rel=0.02)

    def test_trace_shape(self):
        model = PowerModel()
        timeline = model.timeline_powers(phases(), 0.3)
        traces = PmBusMonitor(sample_interval_s=0.1).measure(timeline)
        trace = traces[Rail.PS]
        assert trace.times_s.shape == trace.watts.shape
        assert trace.times_s[-1] < timeline.total_duration

    def test_validation(self):
        with pytest.raises(PowerError):
            PmBusMonitor(sample_interval_s=0.0)
        with pytest.raises(PowerError):
            PmBusMonitor(noise_rms_w=-0.1)
