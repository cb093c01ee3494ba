"""Tests for the crossover calibration (``repro.planner.calibrate``) and
the call-time profile resolution the dispatch reads it through
(``REPRO_PLANNER_PROFILE`` and ``planner.override``)."""

import json

from repro.planner import calibrate


class TestStableCrossover:
    def rows(self, *pairs):
        return [
            {"key": i, "incumbent_s": inc, "challenger_s": ch}
            for i, (inc, ch) in enumerate(pairs)
        ]

    def test_first_stable_win_is_picked(self):
        rows = self.rows((1.0, 2.0), (1.0, 0.9), (1.0, 0.5))
        assert calibrate._stable_crossover(rows, "key") == 1

    def test_single_noisy_win_does_not_count(self):
        rows = self.rows((1.0, 0.9), (1.0, 2.0), (1.0, 0.5))
        assert calibrate._stable_crossover(rows, "key") == 2

    def test_never_stabilizes_returns_none(self):
        rows = self.rows((1.0, 2.0), (1.0, 2.0))
        assert calibrate._stable_crossover(rows, "key") is None


class TestSweeps:
    def test_quick_sweep_emits_recommendations(self, capsys):
        assert calibrate.main(["--quick", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        taps = int(
            out.split("recommended for this host: fft_crossover_taps=")[1]
            .splitlines()[0]
        )
        assert taps > 0
        # The profile file is the only way to apply a calibration: no
        # per-threshold variables to export, no tiled sweep.
        assert "export " not in out
        assert "tiled" not in out.lower()

    def test_output_profile_round_trips(self, tmp_path, capsys):
        from repro.planner import CalibrationProfile

        path = tmp_path / "host.json"
        assert calibrate.main(
            ["--quick", "--rounds", "1", "-o", str(path)]
        ) == 0
        assert f"REPRO_PLANNER_PROFILE={path}" in capsys.readouterr().out
        profile = CalibrationProfile.load(path)
        sweeps = json.loads(path.read_text())["sweeps"]
        assert profile.fft_crossover_taps == sweeps["fft"]["recommended"]
        assert profile.fused_fft_min_taps == sweeps["fused"]["recommended"]

    def test_json_output_is_parseable(self, capsys):
        assert calibrate.main(["--quick", "--rounds", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fft"]["recommended"] > 0
        assert set(data) == {"fft", "fused", "profile"}
        assert set(data["profile"]) == {
            "fft_crossover_taps", "fused_fft_min_taps", "host", "source",
            "calibrated", "version",
        }
        assert all("taps" in row for row in data["fft"]["rows"])
        assert all("taps" in row for row in data["fused"]["rows"])

    def test_fused_sweep_sets_the_profile_on_numpy_kernels(
        self, numpy_kernels, monkeypatch
    ):
        # A host without a compiler runs the NumPy ring, which the
        # plane overtakes at a narrower kernel than the compiled ring:
        # the profile takes whatever this host's sweep recommends.
        from repro.runtime import band_kernels

        passes = []
        vertical = band_kernels.NUMPY.vertical
        monkeypatch.setattr(
            band_kernels.NUMPY, "vertical",
            lambda *args: passes.append(1) or vertical(*args),
        )
        result = calibrate.run_calibration(rounds=1, quick=True)
        assert passes  # the ring ran on the NumPy kernels
        fused = result["fused"]
        taps = [2 * r + 1 for r in calibrate.QUICK_FUSED_RADIUS_GRID]
        assert [row["taps"] for row in fused["rows"]] == taps
        assert all(
            row["incumbent_s"] > 0 and row["challenger_s"] > 0
            for row in fused["rows"]
        )
        crossover = calibrate._stable_crossover(fused["rows"], "taps")
        assert fused["recommended"] == (
            taps[-1] + 2 if crossover is None else crossover
        )
        assert result["profile"].fused_fft_min_taps == fused["recommended"]


class TestEnvOverrides:
    def test_env_moves_fused_h_method_at_call_time(
        self, monkeypatch, tmp_path
    ):
        from repro.planner import CalibrationProfile
        from repro.runtime.fused import FusedToneMapPlan
        from repro.tonemap.pipeline import ToneMapParams

        plan = FusedToneMapPlan(ToneMapParams(sigma=4.0))
        taps = plan.kernel.coefficients.size
        assert plan.h_method() == "folded"
        path = CalibrationProfile(fused_fft_min_taps=taps).save(
            tmp_path / "profile.json"
        )
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(path))
        assert plan.h_method() == "fft"

    def test_override_moves_the_auto_dispatch(self):
        # planner.override pins thresholds for the calling context; the
        # dispatch in gaussian reads the active profile per call.
        from repro import planner
        from repro.tonemap import gaussian

        with planner.override(fft_crossover_taps=5):
            assert gaussian._select_method("auto", 5) == "fft"
        with planner.override(fft_crossover_taps=99):
            assert gaussian._select_method("auto", 97) == "folded"
        assert gaussian._select_method("auto", 5) == "folded"
        assert gaussian._select_method("auto", 97) == "fft"
