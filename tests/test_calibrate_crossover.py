"""Tests for the crossover calibration (``repro.planner.calibrate``) and
the call-time profile resolution the dispatch reads it through
(``REPRO_PLANNER_PROFILE`` and ``planner.override``)."""

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
        assert profile.fft_crossover_taps > 0
        assert profile.fused_fft_min_taps == (
            CalibrationProfile().fused_fft_min_taps
        )

    def test_json_output_is_parseable(self, capsys):
        import json

        assert calibrate.main(["--quick", "--rounds", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fft"]["recommended"] > 0
        assert set(data) == {"fft", "profile"}
        assert set(data["profile"]) == {
            "fft_crossover_taps", "fused_fft_min_taps", "host", "source",
            "calibrated", "version",
        }
        assert all("taps" in row for row in data["fft"]["rows"])


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
