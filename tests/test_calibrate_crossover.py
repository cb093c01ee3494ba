"""Tests for the crossover calibration (``repro.planner.calibrate``) and
the env-var dispatch overrides it targets (``REPRO_FFT_CROSSOVER_TAPS`` /
``REPRO_TILED_MIN_PLANE_BYTES``)."""

import pytest

from repro.planner import calibrate
from repro.planner.profile import _env_positive_int


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
        assert "export REPRO_FFT_CROSSOVER_TAPS=" in out
        assert "export REPRO_TILED_MIN_PLANE_BYTES=" in out
        taps = int(
            out.split("REPRO_FFT_CROSSOVER_TAPS=")[1].splitlines()[0]
        )
        plane = int(
            out.split("REPRO_TILED_MIN_PLANE_BYTES=")[1].splitlines()[0]
        )
        assert taps > 0 and plane > 0

    def test_json_output_is_parseable(self, capsys):
        import json

        assert calibrate.main(["--quick", "--rounds", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fft"]["recommended"] > 0
        assert data["tiled"]["recommended"] > 0
        assert all("taps" in row for row in data["fft"]["rows"])


class TestEnvOverrides:
    def test_env_positive_int_parsing(self, monkeypatch):
        monkeypatch.delenv("X_TEST_CONST", raising=False)
        assert _env_positive_int("X_TEST_CONST", 7) == 7
        monkeypatch.setenv("X_TEST_CONST", "12")
        assert _env_positive_int("X_TEST_CONST", 7) == 12
        for bad in ("0", "-3", "abc", ""):
            monkeypatch.setenv("X_TEST_CONST", bad)
            assert _env_positive_int("X_TEST_CONST", 7) == 7

    @pytest.mark.parametrize(
        "env,taps,nbytes,want",
        [
            ({"REPRO_FFT_CROSSOVER_TAPS": "5"}, 5, 0, "fft"),
            ({"REPRO_TILED_MIN_PLANE_BYTES": "10"}, 5, 10, "tiled"),
        ],
    )
    def test_dispatch_honors_env_at_call_time(
        self, monkeypatch, env, taps, nbytes, want
    ):
        # The thresholds are resolved per call, so setting the env var
        # after import moves the dispatch — no importlib.reload needed.
        from repro.tonemap import gaussian

        assert gaussian._select_method("auto", taps, nbytes) == "folded"
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert gaussian._select_method("auto", taps, nbytes) == want
        for name in env:
            monkeypatch.delenv(name)
        assert gaussian._select_method("auto", taps, nbytes) == "folded"

    def test_env_moves_fused_h_method_at_call_time(self, monkeypatch):
        import numpy as np

        from repro.runtime.fused import FusedToneMapPlan
        from repro.tonemap.pipeline import ToneMapParams

        frame = np.random.default_rng(7).random((32, 32))
        plan = FusedToneMapPlan(ToneMapParams(sigma=4.0))
        taps = plan.kernel.coefficients.size
        assert plan.h_method(*frame.shape) == "folded"
        monkeypatch.setenv("REPRO_FUSED_FFT_MIN_TAPS", str(taps))
        assert plan.h_method(*frame.shape) == "fft"

    def test_override_moves_the_auto_dispatch(self):
        # planner.override pins thresholds for the calling context; the
        # dispatch in gaussian reads the active profile per call.
        from repro import planner
        from repro.tonemap import gaussian

        with planner.override(fft_crossover_taps=5):
            assert gaussian._select_method("auto", 5, 0) == "fft"
        with planner.override(fft_crossover_taps=99, tiled_min_plane_bytes=10):
            assert gaussian._select_method("auto", 5, 10) == "tiled"
            assert gaussian._select_method("auto", 5, 9) == "folded"
        assert gaussian._select_method("auto", 5, 10) == "folded"
