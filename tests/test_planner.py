"""Unit tests for ``repro.planner``: profiles, workloads, plans.

Covers the contracts the equivalence and golden suites build on:

* :class:`Workload` validation and kernel-width semantics (must match
  :class:`repro.tonemap.gaussian.GaussianKernel` exactly);
* :class:`ExecutionPlan` serialization — JSON round-trip (golden
  snapshots) and pickling (ShardPool ships plans to workers);
* **call-time** threshold resolution: a ``REPRO_PLANNER_PROFILE`` file
  named *after* import moves the very next dispatch — no
  ``importlib.reload`` — and ``planner.override`` re-pins per case;
* decision-field validation: a plan (loaded or pinned) whose engine,
  blur method or mask regime is not an allowed value fails at once;
* calibration-profile round-trips: write → load → identical plans, in
  this process and across a process boundary, plus the deliberate
  fallback-to-defaults for missing/corrupt/stale profile files.
"""

import json
import math
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import planner
from repro.errors import ToneMapError
from repro.planner import (
    CalibrationProfile,
    ExecutionPlan,
    Planner,
    Workload,
    active_profile,
    load_or_default,
    pinned,
    plan_for,
    select_blur_method,
    select_engine,
    select_fused_h_method,
    set_active_profile,
)
from repro.planner.profile import PROFILE_VERSION
from repro.tonemap.gaussian import GaussianKernel

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _unpinned():
    """Each test starts and ends with no programmatically pinned profile."""
    set_active_profile(None)
    yield
    set_active_profile(None)


class TestWorkload:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(height=0, width=8),
            dict(height=8, width=-1),
            dict(height=8, width=8, batch=0),
            dict(height=8, width=8, sigma=0.0),
            dict(height=8, width=8, sigma=-2.0),
            dict(height=8, width=8, radius=0),
            dict(height=8, width=8, dtype="float16"),
            dict(height=8, width=8, threads=0),
        ],
    )
    def test_invalid_workloads_raise(self, kwargs):
        with pytest.raises(ToneMapError):
            Workload(**kwargs)

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 3.7, 16.0])
    def test_default_radius_matches_gaussian_kernel(self, sigma):
        w = Workload(height=8, width=8, sigma=sigma)
        kernel = GaussianKernel(sigma=sigma)
        assert w.effective_radius == kernel.radius
        assert w.taps == kernel.coefficients.size

    def test_explicit_radius_wins(self):
        w = Workload(height=8, width=8, sigma=16.0, radius=3)
        assert w.effective_radius == 3
        assert w.taps == 7

    def test_derived_properties(self):
        w = Workload(height=10, width=20, dtype="fixed")
        assert w.fixed
        assert not Workload(height=10, width=20).fixed

    def test_json_round_trip(self):
        w = Workload(
            height=9, width=7, batch=3, sigma=2.5, radius=4,
            dtype="float64", color=True, threads=2,
        )
        assert Workload.from_json_dict(w.to_json_dict()) == w


class TestDispatchFormulas:
    def test_blur_method_regimes(self):
        prof = CalibrationProfile(fft_crossover_taps=25)
        assert select_blur_method(25, prof) == "fft"
        assert select_blur_method(24, prof) == "folded"

    def test_fused_h_follows_staged_below_crossover(self):
        prof = CalibrationProfile(
            fft_crossover_taps=25, fused_fft_min_taps=33
        )
        # Staged non-fft => folded (the bit-identity contract).
        assert select_fused_h_method(23, prof) == "folded"
        # Staged fft but below the band-FFT crossover => still folded.
        assert select_fused_h_method(25, prof) == "folded"
        assert select_fused_h_method(33, prof) == "fft"

    def test_engine_selection(self):
        # Every float workload runs fused (ring or plane mask); only the
        # fixed-point pipeline stays staged.
        assert select_engine() == "fused"
        assert select_engine(fixed=True) == "staged"
        for taps in (5, 32, 33, 97):
            plan = plan_for(height=48, width=64, radius=(taps - 1) // 2,
                            threads=1)
            assert plan.engine == "fused"


class TestExecutionPlan:
    def _plan(self, **kwargs):
        kwargs.setdefault("threads", 2)
        return plan_for(height=48, width=64, **kwargs)

    def test_narrow_kernel_plans_fused_folded(self):
        plan = self._plan(sigma=2.0, radius=5)
        assert plan.engine == "fused"
        assert plan.blur_method == "folded"
        assert plan.fused_h_method == "folded"
        assert plan.partitions <= plan.threads == 2

    def test_wide_kernel_plans_fused_plane(self):
        plan = self._plan(sigma=16.0, batch=3)  # taps 97
        assert plan.engine == "fused"
        assert plan.blur_method == "fft"
        assert plan.fused_h_method == "fft"
        assert plan.partitions == 2  # whole images, not row chunks
        assert "whole-plane FFT mask" in "\n".join(plan.rationale)

    def test_fixed_dtype_is_staged_only(self):
        plan = self._plan(sigma=2.0, radius=5, dtype="fixed")
        assert plan.engine == "staged"
        assert "float-only" in "\n".join(plan.rationale)

    def test_describe_names_every_decision(self):
        plan = self._plan(sigma=2.0, radius=5)
        text = plan.describe()
        for needle in (
            "engine=fused", "blur=folded", "rationale:", "cost model",
            "fused_fft_min_taps", "model-ms",
        ):
            assert needle in text

    def test_cost_estimates_sorted_cheapest_first(self):
        plan = self._plan(sigma=16.0)
        seconds = [s for _, s in plan.cost_estimates]
        assert seconds == sorted(seconds)
        assert {name for name, _ in plan.cost_estimates} == {
            "staged-folded", "staged-fft", "fused-folded", "fused-fft",
        }

    def test_json_round_trip(self):
        plan = self._plan(sigma=3.0, color=True)
        restored = ExecutionPlan.from_json_dict(
            json.loads(json.dumps(plan.to_json_dict()))
        )
        assert restored == plan

    def test_pickle_round_trip(self):
        plan = self._plan(sigma=3.0)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_pinned_overrides_and_notes(self):
        plan = self._plan(sigma=2.0, radius=5)
        p = pinned(plan, engine="staged", threads=1)
        assert p.engine == "staged" and p.threads == 1
        assert p.workload == plan.workload
        assert p.rationale[-1].startswith("pinned by caller:")

    def test_pinned_rejects_unknown_fields(self):
        with pytest.raises(ToneMapError):
            pinned(self._plan(), band_rows=3)

    @pytest.mark.parametrize("field,value", [
        ("engine", "gpu"),
        ("blur_method", "tiled"),  # what plans saved by older code carry
        ("blur_method", "auto"),  # a plan pins a concrete method
        ("fused_h_method", "tiled"),
    ])
    def test_pinned_rejects_unknown_decision_values(self, field, value):
        with pytest.raises(ToneMapError, match=f"{field}=.*planner explain"):
            pinned(self._plan(), **{field: value})

    @pytest.mark.parametrize("field", ["engine", "fused_h_method"])
    def test_from_json_rejects_unknown_decision_values(self, field):
        # Plan files carrying a bad blur_method are covered end to end
        # by the CLI tests (tests/test_cli.py).
        data = self._plan(sigma=2.0).to_json_dict()
        data[field] = "bogus"
        with pytest.raises(ToneMapError, match=f"{field}=.*planner explain"):
            ExecutionPlan.from_json_dict(data)


class TestCallTimeResolution:
    """The active profile is resolved per call, never at import."""

    def test_env_export_after_import_moves_the_next_plan(
        self, monkeypatch, tmp_path
    ):
        assert plan_for(
            height=8, width=8, radius=12, threads=1
        ).fused_h_method == "folded"
        path = CalibrationProfile(fused_fft_min_taps=25).save(
            tmp_path / "profile.json"
        )
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(path))
        plan = plan_for(height=8, width=8, radius=12, threads=1)  # taps 25
        assert (plan.engine, plan.fused_h_method) == ("fused", "fft")
        assert plan.profile.source == str(path)
        monkeypatch.delenv("REPRO_PLANNER_PROFILE")
        assert plan_for(
            height=8, width=8, radius=12, threads=1
        ).fused_h_method == "folded"

    def test_gaussian_dispatch_sees_env_without_reload(
        self, monkeypatch, tmp_path
    ):
        import numpy as np

        from repro.tonemap.gaussian import separable_blur

        plane = np.random.default_rng(3).random((16, 16))
        kernel = GaussianKernel(sigma=2.0, radius=6)  # taps 13: folded
        reference = separable_blur(plane, kernel, method="fft")
        path = CalibrationProfile(fft_crossover_taps=13).save(
            tmp_path / "profile.json"
        )
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(path))
        auto = separable_blur(plane, kernel, method="auto")
        # Auto now routes through the FFT: identical to the explicit
        # fft call, not to the folded path.
        np.testing.assert_array_equal(auto, reference)

    def test_override_scopes_nest_and_unwind(self):
        base = active_profile().fft_crossover_taps
        with planner.override(fft_crossover_taps=5) as outer:
            assert active_profile() is outer
            with planner.override(fused_fft_min_taps=40) as inner:
                assert inner.fft_crossover_taps == 5
                assert active_profile() is inner
            assert active_profile() is outer
        assert active_profile().fft_crossover_taps == base

    def test_set_active_profile_pins_verbatim(self, monkeypatch, tmp_path):
        pinned_profile = CalibrationProfile(fft_crossover_taps=7)
        set_active_profile(pinned_profile)
        # Pinned profiles win outright over the profile file.
        path = CalibrationProfile(fft_crossover_taps=99).save(
            tmp_path / "profile.json"
        )
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(path))
        assert active_profile() is pinned_profile
        set_active_profile(None)
        assert active_profile().fft_crossover_taps == 99

    def test_planner_profile_none_resolves_per_plan(self):
        p = Planner()
        with planner.override(fused_fft_min_taps=25):
            assert p.plan(
                Workload(height=8, width=8, radius=12, threads=1)
            ).fused_h_method == "fft"
        assert p.plan(
            Workload(height=8, width=8, radius=12, threads=1)
        ).fused_h_method == "folded"


class TestProfileRoundTrip:
    def test_save_load_identical_plans(self, tmp_path):
        profile = CalibrationProfile(
            fft_crossover_taps=19,
            fused_fft_min_taps=27,
            host="test host",
            source="calibration",
            calibrated=True,
        )
        path = profile.save(tmp_path / "profile.json")
        loaded = CalibrationProfile.load(path)
        # Provenance records where it came from; thresholds identical.
        assert loaded == replace(profile, source=str(path))
        workload = Workload(height=32, width=32, radius=9, threads=1)
        assert Planner(profile).plan(workload).decision() == (
            Planner(loaded).plan(workload).decision()
        )

    def test_profile_file_identical_plans_across_processes(self, tmp_path):
        profile = CalibrationProfile(
            fft_crossover_taps=19, fused_fft_min_taps=21, calibrated=True
        )
        path = profile.save(tmp_path / "profile.json")
        workload = dict(height=40, width=40, radius=10, threads=2)
        here = Planner(CalibrationProfile.load(path)).plan(
            Workload(**workload)
        )
        code = (
            "import json, sys\n"
            "from repro.planner import CalibrationProfile, Planner, Workload\n"
            "profile = CalibrationProfile.load(sys.argv[1])\n"
            "plan = Planner(profile).plan(Workload(**json.loads(sys.argv[2])))\n"
            "print(json.dumps(plan.to_json_dict()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(path), json.dumps(workload)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        there = ExecutionPlan.from_json_dict(json.loads(result.stdout))
        assert there == here

    def test_missing_profile_falls_back_to_defaults(self, tmp_path):
        assert load_or_default(tmp_path / "nope.json") == CalibrationProfile()
        assert load_or_default(None) == CalibrationProfile()

    def test_corrupt_profile_falls_back_to_defaults(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert load_or_default(path) == CalibrationProfile()

    def test_stale_version_falls_back_but_load_raises(self, tmp_path):
        path = tmp_path / "stale.json"
        payload = CalibrationProfile().to_json_dict()
        payload["version"] = PROFILE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert load_or_default(path) == CalibrationProfile()
        with pytest.raises(ValueError, match="stale profile"):
            CalibrationProfile.load(path)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            CalibrationProfile(fft_crossover_taps=0)
        with pytest.raises(ValueError):
            CalibrationProfile.from_json_dict({"fused_fft_min_taps": -5})

    def test_retired_fields_are_ignored_on_load(self):
        # Profiles written before the two sizing fields became engine
        # constants (and the tiled crossover went away) still load: the
        # loader drops unknown keys rather than bumping the version.
        profile = CalibrationProfile.from_json_dict({
            "fft_crossover_taps": 19,
            "tiled_min_plane_bytes": 8388608,
            "fused_band_bytes": 4194304,
            "fused_pooled_geometries": 8,
            "version": PROFILE_VERSION,
        })
        assert profile == CalibrationProfile(fft_crossover_taps=19)

    def test_env_profile_file_is_picked_up_at_call_time(
        self, tmp_path, monkeypatch
    ):
        path = CalibrationProfile(
            fft_crossover_taps=11, calibrated=True
        ).save(tmp_path / "env.json")
        monkeypatch.setenv("REPRO_PLANNER_PROFILE", str(path))
        prof = active_profile()
        assert prof.fft_crossover_taps == 11 and prof.calibrated
        # The retired per-threshold variables no longer overlay it.
        monkeypatch.setenv("REPRO_FFT_CROSSOVER_TAPS", "13")
        assert active_profile() is prof
        monkeypatch.delenv("REPRO_FFT_CROSSOVER_TAPS")
        monkeypatch.delenv("REPRO_PLANNER_PROFILE")
        assert active_profile().fft_crossover_taps == (
            CalibrationProfile().fft_crossover_taps
        )


class TestLazyExports:
    def test_dir_lists_public_surface(self):
        names = dir(planner)
        for name in ("Planner", "Workload", "ExecutionPlan", "override"):
            assert name in names

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            planner.does_not_exist


def test_default_radius_formula_is_ceil_three_sigma():
    # Documented contract the Workload docstring promises.
    for sigma in (0.2, 1.0, 2.5, 16.0):
        assert Workload(height=4, width=4, sigma=sigma).effective_radius == (
            max(1, math.ceil(3.0 * sigma))
        )
