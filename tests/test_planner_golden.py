"""Golden plans: representative workloads pinned against the checked-in
reference profile (``benchmarks/reference_profile.json``).

These are snapshot tests for the *decisions*: a change to the dispatch
formulas, the band-sizing arithmetic, the partitioner, or the reference
profile's thresholds must show up here as an explicit golden diff — not
slip through as a silent scheduling change.  The cost model only ranks
candidates (it explains plans, it does not decide them), so the goldens
pin its per-workload winner but never its absolute numbers.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.planner import CalibrationProfile, ExecutionPlan, Planner, Workload

REFERENCE_PROFILE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "reference_profile.json"
)

#: (workload kwargs, expected decision, expected cheapest cost candidate).
#: Thread counts are explicit so partitions cannot drift with host CPUs.
GOLDEN = [
    (
        # The paper's 1080p sigma-16 workload: 97 taps stay below the
        # fused crossover (193), so the band ring runs it over row
        # partitions.  The modelled Cortex-A9 cost still ranks the
        # plane mask cheapest: the model explains, the measured
        # crossover decides.
        dict(height=1080, width=1920, batch=4, sigma=16.0, threads=4),
        dict(
            engine="fused", blur_method="fft", fused_h_method="folded",
            band_bytes=4194304, band_rows=48, partitions=4,
        ),
        "fused-fft",
    ),
    (
        # A single sigma-16 image: the ring splits its rows across the
        # threads offered (the plane mask would keep it whole).  The
        # model ranks the plane mask cheapest here too.
        dict(
            height=1024, width=1024, batch=1, sigma=16.0, color=True,
            threads=2,
        ),
        dict(
            engine="fused", blur_method="fft", fused_h_method="folded",
            band_bytes=4194304, band_rows=48, partitions=2,
        ),
        "fused-fft",
    ),
    (
        # Narrow kernel, cache-resident plane: fused folded end to end.
        dict(height=512, width=512, batch=1, sigma=2.0, radius=6, threads=2),
        dict(
            engine="fused", blur_method="folded", fused_h_method="folded",
            band_bytes=4194304, band_rows=102, partitions=2,
        ),
        "fused-folded",
    ),
    (
        # An 8 MiB plane with a narrow kernel: plane size does not move
        # the dispatch, so the staged reference is folded here too.
        dict(height=1024, width=1024, batch=2, sigma=2.5, radius=8, threads=2),
        dict(
            engine="fused", blur_method="folded", fused_h_method="folded",
            band_bytes=4194304, band_rows=51, partitions=2,
        ),
        "fused-folded",
    ),
    (
        # At the staged FFT crossover (25 taps) but below the fused
        # band-FFT crossover: fused engine keeps its folded window.
        dict(height=64, width=64, batch=1, sigma=4.0, threads=1),
        dict(
            engine="fused", blur_method="fft", fused_h_method="folded",
            band_bytes=4194304, band_rows=64, partitions=1,
        ),
        "fused-folded",
    ),
    (
        # Fixed-point is staged regardless of kernel width, and the
        # float-only fused candidates are not priced for it.
        dict(
            height=1080, width=1920, batch=4, sigma=16.0, dtype="fixed",
            threads=4,
        ),
        dict(
            engine="staged", blur_method="fft", fused_h_method="folded",
            band_bytes=4194304, band_rows=48, partitions=4,
        ),
        "staged-fft",
    ),
    (
        # Color 720p, narrow kernel: the 3-channel band working set
        # shrinks band_rows but not the decisions.
        dict(
            height=720, width=1280, batch=2, sigma=3.0, radius=10,
            color=True, threads=3,
        ),
        dict(
            engine="fused", blur_method="folded", fused_h_method="folded",
            band_bytes=4194304, band_rows=25, partitions=3,
        ),
        "fused-folded",
    ),
]


@pytest.fixture(scope="module")
def reference_planner():
    return Planner(CalibrationProfile.load(REFERENCE_PROFILE))


def _ids():
    return [
        f"{kw['height']}x{kw['width']}-{kw.get('dtype', 'float32')}"
        f"-r{Workload(**kw).effective_radius}"
        for kw, _, _ in GOLDEN
    ]


class TestGoldenPlans:
    @pytest.mark.parametrize("kwargs,decision,cheapest", GOLDEN, ids=_ids())
    def test_plan_matches_golden(
        self, reference_planner, kwargs, decision, cheapest
    ):
        plan = reference_planner.plan(Workload(**kwargs))
        assert plan.decision() == decision
        assert plan.cost_estimates[0][0] == cheapest
        assert plan.profile.source == str(REFERENCE_PROFILE)

    @pytest.mark.parametrize("kwargs,decision,cheapest", GOLDEN, ids=_ids())
    def test_plan_survives_json_round_trip(
        self, reference_planner, kwargs, decision, cheapest
    ):
        plan = reference_planner.plan(Workload(**kwargs))
        restored = ExecutionPlan.from_json_dict(
            json.loads(json.dumps(plan.to_json_dict()))
        )
        assert restored == plan
        assert restored.decision() == decision


class TestReferenceProfileFile:
    """The checked-in file itself is load-bearing — pin its contents."""

    def test_reference_profile_matches_builtin_defaults(self):
        profile = CalibrationProfile.load(REFERENCE_PROFILE)
        defaults = CalibrationProfile()
        assert profile.fft_crossover_taps == defaults.fft_crossover_taps
        assert profile.fused_fft_min_taps == defaults.fused_fft_min_taps
        assert profile.calibrated is True

    def test_reference_profile_records_provenance(self):
        raw = json.loads(REFERENCE_PROFILE.read_text())
        assert raw["version"] == CalibrationProfile().version
        assert "provenance" in raw  # ignored by the loader, kept for humans
        assert set(raw["provenance"]["measurements"]) == {
            "fft_crossover_taps", "fused_fft_min_taps",
        }
        # The file holds exactly the profile's fields plus provenance.
        assert set(raw) - {"provenance"} == {
            f.name for f in fields(CalibrationProfile)
        }
