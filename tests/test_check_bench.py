"""Tests for tools/check_bench.py: the perf-trajectory gate.

Driven with synthetic pytest-benchmark JSON so the comparison semantics
(bands, directions, strictness, unplugged-gate detection) are pinned
without running a single real benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench.py"

spec = importlib.util.spec_from_file_location("check_bench", TOOL)
check_bench = importlib.util.module_from_spec(spec)
sys.modules.setdefault("check_bench", check_bench)
spec.loader.exec_module(check_bench)


def write_fresh(tmp_path, benchmarks):
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def write_baseline(tmp_path, metrics):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"metrics": metrics}))
    return path


def bench(name, **extra):
    return {"name": name, "extra_info": extra}


class TestCheckMetric:
    def test_min_direction_within_band_passes(self):
        failures = check_bench.check_metric(
            "t::pps",
            {"value": 100.0, "tolerance": 0.2, "direction": "min",
             "strict": True},
            [bench("t[case]", pps=85.0)],
            strict_perf=False,
        )
        assert failures == []

    def test_min_direction_below_band_fails(self):
        failures = check_bench.check_metric(
            "t::pps",
            {"value": 100.0, "tolerance": 0.2, "direction": "min",
             "strict": True},
            [bench("t[case]", pps=70.0)],
            strict_perf=False,
        )
        assert len(failures) == 1

    def test_max_direction_zero_counter_exact(self):
        spec = {"value": 0.0, "tolerance": 0.0, "direction": "max",
                "strict": True}
        ok = check_bench.check_metric(
            "t::allocs", spec, [bench("t", allocs=0.0)], strict_perf=False
        )
        bad = check_bench.check_metric(
            "t::allocs", spec, [bench("t", allocs=1.0)], strict_perf=False
        )
        assert ok == [] and len(bad) == 1

    def test_non_strict_violation_warns_without_failing(self):
        spec = {"value": 100.0, "tolerance": 0.0, "direction": "min",
                "strict": False}
        failures = check_bench.check_metric(
            "t::pps", spec, [bench("t", pps=1.0)], strict_perf=False
        )
        assert failures == []

    def test_strict_perf_enforces_non_strict_metrics(self):
        spec = {"value": 100.0, "tolerance": 0.0, "direction": "min",
                "strict": False}
        failures = check_bench.check_metric(
            "t::pps", spec, [bench("t", pps=1.0)], strict_perf=True
        )
        assert len(failures) == 1

    def test_unmatched_metric_is_a_failure(self):
        # A renamed benchmark must not silently unplug the gate.
        failures = check_bench.check_metric(
            "vanished::pps",
            {"value": 1.0, "direction": "min", "strict": False},
            [bench("t", pps=1.0)],
            strict_perf=False,
        )
        assert failures and "no benchmark matched" in failures[0]

    def test_substring_matches_every_parametrization(self):
        spec = {"value": 10.0, "tolerance": 0.0, "direction": "min",
                "strict": True}
        failures = check_bench.check_metric(
            "t::pps", spec,
            [bench("t[a]", pps=20.0), bench("t[b]", pps=5.0)],
            strict_perf=False,
        )
        assert len(failures) == 1  # only t[b] is out of band

    def test_malformed_key_reported(self):
        failures = check_bench.check_metric(
            "no-separator", {"value": 1.0}, [], strict_perf=False
        )
        assert failures and "malformed" in failures[0]

    def test_unknown_direction_reported(self):
        failures = check_bench.check_metric(
            "t::pps", {"value": 1.0, "direction": "sideways"},
            [bench("t", pps=1.0)], strict_perf=False,
        )
        assert failures and "direction" in failures[0]


class TestMain:
    def test_end_to_end_pass_and_fail(self, tmp_path, capsys):
        fresh = write_fresh(
            tmp_path, [bench("t", allocs=0.0), bench("t", pps=50.0)]
        )
        baseline = write_baseline(tmp_path, {
            "t::allocs": {"value": 0.0, "tolerance": 0.0,
                          "direction": "max", "strict": True},
        })
        assert check_bench.main(
            [str(fresh), "--baseline", str(baseline)]
        ) == 0
        baseline = write_baseline(tmp_path, {
            "t::allocs": {"value": 0.0, "tolerance": 0.0,
                          "direction": "max", "strict": True},
            "t::pps": {"value": 100.0, "tolerance": 0.1,
                       "direction": "min", "strict": True},
        })
        assert check_bench.main(
            [str(fresh), "--baseline", str(baseline)]
        ) == 1

    def test_rejects_non_benchmark_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"something": "else"}))
        baseline = write_baseline(tmp_path, {})
        with pytest.raises(SystemExit):
            check_bench.main([str(bad), "--baseline", str(baseline)])


class TestCommittedBaseline:
    def test_committed_baseline_is_well_formed(self):
        baseline = json.loads(
            (TOOL.parent.parent / "benchmarks" / "baseline.json").read_text()
        )
        assert baseline["metrics"], "baseline must track at least one metric"
        for key, spec in baseline["metrics"].items():
            assert "::" in key
            assert spec["direction"] in ("min", "max")
            assert spec["tolerance"] >= 0.0
            assert isinstance(spec["strict"], bool)
        # The zero-copy counters are the PR 3 acceptance bar: they must
        # stay strict (machine-independent) so CI always enforces them.
        strict = {k for k, s in baseline["metrics"].items() if s["strict"]}
        assert (
            "test_shard_zero_copy_data_plane::copies_per_frame" in strict
        )
        assert (
            "test_shard_zero_copy_data_plane::shm_allocs_per_batch" in strict
        )
        # Likewise the PR 5 fused-dataflow acceptance bar: the zero
        # stage-temporaries counter is machine-independent and must
        # stay strict.
        assert "test_fused_vs_staged_1024::intermediate_bytes" in strict
        assert "test_fused_threads_1024::intermediate_bytes" in strict
        # The wide-kernel fused bar, machine-independent the same way:
        # the paper's sigma-16 workload on the fused plane mask matches
        # staged bit for bit (strict min 1) and allocates no stage
        # scratch in steady state (strict max 0).
        wide_exact = baseline["metrics"]["test_fused_wide_1024::outputs_exact"]
        assert "test_fused_wide_1024::outputs_exact" in strict
        assert wide_exact["direction"] == "min" and wide_exact["value"] == 1.0
        wide_bytes = baseline["metrics"][
            "test_fused_wide_1024::intermediate_bytes"
        ]
        assert "test_fused_wide_1024::intermediate_bytes" in strict
        assert wide_bytes["direction"] == "max" and wide_bytes["value"] == 0.0
        # And the PR 7 planner acceptance bar: planned dispatch matching
        # the hand-tuned path is a decision check, not a timing.
        assert (
            "test_planner_dispatch_1024::planner_matches_manual" in strict
        )
        # The PR 8 chaos-recovery acceptance bar: all three counters are
        # machine-independent (a deterministic fault plan always loses
        # zero frames, always kills the hung worker, always browns the
        # killed batch out) and must stay strict.  frames_lost gates as
        # a max (exactly zero); the other two gate as mins so a
        # silently-disabled watchdog or breaker — which would zero the
        # counters while the outputs still pass — fails the build.
        chaos = baseline["metrics"]["test_chaos_recovery_small::frames_lost"]
        assert chaos["direction"] == "max" and chaos["value"] == 0.0
        assert "test_chaos_recovery_small::frames_lost" in strict
        assert "test_chaos_recovery_small::watchdog_kills" in strict
        assert "test_chaos_recovery_small::brownout_batches" in strict
        for key in ("watchdog_kills", "brownout_batches"):
            spec = baseline["metrics"][f"test_chaos_recovery_small::{key}"]
            assert spec["direction"] == "min" and spec["value"] >= 1.0
        # The PR 9 network data-plane acceptance bar, same reasoning one
        # level up: zero staging copies across the wire and zero frames
        # lost under a seeded host kill gate as strict maxes (exactly
        # zero), and host_respawns gates as a strict min so a
        # silently-disabled revival path fails the build.
        for key in ("copies_per_frame", "frames_lost"):
            spec = baseline["metrics"][f"test_network_data_plane_small::{key}"]
            assert f"test_network_data_plane_small::{key}" in strict
            assert spec["direction"] == "max" and spec["value"] == 0.0
        respawns = baseline["metrics"][
            "test_network_data_plane_small::host_respawns"
        ]
        assert "test_network_data_plane_small::host_respawns" in strict
        assert respawns["direction"] == "min" and respawns["value"] >= 1.0
        # The PR 10 overload acceptance bar: a seeded queue-depth storm
        # makes every counter machine-independent.  The protected
        # (interactive) class gates as strict maxes — zero frames lost
        # and p95 at most 1.0x its SLO — while the degradation really
        # firing gates as strict mins (transitions walked, best-effort
        # shed) so a silently-disabled controller fails the build.
        for key in ("interactive_frames_lost",):
            spec = baseline["metrics"][
                f"test_overload_degradation_small::{key}"
            ]
            assert f"test_overload_degradation_small::{key}" in strict
            assert spec["direction"] == "max" and spec["value"] == 0.0
        p95_gate = baseline["metrics"][
            "test_overload_degradation_small::interactive_p95_x_slo"
        ]
        assert (
            "test_overload_degradation_small::interactive_p95_x_slo"
            in strict
        )
        assert p95_gate["direction"] == "max" and p95_gate["value"] == 1.0
        for key in ("ladder_transitions", "best_effort_shed"):
            spec = baseline["metrics"][
                f"test_overload_degradation_small::{key}"
            ]
            assert f"test_overload_degradation_small::{key}" in strict
            assert spec["direction"] == "min" and spec["value"] >= 1.0
        # And the PR 10 drain bar: a rolling restart cycles every host
        # (strict min 2) while losing exactly zero admitted frames.
        restart_lost = baseline["metrics"][
            "test_rolling_restart_small::frames_lost"
        ]
        assert "test_rolling_restart_small::frames_lost" in strict
        assert (
            restart_lost["direction"] == "max"
            and restart_lost["value"] == 0.0
        )
        drained = baseline["metrics"][
            "test_rolling_restart_small::hosts_drained"
        ]
        assert "test_rolling_restart_small::hosts_drained" in strict
        assert drained["direction"] == "min" and drained["value"] >= 2.0

    def test_tracks_the_emitted_data_plane_metrics(self):
        # Guards the gate's wiring from the tier-1 suite (benchmark-side
        # tests only run when a bench job selects them): if a data-plane
        # metric is renamed in benchmarks/bench_*.py without updating
        # baseline.json, check_bench would silently check nothing for it.
        baseline = json.loads(
            (TOOL.parent.parent / "benchmarks" / "baseline.json").read_text()
        )
        emitted = {
            "test_shard_zero_copy_data_plane::copies_per_frame",
            "test_shard_zero_copy_data_plane::shm_allocs_per_batch",
            "test_shard_zero_copy_data_plane::frames_per_sec",
            "test_huge_plane_narrow_kernel[tiled]::pixels_per_sec",
            "test_two_tenant_contention_small::light_p95_x_solo",
            "test_fused_vs_staged_1024::intermediate_bytes",
            "test_fused_vs_staged_1024::speedup_vs_staged",
            "test_fused_vs_staged_1024::pixels_per_sec",
            "test_fused_threads_1024::intermediate_bytes",
            "test_fused_wide_1024::outputs_exact",
            "test_fused_wide_1024::intermediate_bytes",
            "test_fused_wide_1024::speedup_vs_staged",
            "test_planner_dispatch_1024::planner_matches_manual",
            "test_planner_dispatch_1024::pixels_per_sec",
            "test_planner_dispatch_1024::speedup_vs_manual",
            "test_chaos_recovery_small::frames_lost",
            "test_chaos_recovery_small::watchdog_kills",
            "test_chaos_recovery_small::brownout_batches",
            "test_network_data_plane_small::copies_per_frame",
            "test_network_data_plane_small::frames_lost",
            "test_network_data_plane_small::host_respawns",
            "test_network_data_plane_small::frames_per_sec",
            "test_overload_degradation_small::ladder_transitions",
            "test_overload_degradation_small::best_effort_shed",
            "test_overload_degradation_small::interactive_frames_lost",
            "test_overload_degradation_small::interactive_p95_x_slo",
            "test_rolling_restart_small::frames_lost",
            "test_rolling_restart_small::hosts_drained",
        }
        missing = emitted - set(baseline["metrics"])
        assert not missing, f"baseline.json lost metrics: {sorted(missing)}"
        # And the emitters themselves still exist in the bench sources —
        # a rename there would otherwise dangle the baseline keys.
        bench_dir = TOOL.parent.parent / "benchmarks"
        sources = "".join(
            p.read_text() for p in bench_dir.glob("bench_*.py")
        )
        for key in baseline["metrics"]:
            bench_name = key.partition("::")[0].partition("[")[0]
            assert bench_name in sources, (
                f"baseline metric {key} references a benchmark missing "
                "from benchmarks/bench_*.py"
            )
