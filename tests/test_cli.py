"""Tests for the repro-experiments CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for cmd in ("table2", "fig6", "fig7", "fig8", "profile", "all"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_fig5_output_dir(self, tmp_path):
        args = build_parser().parse_args(["fig5", "-o", str(tmp_path)])
        assert args.output_dir == tmp_path

    def test_report_requires_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_report_rejects_sw(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "sw"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.command == "batch"
        assert args.count == 8
        assert args.images is None
        assert not args.fixed

    def test_batch_options(self, tmp_path):
        args = build_parser().parse_args(
            ["batch", "--count", "3", "--batch-size", "2", "--fixed",
             "--images", str(tmp_path), "-o", str(tmp_path)]
        )
        assert args.count == 3
        assert args.batch_size == 2
        assert args.fixed
        assert args.images == tmp_path
        assert args.output_dir == tmp_path

    def test_batch_serving_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.shards is None
        assert args.max_delay_ms is None
        assert args.queue_limit is None
        assert args.policy == "block"

    def test_batch_serving_options(self):
        args = build_parser().parse_args(
            ["batch", "--shards", "4", "--max-delay-ms", "2.5",
             "--queue-limit", "32", "--policy", "shed-oldest"]
        )
        assert args.shards == 4
        assert args.max_delay_ms == 2.5
        assert args.queue_limit == 32
        assert args.policy == "shed-oldest"

    def test_batch_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--policy", "drop-newest"])

    def test_batch_data_plane_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.shards is None
        assert args.arena_slots == 4

    def test_batch_data_plane_options(self):
        args = build_parser().parse_args(
            ["batch", "--shards", "2", "--arena-slots", "8"]
        )
        assert args.shards == 2
        assert args.arena_slots == 8
        # Every batch fans out across all --shards workers: the
        # autoscaler's flags are gone, so argparse rejects them.
        for gone in (["--autoscale"], ["--min-shards", "2"],
                     ["--max-shards", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["batch", *gone])

    def test_batch_tenant_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.tenant_weights is None
        assert args.per_tenant_queue_limit is None
        assert args.lease_results is False

    def test_batch_tenant_options(self):
        args = build_parser().parse_args(
            ["batch", "--tenant-weights", "heavy=3,light=1",
             "--per-tenant-queue-limit", "8", "--lease-results",
             "--shards", "2"]
        )
        assert args.tenant_weights == "heavy=3,light=1"
        assert args.per_tenant_queue_limit == 8
        assert args.lease_results is True

    def test_batch_fused_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.plan is None  # staged reference engine
        assert args.threads is None
        assert args.sigma is None

    def test_batch_fused_options(self):
        args = build_parser().parse_args(
            ["batch", "--plan", "auto", "--threads", "4", "--sigma", "2.5"]
        )
        assert args.plan == "auto"
        assert args.threads == 4
        assert args.sigma == 2.5

    def test_tenant_weight_spec_parsing(self):
        from repro.cli import _parse_tenant_weights

        assert _parse_tenant_weights("a=2,b=0.5") == {"a": 2.0, "b": 0.5}
        for bad in ("a", "a=", "=2", "a=zero", "a=-1", "a=0"):
            with pytest.raises(SystemExit):
                _parse_tenant_weights(bad)


class TestMain:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "TABLE II" in out
        assert "FlP to FxP" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        assert "FIG 6" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "FIG 7" in out and "reduction" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "FIG 8a" in out and "FIG 8b" in out

    def test_fig5_small(self, capsys, tmp_path):
        assert main(["--size", "64", "fig5", "-o", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PSNR" in out
        assert (tmp_path / "fig5c_fixed.ppm").exists()

    def test_profile(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "%time" in out
        assert "gaussian_blur" in out

    def test_report(self, capsys):
        assert main(["report", "fxp"]) == 0
        out = capsys.readouterr().out
        assert "HLS Report" in out
        assert "pixels" in out

    def test_ablations(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "ABLATION" in out
        assert "word packing" in out
        assert "partition factor" in out

    def test_extensions(self, capsys):
        assert main(["extensions"]) == 0
        out = capsys.readouterr().out
        assert "overlap" in out
        assert "frames/s" in out

    def test_robustness(self, capsys):
        assert main(["--size", "64", "robustness"]) == 0
        out = capsys.readouterr().out
        assert "ROBUSTNESS" in out
        assert "starfield" in out

    def test_batch_synthetic(self, capsys, tmp_path):
        assert main(
            ["--size", "32", "batch", "--count", "3", "--batch-size", "2",
             "-o", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "BATCH TONE-MAPPING" in out
        assert "pixels/sec" in out
        assert len(list(tmp_path.glob("*.ppm"))) == 3

    def test_batch_fixed_blur(self, capsys):
        assert main(["--size", "32", "batch", "--count", "2", "--fixed"]) == 0
        out = capsys.readouterr().out
        assert "fixed-point 16-bit" in out

    def test_batch_fused(self, capsys):
        assert main(
            ["--size", "32", "batch", "--count", "3", "--batch-size", "2",
             "--plan", "auto", "--threads", "2", "--sigma", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "engine=fused" in captured.out
        assert "threads=2" in captured.out
        # narrow kernel: no wide-kernel regime note
        assert "staged full-plane FFT" not in captured.err

    def test_batch_fused_wide_kernel_runs_without_note(self, capsys):
        # Default sigma 16 runs the fused whole-plane FFT mask, which
        # beats the staged path: no advice to narrow the kernel.
        assert main(
            ["--size", "32", "batch", "--count", "2", "--plan", "auto"]
        ) == 0
        captured = capsys.readouterr()
        assert "engine=fused" in captured.out
        assert "--sigma 2" not in captured.err

    def test_batch_sigma_applies_without_fused(self, capsys):
        assert main(
            ["--size", "32", "batch", "--count", "2", "--sigma", "3"]
        ) == 0
        assert "BATCH TONE-MAPPING" in capsys.readouterr().out

    def test_batch_fused_sharded_streaming(self, capsys):
        assert main(
            ["--size", "32", "batch", "--count", "4", "--batch-size", "2",
             "--plan", "auto", "--shards", "2", "--max-delay-ms", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine=fused" in out
        assert "streaming (ingestor)" in out

    def test_batch_plan_auto_fixed_runs_staged(self, capsys):
        assert main(["--size", "32", "batch", "--count", "2",
                     "--plan", "auto", "--fixed"]) == 0
        out = capsys.readouterr().out
        assert "engine=staged" in out
        assert "fixed-point 16-bit" in out

    def test_planner_calibrate_writes_a_loadable_profile(
        self, capsys, tmp_path
    ):
        from repro.planner.profile import CalibrationProfile

        path = tmp_path / "host.json"
        # The subcommand's --size sits next to the global one.
        assert main(["--size", "64", "planner", "calibrate", "--size",
                     "48", "--quick", "--rounds", "1", "-o", str(path)]) == 0
        assert "(48x48 plane, best of 1)" in capsys.readouterr().out
        profile = CalibrationProfile.load(path)
        assert isinstance(profile, CalibrationProfile)
        assert not profile.calibrated  # --quick is no real calibration

    def test_batch_plan_file_replayed(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        assert main(["planner", "explain", "--height", "32", "--width",
                     "32", "--sigma", "2", "--threads", "1", "--json"]) == 0
        plan_file.write_text(capsys.readouterr().out)
        assert main(["--size", "32", "batch", "--count", "2", "--sigma",
                     "2", "--plan", str(plan_file), "--threads", "2"]) == 0
        assert "threads=2" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="--plan"):
            main(["--size", "32", "batch", "--count", "2",
                  "--plan", str(tmp_path / "missing.json")])

    @pytest.mark.parametrize("edit,needle", [
        # A workload the planner could never have emitted: Workload's
        # own validation raises ToneMapError, not ValueError.
        (lambda plan: plan["workload"].update(height=-4), "shape"),
        # A decision value no engine runs: caught at load, not at the
        # first batch inside blur_batch.
        (lambda plan: plan.update(blur_method="bogus"), "blur_method"),
        # A plan saved while the cache-blocked traversal still existed.
        (lambda plan: plan.update(blur_method="tiled"), "blur_method"),
        # Numeric fields are checked at load too, not by the engine that
        # first reads them.
        (lambda plan: plan.update(threads=0), "threads"),
        (lambda plan: plan.update(band_bytes="big"), "band_bytes"),
        (lambda plan: plan.update(partitions=-3), "partitions"),
        (lambda plan: plan.update(band_rows=True), "band_rows"),
        # A hand-edited profile whose crossovers select the plane mask
        # for this kernel, while the plan still records the band ring.
        (lambda plan: plan["profile"].update(
            fft_crossover_taps=5, fused_fft_min_taps=5
        ), "fused_h_method"),
    ], ids=["negative-height", "bogus-blur", "tiled-blur", "zero-threads",
            "string-band-bytes", "negative-partitions", "bool-band-rows",
            "regime-against-profile"])
    def test_batch_bad_plan_file_exits_cleanly(
        self, capsys, tmp_path, edit, needle
    ):
        assert main(["planner", "explain", "--height", "32", "--width",
                     "32", "--sigma", "2", "--threads", "1", "--json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        plan["engine"] = "staged"
        edit(plan)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan))
        with pytest.raises(SystemExit, match=f"--plan .*{needle}") as exc:
            main(["--size", "64", "batch", "--plan", str(plan_file)])
        if needle != "shape":
            assert "planner explain" in str(exc.value)

    def test_batch_threads_require_fused(self):
        with pytest.raises(SystemExit):
            main(["--size", "32", "batch", "--count", "2",
                  "--threads", "2"])

    def test_serve_host_plan_file_errors_cleanly(self, tmp_path):
        # Same loader as batch --plan FILE: a usage error, no traceback,
        # and no host started.
        with pytest.raises(SystemExit, match="--plan"):
            main(["serve-host", "--plan", str(tmp_path / "missing.json")])

    def test_batch_nonpositive_threads_rejected_cleanly(self):
        # A usage error, not a ToneMapError traceback — and before any
        # image generation.
        with pytest.raises(SystemExit):
            main(["--size", "32", "batch", "--count", "2",
                  "--plan", "auto", "--threads", "0"])

    def test_batch_multi_tenant_lease_results(self, capsys):
        assert main(
            ["--size", "32", "batch", "--count", "6", "--batch-size", "2",
             "--shards", "2", "--tenant-weights", "heavy=3,light=1",
             "--per-tenant-queue-limit", "8", "--lease-results"]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming (ingestor)" in out
        assert "lease-native" in out
        assert "tenant heavy" in out and "tenant light" in out
        assert "fairness" in out

    def test_batch_lease_results_in_process(self, capsys):
        # Neither --lease-results nor --arena-slots needs a pool.
        assert main(
            ["--size", "32", "batch", "--count", "4", "--batch-size", "2",
             "--lease-results", "--arena-slots", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming (ingestor)" in out
        assert "lease-native" in out

    def test_batch_bad_tenant_weights_rejected(self):
        with pytest.raises(SystemExit):
            main(["--size", "32", "batch", "--count", "2",
                  "--tenant-weights", "heavy"])

    def test_batch_tenant_outputs_written(self, capsys, tmp_path):
        # Lease-native results still materialize for file output.
        assert main(
            ["--size", "32", "batch", "--count", "4", "--batch-size", "2",
             "--shards", "1", "--lease-results", "-o", str(tmp_path)]
        ) == 0
        assert len(list(tmp_path.glob("*.ppm"))) == 4

    def test_batch_sharded(self, capsys):
        assert main(
            ["--size", "32", "batch", "--count", "3", "--batch-size", "2",
             "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "shards        : 2 process(es)" in out
        assert "pre-grouped" in out

    def test_batch_streaming_ingest(self, capsys):
        assert main(
            ["--size", "32", "batch", "--count", "4", "--batch-size", "2",
             "--max-delay-ms", "4", "--queue-limit", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "streaming (ingestor)" in out
        assert "queue peak" in out
        assert "latency p50" in out

    def test_batch_image_directory(self, capsys, tmp_path):
        from repro.image.pfm import write_pfm
        from repro.image.synthetic import SceneParams, make_scene

        for i in range(2):
            image = make_scene(
                "gradient", SceneParams(height=32, width=32, seed=i)
            )
            write_pfm(image, tmp_path / f"scene{i}.pfm")
        assert main(["batch", "--images", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "images        : 2" in out

    def test_batch_empty_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", "--images", str(tmp_path)])

    def test_batch_missing_directory_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", "--images", str(tmp_path / "no_such_dir")])

    def test_all_small(self, capsys):
        assert main(["--size", "64", "all"]) == 0
        out = capsys.readouterr().out
        for marker in ("TABLE II", "FIG 5", "FIG 6", "FIG 7", "FIG 8a"):
            assert marker in out
