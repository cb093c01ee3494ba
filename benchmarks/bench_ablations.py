"""Benchmarks: ablation sweeps and extension studies.

These regenerate the design-choice analyses DESIGN.md calls out; each
bench stores its sweep in ``extra_info``.
"""

from repro.experiments.ablations import (
    ablate_partition_factor,
    ablate_pragmas,
    ablate_word_packing,
)
from repro.experiments.extensions import overlap_study, video_throughput


def test_ablate_pragmas(benchmark):
    series = benchmark(ablate_pragmas)
    for point in series.points:
        if point.feasible:
            benchmark.extra_info[point.label] = point.blur_seconds
    combo = series.point("PIPELINE + ARRAY_PARTITION").blur_seconds
    base = series.point("no pragmas (sequential)").blur_seconds
    assert combo < base / 10


def test_ablate_word_packing(benchmark):
    series = benchmark(ablate_word_packing)
    packed = series.point("fxp, word-packed line buffer")
    unpacked = series.point("fxp, unpacked line buffer")
    benchmark.extra_info["packed_ii"] = packed.pixels_ii
    benchmark.extra_info["unpacked_ii"] = unpacked.pixels_ii
    assert packed.pixels_ii < unpacked.pixels_ii


def test_ablate_partition(benchmark):
    series = benchmark(ablate_partition_factor)
    feasible = [p for p in series.points if p.feasible]
    assert len(feasible) >= 3
    times = [p.blur_seconds for p in feasible]
    assert times == sorted(times, reverse=True)


def test_extension_overlap(benchmark, paper_flow):
    study = benchmark(overlap_study, paper_flow)
    for result in study.results:
        benchmark.extra_info[f"{result.key}_saving"] = result.saving_fraction
        assert result.overlapped_s <= result.serialized_s


def test_extension_throughput(benchmark, paper_flow):
    study = benchmark(video_throughput, paper_flow)
    for result in study.results:
        benchmark.extra_info[f"{result.key}_fps"] = result.fps_pipelined
    assert (
        study.result("fxp").fps_pipelined > study.result("sw").fps_pipelined
    )
