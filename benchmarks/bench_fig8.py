"""Benchmark: Fig. 8 — bottomline vs execution overhead, PS and PL."""

from repro.experiments.fig8 import run_fig8
from repro.power.rails import Rail


def test_fig8_series(benchmark, paper_flow):
    fig8 = benchmark(run_fig8, paper_flow)
    for bar in fig8.ps_bars:
        benchmark.extra_info[f"ps_{bar.key}_bottomline_j"] = bar.bottomline_j
        benchmark.extra_info[f"ps_{bar.key}_overhead_j"] = bar.overhead_j
    for bar in fig8.pl_bars:
        benchmark.extra_info[f"pl_{bar.key}_bottomline_j"] = bar.bottomline_j
        benchmark.extra_info[f"pl_{bar.key}_overhead_j"] = bar.overhead_j

    # Paper shapes: PS terms shrink with execution time; PL bottomline
    # grows once logic is configured; PL overhead decays to near zero.
    assert (
        fig8.bar(Rail.PS, "fxp").total_j < fig8.bar(Rail.PS, "sw").total_j
    )
    sw_pl_bottom = fig8.bar(Rail.PL, "sw").bottomline_j
    for key in ("sequential", "pragmas", "fxp"):
        assert fig8.bar(Rail.PL, key).bottomline_j > sw_pl_bottom
    assert (
        fig8.bar(Rail.PL, "sequential").overhead_j
        > fig8.bar(Rail.PL, "fxp").overhead_j
    )
