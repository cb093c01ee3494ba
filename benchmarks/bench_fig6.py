"""Benchmark: Fig. 6 — execution time with the PS/PL split."""

from repro.experiments.fig6 import FIG6_KEYS, run_fig6


def test_fig6_series(benchmark, paper_flow):
    fig6 = benchmark(run_fig6, paper_flow)
    for bar in fig6.bars:
        benchmark.extra_info[f"{bar.key}_ps_s"] = bar.ps_seconds
        benchmark.extra_info[f"{bar.key}_pl_s"] = bar.pl_seconds
    # Paper shape: marked_hw omitted; SW has no PL bar; accelerated
    # implementations split PS vs PL.
    assert [b.key for b in fig6.bars] == list(FIG6_KEYS)
    assert fig6.bar("sw").pl_seconds == 0.0
    assert fig6.bar("fxp").pl_seconds > 0.0
    # The final implementations' totals collapse onto the PS remainder.
    assert fig6.bar("fxp").total_seconds < fig6.bar("sw").total_seconds
