"""Blur-path benchmarks: the perf trajectory of the repo's hottest code.

Float (auto-dispatched folded/FFT/tiled vs the seed ``direct`` path), the
bit-accurate fixed-point model, and the row-vectorized streaming
line-buffer model, at 256^2 and 1024^2, sigma 4 and 16 (the paper's
default mask width), plus the folded-vs-tiled crossover for narrow
kernels on huge planes.  Every case records ``pixels_per_sec`` in
``extra_info`` so future PRs can compare runs:

    PYTHONPATH=src python -m pytest benchmarks/bench_blur.py \
        --benchmark-only --benchmark-json=blur.json

Quick smoke (CI): ``-k "256 or speedup or tiled" --benchmark-disable``
runs the 256^2 cases once each plus the speedup / bit-identity
assertions.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.accel.linebuffer import streaming_blur_plane
from repro.planner.profile import DEFAULT_TILED_MIN_PLANE_BYTES
from repro.tonemap.fixed_blur import fixed_point_blur_plane
from repro.tonemap.gaussian import GaussianKernel, separable_blur

SIZES = (256, 1024)
SIGMAS = (4.0, 16.0)

#: Plane size of the folded-vs-tiled crossover cases: big enough that the
#: folded temporaries spill any commodity last-level cache.
TILED_CASE_SIZE = 2048

_KERNELS = {sigma: GaussianKernel(sigma=sigma) for sigma in SIGMAS}


@lru_cache(maxsize=None)
def _plane(size):
    return np.random.default_rng(size).uniform(0.0, 1.0, (size, size))


def _run(benchmark, fn, size, sigma, rounds):
    plane, kernel = _plane(size), _KERNELS[sigma]
    out = benchmark.pedantic(
        fn, args=(plane, kernel), rounds=rounds, iterations=1, warmup_rounds=1
    )
    assert out.shape == plane.shape
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["pixels"] = plane.size
        benchmark.extra_info["sigma"] = sigma
        benchmark.extra_info["taps"] = kernel.taps
        benchmark.extra_info["pixels_per_sec"] = (
            plane.size / benchmark.stats.stats.min
        )


def _rounds(size):
    return 5 if size <= 256 else 3


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("size", SIZES)
def test_float_auto(benchmark, size, sigma):
    _run(benchmark, separable_blur, size, sigma, _rounds(size))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("size", SIZES)
def test_float_direct_seed(benchmark, size, sigma):
    def direct(plane, kernel):
        return separable_blur(plane, kernel, method="direct")

    _run(benchmark, direct, size, sigma, _rounds(size))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("size", SIZES)
def test_fixed(benchmark, size, sigma):
    _run(benchmark, fixed_point_blur_plane, size, sigma, _rounds(size))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("size", SIZES)
def test_streaming_vectorized(benchmark, size, sigma):
    _run(benchmark, streaming_blur_plane, size, sigma, _rounds(size))


@pytest.mark.parametrize("method", ("folded", "tiled"))
def test_huge_plane_narrow_kernel(benchmark, method):
    """The crossover pair: folded vs cache-blocked tiled at 2048², σ4.

    Narrow kernel (below the FFT crossover) on a plane far past
    :data:`~repro.planner.profile.DEFAULT_TILED_MIN_PLANE_BYTES` — the
    regime the tiled path exists for.
    The committed crossover constant is recorded alongside the rate so a
    future host re-tune has its context in the JSON.
    """
    plane = _plane(TILED_CASE_SIZE)
    kernel = GaussianKernel(sigma=4.0)

    def run(p, k):
        return separable_blur(p, k, method=method)

    out = benchmark.pedantic(
        run, args=(plane, kernel), rounds=3, iterations=1, warmup_rounds=1
    )
    assert out.shape == plane.shape
    if benchmark.stats is not None:
        benchmark.extra_info["pixels"] = plane.size
        benchmark.extra_info["taps"] = kernel.taps
        benchmark.extra_info["tiled_min_plane_bytes"] = (
            DEFAULT_TILED_MIN_PLANE_BYTES
        )
        benchmark.extra_info["pixels_per_sec"] = (
            plane.size / benchmark.stats.stats.min
        )


def test_float_speedup_vs_seed():
    """The acceptance bar: auto path >= 3x the seed at 1024^2, sigma 16.

    A plain (non-benchmark-fixture) test so it also runs under
    ``--benchmark-disable`` in the CI smoke job.
    """
    import time

    plane, kernel = _plane(1024), _KERNELS[16.0]

    def best(fn, n=3):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    seed = best(lambda: separable_blur(plane, kernel, method="direct"))
    auto = best(lambda: separable_blur(plane, kernel, method="auto"))
    assert seed / auto >= 3.0, f"only {seed / auto:.2f}x over the seed path"


def test_tiled_bit_identical_and_dispatched():
    """Tiled == folded bit for bit, and "auto" picks it on huge planes.

    Bit-identity is the tiled path's whole contract (same arithmetic,
    blocked traversal), so it is asserted exactly — and cheaply enough to
    run in the CI smoke job.  The wall-clock advantage is recorded by
    ``test_huge_plane_narrow_kernel`` and guarded (with tolerance) by
    ``tools/check_bench.py`` rather than asserted here: cache-blocking
    margins depend on the host's cache sizes.
    """
    from repro.tonemap.gaussian import _select_method

    plane = _plane(TILED_CASE_SIZE)
    kernel = GaussianKernel(sigma=4.0)
    folded = separable_blur(plane, kernel, method="folded")
    tiled = separable_blur(plane, kernel, method="tiled")
    np.testing.assert_array_equal(folded, tiled)
    # Dispatch: sigma 4 is exactly the FFT crossover (25 taps), so the
    # narrow-kernel dispatch check needs a truly narrow kernel.
    narrow = GaussianKernel(sigma=2.0)
    assert narrow.taps < 25
    assert (
        _select_method("auto", narrow.taps, plane.nbytes) == "tiled"
    ), "auto should pick tiled for a narrow kernel on a huge plane"
    assert (
        _select_method("auto", narrow.taps, _plane(256).nbytes) == "folded"
    ), "auto should keep small planes on the folded path"
    assert (
        _select_method("auto", kernel.taps, plane.nbytes) == "fft"
    ), "auto should still hand wide kernels to the FFT"
