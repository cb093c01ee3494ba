"""Blur-path benchmarks: the perf trajectory of the repo's hottest code.

Float (auto-dispatched folded/FFT vs the seed ``direct`` path) and the
bit-accurate fixed-point model, at 256^2 and 1024^2, sigma 4 and 16
(the paper's default mask width).  Every case records
``pixels_per_sec`` in ``extra_info`` so future runs can compare:

    PYTHONPATH=src python -m pytest benchmarks/bench_blur.py \
        --benchmark-only --benchmark-json=blur.json

Quick smoke (CI): ``-k "256 or speedup" --benchmark-disable`` runs the
256^2 cases once each plus the speedup assertion.  The huge-plane
narrow-kernel case runs the whole fused pipeline and lives in
``bench_runtime.py``.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.tonemap.fixed_blur import fixed_point_blur_plane
from repro.tonemap.gaussian import GaussianKernel, separable_blur

SIZES = (256, 1024)
SIGMAS = (4.0, 16.0)

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
