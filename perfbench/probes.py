"""Reference outputs and the per-layer probes of the traced run.

* :func:`references` computes every frame's expected output once, with
  the in-process staged ``BatchToneMapper.run_stack`` — the reference
  every served output is compared against.
* :func:`stage_probe` replays the staged engine stage by stage through
  the public ``repro.tonemap`` functions on the mapper's own chunk size,
  timing each stage, and proves the composition equals ``run_stack`` bit
  for bit.
* :func:`fused_probe` times ``FusedExecutor.run`` with the plan's band
  budget and reads the engine's own counters.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.image.color import LUMA_WEIGHTS
from repro.runtime import batch as batch_module
from repro.runtime.batch import BatchToneMapper
from repro.runtime.fused import FusedExecutor, FusedToneMapPlan
from repro.tonemap.adjust import adjust_brightness_contrast
from repro.tonemap.gaussian import blur_batch
from repro.tonemap.masking import masking_exponent

from spans import clock, median

STAGES = ("normalize", "blur", "mask_exponent", "pow", "adjust")


def exact_contract(plan) -> bool:
    """True where the tolerance contract promises bit-identical outputs.

    Folded/tiled blurs (staged or fused) are bit-identical to the staged
    reference; wherever an FFT runs, the documented 1e-9 band applies.
    """
    fused_fft = plan.engine == "fused" and plan.fused_h_method == "fft"
    return plan.blur_method != "fft" and not fused_fft


def matches(got: np.ndarray, want: np.ndarray, exact: bool) -> bool:
    """Compare one output against its reference under the contract."""
    if got.shape != want.shape:
        return False
    if exact:
        return bool(np.array_equal(got, want))
    diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
    return bool(diff.max() <= 1e-9)


def references(params, frames: Dict[tuple, List[np.ndarray]]) -> Dict[tuple, List[np.ndarray]]:
    """Staged single-frame outputs, float32, keyed like ``frames``."""
    mapper = BatchToneMapper(params)
    return {
        shape: [mapper.run_stack(f[np.newaxis]).astype(np.float32)[0] for f in pool]
        for shape, pool in frames.items()
    }


def _chunk(stack: np.ndarray) -> int:
    """The staged mapper's sub-batch size for this frame geometry."""
    budget = getattr(batch_module, "_STAGE_CHUNK_BYTES", 1 << 22)
    return max(1, budget // (int(np.prod(stack.shape[1:])) * 8))


def _staged_stages(params, kernel, sub: np.ndarray, spent: Dict[str, float]) -> np.ndarray:
    """The staged engine's four steps on one chunk, timed stage by stage."""
    t0 = clock()
    peaks = np.amax(sub, axis=tuple(range(1, sub.ndim)), keepdims=True)
    normalized32 = sub / np.where(peaks == 0.0, np.float32(1.0), peaks)
    normalized = normalized32.astype(np.float64)
    t1 = clock()
    luminance = normalized @ LUMA_WEIGHTS if normalized.ndim == 4 else normalized
    masks = np.empty(sub.shape[:3], dtype=np.float64)
    np.clip(np.asarray(blur_batch(luminance, kernel), dtype=np.float64), 0.0, 1.0, out=masks)
    t2 = clock()
    exponent = masking_exponent(masks, params.masking)
    if normalized.ndim == 4:
        exponent = exponent[..., np.newaxis]
    t3 = clock()
    eps = params.masking.epsilon
    out = np.clip(normalized, eps, 1.0)
    np.power(out, exponent, out=out)
    out[normalized <= eps] = 0.0
    t4 = clock()
    result = adjust_brightness_contrast(out, params.adjust)
    t5 = clock()
    for name, (a, b) in zip(STAGES, ((t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5))):
        spent[name] += b - a
    return result


def stage_probe(params, stack: np.ndarray, reps: int) -> Tuple[Dict[str, float], bool]:
    """Per-frame ms of each staged stage, of staged ``run_stack``, and closure.

    Returns the metrics and whether every composed output equalled the
    staged ``run_stack`` bit for bit.
    """
    mapper = BatchToneMapper(params)
    kernel = mapper.kernel
    chunk = _chunk(stack)
    frames = stack.shape[0]
    per_stage: Dict[str, List[float]] = {name: [] for name in STAGES}
    run_stack_s: List[float] = []
    identical = True
    for _ in range(reps):
        spent = dict.fromkeys(STAGES, 0.0)
        composed = np.empty(stack.shape, dtype=np.float64)
        for lo in range(0, frames, chunk):
            composed[lo : lo + chunk] = _staged_stages(params, kernel, stack[lo : lo + chunk], spent)
        for name in STAGES:
            per_stage[name].append(spent[name])
        t0 = clock()
        want = mapper.run_stack(stack)
        run_stack_s.append(clock() - t0)
        identical = identical and bool(np.array_equal(composed, want))
    metrics = {f"tonemap.{name}_ms": median(v) * 1e3 / frames for name, v in per_stage.items()}
    staged_ms = median(run_stack_s) * 1e3 / frames
    metrics["tonemap.closure"] = sum(metrics.values()) / staged_ms
    return metrics, identical


def fused_probe(params, plan, stack: np.ndarray, threads: int, reps: int,
                want: np.ndarray, exact: bool) -> Tuple[Dict[str, float], bool]:
    """``FusedExecutor.run`` timings and counters for one batch.

    ``threads`` is the thread count the workload's engine runs with (the
    plan's for an in-process mapper, 1 per shard worker).  The 2-vs-1
    thread ratio is measured on the same batch.
    """
    fplan = FusedToneMapPlan(params, band_bytes=plan.band_bytes, profile=plan.profile)
    frames = stack.shape[0]
    out = np.empty(stack.shape, dtype=np.float32)
    timings: Dict[int, List[float]] = {}
    metrics: Dict[str, float] = {}
    ok = True
    for count in sorted({1, 2, threads}):
        with FusedExecutor(threads=count) as engine:
            engine.run(fplan, stack, out)  # warm the workspace pool
            ok = ok and matches(out, want, exact)
            before = engine.stats
            timings[count] = []
            for _ in range(reps):
                t0 = clock()
                engine.run(fplan, stack, out)
                timings[count].append(clock() - t0)
            after = engine.stats
        if count == threads:
            done = after.frames - before.frames
            metrics = {
                "fused.run_ms": median(timings[count]) * 1e3 / frames,
                "fused.bands_per_frame": (after.bands_executed - before.bands_executed) / done,
                "fused.halo_rows_reused_per_frame": (after.halo_rows_reused - before.halo_rows_reused) / done,
                "fused.threads_used": float(after.threads_used),
                "fused.intermediate_bytes": float(after.intermediate_bytes - before.intermediate_bytes),
            }
    metrics["fused.speedup_2_vs_1_thread"] = median(timings[1]) / median(timings[2])
    return metrics, ok
