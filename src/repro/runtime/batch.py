"""Whole-batch execution of the four-stage tone-mapping pipeline.

:class:`BatchToneMapper` is the batched counterpart of
:class:`repro.tonemap.pipeline.ToneMapper`: N same-shape images are
stacked into one array and every stage — normalization, Gaussian blur of
the luminance volume, non-linear masking, brightness/contrast — runs as a
single vectorized operation over the whole stack.  The arithmetic mirrors
the per-image pipeline step for step (including the float32 storage
round-trip at the normalization boundary), so batched outputs match
per-image outputs to float32 representation tolerance (property-tested in
``tests/test_runtime.py``).

A custom ``blur_fn`` may expose a ``blur_batch`` attribute taking the
whole ``(N, H, W)`` luminance volume (the closures built by
:func:`repro.tonemap.fixed_blur.make_fixed_blur_fn` do); the mapper then
blurs the stack in one call instead of looping plane-by-plane, which is
how the bit-accurate fixed-point model keeps up with the float path in a
batch.  :meth:`BatchToneMapper.run_stack` is the raw-array entry point
used by the process-pool sharding backend
(:class:`repro.runtime.ShardPool`), which hands each worker a
shared-memory slab of the stacked pixels.  Throughput of both paths is
tracked by ``benchmarks/bench_runtime.py`` (see ``docs/benchmarks.md``).

With ``fused=True`` the float path switches from the staged stack
execution to the fused band engine
(:mod:`repro.runtime.fused`): normalize → blur → mask → adjust run in
one pass over cache-sized row bands (optionally partitioned across
``threads`` workers), with no stage temporaries after warm-up — the
software analogue of the paper's ``DATAFLOW`` pragma.  Outputs follow
the fused tolerance contract: bit-identical to staged, except between
the two FFT crossovers (25-32 taps by default), where the band ring's
folded window meets a staged FFT and the blur module's 1e-9 band
applies.  The fused engine is float-only: it *is* the blur, so it
cannot host a custom/fixed-point ``blur_fn``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # import for annotations only — no runtime cycle
    from repro.planner.plan import ExecutionPlan

import numpy as np

from repro.errors import ToneMapError
from repro.image.color import LUMA_WEIGHTS
from repro.image.hdr import HDRImage
from repro.runtime.clock import MONOTONIC
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.fused import FusedExecutor, FusedStats, FusedToneMapPlan
from repro.tonemap.adjust import adjust_brightness_contrast
from repro.tonemap.gaussian import blur_batch
from repro.tonemap.masking import masking_exponent
from repro.tonemap.pipeline import ToneMapParams

#: Byte budget of float64 image data per stacked sub-batch (see
#: ``BatchToneMapper.run``); sized like
#: :data:`repro.tonemap.gaussian.BATCH_CHUNK_BYTES` to keep a sub-batch's
#: element-wise stages resident in last-level cache.
_STAGE_CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class BatchToneMapResult:
    """Outputs of one batched run.

    Attributes
    ----------
    outputs:
        Tone-mapped images, in input order.
    masks:
        The blurred luminance volume, shape ``(N, H, W)`` (kept so quality
        experiments can compare mask implementations batch-wise).
    pixels:
        Total pixels processed, ``N * H * W``.
    """

    outputs: tuple[HDRImage, ...]
    masks: np.ndarray
    pixels: int


class BatchToneMapper:
    """Runs the tone-mapping pipeline on stacks of same-shape images.

    Parameters
    ----------
    params:
        Pipeline parameters, shared by every image in a batch (``None``
        constructs a fresh default set per mapper — no module-level
        instance is shared between mappers).  A custom ``blur_fn`` (e.g.
        the fixed-point accelerator model) is applied plane-by-plane;
        the default float path uses the fully batched
        :func:`repro.tonemap.gaussian.blur_batch`.
    fused:
        Run the float path through the fused band engine
        (:mod:`repro.runtime.fused`) instead of the staged stack
        execution.  Requires ``params.blur_fn`` to be ``None``.
    threads:
        Fused worker threads (``None`` = ``REPRO_FUSED_THREADS`` env,
        else CPU count).  Ignored unless ``fused``.
    plan:
        An :class:`~repro.planner.plan.ExecutionPlan` from the planner:
        supplies the engine choice (fused vs staged), thread count, band
        budget, and the calibration profile the fused dispatch is pinned
        to.  Explicit ``fused``/``threads`` arguments still win over the
        plan (a caller pin beats a planner decision); a plan whose
        engine is ``"fused"`` is ignored when ``params.blur_fn`` is set
        — the fused engine is float-only, and a plan computed for a
        float workload must not crash a fixed-point mapper.
    faults:
        Chaos hook (:mod:`repro.runtime.faults`): a
        :class:`~repro.runtime.faults.FaultPlan` or a shared
        :class:`~repro.runtime.faults.FaultInjector` whose ``slow``
        jitter delays batches in-process — the only fault kind with an
        in-process analogue (there is no worker to kill or hang here).
        Explicit-only (never read from the environment): the service's
        brownout path shares its injector so chaos plans keep applying
        after the breaker routes batches away from the pool, while
        shard workers — whose faults the parent injects — stay clean.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        fused: bool = False,
        threads: Optional[int] = None,
        plan: Optional["ExecutionPlan"] = None,
        faults: Optional[object] = None,
    ):
        self.params = params if params is not None else ToneMapParams()
        if faults is None or isinstance(faults, FaultInjector):
            self.faults: Optional[FaultInjector] = faults
        elif isinstance(faults, FaultPlan):
            self.faults = FaultInjector(faults)
        else:
            raise ToneMapError(
                f"faults must be a FaultPlan or FaultInjector, got "
                f"{type(faults)!r}"
            )
        self._kernel = self.params.kernel()
        self.execution_plan = plan
        band_bytes = None
        profile = None
        if plan is not None:
            if not fused:
                fused = (
                    plan.engine == "fused" and self.params.blur_fn is None
                )
            if threads is None:
                threads = plan.threads
            band_bytes = plan.band_bytes
            profile = plan.profile
        self._plan: Optional[FusedToneMapPlan] = None
        self._engine: Optional[FusedExecutor] = None
        if fused:
            # Raises ToneMapError for custom blur_fn params — the fused
            # engine is the blur, so a silent staged fallback would lie
            # about what executed.
            self._plan = FusedToneMapPlan(
                self.params, band_bytes=band_bytes, profile=profile
            )
            self._engine = FusedExecutor(threads=threads)

    @property
    def kernel(self):
        """The Gaussian kernel used by the blur stage."""
        return self._kernel

    @property
    def fused(self) -> bool:
        """Whether stacks run through the fused band engine."""
        return self._engine is not None

    @property
    def fused_stats(self) -> Optional[FusedStats]:
        """Fused-dataflow counters (``None`` for a staged mapper)."""
        return self._engine.stats if self._engine is not None else None

    def close(self) -> None:
        """Retire the fused engine's worker threads (no-op when staged).

        A staged mapper holds no resources; a fused one owns a
        :class:`~repro.runtime.fused.FusedExecutor` whose threads would
        otherwise idle until garbage collection.  :class:`ToneMapService`
        calls this from its own ``close``.
        """
        if self._engine is not None:
            self._engine.close()

    def _maybe_jitter(self) -> None:
        """Apply the fault plan's ``slow`` delay to this batch (if any)."""
        if self.faults is None:
            return
        index, kinds = self.faults.next_inproc()
        if "slow" in kinds:
            MONOTONIC.sleep(self.faults.plan.jitter_s(index))

    def run(self, images: Sequence[HDRImage]) -> BatchToneMapResult:
        """Tone-map a batch of same-shape images and return every output."""
        if len(images) == 0:
            raise ToneMapError("batch must contain at least one image")
        for image in images:
            if not isinstance(image, HDRImage):
                raise ToneMapError(f"expected HDRImage, got {type(image)!r}")
        shape = images[0].pixels.shape
        for image in images[1:]:
            if image.pixels.shape != shape:
                raise ToneMapError(
                    f"batch images must share one shape; got {shape} and "
                    f"{image.pixels.shape} (group by shape first, as "
                    "ToneMapService does)"
                )

        self._maybe_jitter()
        height, width = shape[0], shape[1]
        count = len(images)
        masks = np.empty((count, height, width), dtype=np.float64)

        # The stack is processed in cache-sized sub-batches of whole
        # images.  For the staged path that keeps the element-wise
        # stages in last-level cache instead of thrashing N full-stack
        # temporaries; the fused engine bounds its own working set via
        # banding, but chunking still applies so the adopted output
        # views below pin at most one chunk-sized backing buffer — a
        # caller keeping one image from a large batch must not keep the
        # whole batch's pixels alive.
        image_bytes = int(np.prod(shape)) * 8
        chunk = max(1, _STAGE_CHUNK_BYTES // image_bytes)
        outputs: list[HDRImage] = []
        for lo in range(0, count, chunk):
            sub = images[lo : lo + chunk]
            stacked = np.stack([image.pixels for image in sub])
            if self._engine is not None:
                # Fused: float32 output bands are written directly — no
                # full-stack float64 result to down-convert.
                out_chunk = np.empty(stacked.shape, dtype=np.float32)
                self._engine.run(
                    self._plan, stacked, out_chunk,
                    masks[lo : lo + len(sub)],
                )
            else:
                out_chunk = self._run_stack(
                    stacked, masks[lo : lo + len(sub)]
                ).astype(np.float32)
            # Adopt (don't re-copy / re-scan) the outputs when every
            # stage is repo-internal arithmetic: validated finite inputs
            # cannot produce NaN/negatives through normalize, the
            # built-in blurs, masking, and the clipped adjust, so the
            # HDRImage invariants hold by construction and the
            # float64->float32 store happens in the astype above exactly
            # as the validating constructor would.  A *custom* blur_fn is
            # outside that proof (it may emit NaN, which np.clip
            # propagates), so its outputs keep full validation.
            blur_fn = self.params.blur_fn
            trusted = blur_fn is None or getattr(
                blur_fn, "trusted_finite", False
            )
            wrap = HDRImage.adopt if trusted else HDRImage
            outputs.extend(
                wrap(out_chunk[i], name=f"{sub[i].name}:tonemapped")
                for i in range(len(sub))
            )
        return BatchToneMapResult(
            outputs=tuple(outputs),
            masks=masks,
            pixels=count * height * width,
        )

    def _run_stack(self, stack32: np.ndarray, masks_out: np.ndarray) -> np.ndarray:
        """All four stages over one stacked sub-batch; returns the outputs."""
        # Step 1: normalization against each image's maximum, in float32
        # exactly as HDRImage.normalized computes and stores it (black
        # images have nothing to scale and pass through).
        reduce_axes = tuple(range(1, stack32.ndim))
        peaks = np.amax(stack32, axis=reduce_axes, keepdims=True)
        normalized32 = stack32 / np.where(peaks == 0.0, np.float32(1.0), peaks)
        normalized = normalized32.astype(np.float64)

        # Step 2: Gaussian blur of the luminance volume -> the masks.
        if normalized.ndim == 4:
            luminance = normalized @ LUMA_WEIGHTS
        else:
            luminance = normalized
        blur_fn = self.params.blur_fn
        if blur_fn is None:
            masks = blur_batch(luminance, self._kernel)
        else:
            batch_fn = getattr(blur_fn, "blur_batch", None)
            if batch_fn is not None:
                masks = batch_fn(luminance, self._kernel)
            else:
                masks = np.stack(
                    [blur_fn(plane, self._kernel) for plane in luminance]
                )
        np.clip(
            np.asarray(masks, dtype=np.float64), 0.0, 1.0, out=masks_out
        )

        # Step 3: non-linear masking (per-pixel gamma correction), the
        # batched form of repro.tonemap.masking.nonlinear_masking, run in
        # place on one buffer.
        masking = self.params.masking
        exponent = masking_exponent(masks_out, masking)
        if normalized.ndim == 4:
            exponent = exponent[..., np.newaxis]
        out = np.clip(normalized, masking.epsilon, 1.0)
        np.power(out, exponent, out=out)
        # Pixels at (or below) the epsilon floor are true blacks: keep 0.
        out[normalized <= masking.epsilon] = 0.0

        # Step 4: brightness and contrast adjustment (the shared function
        # is shape-agnostic; its temporaries are chunk-sized, so reuse
        # beats re-deriving the formula here).
        return adjust_brightness_contrast(out, self.params.adjust)

    def run_stack(
        self, stack: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Tone-map a raw pixel stack, bypassing :class:`HDRImage` wrapping.

        The raw-array twin of :meth:`run` for callers that already hold the
        stacked pixels — most importantly :class:`repro.runtime.ShardPool`
        workers, which receive an ``(N, H, W[, 3])`` shared-memory slab and
        write results straight back into shared memory via ``out``.

        Parameters
        ----------
        stack:
            ``(N, H, W)`` gray or ``(N, H, W, 3)`` RGB pixel stack.  Cast
            to float32 first (the :class:`HDRImage` storage type), so
            outputs are bit-identical to :meth:`run` on the wrapped images.
        out:
            Optional preallocated output array of the same shape; the
            float64 stage results are cast into its dtype on assignment.

        Returns
        -------
        ``out`` if given, else a new float64 array of ``stack.shape``.
        """
        stack = np.asarray(stack, dtype=np.float32)
        if stack.ndim not in (3, 4) or (stack.ndim == 4 and stack.shape[3] != 3):
            raise ToneMapError(
                f"run_stack expects (N, H, W) or (N, H, W, 3), got {stack.shape}"
            )
        if out is None:
            out = np.empty(stack.shape, dtype=np.float64)
        elif out.shape != stack.shape:
            raise ToneMapError(
                f"out shape {out.shape} does not match stack {stack.shape}"
            )
        self._maybe_jitter()
        if self._engine is not None:
            # Single fused pass; the shard workers' hot path.  No mask
            # volume is materialized at all — the mask bands live and die
            # in per-thread scratch.
            return self._engine.run(self._plan, stack, out)
        count, height, width = stack.shape[0], stack.shape[1], stack.shape[2]
        image_bytes = int(np.prod(stack.shape[1:])) * 8
        chunk = max(1, _STAGE_CHUNK_BYTES // image_bytes)
        for lo in range(0, count, chunk):
            sub = stack[lo : lo + chunk]
            masks = np.empty((len(sub), height, width), dtype=np.float64)
            out[lo : lo + len(sub)] = self._run_stack(sub, masks)
        return out

    def map(self, images: Sequence[HDRImage]) -> tuple[HDRImage, ...]:
        """Convenience: batched run returning only the output images."""
        return self.run(images).outputs
