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
whole ``(N, H, W)`` luminance volume (the fixed-point blur built by
:func:`repro.tonemap.fixed_blur.make_fixed_blur_fn` does); the mapper then
blurs the stack in one call instead of looping plane-by-plane, which is
how the bit-accurate fixed-point model keeps up with the float path in a
batch.  :meth:`BatchToneMapper.run_stack` is the raw-array entry point
every serving backend runs on arena stacks (shard workers, and the
in-process :class:`~repro.runtime.backend.LocalBackend`);
:meth:`BatchToneMapper.map` is the image-level reference they are
compared against.  Throughput of both paths is tracked by
``benchmarks/bench_runtime.py`` (see ``docs/benchmarks.md``).

The engine comes from an :class:`~repro.planner.plan.ExecutionPlan`, and
this constructor is the one place that reads it.  A plan whose engine is
``"fused"`` switches the float path from the staged stack execution to
the fused band engine (:mod:`repro.runtime.fused`): normalize → blur →
mask → adjust run in one pass over cache-sized row bands (optionally
partitioned across threads), with no stage temporaries after warm-up —
the software analogue of the paper's ``DATAFLOW`` pragma.  Outputs
follow the fused tolerance contract: bit-identical to staged, except
between the two FFT crossovers (25-32 taps by default), where the band
ring's folded window meets a staged FFT and the blur module's 1e-9 band
applies.  The fused engine is float-only: it *is* the blur, so a mapper
whose ``params.blur_fn`` is set runs staged with that blur whatever the
plan says.  Without a plan the mapper is the staged reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # import for annotations only — no runtime cycle
    from repro.planner.plan import ExecutionPlan

import numpy as np

from repro.errors import ImageError, ToneMapError
from repro.image.color import LUMA_WEIGHTS
from repro.image.hdr import HDRImage
from repro.runtime.fused import FusedExecutor, FusedStats, FusedToneMapPlan
from repro.tonemap.adjust import adjust_brightness_contrast
from repro.tonemap.gaussian import blur_batch
from repro.tonemap.masking import masking_exponent
from repro.tonemap.pipeline import ToneMapParams

#: Byte budget of float64 image data per staged sub-batch (see
#: ``BatchToneMapper._run``); sized like
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
        instance is shared between mappers).  They say *what* is
        computed: a custom ``blur_fn`` (e.g. the fixed-point accelerator
        model) replaces the float blur; the default float path uses the
        fully batched :func:`repro.tonemap.gaussian.blur_batch`.
    threads:
        Fused worker threads, overriding the plan's ``threads`` (shard
        workers pass 1).  Only a fused plan starts threads.
    plan:
        An :class:`~repro.planner.plan.ExecutionPlan` saying *how* the
        batch runs: engine (fused vs staged), thread count, band budget,
        the staged blur method and the calibration profile the fused
        dispatch is pinned to.  ``None`` runs the staged engine with the
        blur method resolved per call.  A fused plan is ignored when
        ``params.blur_fn`` is set — the fused engine is float-only, and a
        plan computed for a float workload must not crash a fixed-point
        mapper.
    """

    def __init__(
        self,
        params: Optional[ToneMapParams] = None,
        threads: Optional[int] = None,
        plan: Optional["ExecutionPlan"] = None,
    ):
        self.params = params if params is not None else ToneMapParams()
        self._kernel = self.params.kernel()
        self.execution_plan = plan
        self._blur_method = "auto" if plan is None else plan.blur_method
        self._plan: Optional[FusedToneMapPlan] = None
        self._engine: Optional[FusedExecutor] = None
        if (
            plan is not None
            and plan.engine == "fused"
            and self.params.blur_fn is None
        ):
            self._plan = FusedToneMapPlan(
                self.params, band_bytes=plan.band_bytes, profile=plan.profile
            )
            self._engine = FusedExecutor(
                threads=plan.threads if threads is None else threads
            )
        # Validated finite inputs cannot produce NaN or negatives through
        # normalize, the built-in blurs, masking and the clipped adjust.
        # A custom blur_fn is outside that proof (np.clip propagates its
        # NaN), so its outputs are scanned unless it vouches for itself.
        blur_fn = self.params.blur_fn
        self._trusted = blur_fn is None or getattr(
            blur_fn, "trusted_finite", False
        )

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
        otherwise idle until garbage collection.  A
        :class:`~repro.runtime.backend.LocalBackend` calls this from its
        own ``close``.
        """
        if self._engine is not None:
            self._engine.close()

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

        stack = np.stack([image.pixels for image in images])
        out = np.empty(stack.shape, dtype=np.float32)
        masks = np.empty(stack.shape[:3], dtype=np.float64)
        self._run(stack, out, masks)
        # _run scanned an untrusted blur's outputs, so every output meets
        # the HDRImage invariants: adopt views of the one batch buffer.
        return BatchToneMapResult(
            outputs=tuple(
                HDRImage.adopt(out[i], name=f"{image.name}:tonemapped")
                for i, image in enumerate(images)
            ),
            masks=masks,
            pixels=int(np.prod(stack.shape[:3])),
        )

    def _run(
        self, stack: np.ndarray, out: np.ndarray, masks: Optional[np.ndarray]
    ) -> np.ndarray:
        """Tone-map a float32 ``stack`` into ``out``; every entry's core.

        ``masks`` (float64 ``(N, H, W)``, or ``None``) receives the
        clipped blurred luminance.  The fused engine takes the whole
        stack in one call; the staged engine runs cache-sized sub-batches
        of whole images, so its element-wise stages stay in last-level
        cache.  Raises :class:`~repro.errors.ImageError` when an
        untrusted ``blur_fn`` left NaN, inf or negatives in ``out``.
        """
        if self._engine is not None:
            self._engine.run(self._plan, stack, out, masks)
        else:
            image_bytes = int(np.prod(stack.shape[1:])) * 8
            chunk = max(1, _STAGE_CHUNK_BYTES // image_bytes)
            for lo in range(0, stack.shape[0], chunk):
                hi = min(lo + chunk, stack.shape[0])
                sub_masks = (
                    np.empty((hi - lo,) + stack.shape[1:3], dtype=np.float64)
                    if masks is None
                    else masks[lo:hi]
                )
                out[lo:hi] = self._run_stack(stack[lo:hi], sub_masks)
        if not self._trusted and not (
            np.isfinite(out).all() and out.min() >= 0
        ):
            raise ImageError("blur_fn produced NaN, inf or negatives")
        return out

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
            masks = blur_batch(luminance, self._kernel, self._blur_method)
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
        stacked pixels — every serving backend: shard workers receive an
        ``(N, H, W[, 3])`` shared-memory slab, and the in-process
        :class:`~repro.runtime.backend.LocalBackend` an arena input
        stack; both write results straight into shared memory via
        ``out``.

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
        # No mask volume: fused mask bands live and die in per-thread
        # scratch, staged masks in one sub-batch's buffer.
        return self._run(stack, out, None)

    def map(self, images: Sequence[HDRImage]) -> tuple[HDRImage, ...]:
        """Convenience: batched run returning only the output images."""
        return self.run(images).outputs
